// A miniature Xilinx-Runtime-shaped host API over the simulated SmartSSD.
//
// The paper's host program follows the standard XRT flow: open the device,
// load the .xclbin, allocate buffer objects on DDR banks, sync them, and
// launch kernels. This module reproduces the device / xclbin / buffer part
// of that flow with simulated time instead of real hardware, so host code
// written against it reads like real XRT host code; the engine charges the
// kernels' own time from their cost-model timings (kernels/specs.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "csd/smartssd.hpp"
#include "hls/cost_model.hpp"
#include "hls/kernel_spec.hpp"
#include "hls/resources.hpp"

namespace csdml::xrt {

/// A compiled FPGA binary: named kernels plus their synthesized footprint.
struct Xclbin {
  std::string name;
  std::map<std::string, hls::KernelSpec> kernels;

  hls::ResourceEstimate total_resources() const;
};

class Device;

/// Device-resident buffer: functional bytes live in the chosen DDR bank;
/// sync operations charge PCIe + DDR time.
class BufferObject {
 public:
  std::size_t size() const { return size_; }
  std::uint32_t bank() const { return bank_; }
  std::uint64_t device_offset() const { return offset_; }

  /// Host-side staging write (no simulated time; host memory is free).
  void write(const std::vector<std::uint8_t>& data);
  /// Host-side staging read of the last synced-from-device content.
  const std::vector<std::uint8_t>& host_view() const { return host_; }

  /// XCL_BO_SYNC_BO_TO_DEVICE: host -> PCIe -> bank.
  void sync_to_device();
  /// XCL_BO_SYNC_BO_FROM_DEVICE: bank -> PCIe -> host.
  void sync_from_device();

 private:
  friend class Device;
  BufferObject(Device* device, std::size_t size, std::uint32_t bank,
               std::uint64_t offset)
      : device_(device), size_(size), bank_(bank), offset_(offset),
        host_(size, 0) {}

  Device* device_;
  std::size_t size_;
  std::uint32_t bank_;
  std::uint64_t offset_;
  std::vector<std::uint8_t> host_;
};

/// The opened SmartSSD seen through the runtime.
class Device {
 public:
  explicit Device(csd::SmartSsd& board,
                  hls::HlsCostModel model = hls::HlsCostModel::ultrascale_default());

  csd::SmartSsd& board() { return board_; }
  const hls::HlsCostModel& cost_model() const { return model_; }

  /// Host-visible logical time cursor.
  TimePoint now() const { return now_; }
  void advance_to(TimePoint t);

  /// Loads an xclbin: places its resources on the FPGA (throws
  /// ResourceError if it does not fit).
  void load_xclbin(const Xclbin& xclbin);

  /// Allocates a buffer object on `bank` (bump allocation).
  BufferObject alloc_bo(std::size_t size, std::uint32_t bank);

 private:
  friend class BufferObject;

  csd::SmartSsd& board_;
  hls::HlsCostModel model_;
  TimePoint now_{};
  std::vector<std::uint64_t> bank_cursor_;
};

}  // namespace csdml::xrt
