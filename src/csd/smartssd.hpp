// The assembled SmartSSD (paper Fig. 1): PM1733-class SSD + KU15P-class
// FPGA joined by an onboard PCIe switch. The two data paths the paper
// contrasts are both first-class:
//
//   * P2P:  SSD --switch--> FPGA DRAM            (never touches the host)
//   * host: SSD --switch--> host RC --switch--> FPGA DRAM (twice the PCIe
//           crossings plus a host DRAM staging copy)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "csd/fpga_device.hpp"
#include "csd/pcie.hpp"
#include "csd/ssd.hpp"
#include "obs/span_trace.hpp"

namespace csdml::faults {
class FaultPlan;
}

namespace csdml::csd {

struct SmartSsdConfig {
  SsdConfig ssd{};
  FpgaConfig fpga{};
  PcieLinkConfig upstream{};   ///< device <-> host
  PcieLinkConfig internal{};   ///< SSD <-> FPGA through the switch
  Duration host_stage_copy_overhead{Duration::microseconds(2)};  ///< kernel buffer mgmt
  /// Board identity in a multi-board fleet (e.g. "board2"); empty for the
  /// single-board deployments, where nothing needs disambiguating.
  std::string label{};
};

struct TransferResult {
  TimePoint done;
  Bytes bytes;
};

class SmartSsd {
 public:
  explicit SmartSsd(SmartSsdConfig config);

  const std::string& label() const { return config_.label; }
  SsdController& ssd() { return ssd_; }
  FpgaDevice& fpga() { return fpga_; }
  const FpgaDevice& fpga() const { return fpga_; }
  PcieSwitch& pcie() { return switch_; }
  /// The board's one span recorder: request-scoped causal spans for
  /// everything that flows through it (detector -> engine -> transfers ->
  /// kernels). Device events record into it only while a trace is open, so
  /// init-time staging and weight adopts stay out.
  obs::SpanTrace& span_trace() { return span_trace_; }

  /// P2P read: NAND -> switch -> FPGA DDR `bank` at `bank_offset`.
  TransferResult p2p_read_to_fpga(std::uint64_t lba, std::uint32_t block_count,
                                  std::uint32_t bank, std::uint64_t bank_offset,
                                  TimePoint at);

  /// Host-mediated read: NAND -> host DRAM -> FPGA DDR. Models the
  /// traditional accelerator flow the paper's P2P path avoids.
  TransferResult host_read_to_fpga(std::uint64_t lba, std::uint32_t block_count,
                                   std::uint32_t bank, std::uint64_t bank_offset,
                                   TimePoint at);

  /// Host writes raw bytes (weights, sequences) straight into FPGA DDR.
  TransferResult host_write_to_fpga(const std::vector<std::uint8_t>& data,
                                    std::uint32_t bank, std::uint64_t bank_offset,
                                    TimePoint at);

  /// Host reads back a region of FPGA DDR (e.g. predictions).
  IoResult host_read_from_fpga(std::uint32_t bank, std::uint64_t bank_offset,
                               std::size_t size, TimePoint at);

  /// Attaches a fault plan to the whole board: NAND read disturbs plus
  /// single-bit corruption on every PCIe payload crossing the switch.
  /// The plan is not owned and must outlive the board (or be detached
  /// with nullptr).
  void set_fault_plan(faults::FaultPlan* plan);
  faults::FaultPlan* fault_plan() const { return fault_plan_; }

 private:
  /// Consults the plan for a PCIe corruption and, when injected, flips
  /// one plan-chosen bit of `data` in place.
  void maybe_corrupt(std::vector<std::uint8_t>& data);

  faults::FaultPlan* fault_plan_{nullptr};
  SmartSsdConfig config_;
  SsdController ssd_;
  FpgaDevice fpga_;
  PcieSwitch switch_;
  obs::SpanTrace span_trace_;
};

}  // namespace csdml::csd
