#include "xrt/runtime.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/span_trace.hpp"

namespace csdml::xrt {

hls::ResourceEstimate Xclbin::total_resources() const {
  hls::ResourceEstimate total;
  for (const auto& [name, spec] : kernels) {
    total += hls::estimate_resources(spec);
  }
  return total;
}

void BufferObject::write(const std::vector<std::uint8_t>& data) {
  CSDML_REQUIRE(data.size() <= size_, "write exceeds buffer size");
  std::copy(data.begin(), data.end(), host_.begin());
}

void BufferObject::sync_to_device() {
  const TimePoint start = device_->now_;
  obs::SpanTrace& spans = device_->board_.span_trace();
  const bool traced = spans.enabled() && spans.in_trace();
  const obs::SpanId span =
      traced ? spans.begin_span("xrt.sync_to_device", start) : 0;
  const csd::TransferResult result = device_->board_.host_write_to_fpga(
      host_, bank_, offset_, start);
  device_->advance_to(result.done);
  if (traced) spans.end_span(span, result.done);
  obs::MetricsRegistry& metrics = obs::registry();
  metrics.add_counter("xrt.bo_syncs_to_device");
  metrics.add_counter("xrt.pcie_to_device_bytes", size_);
}

void BufferObject::sync_from_device() {
  const TimePoint start = device_->now_;
  obs::SpanTrace& spans = device_->board_.span_trace();
  const bool traced = spans.enabled() && spans.in_trace();
  const obs::SpanId span =
      traced ? spans.begin_span("xrt.sync_from_device", start) : 0;
  const csd::IoResult result = device_->board_.host_read_from_fpga(
      bank_, offset_, size_, start);
  host_ = result.data;
  device_->advance_to(result.done);
  if (traced) spans.end_span(span, result.done);
  obs::MetricsRegistry& metrics = obs::registry();
  metrics.add_counter("xrt.bo_syncs_from_device");
  metrics.add_counter("xrt.pcie_from_device_bytes", size_);
}

Device::Device(csd::SmartSsd& board, hls::HlsCostModel model)
    : board_(board), model_(model),
      bank_cursor_(board.fpga().bank_count(), 0) {}

void Device::advance_to(TimePoint t) {
  if (t > now_) now_ = t;
}

void Device::load_xclbin(const Xclbin& xclbin) {
  board_.fpga().place(xclbin.name, xclbin.total_resources());
  CSDML_LOG_INFO("xrt") << "loaded xclbin '" << xclbin.name << "', fpga utilization "
                        << board_.fpga().utilization();
}

BufferObject Device::alloc_bo(std::size_t size, std::uint32_t bank) {
  CSDML_REQUIRE(size > 0, "zero-size buffer object");
  CSDML_REQUIRE(bank < bank_cursor_.size(), "bank index out of range");
  const std::uint64_t capacity = board_.fpga().bank(bank).config().capacity.count;
  // 4 KiB-aligned bump allocation, mirroring XRT's page-aligned BOs.
  const std::uint64_t aligned = (bank_cursor_[bank] + 4095) & ~std::uint64_t{4095};
  if (aligned + size > capacity) {
    throw ResourceError("DDR bank " + std::to_string(bank) + " exhausted");
  }
  bank_cursor_[bank] = aligned + size;
  return BufferObject(this, size, bank, aligned);
}

}  // namespace csdml::xrt
