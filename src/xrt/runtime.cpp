#include "xrt/runtime.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/log.hpp"
#include "faults/fault_plan.hpp"
#include "obs/flight_recorder.hpp"
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

Duration Kernel::latency() const {
  return analyze().duration(device_->model_.clock());
}

hls::KernelReport Kernel::analyze() const { return device_->model_.analyze(spec_); }

TimePoint Kernel::launch(TimePoint at) {
  CSDML_REQUIRE(at >= TimePoint{}, "launch before simulation start");
  obs::SpanTrace& spans = device_->board_.span_trace();
  faults::FaultPlan* plan = device_->board_.fault_plan();
  if (plan != nullptr &&
      plan->should_inject(faults::FaultKind::XrtLaunchFailure)) {
    obs::registry().add_counter("xrt.kernel_launch_faults");
    // Zero-length span marks the failed attempt in the request tree.
    if (spans.enabled() && spans.in_trace()) {
      const obs::SpanId span = spans.begin_span(spec_.name, at);
      spans.tag(span, "fault", "xrt_launch_injected");
      spans.end_span(span, at);
    }
    obs::FlightRecorder::instance().record(
        obs::FlightEventKind::Fault, "xrt", spec_.name.c_str(), at,
        spans.current_trace());
    throw faults::FaultInjectedError("kernel '" + spec_.name +
                                     "' launch failed (injected)");
  }
  const Duration latency = this->latency();
  const TimePoint end = at + latency;
  obs::record_span(spans, spec_.name, at, end);
  device_->advance_to(end);
  obs::MetricsRegistry& metrics = obs::registry();
  metrics.add_counter("xrt.kernel_launches");
  metrics.observe("xrt.kernel_launch_us", latency.as_microseconds());
  return end;
}

TimePoint Kernel::launch() { return launch(device_->now_); }

Device::Device(csd::SmartSsd& board, hls::HlsCostModel model)
    : board_(board), model_(model),
      bank_cursor_(board.fpga().bank_count(), 0) {}

void Device::advance_to(TimePoint t) {
  if (t > now_) now_ = t;
}

void Device::load_xclbin(const Xclbin& xclbin) {
  board_.fpga().place(xclbin.name, xclbin.total_resources());
  for (const auto& [name, spec] : xclbin.kernels) {
    const auto [it, inserted] = kernels_.insert_or_assign(name, spec);
    (void)it;
    if (!inserted) {
      CSDML_LOG_WARN("xrt") << "kernel '" << name << "' replaced by " << xclbin.name;
    }
  }
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

Kernel Device::kernel(const std::string& name) const {
  const auto it = kernels_.find(name);
  if (it == kernels_.end()) {
    throw PreconditionError("kernel '" + name + "' not in any loaded xclbin");
  }
  return Kernel(const_cast<Device*>(this), it->second);
}

}  // namespace csdml::xrt
