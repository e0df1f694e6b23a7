#include "csd/smartssd.hpp"

#include "faults/fault_plan.hpp"

namespace csdml::csd {

SmartSsd::SmartSsd(SmartSsdConfig config)
    : config_(config),
      ssd_(config.ssd),
      fpga_(config.fpga),
      switch_(config.upstream, config.internal) {}

void SmartSsd::set_fault_plan(faults::FaultPlan* plan) {
  fault_plan_ = plan;
  ssd_.set_fault_plan(plan);
}

void SmartSsd::maybe_corrupt(std::vector<std::uint8_t>& data) {
  if (fault_plan_ == nullptr || data.empty()) return;
  if (!fault_plan_->should_inject(faults::FaultKind::PcieCorruption)) return;
  const std::uint64_t bit = fault_plan_->draw_detail(data.size() * 8);
  data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
}

TransferResult SmartSsd::p2p_read_to_fpga(std::uint64_t lba,
                                          std::uint32_t block_count,
                                          std::uint32_t bank,
                                          std::uint64_t bank_offset, TimePoint at) {
  IoResult io = ssd_.read(lba, block_count, at);
  maybe_corrupt(io.data);
  const Bytes bytes{io.data.size()};
  const TimePoint switched = switch_.peer_to_peer(bytes, io.done);
  const TimePoint landed = fpga_.bank(bank).access(bytes, switched);
  fpga_.bank(bank).store(bank_offset, io.data);
  obs::record_span(span_trace_, "p2p_read", at, landed);
  return TransferResult{landed, bytes};
}

TransferResult SmartSsd::host_read_to_fpga(std::uint64_t lba,
                                           std::uint32_t block_count,
                                           std::uint32_t bank,
                                           std::uint64_t bank_offset, TimePoint at) {
  IoResult io = ssd_.read(lba, block_count, at);
  maybe_corrupt(io.data);
  const Bytes bytes{io.data.size()};
  // Leg 1: device -> host root complex.
  const TimePoint at_host = switch_.to_host(bytes, io.done);
  // Host staging: page-cache/bounce-buffer management.
  const TimePoint staged = at_host + config_.host_stage_copy_overhead;
  // Leg 2: host -> FPGA DDR through the same upstream link, then the bank.
  const TimePoint back_down = switch_.from_host(bytes, staged);
  const TimePoint landed = fpga_.bank(bank).access(bytes, back_down);
  fpga_.bank(bank).store(bank_offset, io.data);
  obs::record_span(span_trace_, "host_read", at, landed);
  return TransferResult{landed, bytes};
}

TransferResult SmartSsd::host_write_to_fpga(const std::vector<std::uint8_t>& data,
                                            std::uint32_t bank,
                                            std::uint64_t bank_offset, TimePoint at) {
  const Bytes bytes{data.size()};
  const TimePoint arrived = switch_.from_host(bytes, at);
  const TimePoint landed = fpga_.bank(bank).access(bytes, arrived);
  if (fault_plan_ != nullptr) {
    std::vector<std::uint8_t> staged = data;
    maybe_corrupt(staged);
    fpga_.bank(bank).store(bank_offset, staged);
  } else {
    fpga_.bank(bank).store(bank_offset, data);
  }
  obs::record_span(span_trace_, "host_write_fpga", at, landed);
  return TransferResult{landed, bytes};
}

IoResult SmartSsd::host_read_from_fpga(std::uint32_t bank, std::uint64_t bank_offset,
                                       std::size_t size, TimePoint at) {
  IoResult result;
  result.data = fpga_.bank(bank).load(bank_offset, size);
  maybe_corrupt(result.data);
  const Bytes bytes{size};
  const TimePoint fetched = fpga_.bank(bank).access(bytes, at);
  result.done = switch_.to_host(bytes, fetched);
  obs::record_span(span_trace_, "host_read_fpga", at, result.done);
  return result;
}

}  // namespace csdml::csd
