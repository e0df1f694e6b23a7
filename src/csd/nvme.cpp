#include "csd/nvme.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "faults/fault_plan.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"

namespace csdml::csd {

namespace {

const char* opcode_name(NvmeOpcode opcode) {
  switch (opcode) {
    case NvmeOpcode::Read: return "read";
    case NvmeOpcode::Write: return "write";
    case NvmeOpcode::Flush: return "flush";
    case NvmeOpcode::FpgaDmaWrite: return "fpga_dma_write";
    case NvmeOpcode::FpgaDmaRead: return "fpga_dma_read";
    case NvmeOpcode::FpgaP2pLoad: return "fpga_p2p_load";
    case NvmeOpcode::FpgaCompute: return "fpga_compute";
  }
  return "unknown";
}

}  // namespace

const char* nvme_status_name(NvmeStatus status) {
  switch (status) {
    case NvmeStatus::Ok: return "ok";
    case NvmeStatus::TimedOut: return "timed_out";
    case NvmeStatus::CompletionLost: return "completion_lost";
  }
  return "unknown";
}

NvmeQueue::NvmeQueue(SmartSsd& device, NvmeQueueConfig config)
    : device_(device), config_(config) {
  CSDML_REQUIRE(config_.queue_depth > 0, "queue depth must be positive");
}

void NvmeQueue::submit(NvmeCommand command, TimePoint at) {
  if (inflight_.size() >= config_.queue_depth) {
    throw ResourceError("NVMe submission queue full (depth " +
                        std::to_string(config_.queue_depth) + ")");
  }
  const TimePoint start = at + config_.doorbell_latency;
  obs::MetricsRegistry& metrics = obs::registry();
  metrics.add_counter("nvme.commands_submitted");
  metrics.add_counter(std::string("nvme.opcode.") + opcode_name(command.opcode));
  if (command.opcode == NvmeOpcode::Read ||
      command.opcode == NvmeOpcode::FpgaP2pLoad) {
    metrics.add_counter("nvme.read_blocks", command.block_count);
  } else if (command.opcode == NvmeOpcode::Write) {
    metrics.add_counter("nvme.write_bytes", command.payload.size());
  }

  obs::SpanTrace& spans = device_.span_trace();
  const bool traced = spans.enabled() && spans.in_trace();
  const std::string span_name =
      std::string("nvme.") + opcode_name(command.opcode);

  faults::FaultPlan* plan = device_.fault_plan();
  if (plan != nullptr &&
      plan->should_inject(faults::FaultKind::NvmeTimeout)) {
    // The command never makes progress; the host notices only once its
    // timeout expires. No device work is modelled.
    plan->note_detail(command.command_id);
    NvmeCompletion timed_out;
    timed_out.command_id = command.command_id;
    timed_out.success = false;
    timed_out.status = NvmeStatus::TimedOut;
    timed_out.completed_at = start + config_.command_timeout;
    if (traced) {
      const obs::SpanId span = spans.begin_span(span_name, start);
      spans.tag(span, "fault", "nvme_timeout");
      spans.tag(span, "status", nvme_status_name(timed_out.status));
      spans.end_span(span, timed_out.completed_at);
    }
    obs::FlightRecorder::instance().record(
        obs::FlightEventKind::Fault, "nvme", "timeout", start,
        spans.current_trace(), command.command_id);
    inflight_.push_back(std::move(timed_out));
    return;
  }
  const obs::SpanId span = traced ? spans.begin_span(span_name, start) : 0;
  NvmeCompletion completion = execute(command, start);
  if (plan != nullptr &&
      plan->should_inject(faults::FaultKind::NvmeDroppedCompletion)) {
    // Device work happened (time already advanced inside execute), but
    // the CQE is lost: the host sees a failure after its timeout.
    plan->note_detail(command.command_id);
    completion.success = false;
    completion.status = NvmeStatus::CompletionLost;
    completion.data.clear();
    completion.completed_at = completion.completed_at + config_.command_timeout;
    if (traced) {
      spans.tag(span, "fault", "nvme_dropped_completion");
      spans.tag(span, "status", nvme_status_name(completion.status));
    }
    obs::FlightRecorder::instance().record(
        obs::FlightEventKind::Fault, "nvme", "dropped_completion", start,
        spans.current_trace(), command.command_id);
  }
  if (traced) spans.end_span(span, completion.completed_at);
  inflight_.push_back(std::move(completion));
}

NvmeCompletion NvmeQueue::execute(const NvmeCommand& command, TimePoint start) {
  NvmeCompletion completion;
  completion.command_id = command.command_id;
  TimePoint done = start;
  switch (command.opcode) {
    case NvmeOpcode::Read: {
      CSDML_REQUIRE(command.block_count > 0, "read needs blocks");
      IoResult io = device_.ssd().read(command.lba, command.block_count, start);
      completion.data = std::move(io.data);
      done = io.done;
      break;
    }
    case NvmeOpcode::Write: {
      CSDML_REQUIRE(!command.payload.empty(), "write needs payload");
      done = device_.ssd().write(command.lba, command.payload, start);
      break;
    }
    case NvmeOpcode::Flush:
      done = start + Duration::microseconds(50);  // firmware cache flush
      break;
    case NvmeOpcode::FpgaDmaWrite: {
      CSDML_REQUIRE(!command.payload.empty(), "DMA write needs payload");
      const TransferResult result = device_.host_write_to_fpga(
          command.payload, command.bank, command.bank_offset, start);
      done = result.done;
      break;
    }
    case NvmeOpcode::FpgaDmaRead: {
      CSDML_REQUIRE(command.read_size > 0, "DMA read needs size");
      IoResult io = device_.host_read_from_fpga(command.bank, command.bank_offset,
                                                command.read_size, start);
      completion.data = std::move(io.data);
      done = io.done;
      break;
    }
    case NvmeOpcode::FpgaP2pLoad: {
      CSDML_REQUIRE(command.block_count > 0, "P2P load needs blocks");
      const TransferResult result = device_.p2p_read_to_fpga(
          command.lba, command.block_count, command.bank, command.bank_offset,
          start);
      done = result.done;
      break;
    }
    case NvmeOpcode::FpgaCompute: {
      CSDML_REQUIRE(command.compute_time.picos > 0, "compute needs a duration");
      done = start + command.compute_time;
      obs::record_span(device_.span_trace(), "nvme_compute", start, done);
      break;
    }
  }
  completion.completed_at = done + config_.completion_latency;
  return completion;
}

void NvmeQueue::account(const NvmeCompletion& completion) {
  ++completed_count_;
  obs::MetricsRegistry& metrics = obs::registry();
  metrics.add_counter("nvme.commands_completed");
  if (!completion.success) {
    ++failed_count_;
    metrics.add_counter("nvme.commands_failed");
    metrics.add_counter(std::string("nvme.failed.") +
                        nvme_status_name(completion.status));
  }
}

std::optional<NvmeCompletion> NvmeQueue::reap(TimePoint now) {
  if (inflight_.empty() || inflight_.front().completed_at > now) {
    return std::nullopt;
  }
  NvmeCompletion completion = std::move(inflight_.front());
  inflight_.pop_front();
  account(completion);
  return completion;
}

NvmeCompletion NvmeQueue::wait_oldest() {
  CSDML_REQUIRE(!inflight_.empty(), "nothing outstanding");
  NvmeCompletion completion = std::move(inflight_.front());
  inflight_.pop_front();
  account(completion);
  return completion;
}

}  // namespace csdml::csd
