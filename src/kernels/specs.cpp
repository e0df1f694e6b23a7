#include "kernels/specs.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace csdml::kernels {

using hls::AxiTransferSpec;
using hls::BufferBinding;
using hls::KernelSpec;
using hls::LocalBufferSpec;
using hls::LoopOp;
using hls::LoopSpec;
using hls::OpKind;

const char* optimization_name(OptimizationLevel level) {
  switch (level) {
    case OptimizationLevel::Vanilla: return "vanilla";
    case OptimizationLevel::II: return "ii";
    case OptimizationLevel::FixedPoint: return "fixed-point";
  }
  throw PreconditionError("unknown optimization level");
}

namespace {

constexpr std::uint32_t kWordBytes = 4;  // float32 / scaled int32 words

bool optimized(OptimizationLevel level) {
  return level != OptimizationLevel::Vanilla;
}

bool fixed_point(OptimizationLevel level) {
  return level == OptimizationLevel::FixedPoint;
}

}  // namespace

namespace {

/// A pipelined register-to-register FIFO hand-off of `words` 32-bit words
/// (the streaming port of Section III-C).
LoopSpec stream_io_loop(const std::string& name, std::uint64_t words) {
  LoopSpec loop;
  loop.name = name;
  loop.trip_count = words;
  loop.body_ops = {LoopOp{OpKind::Select, 1}};
  loop.buffer_accesses = 1;
  loop.binding = BufferBinding::Registers;
  loop.pragmas.pipeline = true;
  loop.pragmas.target_ii = 1;
  return loop;
}

}  // namespace

KernelSpec make_preprocess_spec(const nn::LstmConfig& config,
                                OptimizationLevel level,
                                std::uint32_t gate_cu_count, KernelLink link) {
  CSDML_REQUIRE(gate_cu_count >= 1, "need at least one gate CU");
  KernelSpec spec;
  spec.name = "kernel_preprocess";

  // Embedding table stays on-chip after host initialisation.
  spec.buffers.push_back(LocalBufferSpec{
      .name = "embedding",
      .size = Bytes{static_cast<std::uint64_t>(config.vocab_size) *
                    config.embed_dim * kWordBytes},
      .binding = BufferBinding::Bram});

  // Gather the one-hot dot product row (paper Section III-B): embed_dim
  // words copied from the table into the outgoing item buffer.
  LoopSpec gather;
  gather.name = "embedding_gather";
  gather.trip_count = config.embed_dim;
  gather.body_ops = {LoopOp{OpKind::IntAdd, 1}};  // address arithmetic
  gather.buffer_accesses = 2;                     // table read + buffer write
  gather.binding = BufferBinding::Bram;
  gather.memory_ports = 2;
  if (optimized(level)) {
    gather.pragmas.pipeline = true;
    gather.pragmas.target_ii = 1;
    gather.pragmas.array_partition_complete = fixed_point(level);
  }
  spec.loops.push_back(gather);

  // One AXI read of the item id stays off-chip in both link modes; the
  // x_t copies ("each CU has its own copies", Section III-C) go over DDR
  // or, in streaming mode, over direct kernel-to-kernel FIFOs.
  const Bytes item_bytes{static_cast<std::uint64_t>(config.embed_dim) * kWordBytes};
  spec.transfers.push_back(AxiTransferSpec{"item_fetch", item_bytes, 1.0});
  if (link == KernelLink::AxiMemory) {
    for (std::uint32_t cu = 0; cu < gate_cu_count; ++cu) {
      spec.transfers.push_back(
          AxiTransferSpec{"x_copy_cu" + std::to_string(cu), item_bytes, 1.0});
    }
  } else {
    spec.loops.push_back(stream_io_loop(
        "x_stream_out", static_cast<std::uint64_t>(config.embed_dim) * gate_cu_count));
  }
  return spec;
}

KernelSpec make_gates_spec(const nn::LstmConfig& config, OptimizationLevel level,
                           KernelLink link) {
  KernelSpec spec;
  spec.name = "kernel_gates";
  // Section III-C: DATAFLOW inside the CUs overlaps the output write with
  // the MAC pipeline.
  spec.dataflow = true;

  const auto macs =
      static_cast<std::uint32_t>(config.embed_dim + config.hidden_dim);

  spec.buffers.push_back(LocalBufferSpec{
      .name = "gate_weights",
      .size = Bytes{static_cast<std::uint64_t>(macs) * config.hidden_dim *
                    kWordBytes},
      .binding = fixed_point(level) ? BufferBinding::Registers
                                    : BufferBinding::Bram});

  LoopSpec outputs;
  outputs.name = "gate_outputs";
  outputs.trip_count = config.hidden_dim;
  if (fixed_point(level)) {
    // Scaled-integer MACs on DSP slices + PLAN sigmoid (shifts/compares)
    // or integer softsign (one bounded divide).
    outputs.body_ops = {LoopOp{OpKind::IntMul, macs}, LoopOp{OpKind::IntAdd, macs},
                        LoopOp{OpKind::IntCmp, 3}, LoopOp{OpKind::Shift, 2},
                        LoopOp{OpKind::Select, 2}};
  } else {
    // Float MACs + float sigmoid (exp then divide).
    outputs.body_ops = {LoopOp{OpKind::FloatMul, macs}, LoopOp{OpKind::FloatAdd, macs},
                        LoopOp{OpKind::FloatExp, 1}, LoopOp{OpKind::FloatDiv, 1}};
  }
  // Per output: `macs` weight reads plus `macs` x/h reads.
  outputs.buffer_accesses = 2 * macs;
  outputs.binding = BufferBinding::Bram;
  // HLS maps the weight array across banked BRAMs; 8 effective ports.
  outputs.memory_ports = 8;
  // Small regular loop: auto-pipelines even without the pragma.
  outputs.pragmas.pipeline = true;
  outputs.pragmas.target_ii = 1;
  if (optimized(level)) {
    // Unroll factor 2: factor 4 would need ~3,200 DSPs across the four
    // float CUs — more than the KU15P has (the resource constraint the
    // paper's Limitations section warns about).
    outputs.pragmas.unroll = 2;
    outputs.pragmas.array_partition_complete = true;
  }
  spec.loops.push_back(outputs);

  // Result vector to kernel_hidden_state (overlapped by DATAFLOW).
  if (link == KernelLink::AxiMemory) {
    spec.transfers.push_back(AxiTransferSpec{
        "gate_out",
        Bytes{static_cast<std::uint64_t>(config.hidden_dim) * kWordBytes}, 1.0});
  } else {
    spec.loops.push_back(stream_io_loop("gate_stream_out", config.hidden_dim));
  }
  return spec;
}

KernelSpec make_hidden_state_spec(const nn::LstmConfig& config,
                                  OptimizationLevel level,
                                  std::uint32_t gate_cu_count, KernelLink link) {
  CSDML_REQUIRE(gate_cu_count >= 1, "need at least one gate CU");
  KernelSpec spec;
  spec.name = "kernel_hidden_state";

  // C_t lives entirely inside this kernel (Section III-B).
  spec.buffers.push_back(LocalBufferSpec{
      .name = "cell_state",
      .size = Bytes{static_cast<std::uint64_t>(config.hidden_dim) * kWordBytes},
      .binding = BufferBinding::Bram});
  spec.buffers.push_back(LocalBufferSpec{
      .name = "dense_weights",
      .size = Bytes{static_cast<std::uint64_t>(config.hidden_dim + 1) * kWordBytes},
      .binding = BufferBinding::Bram});

  LoopSpec update;
  update.name = "cell_update";
  update.trip_count = config.hidden_dim;
  if (fixed_point(level)) {
    // C = f*C + i*C'; h = o * softsign(C): three DSP multiplies, one add,
    // one bounded integer divide for softsign.
    update.body_ops = {LoopOp{OpKind::IntMul, 3}, LoopOp{OpKind::IntAdd, 2},
                       LoopOp{OpKind::IntDiv, 1}};
  } else {
    update.body_ops = {LoopOp{OpKind::FloatMul, 3}, LoopOp{OpKind::FloatAdd, 2},
                       LoopOp{OpKind::FloatDiv, 1}};
  }
  // Reads i, f, o, C', C; writes C and h.
  update.buffer_accesses = 7;
  update.binding = BufferBinding::Bram;
  update.memory_ports = 2;
  if (optimized(level)) {
    update.pragmas.pipeline = true;
    update.pragmas.target_ii = 1;
    // Only the fixed-point build partitions the state buffers completely;
    // in the float build the wide operands keep them in banked BRAM.
    update.pragmas.array_partition_complete = fixed_point(level);
  }
  // Vanilla: the static item counter and the conditional final dense layer
  // keep this loop from auto-pipelining — the effect the II bar of Fig. 3
  // then removes.
  spec.loops.push_back(update);

  // Gate vectors in from each CU, h_t copies back out to each CU, plus the
  // (tiny) classification word written when the sequence completes. In
  // streaming mode the vector traffic rides kernel-to-kernel FIFOs and
  // only the prediction leaves the fabric.
  const Bytes vec_bytes{static_cast<std::uint64_t>(config.hidden_dim) * kWordBytes};
  if (link == KernelLink::AxiMemory) {
    for (std::uint32_t cu = 0; cu < gate_cu_count; ++cu) {
      spec.transfers.push_back(
          AxiTransferSpec{"gate_in_cu" + std::to_string(cu), vec_bytes, 1.0});
      spec.transfers.push_back(
          AxiTransferSpec{"h_copy_cu" + std::to_string(cu), vec_bytes, 1.0});
    }
  } else {
    spec.loops.push_back(stream_io_loop(
        "state_stream_io",
        static_cast<std::uint64_t>(config.hidden_dim) * (gate_cu_count + 1)));
  }
  spec.transfers.push_back(AxiTransferSpec{"prediction_out", Bytes{kWordBytes}, 1.0});
  return spec;
}

bool gates_reports_amortized_ii(OptimizationLevel level) {
  return level == OptimizationLevel::FixedPoint;
}

LstmKernelSpecs make_kernel_specs(const nn::LstmConfig& config,
                                  OptimizationLevel level,
                                  std::uint32_t gate_cu_count, KernelLink link) {
  return LstmKernelSpecs{
      .level = level,
      .gate_cu_count = gate_cu_count,
      .preprocess = make_preprocess_spec(config, level, gate_cu_count, link),
      .gates = make_gates_spec(config, level, link),
      .hidden_state = make_hidden_state_spec(config, level, gate_cu_count, link)};
}

KernelTimings kernel_timings(const hls::HlsCostModel& model,
                             const LstmKernelSpecs& specs) {
  const Frequency clock = model.clock();
  KernelTimings timings;
  timings.preprocess = clock.duration_of(model.analyze(specs.preprocess).total);

  // The four gate vectors are computed by `gate_cu_count` parallel CUs; with
  // fewer CUs than gates, the CUs run ceil(4 / count) rounds.
  const std::uint32_t rounds =
      (static_cast<std::uint32_t>(nn::kNumGates) + specs.gate_cu_count - 1) /
      specs.gate_cu_count;
  const hls::KernelReport gates = model.analyze(specs.gates);
  if (gates_reports_amortized_ii(specs.level)) {
    // Steady state: the fully partitioned pipeline accepts a new item every
    // II cycles (see specs.hpp).
    const std::uint64_t ii = gates.loops.empty() ? 1 : gates.loops.front().achieved_ii;
    timings.gates = clock.duration_of(Cycles{std::max<std::uint64_t>(ii, 1)}) *
                    static_cast<std::int64_t>(rounds);
  } else {
    timings.gates = clock.duration_of(gates.total) * static_cast<std::int64_t>(rounds);
  }
  timings.hidden_state = clock.duration_of(model.analyze(specs.hidden_state).total);
  return timings;
}

KernelTimings kernel_timings(const hls::HlsCostModel& model,
                             const nn::LstmConfig& config, OptimizationLevel level,
                             std::uint32_t gate_cu_count, KernelLink link) {
  return kernel_timings(model, make_kernel_specs(config, level, gate_cu_count, link));
}

}  // namespace csdml::kernels
