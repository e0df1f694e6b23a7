#include "csd/nvme.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace csdml::csd {
namespace {

struct NvmeFixture {
  SmartSsd board{SmartSsdConfig{}};
  NvmeQueue queue{board, NvmeQueueConfig{}};
};

TEST(Nvme, WriteThenReadRoundTrips) {
  NvmeFixture f;
  std::vector<std::uint8_t> payload(8192);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7);
  }
  NvmeCommand write;
  write.opcode = NvmeOpcode::Write;
  write.command_id = 1;
  write.lba = 100;
  write.payload = payload;
  f.queue.submit(write, TimePoint{});
  const NvmeCompletion write_done = f.queue.wait_oldest();
  EXPECT_TRUE(write_done.success);
  EXPECT_EQ(write_done.command_id, 1);

  NvmeCommand read;
  read.opcode = NvmeOpcode::Read;
  read.command_id = 2;
  read.lba = 100;
  read.block_count = 2;
  f.queue.submit(read, write_done.completed_at);
  const NvmeCompletion read_done = f.queue.wait_oldest();
  EXPECT_EQ(read_done.command_id, 2);
  ASSERT_EQ(read_done.data.size(), payload.size());
  EXPECT_EQ(read_done.data, payload);
  EXPECT_GT(read_done.completed_at.picos, write_done.completed_at.picos);
}

TEST(Nvme, CompletionIncludesDoorbellAndInterruptLatency) {
  NvmeFixture f;
  NvmeCommand flush;
  flush.opcode = NvmeOpcode::Flush;
  f.queue.submit(flush, TimePoint{});
  const NvmeCompletion done = f.queue.wait_oldest();
  const NvmeQueueConfig config;
  const Duration floor = config.doorbell_latency + Duration::microseconds(50) +
                         config.completion_latency;
  EXPECT_EQ((done.completed_at - TimePoint{}).picos, floor.picos);
}

TEST(Nvme, QueueDepthEnforced) {
  SmartSsd board{SmartSsdConfig{}};
  NvmeQueueConfig config;
  config.queue_depth = 2;
  NvmeQueue queue(board, config);
  NvmeCommand flush;
  flush.opcode = NvmeOpcode::Flush;
  queue.submit(flush, TimePoint{});
  queue.submit(flush, TimePoint{});
  EXPECT_EQ(queue.outstanding(), 2u);
  EXPECT_THROW(queue.submit(flush, TimePoint{}), ResourceError);
  queue.wait_oldest();
  queue.submit(flush, TimePoint{});  // room again
  EXPECT_EQ(queue.completed_count(), 1u);
}

TEST(Nvme, ReapOnlyReturnsFinishedCommands) {
  NvmeFixture f;
  NvmeCommand read;
  read.opcode = NvmeOpcode::Read;
  read.block_count = 1;
  f.queue.submit(read, TimePoint{});
  // NAND reads take ~70 us; nothing is ready after 1 us.
  EXPECT_FALSE(f.queue.reap(TimePoint{} + Duration::microseconds(1)).has_value());
  EXPECT_TRUE(
      f.queue.reap(TimePoint{} + Duration::microseconds(10'000)).has_value());
  EXPECT_FALSE(
      f.queue.reap(TimePoint{} + Duration::microseconds(10'000)).has_value());
}

TEST(Nvme, FpgaDmaCommandsMoveData) {
  NvmeFixture f;
  NvmeCommand dma_write;
  dma_write.opcode = NvmeOpcode::FpgaDmaWrite;
  dma_write.bank = 1;
  dma_write.bank_offset = 512;
  dma_write.payload = {5, 6, 7, 8};
  f.queue.submit(dma_write, TimePoint{});
  const NvmeCompletion write_done = f.queue.wait_oldest();

  NvmeCommand dma_read;
  dma_read.opcode = NvmeOpcode::FpgaDmaRead;
  dma_read.bank = 1;
  dma_read.bank_offset = 512;
  dma_read.read_size = 4;
  f.queue.submit(dma_read, write_done.completed_at);
  const NvmeCompletion read_done = f.queue.wait_oldest();
  EXPECT_EQ(read_done.data, (std::vector<std::uint8_t>{5, 6, 7, 8}));
}

TEST(Nvme, P2pLoadLandsInFpgaDram) {
  NvmeFixture f;
  const std::vector<std::uint8_t> payload(4096, 0x77);
  f.board.ssd().write(50, payload, TimePoint{});

  NvmeCommand p2p;
  p2p.opcode = NvmeOpcode::FpgaP2pLoad;
  p2p.lba = 50;
  p2p.block_count = 1;
  p2p.bank = 0;
  p2p.bank_offset = 0;
  f.queue.submit(p2p, TimePoint{} + Duration::microseconds(1'000));
  f.queue.wait_oldest();
  EXPECT_EQ(f.board.fpga().bank(0).load(0, 4096), payload);
  // P2P never crossed the host link.
  EXPECT_EQ(f.board.pcie().upstream().bytes_moved().count, 0u);
}

TEST(Nvme, ComputeCommandChargesModelTime) {
  NvmeFixture f;
  NvmeCommand compute;
  compute.opcode = NvmeOpcode::FpgaCompute;
  compute.compute_time = Duration::microseconds(215);
  obs::SpanTrace& spans = f.board.span_trace();
  const obs::TraceId id = spans.begin_trace();
  f.queue.submit(compute, TimePoint{});
  const NvmeCompletion done = f.queue.wait_oldest();
  spans.end_trace();
  EXPECT_GE((done.completed_at - TimePoint{}).as_microseconds(), 215.0);
  // The compute is recorded once, as a span of the open trace.
  std::size_t computes = 0;
  for (const obs::SpanRecord* span : spans.trace_spans(id)) {
    if (span->name == "nvme_compute") {
      ++computes;
      EXPECT_EQ(span->duration().picos, compute.compute_time.picos);
    }
  }
  EXPECT_EQ(computes, 1u);
}

TEST(Nvme, CommandValidation) {
  NvmeFixture f;
  NvmeCommand bad_read;
  bad_read.opcode = NvmeOpcode::Read;  // block_count 0
  EXPECT_THROW(f.queue.submit(bad_read, TimePoint{}), PreconditionError);
  NvmeCommand bad_compute;
  bad_compute.opcode = NvmeOpcode::FpgaCompute;  // no duration
  EXPECT_THROW(f.queue.submit(bad_compute, TimePoint{}), PreconditionError);
  EXPECT_THROW(f.queue.wait_oldest(), PreconditionError);
  EXPECT_THROW(NvmeQueue(f.board, NvmeQueueConfig{.queue_depth = 0}),
               PreconditionError);
}

}  // namespace
}  // namespace csdml::csd
