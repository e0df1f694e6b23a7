#include "csd/smartssd.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace csdml::csd {
namespace {

TEST(Nand, ReadPaysSenseAndTransfer) {
  NandArray nand(NandConfig{});
  std::vector<std::uint8_t> out;
  const TimePoint done = nand.read_page({0, 0, 0}, TimePoint{}, &out).done;
  const NandConfig& cfg = nand.config();
  const Duration expected =
      cfg.read_latency + cfg.channel_bandwidth.transfer_time(cfg.page_size);
  EXPECT_EQ((done - TimePoint{}).picos, expected.picos);
  EXPECT_EQ(out.size(), cfg.page_size.count);
}

TEST(Nand, ErasedFlashReadsOnes) {
  NandArray nand(NandConfig{});
  std::vector<std::uint8_t> out;
  nand.read_page({1, 2, 3}, TimePoint{}, &out);
  for (const std::uint8_t byte : out) EXPECT_EQ(byte, 0xFF);
}

TEST(Nand, ProgramThenReadReturnsData) {
  NandArray nand(NandConfig{});
  std::vector<std::uint8_t> data(nand.config().page_size.count, 0xAB);
  data[7] = 0x11;
  const TimePoint programmed = nand.program_page({2, 1, 5}, TimePoint{}, data);
  std::vector<std::uint8_t> out;
  nand.read_page({2, 1, 5}, programmed, &out);
  EXPECT_EQ(out, data);
}

TEST(Nand, EraseClearsWholeBlock) {
  NandConfig cfg;
  NandArray nand(cfg);
  std::vector<std::uint8_t> data(cfg.page_size.count, 0x55);
  const PageAddress a{0, 0, 10};
  const PageAddress b{0, 0, cfg.pages_per_block - 1};
  nand.program_page(a, TimePoint{}, data);
  nand.program_page(b, TimePoint{}, data);
  nand.erase_block({0, 0, 0}, TimePoint{});
  std::vector<std::uint8_t> out;
  nand.read_page(a, TimePoint{}, &out);
  EXPECT_EQ(out[0], 0xFF);
  nand.read_page(b, TimePoint{}, &out);
  EXPECT_EQ(out[0], 0xFF);
}

TEST(Nand, ChannelSerialisesTransfersButDiesOverlap) {
  NandConfig cfg;
  NandArray nand(cfg);
  // Two reads on the same channel, different dies, issued together: the
  // sense phases overlap, the channel transfers serialise.
  const TimePoint d1 = nand.read_page({0, 0, 0}, TimePoint{}, nullptr).done;
  const TimePoint d2 = nand.read_page({0, 1, 0}, TimePoint{}, nullptr).done;
  const Duration transfer = cfg.channel_bandwidth.transfer_time(cfg.page_size);
  EXPECT_EQ((d2 - d1).picos, transfer.picos);
  // Different channels: fully parallel.
  const TimePoint d3 = nand.read_page({1, 0, 0}, TimePoint{}, nullptr).done;
  EXPECT_EQ(d3.picos, d1.picos);
  EXPECT_GT(nand.total_channel_busy().picos, 0);
}

TEST(Nand, SameDieSerialisesSense) {
  NandConfig cfg;
  NandArray nand(cfg);
  const TimePoint d1 = nand.read_page({0, 0, 0}, TimePoint{}, nullptr).done;
  const TimePoint d2 = nand.read_page({0, 0, 1}, TimePoint{}, nullptr).done;
  EXPECT_GE((d2 - d1).picos, cfg.read_latency.picos);
  (void)d1;
}

TEST(Nand, ValidatesAddresses) {
  NandArray nand(NandConfig{});
  EXPECT_THROW(nand.read_page({99, 0, 0}, TimePoint{}, nullptr),
               PreconditionError);
  EXPECT_THROW(nand.read_page({0, 99, 0}, TimePoint{}, nullptr),
               PreconditionError);
}

TEST(Ssd, WriteThenReadRoundTripsData) {
  SsdController ssd(SsdConfig{});
  std::vector<std::uint8_t> payload(10'000);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 31);
  }
  const TimePoint written = ssd.write(1000, payload, TimePoint{});
  const IoResult result = ssd.read(1000, 3, written);  // 3 blocks = 12 KiB
  ASSERT_GE(result.data.size(), payload.size());
  for (std::size_t i = 0; i < payload.size(); ++i) {
    EXPECT_EQ(result.data[i], payload[i]) << "byte " << i;
  }
  EXPECT_GT(result.done.picos, written.picos);
}

TEST(Ssd, ReadLatencyIncludesCommandOverheadAndNand) {
  SsdConfig cfg;
  SsdController ssd(cfg);
  const IoResult result = ssd.read(0, 1, TimePoint{});
  const Duration floor = cfg.command_overhead + cfg.nand.read_latency;
  EXPECT_GT((result.done - TimePoint{}).picos, floor.picos);
}

TEST(Ssd, StripesAcrossChannels) {
  // Large reads spread pages over channels: the whole-read latency should
  // be far below page_count x single-page latency.
  SsdConfig cfg;
  SsdController ssd(cfg);
  const std::uint32_t blocks_per_page =
      static_cast<std::uint32_t>(cfg.nand.page_size.count / cfg.logical_block.count);
  const std::uint32_t pages = 8;
  const IoResult result = ssd.read(0, pages * blocks_per_page, TimePoint{});
  const IoResult single = ssd.read(0, 1, TimePoint{});
  const double ratio = static_cast<double>((result.done - TimePoint{}).picos) /
                       static_cast<double>((single.done - TimePoint{}).picos);
  EXPECT_LT(ratio, 3.0);  // parallelism, not 8x serial
  EXPECT_EQ(ssd.bytes_read().count,
            static_cast<std::uint64_t>(pages) * cfg.nand.page_size.count +
                cfg.logical_block.count);
}

TEST(Ssd, Guards) {
  SsdController ssd(SsdConfig{});
  EXPECT_THROW(ssd.read(0, 0, TimePoint{}), PreconditionError);
  EXPECT_THROW(ssd.write(0, {}, TimePoint{}), PreconditionError);
}

TEST(Pcie, TransferTimeMatchesBandwidthPlusOverhead) {
  PcieLinkConfig cfg;
  PcieLink link(cfg);
  const TimePoint done = link.transfer(Bytes{32'000}, TimePoint{});
  const Duration expected =
      cfg.per_transfer_overhead + cfg.bandwidth.transfer_time(Bytes{32'000});
  EXPECT_EQ((done - TimePoint{}).picos, expected.picos);
  EXPECT_EQ(link.bytes_moved().count, 32'000u);
}

TEST(Pcie, LinkSerialisesConcurrentTransfers) {
  PcieLink link(PcieLinkConfig{});
  const TimePoint d1 = link.transfer(Bytes::mib(1), TimePoint{});
  const TimePoint d2 = link.transfer(Bytes::mib(1), TimePoint{});
  EXPECT_GT(d2.picos, d1.picos);
  EXPECT_THROW(link.transfer(Bytes{0}, TimePoint{}), PreconditionError);
}

TEST(DdrBank, StoreLoadRoundTrip) {
  DdrBank bank(DdrBankConfig{});
  bank.store(4096, {1, 2, 3, 4});
  const auto out = bank.load(4096, 4);
  EXPECT_EQ(out, (std::vector<std::uint8_t>{1, 2, 3, 4}));
  // Unwritten regions read zero.
  EXPECT_EQ(bank.load(1 << 20, 2), (std::vector<std::uint8_t>{0, 0}));
}

TEST(DdrBank, BoundsChecked) {
  DdrBankConfig cfg;
  cfg.capacity = Bytes::kib(4);
  DdrBank bank(cfg);
  EXPECT_THROW(bank.store(4096 - 1, {1, 2}), PreconditionError);
  EXPECT_THROW(bank.load(4096, 1), PreconditionError);
  EXPECT_THROW(bank.access(Bytes{0}, TimePoint{}), PreconditionError);
}

TEST(Fpga, BankCountAndPlacement) {
  FpgaConfig cfg;
  cfg.ddr_banks = 2;
  FpgaDevice fpga(cfg);
  EXPECT_EQ(fpga.bank_count(), 2u);
  EXPECT_THROW(fpga.bank(2), PreconditionError);

  hls::ResourceEstimate est{.luts = 1000, .flip_flops = 1000, .bram36 = 1, .dsp = 1};
  fpga.place("small", est);
  EXPECT_GT(fpga.utilization(), 0.0);

  hls::ResourceEstimate too_big{.luts = cfg.part.luts + 1};
  EXPECT_THROW(fpga.place("huge", too_big), ResourceError);
}

TEST(SmartSsd, P2pMovesDataIntoFpgaDram) {
  SmartSsd board{SmartSsdConfig{}};
  std::vector<std::uint8_t> payload(4096);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i);
  }
  board.ssd().write(64, payload, TimePoint{});
  const TransferResult result =
      board.p2p_read_to_fpga(64, 1, 0, 0, TimePoint{} + Duration::microseconds(500));
  EXPECT_EQ(result.bytes.count, 4096u);
  const auto in_dram = board.fpga().bank(0).load(0, 4096);
  EXPECT_EQ(in_dram, payload);
}

TEST(SmartSsd, P2pIsFasterThanHostPath) {
  // Two identical boards so resource serialisation doesn't couple the runs.
  SmartSsd p2p_board{SmartSsdConfig{}};
  SmartSsd host_board{SmartSsdConfig{}};
  std::vector<std::uint8_t> payload(64 * 1024, 0x5A);
  p2p_board.ssd().write(0, payload, TimePoint{});
  host_board.ssd().write(0, payload, TimePoint{});
  const TimePoint start = TimePoint{} + Duration::microseconds(2000);

  const TransferResult p2p = p2p_board.p2p_read_to_fpga(0, 16, 0, 0, start);
  const TransferResult host = host_board.host_read_to_fpga(0, 16, 0, 0, start);
  EXPECT_LT((p2p.done - start).picos, (host.done - start).picos);
  // The host path crosses the upstream link twice; P2P never touches it.
  EXPECT_EQ(p2p_board.pcie().upstream().bytes_moved().count, 0u);
  EXPECT_EQ(host_board.pcie().upstream().bytes_moved().count, 2u * 64 * 1024);
}

TEST(SmartSsd, HostWriteAndReadBackFpga) {
  SmartSsd board{SmartSsdConfig{}};
  const std::vector<std::uint8_t> data{9, 8, 7, 6};
  const TransferResult w = board.host_write_to_fpga(data, 1, 128, TimePoint{});
  EXPECT_GT(w.done.picos, 0);
  const IoResult r = board.host_read_from_fpga(1, 128, 4, w.done);
  EXPECT_EQ(r.data, data);
  EXPECT_GT(r.done.picos, w.done.picos);
}

TEST(SmartSsd, TraceRecordsTransfers) {
  SmartSsd board{SmartSsdConfig{}};
  obs::SpanTrace& spans = board.span_trace();
  board.ssd().write(0, std::vector<std::uint8_t>(4096, 1), TimePoint{});
  // Outside a request a transfer is not recorded at all.
  board.p2p_read_to_fpga(0, 1, 0, 0, TimePoint{} + Duration::microseconds(500));
  EXPECT_TRUE(spans.spans().empty());
  // Inside one it is recorded exactly once.
  const obs::TraceId id = spans.begin_trace();
  const TimePoint at = TimePoint{} + Duration::microseconds(1000);
  const TransferResult read = board.p2p_read_to_fpga(0, 1, 0, 0, at);
  spans.end_trace();
  const auto recorded = spans.trace_spans(id);
  ASSERT_EQ(recorded.size(), 1u);
  EXPECT_EQ(recorded[0]->name, "p2p_read");
  EXPECT_EQ(recorded[0]->start.picos, at.picos);
  EXPECT_EQ(recorded[0]->end.picos, read.done.picos);
}

}  // namespace
}  // namespace csdml::csd
