#include "xrt/runtime.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace csdml::xrt {
namespace {

hls::KernelSpec tiny_kernel(const std::string& name) {
  hls::KernelSpec spec;
  spec.name = name;
  hls::LoopSpec loop;
  loop.name = "l";
  loop.trip_count = 16;
  loop.body_ops = {hls::LoopOp{hls::OpKind::IntAdd, 1}};
  loop.buffer_accesses = 1;
  spec.loops.push_back(loop);
  return spec;
}

struct Fixture {
  csd::SmartSsd board{csd::SmartSsdConfig{}};
  Device device{board};
};

TEST(Xrt, LoadXclbinPlacesItsResources) {
  Fixture f;
  EXPECT_EQ(f.board.fpga().utilization(), 0.0);
  Xclbin xclbin;
  xclbin.name = "bin";
  xclbin.kernels["k1"] = tiny_kernel("k1");
  xclbin.kernels["k2"] = tiny_kernel("k2");
  f.device.load_xclbin(xclbin);
  EXPECT_GT(f.board.fpga().utilization(), 0.0);
}

TEST(Xrt, XclbinResourcesAreSummed) {
  Xclbin xclbin;
  xclbin.name = "bin";
  xclbin.kernels["k1"] = tiny_kernel("k1");
  const auto one = xclbin.total_resources();
  xclbin.kernels["k2"] = tiny_kernel("k2");
  const auto two = xclbin.total_resources();
  EXPECT_GT(two.luts, one.luts);
}

TEST(Xrt, BufferSyncMovesDataAndTime) {
  Fixture f;
  BufferObject bo = f.device.alloc_bo(4096, 0);
  std::vector<std::uint8_t> data(4096);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i % 251);
  }
  bo.write(data);
  const TimePoint before = f.device.now();
  bo.sync_to_device();
  EXPECT_GT(f.device.now().picos, before.picos);
  // The bytes are actually resident in the bank.
  EXPECT_EQ(f.board.fpga().bank(0).load(bo.device_offset(), 4096), data);

  // Round-trip back to the host view.
  BufferObject other = f.device.alloc_bo(4096, 0);
  EXPECT_NE(other.device_offset(), bo.device_offset());
  bo.sync_from_device();
  EXPECT_EQ(bo.host_view(), data);
}

TEST(Xrt, BufferAllocationIsAlignedAndBounded) {
  Fixture f;
  const BufferObject a = f.device.alloc_bo(100, 0);
  const BufferObject b = f.device.alloc_bo(100, 0);
  EXPECT_EQ(a.device_offset() % 4096, 0u);
  EXPECT_EQ(b.device_offset() % 4096, 0u);
  EXPECT_THROW(f.device.alloc_bo(0, 0), PreconditionError);
  EXPECT_THROW(f.device.alloc_bo(100, 99), PreconditionError);

  // Exhaust a bank.
  const std::uint64_t capacity =
      f.board.fpga().bank(1).config().capacity.count;
  f.device.alloc_bo(capacity - 8192, 1);
  EXPECT_THROW(f.device.alloc_bo(capacity, 1), ResourceError);
}

TEST(Xrt, WriteLargerThanBufferThrows) {
  Fixture f;
  BufferObject bo = f.device.alloc_bo(16, 0);
  EXPECT_THROW(bo.write(std::vector<std::uint8_t>(17)), PreconditionError);
}

TEST(Xrt, OverfittingXclbinRejected) {
  Fixture f;
  Xclbin xclbin;
  xclbin.name = "too-big";
  // A kernel with an enormous fully-unrolled MAC array.
  hls::KernelSpec big = tiny_kernel("big");
  big.loops[0].body_ops = {hls::LoopOp{hls::OpKind::IntMul, 2000}};
  big.loops[0].pragmas.pipeline = true;
  big.loops[0].pragmas.unroll = 4;
  xclbin.kernels["big"] = big;
  EXPECT_THROW(f.device.load_xclbin(xclbin), ResourceError);
}

}  // namespace
}  // namespace csdml::xrt
