// Tests for the simulated limited-memory device (§V): budget accounting,
// RAII allocations, OOM signalling, and the Algorithm-3 COO -> CSR pipeline.

#include <gtest/gtest.h>

#include "device/device_conflict.hpp"
#include "device/device_context.hpp"

namespace pd = picasso::device;

TEST(DeviceContext, ChargesAndRefunds) {
  pd::DeviceContext ctx(1000);
  EXPECT_EQ(ctx.capacity_bytes(), 1000u);
  {
    pd::DeviceAllocation a(ctx, 400);
    EXPECT_EQ(ctx.used_bytes(), 400u);
    EXPECT_EQ(ctx.available_bytes(), 600u);
    pd::DeviceAllocation b(ctx, 600);
    EXPECT_EQ(ctx.used_bytes(), 1000u);
    EXPECT_EQ(ctx.peak_bytes(), 1000u);
  }
  EXPECT_EQ(ctx.used_bytes(), 0u);
  EXPECT_EQ(ctx.peak_bytes(), 1000u);  // peak persists
  EXPECT_EQ(ctx.allocation_count(), 2u);
}

TEST(DeviceContext, ThrowsOnOverCommit) {
  pd::DeviceContext ctx(100);
  pd::DeviceAllocation a(ctx, 80);
  EXPECT_THROW(pd::DeviceAllocation(ctx, 21), pd::DeviceOutOfMemory);
  EXPECT_EQ(ctx.oom_count(), 1u);
  // The failed allocation must not leak charge.
  EXPECT_EQ(ctx.used_bytes(), 80u);
}

TEST(DeviceContext, OomCarriesDiagnostics) {
  pd::DeviceContext ctx(10);
  try {
    pd::DeviceAllocation a(ctx, 25);
    FAIL() << "expected DeviceOutOfMemory";
  } catch (const pd::DeviceOutOfMemory& e) {
    EXPECT_EQ(e.requested(), 25u);
    EXPECT_EQ(e.available(), 10u);
    EXPECT_NE(std::string(e.what()).find("device out of memory"),
              std::string::npos);
  }
}

TEST(DeviceContext, MoveTransfersOwnership) {
  pd::DeviceContext ctx(100);
  pd::DeviceAllocation a(ctx, 50);
  pd::DeviceAllocation b = std::move(a);
  EXPECT_EQ(ctx.used_bytes(), 50u);
  b.release();
  EXPECT_EQ(ctx.used_bytes(), 0u);
  b.release();  // double release is a no-op
  EXPECT_EQ(ctx.used_bytes(), 0u);
}

TEST(DeviceContext, ResetPeak) {
  pd::DeviceContext ctx(100);
  { pd::DeviceAllocation a(ctx, 90); }
  EXPECT_EQ(ctx.peak_bytes(), 90u);
  ctx.reset_peak();
  EXPECT_EQ(ctx.peak_bytes(), 0u);
}

TEST(DeviceBuffer, ChargesElementBytesAndTakes) {
  pd::DeviceContext ctx(1024);
  pd::DeviceBuffer<std::uint32_t> buf(ctx, 100);
  EXPECT_EQ(ctx.used_bytes(), 400u);
  buf[0] = 7;
  buf[99] = 9;
  EXPECT_EQ(buf.size(), 100u);
  auto host = buf.take();  // releases the charge, keeps the data
  EXPECT_EQ(ctx.used_bytes(), 0u);
  EXPECT_EQ(host[0], 7u);
  EXPECT_EQ(host[99], 9u);
}

TEST(FillCsr, ScattersAndSortsRows) {
  // Edges (0,2), (0,1), (1,2): offsets for degrees 2,2,2.
  const std::vector<std::uint64_t> offsets{0, 2, 4, 6};
  const std::uint32_t coo[] = {0, 2, 0, 1, 1, 2};
  std::vector<std::uint32_t> neighbors(6);
  pd::fill_csr(offsets, coo, 3, neighbors.data());
  EXPECT_EQ(neighbors, (std::vector<std::uint32_t>{1, 2, 0, 2, 0, 1}));
}

TEST(BuildConflictCsr, HappyPathOnDevice) {
  pd::DeviceContext ctx(1u << 20);
  const auto result = pd::build_conflict_csr(ctx, 4, 6, [](auto&& emit) {
    emit(0, 1);
    emit(1, 2);
    emit(0, 3);
  });
  EXPECT_TRUE(result.csr_built_on_device);
  EXPECT_EQ(result.num_edges, 3u);
  EXPECT_TRUE(result.graph.validate().empty());
  EXPECT_TRUE(result.graph.has_edge(2, 1));
  EXPECT_EQ(ctx.used_bytes(), 0u);
  EXPECT_GT(result.device_peak_bytes, 0u);
}

TEST(BuildConflictCsr, WorstCaseBoundsCooBuffer) {
  // With a huge budget the COO buffer is bounded by worst_case_edges, so
  // the device peak stays modest.
  pd::DeviceContext ctx(1u << 30);
  const auto result = pd::build_conflict_csr(ctx, 10, 45, [](auto&& emit) {
    for (std::uint32_t u = 0; u < 10; ++u) {
      for (std::uint32_t v = u + 1; v < 10; ++v) emit(u, v);
    }
  });
  EXPECT_EQ(result.num_edges, 45u);
  // counters (10*8) + COO (45*8) + CSR (90*4) = 800 bytes.
  EXPECT_LE(result.device_peak_bytes, 2048u);
}

TEST(BuildConflictCsr, OverflowingCooThrows) {
  // Budget only allows a COO buffer for ~2 edges; emitting 6 must throw.
  pd::DeviceContext ctx(3 * sizeof(std::uint64_t) + 2 * 8);
  EXPECT_THROW(pd::build_conflict_csr(ctx, 3, 100,
                                      [](auto&& emit) {
                                        for (int i = 0; i < 6; ++i) {
                                          emit(0, 1);
                                          emit(1, 2);
                                        }
                                      }),
               pd::DeviceOutOfMemory);
}

TEST(BuildConflictCsr, EmptyEnumeration) {
  pd::DeviceContext ctx(1u << 16);
  const auto result = pd::build_conflict_csr(ctx, 5, 10, [](auto&&) {});
  EXPECT_EQ(result.num_edges, 0u);
  EXPECT_EQ(result.graph.num_vertices(), 5u);
  EXPECT_TRUE(result.csr_built_on_device);
}
