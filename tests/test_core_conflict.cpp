// Tests for conflict-graph construction (Algorithm 1 Line 7 / §V): the
// defining property (edge ⇔ lists intersect AND oracle edge), exact
// agreement between the reference and indexed kernels, and the device
// pipeline's equivalence with the host path.

#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "core/conflict_graph.hpp"
#include "core/palette.hpp"
#include "device/device_context.hpp"
#include "graph/graph_gen.hpp"
#include "graph/oracles.hpp"
#include "pauli/datasets.hpp"

namespace pcore = picasso::core;
namespace pg = picasso::graph;

namespace {

std::vector<std::uint32_t> identity_active(std::uint32_t n) {
  std::vector<std::uint32_t> active(n);
  for (std::uint32_t v = 0; v < n; ++v) active[v] = v;
  return active;
}

/// Brute-force conflict edge set from the definition.
std::set<std::pair<std::uint32_t, std::uint32_t>> brute_force_conflicts(
    const pg::DenseOracle& oracle, const std::vector<std::uint32_t>& active,
    const pcore::ColorLists& lists) {
  std::set<std::pair<std::uint32_t, std::uint32_t>> edges;
  const auto n = static_cast<std::uint32_t>(active.size());
  for (std::uint32_t u = 0; u < n; ++u) {
    for (std::uint32_t v = u + 1; v < n; ++v) {
      if (lists.share_color(u, v) && oracle.edge(active[u], active[v])) {
        edges.emplace(u, v);
      }
    }
  }
  return edges;
}

std::set<std::pair<std::uint32_t, std::uint32_t>> edges_of(
    const pg::CsrGraph& g) {
  std::set<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t u = 0; u < g.num_vertices(); ++u) {
    for (std::uint32_t v : g.neighbors(u)) {
      if (u < v) edges.emplace(u, v);
    }
  }
  return edges;
}

}  // namespace

class ConflictKernelSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, double, std::uint64_t>> {};

TEST_P(ConflictKernelSweep, KernelsMatchBruteForceDefinition) {
  const auto [n, density, seed] = GetParam();
  const auto graph = pg::erdos_renyi_dense(n, density, seed);
  const pg::DenseOracle oracle(graph);
  const auto active = identity_active(n);
  const auto palette = pcore::compute_palette(n, 12.5, 2.0, 0);
  const auto lists = pcore::assign_random_lists(n, palette, seed, 0);

  const auto expected = brute_force_conflicts(oracle, active, lists);

  for (auto kernel :
       {pcore::ConflictKernel::Reference, pcore::ConflictKernel::Indexed}) {
    const auto result = pcore::build_conflict_graph(
        oracle, active, lists, palette.palette_size, kernel);
    EXPECT_TRUE(result.graph.validate().empty());
    EXPECT_EQ(result.num_edges, expected.size()) << to_string(kernel);
    EXPECT_EQ(edges_of(result.graph), expected) << to_string(kernel);
    // |Vc| = vertices touched by at least one conflict edge.
    std::set<std::uint32_t> conflicted;
    for (const auto& [u, v] : expected) {
      conflicted.insert(u);
      conflicted.insert(v);
    }
    EXPECT_EQ(result.num_conflicted_vertices, conflicted.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesDensitiesSeeds, ConflictKernelSweep,
    ::testing::Combine(::testing::Values(30u, 100u, 300u),
                       ::testing::Values(0.2, 0.5, 0.9),
                       ::testing::Values(1u, 17u)));

TEST(ConflictGraph, ActiveSubsetMapsLocalIndices) {
  // Build over a strict subset and check that indices refer to positions in
  // `active`, not original vertex ids.
  const auto graph = pg::erdos_renyi_dense(60, 0.8, 3);
  const pg::DenseOracle oracle(graph);
  std::vector<std::uint32_t> active;
  for (std::uint32_t v = 0; v < 60; v += 2) active.push_back(v);  // evens
  const auto palette =
      pcore::compute_palette(static_cast<std::uint32_t>(active.size()), 20.0, 3.0, 0);
  const auto lists = pcore::assign_random_lists(
      static_cast<std::uint32_t>(active.size()), palette, 5, 0);
  const auto result = pcore::build_conflict_graph(
      oracle, active, lists, palette.palette_size, pcore::ConflictKernel::Indexed);
  EXPECT_EQ(result.graph.num_vertices(), active.size());
  for (const auto& [u, v] : edges_of(result.graph)) {
    EXPECT_TRUE(lists.share_color(u, v));
    EXPECT_TRUE(oracle.edge(active[u], active[v]));
  }
}

TEST(ConflictGraph, EmptyAndSingletonInputs) {
  const auto graph = pg::erdos_renyi_dense(4, 0.5, 1);
  const pg::DenseOracle oracle(graph);
  const pcore::ColorLists empty_lists(0, 1);
  const auto r0 = pcore::build_conflict_graph(
      oracle, std::vector<std::uint32_t>{}, empty_lists, 1,
      pcore::ConflictKernel::Indexed);
  EXPECT_EQ(r0.num_edges, 0u);
  const auto palette = pcore::compute_palette(1, 50.0, 1.0, 0);
  const auto one = pcore::assign_random_lists(1, palette, 1, 0);
  const auto r1 = pcore::build_conflict_graph(
      oracle, std::vector<std::uint32_t>{2}, one, palette.palette_size,
      pcore::ConflictKernel::Reference);
  EXPECT_EQ(r1.num_edges, 0u);
  EXPECT_EQ(r1.graph.num_vertices(), 1u);
}

TEST(ConflictGraph, DevicePipelineMatchesHost) {
  const auto graph = pg::erdos_renyi_dense(120, 0.6, 9);
  const pg::DenseOracle oracle(graph);
  const auto active = identity_active(120);
  const auto palette = pcore::compute_palette(120, 15.0, 2.5, 0);
  const auto lists = pcore::assign_random_lists(120, palette, 2, 0);

  const auto host = pcore::build_conflict_graph(
      oracle, active, lists, palette.palette_size, pcore::ConflictKernel::Indexed);

  picasso::device::DeviceContext ctx(64u << 20);
  const auto device = pcore::build_conflict_graph_device(
      ctx, oracle, active, lists, palette.palette_size,
      pcore::ConflictKernel::Indexed);
  EXPECT_EQ(edges_of(device.graph), edges_of(host.graph));
  EXPECT_TRUE(device.csr_built_on_device);  // plenty of budget
  EXPECT_GT(device.logical_bytes, 0u);
  EXPECT_EQ(ctx.used_bytes(), 0u);  // everything refunded after build
}

TEST(ConflictGraph, DeviceFallsBackToHostCsrWhenTight) {
  // Budget large enough for counters + COO but too small to also hold the
  // CSR neighbor array on device -> host fallback path (Algorithm 3 Line 7).
  const auto graph = pg::erdos_renyi_dense(200, 0.9, 4);
  const pg::DenseOracle oracle(graph);
  const auto active = identity_active(200);
  const auto palette = pcore::compute_palette(200, 10.0, 4.0, 0);
  const auto lists = pcore::assign_random_lists(200, palette, 8, 0);

  const auto host = pcore::build_conflict_graph(
      oracle, active, lists, palette.palette_size, pcore::ConflictKernel::Indexed);
  ASSERT_GT(host.num_edges, 100u);

  // counters: 200*8 bytes; COO: 8 bytes per edge. Size the budget so that
  // the final 2|Ec|*4-byte CSR does NOT fit in what remains.
  const std::size_t counters = 200 * sizeof(std::uint64_t);
  const std::size_t coo = static_cast<std::size_t>(host.num_edges) * 8;
  picasso::device::DeviceContext ctx(counters + coo + coo / 4);
  const auto device = pcore::build_conflict_graph_device(
      ctx, oracle, active, lists, palette.palette_size,
      pcore::ConflictKernel::Indexed);
  EXPECT_FALSE(device.csr_built_on_device);
  EXPECT_EQ(edges_of(device.graph), edges_of(host.graph));
}

TEST(ConflictGraph, DeviceOutOfMemoryWhenCooOverflows) {
  const auto graph = pg::erdos_renyi_dense(300, 0.9, 6);
  const pg::DenseOracle oracle(graph);
  const auto active = identity_active(300);
  const auto palette = pcore::compute_palette(300, 5.0, 4.5, 0);
  const auto lists = pcore::assign_random_lists(300, palette, 3, 0);
  // Tiny budget: the COO buffer cannot hold the conflict edges.
  picasso::device::DeviceContext ctx(300 * sizeof(std::uint64_t) + 1024);
  EXPECT_THROW(pcore::build_conflict_graph_device(
                   ctx, oracle, active, lists, palette.palette_size,
                   pcore::ConflictKernel::Reference),
               picasso::device::DeviceOutOfMemory);
  EXPECT_GE(ctx.oom_count(), 1u);
}

TEST(ConflictGraph, WorksOnRealPauliOracle) {
  const auto set = picasso::pauli::fig1_h2_set();
  const pg::ComplementOracle oracle(set);
  const auto n = static_cast<std::uint32_t>(set.size());
  const auto active = identity_active(n);
  const auto palette = pcore::compute_palette(n, 30.0, 4.0, 0);
  const auto lists = pcore::assign_random_lists(n, palette, 4, 0);
  const auto ref = pcore::build_conflict_graph(
      oracle, active, lists, palette.palette_size, pcore::ConflictKernel::Reference);
  const auto idx = pcore::build_conflict_graph(
      oracle, active, lists, palette.palette_size, pcore::ConflictKernel::Indexed);
  EXPECT_EQ(edges_of(ref.graph), edges_of(idx.graph));
}

// The packed index: every entry of bucket c decodes to (u, k) with c at slot
// k of u's list, members ascend within a bucket, and every (u, k) appears
// exactly once — across slot widths from 0 bits (L = 1) to past a byte.
TEST(ColorIndex, PackedEntriesDecodeToVertexAndSlot) {
  for (const std::uint32_t l : {1u, 2u, 9u, 64u, 65u, 300u}) {
    const std::uint32_t n = 90;
    const pcore::IterationPalette palette{l + 37, l, 0};
    const auto lists = pcore::assign_random_lists(n, palette, l, 0);
    const auto index =
        pcore::detail::build_color_index(lists, palette.palette_size);
    const auto key = "L=" + std::to_string(l);
    ASSERT_EQ(index.slot_bits,
              l > 1 ? static_cast<std::uint32_t>(std::bit_width(l - 1)) : 0u)
        << key;
    ASSERT_EQ(index.offsets.size(), palette.palette_size + 1u) << key;
    ASSERT_EQ(index.members.size(), std::size_t{n} * l) << key;
    std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
    for (std::uint32_t c = 0; c < palette.palette_size; ++c) {
      for (std::uint32_t i = index.offsets[c]; i < index.offsets[c + 1]; ++i) {
        const std::uint32_t u = index.vertex(index.members[i]);
        const std::uint32_t k = index.slot(index.members[i]);
        ASSERT_LT(u, n) << key;
        ASSERT_LT(k, l) << key;
        EXPECT_EQ(lists.list(u)[k], c) << key << " u=" << u << " k=" << k;
        if (i > index.offsets[c]) {
          EXPECT_LT(index.vertex(index.members[i - 1]), u) << key;
        }
        seen.emplace(u, k);
      }
    }
    EXPECT_EQ(seen.size(), std::size_t{n} * l) << key;
  }
}

// Packed entries need n << bit_width(L - 1) below 2^32 so the all-ones
// bucket terminator stays free; past that the build must refuse, naming n
// and L, rather than wrap.
TEST(ColorIndex, SlotBitsRejectOverflowingEntries) {
  EXPECT_EQ(pcore::detail::color_index_slot_bits(0, 0), 0u);
  EXPECT_EQ(pcore::detail::color_index_slot_bits(1000, 1), 0u);
  EXPECT_EQ(pcore::detail::color_index_slot_bits(1000, 2), 1u);
  EXPECT_EQ(pcore::detail::color_index_slot_bits(1000, 65), 7u);
  // Largest fits: (n << s) - 1, the top entry, is just below all-ones.
  EXPECT_EQ(pcore::detail::color_index_slot_bits(0xffffffffu, 1), 0u);
  EXPECT_EQ(pcore::detail::color_index_slot_bits(0xffffu, 0x10000u), 16u);
  EXPECT_THROW(pcore::detail::color_index_slot_bits(0xffffffffu, 2),
               std::length_error);
  EXPECT_THROW(pcore::detail::color_index_slot_bits(0x10000u, 0x10000u),
               std::length_error);
  // The index of an n * L >= 2^32 lists would have wrapped its offsets.
  EXPECT_THROW(pcore::detail::color_index_slot_bits(1u << 27, 33),
               std::length_error);
  try {
    pcore::detail::color_index_slot_bits(70000000u, 100);
    FAIL() << "expected std::length_error";
  } catch (const std::length_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("70000000"), std::string::npos) << what;
    EXPECT_NE(what.find("100"), std::string::npos) << what;
  }
}
