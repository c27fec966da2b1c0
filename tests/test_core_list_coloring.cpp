// Tests for conflict-graph list coloring (§IV-B): Algorithm 2's invariants
// (assigned color from own list, no monochromatic conflict edge, uncolored
// only on list exhaustion), the heap ablation, and the static-order schemes.

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "core/conflict_graph.hpp"
#include "core/list_coloring.hpp"
#include "core/palette.hpp"
#include "graph/graph_gen.hpp"
#include "graph/oracles.hpp"
#include "util/rng.hpp"

namespace pcore = picasso::core;
namespace pg = picasso::graph;

namespace {

constexpr std::uint32_t kNone = pcore::ListColoringResult::kNoColorLocal;

/// Checks every invariant a list coloring must satisfy.
void expect_valid_list_coloring(const pg::CsrGraph& gc,
                                const pcore::ColorLists& lists,
                                const pcore::ListColoringResult& result) {
  const std::uint32_t n = gc.num_vertices();
  ASSERT_EQ(result.assigned.size(), n);
  std::uint32_t colored = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    const std::uint32_t c = result.assigned[v];
    if (c == kNone) continue;
    ++colored;
    // Color must come from the vertex's own list.
    const auto list = lists.list_copy(v);
    EXPECT_NE(std::find(list.begin(), list.end(), c), list.end())
        << "vertex " << v << " colored outside its list";
    // No conflict edge may be monochromatic.
    for (std::uint32_t u : gc.neighbors(v)) {
      EXPECT_NE(result.assigned[u], c) << "edge (" << v << "," << u << ")";
    }
  }
  EXPECT_EQ(result.num_colored, colored);
  // uncolored = exactly the kNone vertices, sorted.
  std::vector<std::uint32_t> expected_uncolored;
  for (std::uint32_t v = 0; v < n; ++v) {
    if (result.assigned[v] == kNone) expected_uncolored.push_back(v);
  }
  EXPECT_EQ(result.uncolored, expected_uncolored);
}

struct Fixture {
  pg::CsrGraph gc;
  pcore::ColorLists lists;
};

Fixture make_fixture(std::uint32_t n, double density, double percent,
                     double alpha, std::uint64_t seed) {
  const auto base = pg::erdos_renyi_dense(n, density, seed);
  const pg::DenseOracle oracle(base);
  std::vector<std::uint32_t> active(n);
  for (std::uint32_t v = 0; v < n; ++v) active[v] = v;
  const auto palette = pcore::compute_palette(n, percent, alpha, 0);
  auto lists = pcore::assign_random_lists(n, palette, seed, 0);
  auto conflict = pcore::build_conflict_graph(
      oracle, active, lists, palette.palette_size, pcore::ConflictKernel::Indexed);
  return {std::move(conflict.graph), std::move(lists)};
}

}  // namespace

class ListColoringSweep
    : public ::testing::TestWithParam<
          std::tuple<pcore::ConflictColoringScheme, std::uint64_t>> {};

TEST_P(ListColoringSweep, SatisfiesAllInvariants) {
  const auto [scheme, seed] = GetParam();
  auto [gc, lists] = make_fixture(250, 0.5, 10.0, 2.0, seed);
  picasso::util::Xoshiro256 rng(seed);
  const auto result = pcore::color_conflict_graph(gc, lists, scheme, rng);
  expect_valid_list_coloring(gc, lists, result);
  EXPECT_GT(result.num_colored, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndSeeds, ListColoringSweep,
    ::testing::Combine(
        ::testing::Values(pcore::ConflictColoringScheme::DynamicBucket,
                          pcore::ConflictColoringScheme::DynamicHeap,
                          pcore::ConflictColoringScheme::StaticNatural,
                          pcore::ConflictColoringScheme::StaticRandom,
                          pcore::ConflictColoringScheme::StaticLargestFirst),
        ::testing::Values(1u, 7u, 23u)));

TEST(ListColoring, EveryVertexColoredWhenListsExceedDegree) {
  // Each colored neighbor removes at most one color from a list, so a list
  // longer than the conflict degree can never be exhausted: V_u is empty.
  auto [gc, lists] = make_fixture(100, 0.01, 60.0, 4.5, 3);
  std::uint32_t max_deg = 0;
  for (std::uint32_t v = 0; v < gc.num_vertices(); ++v) {
    max_deg = std::max(max_deg, static_cast<std::uint32_t>(gc.degree(v)));
  }
  if (lists.list_size() > max_deg) {
    picasso::util::Xoshiro256 rng(3);
    const auto result = pcore::color_conflict_graph_dynamic(gc, lists, rng);
    EXPECT_TRUE(result.uncolored.empty());
    EXPECT_EQ(result.num_colored, gc.num_vertices());
  } else {
    GTEST_SKIP() << "fixture did not produce L > max degree";
  }
}

TEST(ListColoring, IsolatedVerticesAlwaysColored) {
  // A conflict graph with no edges = all vertices unconflicted (Line 8 of
  // Algorithm 1): everyone gets a color from their list.
  const auto gc = pg::CsrGraph::from_edges(20, {});
  const pcore::IterationPalette palette{10, 3, 0};
  const auto lists = pcore::assign_random_lists(20, palette, 5, 0);
  picasso::util::Xoshiro256 rng(5);
  const auto result = pcore::color_conflict_graph_dynamic(gc, lists, rng);
  EXPECT_EQ(result.num_colored, 20u);
  EXPECT_TRUE(result.uncolored.empty());
  for (std::uint32_t v = 0; v < 20; ++v) {
    const auto list = lists.list_copy(v);
    EXPECT_NE(std::find(list.begin(), list.end(), result.assigned[v]),
              list.end());
  }
}

TEST(ListColoring, EmptyGraph) {
  const pg::CsrGraph gc;
  const pcore::ColorLists lists(0, 3, 3);
  picasso::util::Xoshiro256 rng(1);
  const auto result = pcore::color_conflict_graph_dynamic(gc, lists, rng);
  EXPECT_EQ(result.num_colored, 0u);
  EXPECT_TRUE(result.uncolored.empty());
}

TEST(ListColoring, SingleSharedColorForcesUncolored) {
  // Two adjacent vertices with identical singleton lists: one must end up
  // in V_u — the retry mechanism of Algorithm 1.
  const auto gc = pg::CsrGraph::from_edges(2, {{0, 1}});
  const pcore::ColorLists lists(2, 1, 1);  // zero-filled: both lists are {0}
  picasso::util::Xoshiro256 rng(2);
  const auto result = pcore::color_conflict_graph_dynamic(gc, lists, rng);
  EXPECT_EQ(result.num_colored, 1u);
  ASSERT_EQ(result.uncolored.size(), 1u);
}

TEST(ListColoring, DynamicIsDeterministicGivenRngState) {
  auto [gc, lists] = make_fixture(120, 0.5, 8.0, 2.0, 9);
  picasso::util::Xoshiro256 rng_a(42), rng_b(42);
  const auto a = pcore::color_conflict_graph_dynamic(gc, lists, rng_a);
  const auto b = pcore::color_conflict_graph_dynamic(gc, lists, rng_b);
  EXPECT_EQ(a.assigned, b.assigned);
  EXPECT_EQ(a.uncolored, b.uncolored);
}

TEST(ListColoring, BucketAndHeapColorSimilarCounts) {
  // Same policy, different priority structure: the two dynamic variants
  // should color statistically similar numbers of vertices.
  auto [gc, lists] = make_fixture(300, 0.6, 6.0, 2.0, 11);
  picasso::util::Xoshiro256 rng_a(1), rng_b(1);
  const auto bucket = pcore::color_conflict_graph_dynamic(gc, lists, rng_a);
  const auto heap = pcore::color_conflict_graph_heap(gc, lists, rng_b);
  const double ratio = static_cast<double>(bucket.num_colored + 1) /
                       static_cast<double>(heap.num_colored + 1);
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.25);
}

TEST(ListColoring, StaticSchemesRejectDynamicEnum) {
  auto [gc, lists] = make_fixture(30, 0.5, 20.0, 2.0, 2);
  EXPECT_THROW(pcore::color_conflict_graph_static(
                   gc, lists, pcore::ConflictColoringScheme::DynamicBucket, 1),
               std::invalid_argument);
}

TEST(ListColoring, SchemeNames) {
  EXPECT_STREQ(pcore::to_string(pcore::ConflictColoringScheme::DynamicBucket),
               "dynamic-bucket");
  EXPECT_STREQ(pcore::to_string(pcore::ConflictColoringScheme::StaticLargestFirst),
               "static-LF");
}

TEST(ListColoring, ReportsAuxBytes) {
  auto [gc, lists] = make_fixture(100, 0.4, 10.0, 2.0, 6);
  picasso::util::Xoshiro256 rng(6);
  const auto result = pcore::color_conflict_graph_dynamic(gc, lists, rng);
  EXPECT_GT(result.aux_peak_bytes, 0u);
}
