// Tests for the baseline colorers (the ColPack / Kokkos-EB / ECL-GC-R
// stand-ins): validity on a spread of graph families, the Δ+1 guarantee,
// ordering-specific quality guarantees, and parallel-method round behaviour.

#include <gtest/gtest.h>

#include <tuple>

#include "coloring/greedy.hpp"
#include "coloring/jones_plassmann.hpp"
#include "coloring/ordering.hpp"
#include "coloring/speculative.hpp"
#include "coloring/verify.hpp"
#include "graph/graph_gen.hpp"
#include "util/fnv.hpp"

namespace pc = picasso::coloring;
namespace pg = picasso::graph;

namespace {

const std::vector<pc::OrderingKind> kAllOrderings = {
    pc::OrderingKind::Natural,       pc::OrderingKind::Random,
    pc::OrderingKind::LargestFirst,  pc::OrderingKind::SmallestLast,
    pc::OrderingKind::DynamicLargestFirst,
    pc::OrderingKind::IncidenceDegree,
};

}  // namespace

TEST(Ordering, NamesAndDynamicFlags) {
  EXPECT_STREQ(pc::to_string(pc::OrderingKind::LargestFirst), "LF");
  EXPECT_STREQ(pc::to_string(pc::OrderingKind::SmallestLast), "SL");
  EXPECT_TRUE(pc::is_dynamic(pc::OrderingKind::DynamicLargestFirst));
  EXPECT_TRUE(pc::is_dynamic(pc::OrderingKind::IncidenceDegree));
  EXPECT_FALSE(pc::is_dynamic(pc::OrderingKind::LargestFirst));
}

TEST(Ordering, NaturalAndRandomArePermutations) {
  const auto nat = pc::natural_order(10);
  for (pg::VertexId v = 0; v < 10; ++v) EXPECT_EQ(nat[v], v);
  auto rnd = pc::random_order(100, 5);
  EXPECT_NE(rnd, pc::natural_order(100));
  std::sort(rnd.begin(), rnd.end());
  EXPECT_EQ(rnd, pc::natural_order(100));
  // Deterministic per seed.
  EXPECT_EQ(pc::random_order(50, 9), pc::random_order(50, 9));
}

TEST(Ordering, LargestFirstSortsByDegreeDescending) {
  const std::vector<std::uint64_t> degrees{1, 5, 3, 5, 0};
  const auto order = pc::largest_first_order(degrees);
  EXPECT_EQ(order[0], 1u);  // ties broken by id (stable)
  EXPECT_EQ(order[1], 3u);
  EXPECT_EQ(order[2], 2u);
  EXPECT_EQ(order[4], 4u);
}

TEST(Ordering, SmallestLastPeelsMinDegree) {
  // Star graph: leaves are peeled before the center (the center's degree
  // only drops to 1 when a single leaf remains, so it is peeled in the last
  // pair), putting the center within the first two of the coloring order.
  auto star = pg::CsrGraph::from_edges(
      5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  const auto order = pc::smallest_last_order(star);
  const auto center_pos = static_cast<std::size_t>(
      std::find(order.begin(), order.end(), 0u) - order.begin());
  EXPECT_LE(center_pos, 1u);
}

// Validity sweep: every ordering on every graph family.
class GreedyValidity
    : public ::testing::TestWithParam<std::tuple<int, pc::OrderingKind>> {};

TEST_P(GreedyValidity, ProducesValidColoringWithinDeltaPlusOne) {
  const auto [family, ordering] = GetParam();
  pg::CsrGraph csr;
  pg::DenseGraph dense;
  bool use_dense = false;
  switch (family) {
    case 0: csr = pg::erdos_renyi(150, 0.1, 42); break;
    case 1: csr = pg::erdos_renyi(150, 0.5, 43); break;
    case 2: csr = pg::path_graph(100); break;
    case 3: csr = pg::cycle_graph(101); break;
    case 4: csr = pg::complete_bipartite(20, 30); break;
    case 5: csr = pg::random_geometric(120, 0.2, 44); break;
    case 6: csr = pg::ring_lattice(90, 6); break;
    case 7:
      dense = pg::erdos_renyi_dense(150, 0.6, 45);
      use_dense = true;
      break;
    default:
      dense = pg::disjoint_cliques(5, 8);
      use_dense = true;
  }
  if (use_dense) {
    const auto r = pc::greedy_color(dense, ordering, 7);
    EXPECT_TRUE(pc::is_valid_coloring(dense, r.colors));
    EXPECT_LE(r.num_colors, dense.max_degree() + 1);
    EXPECT_GT(r.num_colors, 0u);
  } else {
    const auto r = pc::greedy_color(csr, ordering, 7);
    EXPECT_TRUE(pc::is_valid_coloring(csr, r.colors));
    EXPECT_LE(r.num_colors, csr.max_degree() + 1);
    EXPECT_GT(r.num_colors, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesTimesOrderings, GreedyValidity,
    ::testing::Combine(::testing::Range(0, 9),
                       ::testing::ValuesIn(kAllOrderings)));

TEST(Greedy, PathNeedsTwoColorsUnderSmallestLast) {
  // SL colors with at most degeneracy+1; a path has degeneracy 1.
  const auto g = pg::path_graph(50);
  EXPECT_EQ(pc::greedy_color(g, pc::OrderingKind::SmallestLast).num_colors, 2u);
}

TEST(Greedy, EvenCycleGetsTwoOddCycleGetsThreeUnderSL) {
  EXPECT_LE(pc::greedy_color(pg::cycle_graph(40),
                             pc::OrderingKind::SmallestLast).num_colors, 3u);
  EXPECT_EQ(pc::greedy_color(pg::cycle_graph(41),
                             pc::OrderingKind::SmallestLast).num_colors, 3u);
}

TEST(Greedy, DisjointCliquesNeedExactlyCliqueSizeColors) {
  const auto g = pg::disjoint_cliques(4, 6);
  for (auto ordering : kAllOrderings) {
    const auto r = pc::greedy_color(g, ordering, 3);
    EXPECT_EQ(r.num_colors, 6u) << pc::to_string(ordering);
  }
}

TEST(Greedy, CompleteGraphNeedsNColors) {
  const auto g = pg::complete_graph(12);
  for (auto ordering : kAllOrderings) {
    EXPECT_EQ(pc::greedy_color(g, ordering, 1).num_colors, 12u);
  }
}

TEST(Greedy, EmptyAndSingletonGraphs) {
  const auto empty = pg::CsrGraph::from_edges(0, {});
  EXPECT_EQ(pc::greedy_color(empty, pc::OrderingKind::Natural).num_colors, 0u);
  const auto lone = pg::CsrGraph::from_edges(1, {});
  const auto r = pc::greedy_color(lone, pc::OrderingKind::SmallestLast);
  EXPECT_EQ(r.num_colors, 1u);
  EXPECT_TRUE(pc::is_valid_coloring(lone, r.colors));
}

TEST(Greedy, ReportsAuxiliaryMemoryAndTime) {
  const auto g = pg::erdos_renyi(200, 0.3, 8);
  const auto r = pc::greedy_color(g, pc::OrderingKind::DynamicLargestFirst);
  EXPECT_GT(r.aux_peak_bytes, 0u);
  EXPECT_GE(r.seconds, 0.0);
}

class JonesPlassmannSweep
    : public ::testing::TestWithParam<std::tuple<pc::JpPriority, std::uint64_t>> {
};

TEST_P(JonesPlassmannSweep, ValidOnDenseAndSparse) {
  const auto [priority, seed] = GetParam();
  const auto sparse = pg::erdos_renyi(200, 0.05, seed);
  const auto rs = pc::jones_plassmann(sparse, priority, seed);
  EXPECT_TRUE(pc::is_valid_coloring(sparse, rs.colors));
  EXPECT_LE(rs.num_colors, sparse.max_degree() + 1);
  EXPECT_GE(rs.rounds, 1);

  const auto dense = pg::erdos_renyi_dense(200, 0.5, seed);
  const auto rd = pc::jones_plassmann(dense, priority, seed);
  EXPECT_TRUE(pc::is_valid_coloring(dense, rd.colors));
  EXPECT_LE(rd.num_colors, dense.max_degree() + 1);
}

INSTANTIATE_TEST_SUITE_P(
    PrioritiesAndSeeds, JonesPlassmannSweep,
    ::testing::Combine(::testing::Values(pc::JpPriority::Random,
                                         pc::JpPriority::LargestDegreeFirst),
                       ::testing::Values(1u, 2u, 3u)));

TEST(JonesPlassmann, DeterministicPerSeed) {
  const auto g = pg::erdos_renyi(150, 0.2, 5);
  const auto a = pc::jones_plassmann(g, pc::JpPriority::LargestDegreeFirst, 9);
  const auto b = pc::jones_plassmann(g, pc::JpPriority::LargestDegreeFirst, 9);
  EXPECT_EQ(a.colors, b.colors);
}

// A JP coloring is a pure function of (graph, priority, seed): these
// fingerprints, colors and round counts are pinned so no change to the
// schedule can move them.
TEST(JonesPlassmann, ColoringsArePinnedForBothPriorities) {
  const auto sparse = pg::rmat(2000, 16000, 0.45, 0.22, 0.22, 3);
  const auto dense = pg::erdos_renyi_dense(300, 0.5, 2);
  struct Pin {
    pc::JpPriority priority;
    std::uint64_t sparse_hash;
    std::uint32_t sparse_colors;
    int sparse_rounds;
    std::uint64_t dense_hash;
    std::uint32_t dense_colors;
    int dense_rounds;
  };
  for (const Pin& pin :
       {Pin{pc::JpPriority::Random, 0x41a04fb4bbc55d39ULL, 17, 75,
            0x54707718a071a7f3ULL, 49, 182},
        Pin{pc::JpPriority::LargestDegreeFirst, 0x440cf50b7104c451ULL, 13, 64,
            0xd83d210d2cc9bb58ULL, 45, 167}}) {
    const auto rs = pc::jones_plassmann(sparse, pin.priority, 7);
    EXPECT_EQ(picasso::util::coloring_fingerprint(rs.colors), pin.sparse_hash);
    EXPECT_EQ(rs.num_colors, pin.sparse_colors);
    EXPECT_EQ(rs.rounds, pin.sparse_rounds);
    const auto rd = pc::jones_plassmann(dense, pin.priority, 7);
    EXPECT_EQ(picasso::util::coloring_fingerprint(rd.colors), pin.dense_hash);
    EXPECT_EQ(rd.num_colors, pin.dense_colors);
    EXPECT_EQ(rd.rounds, pin.dense_rounds);
  }
}

TEST(JonesPlassmann, CompleteGraphTakesNColorsAndNRounds) {
  const auto g = pg::complete_graph(10);
  const auto r = pc::jones_plassmann(g);
  EXPECT_EQ(r.num_colors, 10u);
  EXPECT_EQ(r.rounds, 10);  // strictly sequential dependency chain
}

TEST(Speculative, ValidAcrossFamilies) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto g = pg::erdos_renyi(180, 0.3, seed);
    const auto r = pc::speculative_color(g);
    EXPECT_TRUE(pc::is_valid_coloring(g, r.colors));
    EXPECT_LE(r.num_colors, g.max_degree() + 1);
    EXPECT_GE(r.rounds, 1);
  }
  const auto dense = pg::erdos_renyi_dense(120, 0.7, 4);
  const auto r = pc::speculative_color(dense);
  EXPECT_TRUE(pc::is_valid_coloring(dense, r.colors));
}

TEST(Verify, DetectsInvalidColorings) {
  const auto g = pg::path_graph(4);
  std::vector<std::uint32_t> good{0, 1, 0, 1};
  EXPECT_TRUE(pc::is_valid_coloring(g, good));
  std::vector<std::uint32_t> monochrome{0, 0, 0, 0};
  EXPECT_FALSE(pc::is_valid_coloring(g, monochrome));
  std::vector<std::uint32_t> incomplete{0, 1, pc::kNoColor, 1};
  EXPECT_FALSE(pc::is_valid_coloring(g, incomplete));
  std::vector<std::uint32_t> short_array{0, 1};
  EXPECT_FALSE(pc::is_valid_coloring(g, short_array));
}

TEST(Verify, CountColorsAndClassSizes) {
  std::vector<std::uint32_t> colors{5, 7, 5, 9, 7, 5};
  EXPECT_EQ(pc::count_colors(colors), 3u);
  EXPECT_EQ(pc::color_class_sizes(colors),
            (std::vector<std::uint32_t>{3, 2, 1}));
  std::vector<std::uint32_t> with_gap{0, pc::kNoColor, 0};
  EXPECT_EQ(pc::count_colors(with_gap), 1u);
}
