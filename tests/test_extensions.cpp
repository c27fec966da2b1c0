// Tests for the extension features beyond the paper's core pipeline:
// grouping modes (qubit-wise / general commutativity), the semi-streaming
// driver, iterated greedy refinement, and the Auto conflict-kernel policy.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "api/session.hpp"
#include "coloring/refine.hpp"
#include "coloring/verify.hpp"
#include "core/clique_partition.hpp"
#include "core/streaming.hpp"
#include "graph/graph_gen.hpp"
#include "graph/graph_io.hpp"
#include "graph/oracles.hpp"
#include "pauli/datasets.hpp"

namespace pp = picasso::pauli;
namespace pg = picasso::graph;
namespace pc = picasso::coloring;
namespace pcore = picasso::core;
namespace papi = picasso::api;

namespace {

pp::PauliSet random_set(std::size_t count, std::size_t qubits,
                        std::uint64_t seed) {
  picasso::util::Xoshiro256 rng(seed);
  std::vector<pp::PauliString> strings;
  for (std::size_t i = 0; i < count; ++i) {
    pp::PauliString s(qubits);
    for (std::size_t q = 0; q < qubits; ++q) {
      s.set_op(q, static_cast<pp::PauliOp>(rng.bounded(4)));
    }
    strings.push_back(s);
  }
  return pp::PauliSet(strings);
}

}  // namespace

// --- Qubit-wise commutativity -----------------------------------------------

TEST(Qwc, MatchesCharacterLevelDefinition) {
  const auto set = random_set(80, 27, 3);  // crosses symplectic word... no, 27 < 64; structure still fine
  for (std::size_t i = 0; i < set.size(); ++i) {
    for (std::size_t j = 0; j < set.size(); ++j) {
      const auto a = set.string(i);
      const auto b = set.string(j);
      bool expected = true;
      for (std::size_t q = 0; q < a.num_qubits(); ++q) {
        if (pp::anticommutes(a.op(q), b.op(q))) expected = false;
      }
      ASSERT_EQ(set.qubit_wise_commute(i, j), expected)
          << a.to_string() << " vs " << b.to_string();
    }
  }
}

TEST(Qwc, CrossesWordBoundary) {
  // 70 qubits: two symplectic words; place the single differing position
  // beyond bit 63.
  pp::PauliString a(70), b(70);
  a.set_op(66, pp::PauliOp::X);
  b.set_op(66, pp::PauliOp::Y);
  const pp::PauliSet set({a, b});
  EXPECT_FALSE(set.qubit_wise_commute(0, 1));
  b.set_op(66, pp::PauliOp::X);
  const pp::PauliSet same({a, b});
  EXPECT_TRUE(same.qubit_wise_commute(0, 1));
}

TEST(Qwc, ImpliesGeneralCommutation) {
  const auto set = random_set(100, 8, 5);
  for (std::size_t i = 0; i < set.size(); ++i) {
    for (std::size_t j = 0; j < set.size(); ++j) {
      if (set.qubit_wise_commute(i, j)) {
        EXPECT_FALSE(set.anticommute(i, j));
      }
    }
  }
}

// --- Grouping modes ----------------------------------------------------------

TEST(GroupingModes, PairSatisfiesMatchesRelations) {
  const pp::PauliSet set({pp::PauliString::parse("XI"),
                          pp::PauliString::parse("YI"),
                          pp::PauliString::parse("XX")});
  using M = pcore::GroupingMode;
  // XI vs YI: anticommute at position 0.
  EXPECT_TRUE(pcore::pair_satisfies(set, M::Unitary, 0, 1));
  EXPECT_FALSE(pcore::pair_satisfies(set, M::GeneralCommute, 0, 1));
  EXPECT_FALSE(pcore::pair_satisfies(set, M::QubitWiseCommute, 0, 1));
  // XI vs XX: equal or identity at every position -> QWC.
  EXPECT_TRUE(pcore::pair_satisfies(set, M::QubitWiseCommute, 0, 2));
  EXPECT_TRUE(pcore::pair_satisfies(set, M::GeneralCommute, 0, 2));
  EXPECT_FALSE(pcore::pair_satisfies(set, M::Unitary, 0, 2));
}

class GroupingModeSweep : public ::testing::TestWithParam<pcore::GroupingMode> {
};

TEST_P(GroupingModeSweep, PartitionIsValidUnderItsMode) {
  const auto mode = GetParam();
  const auto set = random_set(150, 6, 7);
  pcore::PicassoParams params;
  params.palette_percent = 15.0;
  params.alpha = 3.0;
  params.seed = 7;
  const auto result = pcore::partition_pauli_strings(set, params, mode);
  const std::string violation =
      pcore::verify_partition(set, result.groups, mode);
  EXPECT_TRUE(violation.empty()) << to_string(mode) << ": " << violation;
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, GroupingModeSweep,
    ::testing::Values(pcore::GroupingMode::Unitary,
                      pcore::GroupingMode::GeneralCommute,
                      pcore::GroupingMode::QubitWiseCommute));

TEST(GroupingModes, QwcPartitionIsAlsoValidGeneralCommutePartition) {
  // QWC is a strictly stronger relation, so every QWC group is a commute
  // group as well.
  const auto set = random_set(120, 5, 9);
  pcore::PicassoParams params;
  params.seed = 2;
  const auto result = pcore::partition_pauli_strings(
      set, params, pcore::GroupingMode::QubitWiseCommute);
  EXPECT_TRUE(pcore::verify_partition(set, result.groups,
                                      pcore::GroupingMode::QubitWiseCommute)
                  .empty());
  EXPECT_TRUE(pcore::verify_partition(set, result.groups,
                                      pcore::GroupingMode::GeneralCommute)
                  .empty());
}

TEST(GroupingModes, VerifierRejectsWrongMode) {
  // XI and YI anticommute: a valid unitary group, invalid commute group.
  const pp::PauliSet set({pp::PauliString::parse("XI"),
                          pp::PauliString::parse("YI")});
  pcore::UnitaryGroup g;
  g.members = {0, 1};
  EXPECT_TRUE(pcore::verify_partition(set, {g}, pcore::GroupingMode::Unitary)
                  .empty());
  EXPECT_FALSE(pcore::verify_partition(set, {g},
                                       pcore::GroupingMode::GeneralCommute)
                   .empty());
}

TEST(GroupingModes, Names) {
  EXPECT_STREQ(pcore::to_string(pcore::GroupingMode::Unitary),
               "unitary (anticommute)");
  EXPECT_STREQ(pcore::to_string(pcore::GroupingMode::QubitWiseCommute),
               "qubit-wise-commute");
}

// --- Semi-streaming driver ---------------------------------------------------

class StreamingEquivalence
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(StreamingEquivalence, MatchesOracleDriverExactly) {
  const auto [percent, seed] = GetParam();
  const auto g = pg::erdos_renyi(300, 0.3, seed);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (pg::VertexId u = 0; u < g.num_vertices(); ++u) {
    for (pg::VertexId v : g.neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  const pcore::VectorEdgeStream stream(std::move(edges));

  pcore::PicassoParams params;
  params.palette_percent = percent;
  params.seed = seed;
  const auto streamed =
      papi::Session::from_params(params)
          .solve(papi::Problem::edge_stream(g.num_vertices(), stream))
          .result;
  const auto oracled = papi::Session::from_params(params).solve(papi::Problem::csr(g)).result;
  EXPECT_EQ(streamed.colors, oracled.colors);
  EXPECT_EQ(streamed.num_colors, oracled.num_colors);
  EXPECT_EQ(streamed.iterations.size(), oracled.iterations.size());
}

INSTANTIATE_TEST_SUITE_P(
    ParamsAndSeeds, StreamingEquivalence,
    ::testing::Combine(::testing::Values(5.0, 12.5, 20.0),
                       ::testing::Values(1u, 2u, 3u)));

TEST(Streaming, FileStreamNeverHoldsTheGraph) {
  const auto g = pg::erdos_renyi(200, 0.2, 4);
  const auto path = std::filesystem::temp_directory_path() / "stream_test.el";
  pg::write_edge_list_file(path.string(), g);

  const pcore::FileEdgeStream stream(path.string());
  EXPECT_EQ(stream.num_vertices(), g.num_vertices());
  EXPECT_EQ(stream.num_edges(), g.num_edges());

  pcore::PicassoParams params;
  params.seed = 11;
  const auto streamed =
      papi::Session::from_params(params)
          .solve(papi::Problem::edge_stream(stream.num_vertices(), stream))
          .result;
  const auto oracled = papi::Session::from_params(params).solve(papi::Problem::csr(g)).result;
  EXPECT_EQ(streamed.colors, oracled.colors);
  std::filesystem::remove(path);
}

TEST(Streaming, FileStreamRejectsMissingOrEmptyFiles) {
  EXPECT_THROW(pcore::FileEdgeStream("/nonexistent/file.el"),
               std::runtime_error);
  const auto path = std::filesystem::temp_directory_path() / "empty_test.el";
  std::ofstream(path.string()).close();
  EXPECT_THROW(pcore::FileEdgeStream(path.string()), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Streaming, ValidOnPauliDerivedEdges) {
  const auto set = pp::fig1_h2_set();
  const pg::ComplementOracle oracle(set);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t u = 0; u < oracle.num_vertices(); ++u) {
    for (std::uint32_t v = u + 1; v < oracle.num_vertices(); ++v) {
      if (oracle.edge(u, v)) edges.emplace_back(u, v);
    }
  }
  const pcore::VectorEdgeStream stream(std::move(edges));
  pcore::PicassoParams params;
  params.palette_percent = 40.0;
  params.alpha = 30.0;
  params.seed = 3;
  const auto r =
      papi::Session::from_params(params)
          .solve(papi::Problem::edge_stream(
              static_cast<std::uint32_t>(set.size()), stream))
          .result;
  EXPECT_TRUE(pc::is_valid_coloring_oracle(oracle, r.colors));
}

// --- Iterated greedy refinement ----------------------------------------------

TEST(Refine, NeverIncreasesColorsAndStaysValid) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto g = pg::erdos_renyi_dense(300, 0.4, seed);
    auto r = pc::greedy_color(g, pc::OrderingKind::Random, seed);
    const std::uint32_t before = r.num_colors;
    for (auto order : {pc::RefineOrder::ReverseClasses,
                       pc::RefineOrder::LargestFirst,
                       pc::RefineOrder::RandomClasses}) {
      auto colors = r.colors;
      const auto refined = pc::iterated_greedy_refine(g, colors, 6, order, seed);
      EXPECT_LE(refined.colors_after, before) << to_string(order);
      EXPECT_EQ(refined.colors_before, before);
      EXPECT_TRUE(pc::is_valid_coloring(g, colors)) << to_string(order);
      EXPECT_EQ(pc::count_colors(colors), refined.colors_after);
    }
  }
}

TEST(Refine, CrushesAWastefulColoring) {
  // Identity coloring of a path (n colors); refinement should reach 2-3.
  const auto g = pg::path_graph(64);
  std::vector<std::uint32_t> colors(64);
  for (std::uint32_t v = 0; v < 64; ++v) colors[v] = v;
  const auto refined = pc::iterated_greedy_refine(
      g, colors, 8, pc::RefineOrder::ReverseClasses, 1);
  EXPECT_LE(refined.colors_after, 3u);
  EXPECT_TRUE(pc::is_valid_coloring(g, colors));
}

TEST(Refine, OracleOverloadImprovesPicassoOutput) {
  const auto set = random_set(200, 6, 23);
  const pg::ComplementOracle oracle(set);
  pcore::PicassoParams params;
  params.seed = 23;
  auto r = papi::Session::from_params(params).solve(papi::Problem::pauli(set)).result;
  const std::uint32_t before = r.num_colors;
  const auto refined = pc::iterated_greedy_refine_oracle(oracle, r.colors, 3);
  EXPECT_LE(refined.colors_after, before);
  EXPECT_TRUE(pc::is_valid_coloring_oracle(oracle, r.colors));
}

// --- Auto kernel policy ------------------------------------------------------

TEST(AutoKernel, ResolvesByListDensity) {
  using K = pcore::ConflictKernel;
  // Sparse lists: L^2 < P -> Indexed.
  EXPECT_EQ(pcore::resolve_kernel(K::Auto, 1000, 10), K::Indexed);
  // Dense lists: L^2 >= P -> Reference.
  EXPECT_EQ(pcore::resolve_kernel(K::Auto, 100, 10), K::Reference);
  EXPECT_EQ(pcore::resolve_kernel(K::Auto, 99, 10), K::Reference);
  // Explicit choices pass through.
  EXPECT_EQ(pcore::resolve_kernel(K::Reference, 1000, 10), K::Reference);
  EXPECT_EQ(pcore::resolve_kernel(K::Indexed, 100, 10), K::Indexed);
}

// Backend-dependent per-pair cost: a block-capable (packed SIMD) oracle
// makes reference slots cheaper, so the crossover shifts by
// kBlockedOraclePairCost. Pins the chosen kernel on both sides of the
// threshold for both oracle classes.
TEST(AutoKernel, BlockOracleShiftsTheCrossover) {
  using K = pcore::ConflictKernel;
  const std::uint64_t c = pcore::kBlockedOraclePairCost;
  ASSERT_GT(c, 1u);
  // L = 8, L^2 = 64. Per-pair oracle: crossover at P = 64. Blocked oracle:
  // crossover at P = 64 * c.
  EXPECT_EQ(pcore::resolve_kernel(K::Auto, 65, 8, /*blocked=*/false),
            K::Indexed);
  EXPECT_EQ(pcore::resolve_kernel(K::Auto, 64, 8, /*blocked=*/false),
            K::Reference);
  EXPECT_EQ(pcore::resolve_kernel(K::Auto, 64 * c + 1, 8, /*blocked=*/true),
            K::Indexed);
  EXPECT_EQ(pcore::resolve_kernel(K::Auto, 64 * c, 8, /*blocked=*/true),
            K::Reference);
  // The band in between is where the oracle's capability flips the
  // decision: the same (P, L) point picks Indexed with a per-pair oracle and
  // Reference with a blocked one — exactly the oracle dependence the Auto
  // model was missing.
  EXPECT_EQ(pcore::resolve_kernel(K::Auto, 100, 8, /*blocked=*/false),
            K::Indexed);
  EXPECT_EQ(pcore::resolve_kernel(K::Auto, 100, 8, /*blocked=*/true),
            K::Reference);
  // Explicit choices still pass through untouched.
  EXPECT_EQ(pcore::resolve_kernel(K::Indexed, 64, 8, true), K::Indexed);
  EXPECT_EQ(pcore::resolve_kernel(K::Reference, 4096, 8, true), K::Reference);
}

TEST(AutoKernel, ProducesIdenticalColoringsToBothKernels) {
  const auto g = pg::erdos_renyi_dense(200, 0.5, 29);
  for (auto [percent, alpha] : {std::pair{12.5, 2.0}, std::pair{3.0, 30.0}}) {
    pcore::PicassoParams params;
    params.palette_percent = percent;
    params.alpha = alpha;
    params.seed = 29;
    const pg::DenseOracle oracle(g);
    const auto auto_r = pcore::solve_oracle(oracle, params);
    const auto ref_r =
        pcore::solve_oracle(oracle, params, pcore::ConflictKernel::Reference);
    EXPECT_EQ(auto_r.colors, ref_r.colors);
  }
}
