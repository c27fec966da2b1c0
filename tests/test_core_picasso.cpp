// End-to-end tests for the Picasso driver (Algorithm 1): validity on
// explicit and implicit graphs, determinism, palette disjointness across
// iterations, parameter trade-offs, and the max-iterations safety valve.

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "api/session.hpp"
#include "coloring/verify.hpp"
#include "core/picasso.hpp"
#include "graph/graph_gen.hpp"
#include "graph/oracles.hpp"
#include "pauli/datasets.hpp"

namespace pcore = picasso::core;
namespace papi = picasso::api;
namespace pg = picasso::graph;
namespace pc = picasso::coloring;

class PicassoSweep
    : public ::testing::TestWithParam<
          std::tuple<double, double, std::uint64_t, double>> {};

TEST_P(PicassoSweep, ValidColoringOnDenseRandomGraphs) {
  const auto [percent, alpha, seed, density] = GetParam();
  const auto g = pg::erdos_renyi_dense(400, density, seed);
  pcore::PicassoParams params;
  params.palette_percent = percent;
  params.alpha = alpha;
  params.seed = seed;
  const auto r = papi::Session::from_params(params).solve(papi::Problem::dense(g)).result;
  const pg::DenseOracle oracle(g);
  EXPECT_TRUE(pc::is_valid_coloring_oracle(oracle, r.colors));
  EXPECT_GT(r.num_colors, 0u);
  EXPECT_LE(r.num_colors, r.palette_total);
  EXPECT_GE(r.iterations.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    ParamsSeedsDensities, PicassoSweep,
    ::testing::Combine(::testing::Values(3.0, 12.5, 20.0),
                       ::testing::Values(0.5, 2.0, 4.5),
                       ::testing::Values(1u, 2u),
                       ::testing::Values(0.3, 0.6)));

TEST(Picasso, DeterministicGivenSeed) {
  const auto g = pg::erdos_renyi_dense(300, 0.5, 7);
  pcore::PicassoParams params;
  params.seed = 99;
  const auto a = papi::Session::from_params(params).solve(papi::Problem::dense(g)).result;
  const auto b = papi::Session::from_params(params).solve(papi::Problem::dense(g)).result;
  EXPECT_EQ(a.colors, b.colors);
  EXPECT_EQ(a.num_colors, b.num_colors);
  params.seed = 100;
  const auto c = papi::Session::from_params(params).solve(papi::Problem::dense(g)).result;
  EXPECT_NE(a.colors, c.colors);  // different seed, different run
}

TEST(Picasso, KernelsProduceIdenticalColorings) {
  const auto g = pg::erdos_renyi_dense(250, 0.5, 3);
  const pg::DenseOracle oracle(g);
  const pcore::PicassoParams params;
  const auto idx =
      pcore::solve_oracle(oracle, params, pcore::ConflictKernel::Indexed);
  const auto ref =
      pcore::solve_oracle(oracle, params, pcore::ConflictKernel::Reference);
  EXPECT_EQ(idx.colors, ref.colors);
}

TEST(Picasso, IterationPalettesAreDisjoint) {
  // Vertices colored in iteration k must have colors within iteration k's
  // palette range; ranges never overlap because base advances by P_l.
  const auto g = pg::erdos_renyi_dense(300, 0.6, 11);
  pcore::PicassoParams params;
  params.palette_percent = 5.0;  // force multiple iterations
  params.alpha = 1.0;
  const auto r = papi::Session::from_params(params).solve(papi::Problem::dense(g)).result;
  ASSERT_GE(r.iterations.size(), 2u) << "expected a multi-iteration run";
  std::uint64_t palette_sum = 0;
  for (const auto& it : r.iterations) palette_sum += it.palette_size;
  EXPECT_LE(palette_sum, r.palette_total);
  // All colors fall inside [0, palette_total).
  for (auto c : r.colors) EXPECT_LT(c, r.palette_total);
}

TEST(Picasso, CompleteGraphNeedsAllColors) {
  const auto g = pg::complete_graph(40);
  pcore::PicassoParams params;
  params.palette_percent = 50.0;
  params.alpha = 3.0;
  const auto r = papi::Session::from_params(params).solve(papi::Problem::dense(g)).result;
  EXPECT_EQ(r.num_colors, 40u);
  const pg::DenseOracle oracle(g);
  EXPECT_TRUE(pc::is_valid_coloring_oracle(oracle, r.colors));
}

TEST(Picasso, SparseBipartiteUsesFewColors) {
  const auto g = pg::complete_bipartite(40, 40);
  pcore::PicassoParams params;
  params.palette_percent = 12.5;
  const auto r = papi::Session::from_params(params).solve(papi::Problem::csr(g)).result;
  const pg::CsrOracle oracle(g);
  EXPECT_TRUE(pc::is_valid_coloring_oracle(oracle, r.colors));
  // Not necessarily 2, but far below n.
  EXPECT_LT(r.num_colors, 20u);
}

TEST(Picasso, AggressiveBeatsNormalOnColors) {
  const auto g = pg::erdos_renyi_dense(400, 0.5, 13);
  pcore::PicassoParams norm;
  norm.palette_percent = 12.5;
  norm.alpha = 2.0;
  pcore::PicassoParams aggr;
  aggr.palette_percent = 3.0;
  aggr.alpha = 30.0;
  const auto rn = papi::Session::from_params(norm).solve(papi::Problem::dense(g)).result;
  const auto ra = papi::Session::from_params(aggr).solve(papi::Problem::dense(g)).result;
  EXPECT_LT(ra.num_colors, rn.num_colors);
  // ...at the cost of more conflict edges (the paper's trade-off).
  EXPECT_GT(ra.max_conflict_edges, rn.max_conflict_edges);
}

TEST(Picasso, MaxIterationsSafetyValveStillValid) {
  const auto g = pg::erdos_renyi_dense(200, 0.7, 17);
  pcore::PicassoParams params;
  params.palette_percent = 2.0;
  params.alpha = 0.5;
  params.max_iterations = 1;  // force the fallback tail
  const auto r = papi::Session::from_params(params).solve(papi::Problem::dense(g)).result;
  const pg::DenseOracle oracle(g);
  EXPECT_TRUE(pc::is_valid_coloring_oracle(oracle, r.colors));
  EXPECT_FALSE(r.converged);
}

TEST(Picasso, EmptyGraphIsTrivially0Colored) {
  const pg::DenseGraph g(0);
  const auto r = papi::Session::from_params({}).solve(papi::Problem::dense(g)).result;
  EXPECT_EQ(r.num_colors, 0u);
  EXPECT_TRUE(r.colors.empty());
  EXPECT_TRUE(r.converged);
}

TEST(Picasso, EdgelessGraphGetsOneIterationOneColorPerPalette) {
  pg::DenseGraph g(50);  // no edges: everyone unconflicted
  const auto r = papi::Session::from_params({}).solve(papi::Problem::dense(g)).result;
  EXPECT_EQ(r.iterations.size(), 1u);
  EXPECT_EQ(r.iterations[0].conflict_edges, 0u);
  const pg::DenseOracle oracle(g);
  EXPECT_TRUE(pc::is_valid_coloring_oracle(oracle, r.colors));
}

TEST(Picasso, StatsAreInternallyConsistent) {
  const auto g = pg::erdos_renyi_dense(300, 0.5, 19);
  const auto r = papi::Session::from_params({}).solve(papi::Problem::dense(g)).result;
  std::uint32_t colored_sum = 0;
  std::uint64_t max_ec = 0;
  for (std::size_t i = 0; i < r.iterations.size(); ++i) {
    const auto& it = r.iterations[i];
    EXPECT_EQ(it.colored + it.uncolored, it.n_active) << "iteration " << i;
    EXPECT_LE(it.list_size, it.palette_size);
    EXPECT_LE(it.conflicted_vertices, it.n_active);
    colored_sum += it.colored;
    max_ec = std::max(max_ec, it.conflict_edges);
    if (i + 1 < r.iterations.size()) {
      EXPECT_EQ(r.iterations[i + 1].n_active, it.uncolored);
    }
  }
  EXPECT_EQ(colored_sum, g.num_vertices());
  EXPECT_EQ(max_ec, r.max_conflict_edges);
  EXPECT_GE(r.total_seconds,
            0.0);  // phase sums are <= total (no negative accounting)
  EXPECT_GT(r.peak_logical_bytes, 0u);
  EXPECT_NEAR(r.color_percent(),
              100.0 * r.num_colors / g.num_vertices(), 1e-9);
}

TEST(Picasso, WorksDirectlyOnPauliComplementOracle) {
  const auto set = picasso::pauli::fig1_h2_set();
  pcore::PicassoParams params;
  params.palette_percent = 40.0;
  params.alpha = 30.0;
  params.seed = 3;
  const auto r = papi::Session::from_params(params).solve(papi::Problem::pauli(set)).result;
  const pg::ComplementOracle oracle(set);
  EXPECT_TRUE(pc::is_valid_coloring_oracle(oracle, r.colors));
  // The paper's Fig. 1 shows 17 strings -> 9 unitaries; we should land in
  // the same neighbourhood with an aggressive configuration.
  EXPECT_LE(r.num_colors, 12u);
  EXPECT_GE(r.num_colors, 9u);  // 9 is the best the paper shows
}
