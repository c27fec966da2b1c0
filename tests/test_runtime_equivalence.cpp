// Serial-vs-parallel equivalence: every runtime-powered path must be
// bit-identical to the serial num_threads = 1 reference — the conflict CSR
// (both kernels) and the full core solve_oracle driver — on every test
// graph family. This is the contract that lets the paper's
// tables be reproduced at any thread count.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "api/session.hpp"
#include "core/picasso.hpp"
#include "graph/graph_gen.hpp"
#include "graph/oracles.hpp"
#include "pauli/datasets.hpp"
#include "runtime/runtime_config.hpp"

namespace pcore = picasso::core;
namespace papi = picasso::api;
namespace pg = picasso::graph;
namespace rt = picasso::runtime;

namespace {

rt::RuntimeConfig serial_config() {
  rt::RuntimeConfig c;
  c.num_threads = 1;
  return c;
}

rt::RuntimeConfig parallel_config(std::uint32_t threads) {
  rt::RuntimeConfig c;
  c.num_threads = threads;
  c.serial_cutoff = 0;  // exercise the pool even on small test graphs
  return c;
}

std::vector<std::uint32_t> identity_active(std::uint32_t n) {
  std::vector<std::uint32_t> active(n);
  for (std::uint32_t v = 0; v < n; ++v) active[v] = v;
  return active;
}

void expect_identical_csr(const pg::CsrGraph& a, const pg::CsrGraph& b) {
  EXPECT_EQ(a.offsets(), b.offsets());
  EXPECT_EQ(a.neighbor_array(), b.neighbor_array());
}

}  // namespace

// ---------------------------------------------------------------------------
// Conflict-graph build.

class ConflictBuildEquivalence
    : public ::testing::TestWithParam<
          std::tuple<pcore::ConflictKernel, std::uint32_t, std::uint64_t>> {};

TEST_P(ConflictBuildEquivalence, ParallelCsrBitIdenticalToSerial) {
  const auto [kernel, threads, seed] = GetParam();
  const auto graph = pg::erdos_renyi_dense(600, 0.4, seed);
  const pg::DenseOracle oracle(graph);
  const auto active = identity_active(600);
  const auto palette = pcore::compute_palette(600, 12.5, 2.0, 0);
  const auto lists = pcore::assign_random_lists(600, palette, seed, 0);

  const auto serial = pcore::build_conflict_graph(
      oracle, active, lists, palette.palette_size, kernel, serial_config());
  const auto parallel = pcore::build_conflict_graph(
      oracle, active, lists, palette.palette_size, kernel,
      parallel_config(threads));

  EXPECT_EQ(serial.num_edges, parallel.num_edges);
  EXPECT_EQ(serial.num_conflicted_vertices, parallel.num_conflicted_vertices);
  expect_identical_csr(serial.graph, parallel.graph);
  EXPECT_TRUE(parallel.graph.validate().empty());
}

INSTANTIATE_TEST_SUITE_P(
    KernelsThreadsSeeds, ConflictBuildEquivalence,
    ::testing::Combine(::testing::Values(pcore::ConflictKernel::Reference,
                                         pcore::ConflictKernel::Indexed),
                       ::testing::Values(2u, 4u, 8u),
                       ::testing::Values(1u, 17u)));

// Eight workers ask the balancer for 32 chunks of a ~37-color palette, so
// most chunks hold one or two color buckets.
TEST(ConflictBuildEquivalence, TinyBalancedChunks) {
  const auto graph = pg::erdos_renyi_dense(300, 0.5, 3);
  const pg::DenseOracle oracle(graph);
  const auto active = identity_active(300);
  const auto palette = pcore::compute_palette(300, 12.5, 2.0, 0);
  const auto lists = pcore::assign_random_lists(300, palette, 3, 0);
  const auto index =
      pcore::detail::build_color_index(lists, palette.palette_size);
  const auto chunks = pcore::detail::plan_conflict_chunks(
      pcore::ConflictKernel::Indexed, 300, &index, palette.palette_size, 8);
  EXPECT_GE(chunks.size(), palette.palette_size / 2);
  const auto serial = pcore::build_conflict_graph(
      oracle, active, lists, palette.palette_size,
      pcore::ConflictKernel::Indexed, serial_config());
  const auto parallel = pcore::build_conflict_graph(
      oracle, active, lists, palette.palette_size,
      pcore::ConflictKernel::Indexed, parallel_config(8));
  expect_identical_csr(serial.graph, parallel.graph);
}

// ---------------------------------------------------------------------------
// Full Picasso driver, across graph families.

class PicassoEquivalenceFamilies : public ::testing::TestWithParam<int> {};

TEST_P(PicassoEquivalenceFamilies, ColorsBitIdenticalAcrossThreadCounts) {
  const int family = GetParam();
  pcore::PicassoParams params;
  params.seed = 5;
  params.runtime = serial_config();

  auto run_both = [&params](const auto& oracle) {
    const auto serial = papi::Session::from_params(params).solve(papi::Problem::oracle(oracle)).result;
    for (std::uint32_t threads : {2u, 4u}) {
      auto p = params;
      p.runtime = parallel_config(threads);
      const auto parallel = papi::Session::from_params(p).solve(papi::Problem::oracle(oracle)).result;
      EXPECT_EQ(serial.colors, parallel.colors) << threads << " threads";
      EXPECT_EQ(serial.num_colors, parallel.num_colors);
      EXPECT_EQ(serial.palette_total, parallel.palette_total);
      EXPECT_EQ(serial.iterations.size(), parallel.iterations.size());
      for (std::size_t i = 0; i < serial.iterations.size(); ++i) {
        EXPECT_EQ(serial.iterations[i].conflict_edges,
                  parallel.iterations[i].conflict_edges);
      }
    }
  };

  switch (family) {
    case 0: {
      const auto g = pg::erdos_renyi(500, 0.1, 2);
      run_both(pg::CsrOracle(g));
      break;
    }
    case 1: {
      const auto g = pg::erdos_renyi_dense(400, 0.5, 4);
      run_both(pg::DenseOracle(g));
      break;
    }
    case 2: {
      const auto g = pg::rmat(800, 6400, 0.57, 0.19, 0.19, 9);
      run_both(pg::CsrOracle(g));
      break;
    }
    case 3: {
      const auto g = pg::random_geometric(400, 0.08, 6);
      run_both(pg::CsrOracle(g));
      break;
    }
    case 4: {
      const auto set = picasso::pauli::fig1_h2_set();
      run_both(pg::ComplementOracle(set));
      break;
    }
    case 5: {
      const auto g = pg::complete_bipartite(150, 150);
      run_both(pg::CsrOracle(g));
      break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(GraphFamilies, PicassoEquivalenceFamilies,
                         ::testing::Range(0, 6));

TEST(PicassoEquivalence, AggressiveConfigAndReferenceKernel) {
  const auto g = pg::erdos_renyi_dense(300, 0.5, 8);
  const pg::DenseOracle oracle(g);
  pcore::PicassoParams params;
  params.palette_percent = 3.0;
  params.alpha = 30.0;
  params.seed = 11;
  params.runtime = serial_config();
  const auto serial =
      pcore::solve_oracle(oracle, params, pcore::ConflictKernel::Reference);
  params.runtime = parallel_config(4);
  const auto parallel =
      pcore::solve_oracle(oracle, params, pcore::ConflictKernel::Reference);
  EXPECT_EQ(serial.colors, parallel.colors);
}
