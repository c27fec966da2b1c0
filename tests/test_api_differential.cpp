// Differential pinning of the session front-end against the core engine
// entry points it dispatches to: for equal parameters, Session::solve must
// produce bit-identical colorings to calling solve_pauli / solve_oracle /
// solve_stream / solve_pauli_chunked_fused directly — so planning adds no
// behavior of its own beyond choosing the engine.

#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "api/session.hpp"
#include "core/solve_fused.hpp"
#include "core/streaming.hpp"
#include "graph/graph_gen.hpp"
#include "graph/oracles.hpp"
#include "pauli/pauli_stream.hpp"
#include "util/rng.hpp"

namespace papi = picasso::api;
namespace pcore = picasso::core;
namespace pg = picasso::graph;
namespace pp = picasso::pauli;
namespace fs = std::filesystem;

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

pcore::PicassoParams test_params(std::uint64_t seed) {
  pcore::PicassoParams params;
  params.palette_percent = 12.5;
  params.alpha = 2.0;
  params.seed = seed;
  return params;
}

}  // namespace

TEST(ApiDifferential, PauliMatchesEngineAndScalarKernel) {
  const auto set = random_set(250, 14, 41);
  const auto params = test_params(41);
  const auto engine = pcore::solve_pauli(set, params);
  const auto session = papi::SessionBuilder()
                           .params(params)
                           .strategy(papi::ExecutionStrategy::InMemory)
                           .build()
                           .solve(papi::Problem::pauli(set));
  EXPECT_EQ(session.result.colors, engine.colors);
  EXPECT_EQ(session.result.num_colors, engine.num_colors);
  EXPECT_EQ(session.plan.strategy, papi::ExecutionStrategy::InMemory);
  // The scalar plane kernel, the ISA fallback of SimdLevel::Auto, colors
  // identically.
  EXPECT_EQ(pcore::solve_oracle(pg::PackedComplementOracle(
                                    set.packed_view(), pp::SimdLevel::Scalar),
                                params)
                .colors,
            engine.colors);
}

TEST(ApiDifferential, CsrAndDenseMatchOracleEngine) {
  // Auto plans the fused engine; it must agree with the materialized
  // oracle driver on the same graph.
  const auto params = test_params(43);
  const auto csr = pg::erdos_renyi(300, 0.1, 43);
  EXPECT_EQ(papi::Session::from_params(params)
                .solve(papi::Problem::csr(csr))
                .result.colors,
            pcore::solve_oracle(pg::CsrOracle(csr), params).colors);

  const auto dense = pg::erdos_renyi_dense(250, 0.5, 43);
  EXPECT_EQ(papi::Session::from_params(params)
                .solve(papi::Problem::dense(dense))
                .result.colors,
            pcore::solve_oracle(pg::DenseOracle(dense), params).colors);
}

TEST(ApiDifferential, TypeErasedOracleMatchesTemplateDriver) {
  const auto set = random_set(180, 10, 47);
  const pg::ComplementOracle oracle(set);
  const auto params = test_params(47);
  const auto engine = pcore::solve_oracle(oracle, params);
  const auto session = papi::Session::from_params(params)
                           .solve(papi::Problem::oracle(oracle));
  EXPECT_EQ(session.result.colors, engine.colors);
}

TEST(ApiDifferential, EdgeStreamMatchesStreamDriver) {
  const auto g = pg::erdos_renyi(280, 0.08, 53);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (pg::VertexId u = 0; u < g.num_vertices(); ++u) {
    for (pg::VertexId v : g.neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  const pcore::VectorEdgeStream stream(std::move(edges));
  const auto params = test_params(53);
  const auto engine = pcore::solve_stream(g.num_vertices(), stream, params);
  const auto session =
      papi::Session::from_params(params)
          .solve(papi::Problem::edge_stream(g.num_vertices(), stream));
  EXPECT_EQ(session.result.colors, engine.colors);
  EXPECT_EQ(session.plan.strategy, papi::ExecutionStrategy::SemiStreaming);
  // And both match the oracle driver on the same graph.
  EXPECT_EQ(session.result.colors,
            papi::Session::from_params(params)
                .solve(papi::Problem::csr(g))
                .result.colors);
}

TEST(ApiDifferential, BudgetedSessionMatchesChunkedFusedEngine) {
  const auto set = random_set(350, 16, 59);
  const auto dir = fs::temp_directory_path() / "picasso_api_diff_budget";
  fs::create_directories(dir);
  const auto spill = (dir / "budget.pset").string();
  pp::spill_pauli_set(set, spill);
  for (std::uint64_t seed : {1u, 2u}) {
    auto params = test_params(seed);
    // Budget tight enough that the session spills.
    params.memory_budget_bytes = set.logical_bytes();
    pcore::StreamingOptions options;
    options.chunk_strings = seed == 1 ? 0 : 64;  // derived and explicit
    const auto session = papi::SessionBuilder()
                             .params(params)
                             .streaming(options)
                             .build()
                             .solve(papi::Problem::pauli(set));
    EXPECT_EQ(session.plan.strategy, papi::ExecutionStrategy::Fused);
    ASSERT_TRUE(session.result.memory.streamed);
    // The engine over the same chunking the plan reported.
    const pp::ChunkedPauliReader reader(spill, session.plan.chunk_strings);
    const auto engine = pcore::solve_pauli_chunked_fused(reader, params);
    EXPECT_EQ(session.result.colors, engine.colors);
    EXPECT_EQ(session.result.memory.num_chunks, engine.memory.num_chunks);
    // The in-memory driver agrees too (the repo-wide invariant).
    EXPECT_EQ(session.result.colors,
              pcore::solve_pauli(set, test_params(seed)).colors);
  }
  fs::remove_all(dir);
}

TEST(ApiDifferential, ChunkedReaderAndSpillFileMatchChunkedFusedEngine) {
  const auto set = random_set(200, 12, 67);
  const auto dir = fs::temp_directory_path() / "picasso_api_diff";
  fs::create_directories(dir);
  const auto spill = (dir / "diff.pset").string();
  pp::spill_pauli_set(set, spill);

  const auto params = test_params(67);
  const pp::ChunkedPauliReader reader(spill, 48);
  const auto engine = pcore::solve_pauli_chunked_fused(reader, params);

  const auto via_reader = papi::Session::from_params(params)
                              .solve(papi::Problem::spill_reader(reader));
  EXPECT_EQ(via_reader.plan.strategy, papi::ExecutionStrategy::Fused);
  EXPECT_EQ(via_reader.result.colors, engine.colors);

  pcore::StreamingOptions options;
  options.chunk_strings = 48;
  const auto via_file = papi::SessionBuilder()
                            .params(params)
                            .streaming(options)
                            .build()
                            .solve(papi::Problem::pauli_spill(spill));
  EXPECT_EQ(via_file.result.colors, engine.colors);
  EXPECT_EQ(via_file.plan.chunk_strings, 48u);

  fs::remove_all(dir);
}
