// Property-based differential harness for the pluggable conflict oracles.
//
// Seeded randomized cases (~200 across the three suites; every case prints
// its replay key on failure) assert the contracts the refactor rests on:
//
//  (a) every coloring Picasso returns is conflict-free against a
//      brute-force O(n^2) oracle that never touches the encodings — the
//      character-comparison anticommutation check for Pauli inputs, the
//      explicit adjacency matrix walk for graphs;
//  (b) the packed (SIMD and forced-scalar) and scalar conflict oracles see
//      identical edge sets and the drivers built on them return identical
//      colorings;
//  (c) the streaming drivers agree with the in-memory driver under random
//      budgets, chunk sizes, and thread counts;
//  (d) the edge-free fused engine (Strategy::Fused) is bit-identical to the
//      materialized engines in deterministic mode — random seeds x backends
//      x thread counts x budgets, in-memory and spill-backed alike — and
//      its colorings are conflict-free against the brute-force oracle.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "core/picasso.hpp"
#include "core/streaming.hpp"
#include "graph/graph_gen.hpp"
#include "graph/oracles.hpp"
#include "pauli/pauli_set.hpp"
#include "util/rng.hpp"

namespace pcore = picasso::core;
namespace papi = picasso::api;
namespace pp = picasso::pauli;
namespace pg = picasso::graph;
namespace pu = picasso::util;

namespace {

constexpr std::uint64_t kHarnessSeed = 0xd1ffe7e57ull;

pp::PauliSet random_set(std::size_t n, std::size_t qubits, pu::Xoshiro256& rng) {
  std::vector<pp::PauliString> strings;
  strings.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pp::PauliString s(qubits);
    for (std::size_t q = 0; q < qubits; ++q) {
      s.set_op(q, static_cast<pp::PauliOp>(rng.bounded(4)));
    }
    strings.push_back(std::move(s));
  }
  return pp::PauliSet(strings);
}

pcore::PicassoParams random_params(pu::Xoshiro256& rng) {
  static constexpr double kPercents[] = {3.0, 10.0, 12.5, 25.0};
  static constexpr double kAlphas[] = {0.5, 2.0, 8.0, 30.0};
  pcore::PicassoParams params;
  params.palette_percent = kPercents[rng.bounded(4)];
  params.alpha = kAlphas[rng.bounded(4)];
  params.seed = rng();
  return params;
}

/// Brute-force conflict check for a Pauli coloring: same color implies
/// anticommutation (a complement-graph edge would be a conflict), via the
/// character-comparison oracle that shares no code with the bit kernels.
::testing::AssertionResult coloring_conflict_free_pauli(
    const pp::PauliSet& set, const std::vector<std::uint32_t>& colors) {
  for (std::size_t i = 0; i < set.size(); ++i) {
    for (std::size_t j = i + 1; j < set.size(); ++j) {
      if (colors[i] == colors[j] && !set.anticommute_naive(i, j)) {
        return ::testing::AssertionFailure()
               << "vertices " << i << " and " << j << " share color "
               << colors[i] << " but commute (conflict edge)";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult coloring_conflict_free_graph(
    const pg::CsrGraph& g, const std::vector<std::uint32_t>& colors) {
  for (pg::VertexId u = 0; u < g.num_vertices(); ++u) {
    for (pg::VertexId v : g.neighbors(u)) {
      if (u < v && colors[u] == colors[v]) {
        return ::testing::AssertionFailure()
               << "edge {" << u << ", " << v << "} is monochromatic ("
               << colors[u] << ")";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

std::string spill_dir() {
  const auto dir =
      std::filesystem::temp_directory_path() / "picasso_differential";
  std::filesystem::create_directories(dir);
  return dir.string();
}

}  // namespace

// --------------------------------------------------------------------------
// (a) + (b): random Pauli sets, all oracle backends.

TEST(DifferentialProperties, PauliBackendsAgreeAndColoringsAreConflictFree) {
  pu::Xoshiro256 rng(kHarnessSeed);
  for (int c = 0; c < 80; ++c) {
    const std::size_t n = 30 + rng.bounded(130);        // [30, 160)
    const std::size_t qubits = 1 + rng.bounded(72);     // [1, 72]
    const auto set = random_set(n, qubits, rng);
    pcore::PicassoParams params = random_params(rng);
    const std::string key = "case " + std::to_string(c) + ": n=" +
                            std::to_string(n) + " q=" +
                            std::to_string(qubits) + " seed=" +
                            std::to_string(params.seed);

    // Identical edge sets: the packed oracle (both kernels) must answer
    // exactly as the 3-bit scalar oracle on every pair.
    const pg::ComplementOracle scalar(set);
    const pg::PackedComplementOracle packed(set.packed_view(),
                                            pp::SimdLevel::Auto);
    const pg::PackedComplementOracle packed_scalar(set.packed_view(),
                                                   pp::SimdLevel::Scalar);
    for (std::uint32_t u = 0; u < n; ++u) {
      for (std::uint32_t v = u + 1; v < n; ++v) {
        const bool e = scalar.edge(u, v);
        ASSERT_EQ(packed.edge(u, v), e) << key;
        ASSERT_EQ(packed_scalar.edge(u, v), e) << key;
      }
    }

    params.pauli_backend = pcore::PauliBackend::Scalar;
    const auto ref = papi::Session::from_params(params).solve(papi::Problem::pauli(set)).result;
    params.pauli_backend = pcore::PauliBackend::Packed;
    const auto pk = papi::Session::from_params(params).solve(papi::Problem::pauli(set)).result;
    params.pauli_backend = pcore::PauliBackend::PackedScalar;
    const auto pks = papi::Session::from_params(params).solve(papi::Problem::pauli(set)).result;

    ASSERT_EQ(pk.colors, ref.colors) << key;
    ASSERT_EQ(pks.colors, ref.colors) << key;
    ASSERT_EQ(pk.num_colors, ref.num_colors) << key;
    ASSERT_TRUE(coloring_conflict_free_pauli(set, ref.colors)) << key;
  }
}

// --------------------------------------------------------------------------
// (a): random R-MAT graphs through the edge-list oracle, in-memory vs the
// semi-streaming pass driver.

TEST(DifferentialProperties, RmatColoringsAreConflictFreeAndStreamsAgree) {
  pu::Xoshiro256 rng(kHarnessSeed ^ 0xabcdef);
  for (int c = 0; c < 60; ++c) {
    const auto n = static_cast<pg::VertexId>(50 + rng.bounded(350));
    const std::uint64_t edges = n * (1 + rng.bounded(8));
    const auto g = pg::rmat(n, edges, 0.57, 0.19, 0.19, rng());
    pcore::PicassoParams params = random_params(rng);
    const std::string key = "case " + std::to_string(c) + ": n=" +
                            std::to_string(n) + " m=" +
                            std::to_string(g.num_edges()) + " seed=" +
                            std::to_string(params.seed);

    const auto ref = papi::Session::from_params(params).solve(papi::Problem::csr(g)).result;
    ASSERT_TRUE(coloring_conflict_free_graph(g, ref.colors)) << key;

    // The one-pass-per-iteration edge-stream driver sees the same conflict
    // edges, so it must land on the same coloring.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edge_list;
    edge_list.reserve(g.num_edges());
    for (pg::VertexId u = 0; u < g.num_vertices(); ++u) {
      for (pg::VertexId v : g.neighbors(u)) {
        if (u < v) edge_list.emplace_back(u, v);
      }
    }
    const pcore::VectorEdgeStream stream(std::move(edge_list));
    const auto streamed =
        papi::Session::from_params(params)
            .solve(papi::Problem::edge_stream(g.num_vertices(), stream))
            .result;
    ASSERT_EQ(streamed.colors, ref.colors) << key;
  }
}

// --------------------------------------------------------------------------
// (c): the budgeted/chunked engine vs the in-memory driver under random
// budgets, chunk sizes, thread counts, and backends.

TEST(DifferentialProperties, StreamingAgreesUnderRandomBudgetsAndThreads) {
  pu::Xoshiro256 rng(kHarnessSeed ^ 0x5eed5);
  const std::string dir = spill_dir();
  for (int c = 0; c < 60; ++c) {
    const std::size_t n = 60 + rng.bounded(240);     // [60, 300)
    const std::size_t qubits = 4 + rng.bounded(37);  // [4, 40]
    const auto set = random_set(n, qubits, rng);
    pcore::PicassoParams params = random_params(rng);
    params.pauli_backend = rng.bounded(2) == 0 ? pcore::PauliBackend::Scalar
                                               : pcore::PauliBackend::Packed;
    const std::string key =
        "case " + std::to_string(c) + ": n=" + std::to_string(n) + " q=" +
        std::to_string(qubits) + " seed=" + std::to_string(params.seed) +
        " backend=" + pcore::to_string(params.pauli_backend);

    const auto ref = papi::Session::from_params(params).solve(papi::Problem::pauli(set)).result;

    pcore::StreamingOptions options;
    options.chunk_strings = 1 + rng.bounded(n);  // [1, n]
    options.spill_dir = dir;
    // Budgets from starved (1 KiB: forced re-scans) to unlimited (0).
    switch (rng.bounded(4)) {
      case 0: params.memory_budget_bytes = 1 << 10; break;
      case 1: params.memory_budget_bytes = 64 << 10; break;
      case 2: params.memory_budget_bytes = 1 << 20; break;
      default: params.memory_budget_bytes = 0; break;
    }
    params.runtime.num_threads = 1 + rng.bounded(4);  // [1, 4]
    params.runtime.serial_cutoff = 0;  // engage the pool even at these sizes

    const auto streamed =
        papi::SessionBuilder().params(params).streaming(options).build().solve(papi::Problem::pauli(set)).result;
    ASSERT_TRUE(streamed.memory.streamed) << key;
    ASSERT_EQ(streamed.colors, ref.colors)
        << key << " chunk=" << options.chunk_strings
        << " budget=" << params.memory_budget_bytes
        << " threads=" << params.runtime.num_threads;
    ASSERT_EQ(streamed.num_colors, ref.num_colors) << key;
  }
  std::filesystem::remove_all(dir);
}

// --------------------------------------------------------------------------
// (d): the fused engine vs the materialized pipeline — random seeds,
// backends, thread counts and budgets; forced through Strategy::Fused so
// the whole session dispatch (in-memory and spill-backed) is exercised.

TEST(DifferentialProperties, FusedAgreesWithMaterializedEverywhere) {
  pu::Xoshiro256 rng(kHarnessSeed ^ 0xf05edull);
  const std::string dir = spill_dir();
  for (int c = 0; c < 60; ++c) {
    const std::size_t n = 40 + rng.bounded(220);     // [40, 260)
    const std::size_t qubits = 2 + rng.bounded(60);  // [2, 62)
    const auto set = random_set(n, qubits, rng);
    pcore::PicassoParams params = random_params(rng);
    switch (rng.bounded(3)) {
      case 0: params.pauli_backend = pcore::PauliBackend::Scalar; break;
      case 1: params.pauli_backend = pcore::PauliBackend::Packed; break;
      default: params.pauli_backend = pcore::PauliBackend::PackedScalar; break;
    }
    params.runtime.num_threads = 1 + rng.bounded(4);  // [1, 4]
    params.runtime.serial_cutoff = 0;
    const std::string key =
        "case " + std::to_string(c) + ": n=" + std::to_string(n) + " q=" +
        std::to_string(qubits) + " seed=" + std::to_string(params.seed) +
        " backend=" + pcore::to_string(params.pauli_backend) +
        " threads=" + std::to_string(params.runtime.num_threads);

    const auto ref = papi::SessionBuilder()
                         .params(params)
                         .strategy(papi::ExecutionStrategy::InMemory)
                         .build()
                         .solve(papi::Problem::pauli(set))
                         .result;

    // In-memory fused.
    const auto fused = papi::SessionBuilder()
                           .params(params)
                           .strategy(papi::ExecutionStrategy::Fused)
                           .build()
                           .solve(papi::Problem::pauli(set))
                           .result;
    ASSERT_EQ(fused.colors, ref.colors) << key;
    ASSERT_EQ(fused.num_colors, ref.num_colors) << key;
    ASSERT_EQ(fused.memory.subsystem_peak[static_cast<unsigned>(
                  pu::MemSubsystem::ConflictCsr)],
              0u)
        << key;
    ASSERT_TRUE(coloring_conflict_free_pauli(set, fused.colors)) << key;

    // Spill-backed fused: explicit chunking and a random budget force the
    // chunked strike engine.
    pcore::StreamingOptions options;
    options.chunk_strings = 1 + rng.bounded(n);
    options.spill_dir = dir;
    pcore::PicassoParams streamed_params = params;
    switch (rng.bounded(3)) {
      case 0: streamed_params.memory_budget_bytes = 8 << 10; break;
      case 1: streamed_params.memory_budget_bytes = 1 << 20; break;
      default: streamed_params.memory_budget_bytes = 0; break;
    }
    const auto fused_streamed = papi::SessionBuilder()
                                    .params(streamed_params)
                                    .streaming(options)
                                    .strategy(papi::ExecutionStrategy::Fused)
                                    .build()
                                    .solve(papi::Problem::pauli(set))
                                    .result;
    ASSERT_TRUE(fused_streamed.memory.streamed) << key;
    ASSERT_EQ(fused_streamed.colors, ref.colors)
        << key << " chunk=" << options.chunk_strings
        << " budget=" << streamed_params.memory_budget_bytes;
  }
  std::filesystem::remove_all(dir);
}

// Fused colorings are also scheme-complete: every conflict-coloring scheme
// lands on the materialized coloring (the scheme bodies are shared; this
// pins the enumerator contracts).
TEST(DifferentialProperties, FusedAgreesAcrossConflictSchemes) {
  pu::Xoshiro256 rng(kHarnessSeed ^ 0x5c4e3e5ull);
  constexpr pcore::ConflictColoringScheme kSchemes[] = {
      pcore::ConflictColoringScheme::DynamicBucket,
      pcore::ConflictColoringScheme::DynamicHeap,
      pcore::ConflictColoringScheme::StaticNatural,
      pcore::ConflictColoringScheme::StaticRandom,
      pcore::ConflictColoringScheme::StaticLargestFirst,
  };
  for (int c = 0; c < 12; ++c) {
    const std::size_t n = 40 + rng.bounded(140);
    const std::size_t qubits = 2 + rng.bounded(40);
    const auto set = random_set(n, qubits, rng);
    pcore::PicassoParams params = random_params(rng);
    params.conflict_scheme = kSchemes[c % 5];
    const std::string key = "case " + std::to_string(c) + " scheme=" +
                            pcore::to_string(params.conflict_scheme);
    const auto ref = papi::SessionBuilder()
                         .params(params)
                         .strategy(papi::ExecutionStrategy::InMemory)
                         .build()
                         .solve(papi::Problem::pauli(set))
                         .result;
    const auto fused = papi::SessionBuilder()
                           .params(params)
                           .strategy(papi::ExecutionStrategy::Fused)
                           .build()
                           .solve(papi::Problem::pauli(set))
                           .result;
    ASSERT_EQ(fused.colors, ref.colors) << key;
  }
}
