// Property-based differential harness for the pluggable conflict oracles.
//
// Seeded randomized cases (~200 across the three suites; every case prints
// its replay key on failure) assert the contracts the refactor rests on:
//
//  (a) every coloring Picasso returns is conflict-free against a
//      brute-force O(n^2) oracle that never touches the encodings — the
//      character-comparison anticommutation check for Pauli inputs, the
//      explicit adjacency matrix walk for graphs;
//  (b) the packed oracles (SIMD and forced-scalar kernels) and the per-pair
//      oracle see the edge set of the paper's 3-bit kernel (anticommute3
//      over encode3 words), and the drivers built on them return identical
//      colorings;
//  (c) the streaming drivers agree with the in-memory driver under random
//      budgets, chunk sizes, and thread counts;
//  (d) the edge-free fused engine (Strategy::Fused) is bit-identical to the
//      materialized engines in deterministic mode — random seeds x kernels
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
#include "pauli/encoding.hpp"
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

/// The inverse-one-hot words of every string (encode3, the paper's §IV-A
/// encoding), words_per_string3 per string: the edge reference the plane
/// kernels are checked against.
std::vector<std::uint64_t> encode3_words(const pp::PauliSet& set) {
  const std::size_t w = pp::words_per_string3(set.num_qubits());
  std::vector<std::uint64_t> words(set.size() * w);
  for (std::size_t i = 0; i < set.size(); ++i) {
    pp::encode3(set.string(i), words.data() + i * w);
  }
  return words;
}

/// Fused solve through the packed oracle with the SIMD kernel forced off —
/// the scalar plane kernel that SimdLevel::Auto falls back to.
pcore::PicassoResult solve_packed_scalar(const pp::PauliSet& set,
                                         const pcore::PicassoParams& params) {
  return pcore::solve_fused(
      pg::PackedComplementOracle(set.packed_view(), pp::SimdLevel::Scalar),
      params);
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
// (a) + (b): random Pauli sets, every anticommutation kernel.

TEST(DifferentialProperties, PauliKernelsAgreeAndColoringsAreConflictFree) {
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

    // Identical edge sets: the per-pair oracle and the packed oracle (both
    // kernels, per pair and blocked) must answer exactly as the 3-bit
    // kernel on every pair.
    const std::vector<std::uint64_t> words3 = encode3_words(set);
    const std::size_t w3 = pp::words_per_string3(qubits);
    const pg::ComplementOracle per_pair(set);
    const pg::PackedComplementOracle packed(set.packed_view(),
                                            pp::SimdLevel::Auto);
    const pg::PackedComplementOracle packed_scalar(set.packed_view(),
                                                   pp::SimdLevel::Scalar);
    std::vector<std::uint32_t> all(n);
    for (std::uint32_t v = 0; v < n; ++v) all[v] = v;
    std::vector<std::uint8_t> block(n), block_scalar(n);
    for (std::uint32_t u = 0; u < n; ++u) {
      packed.edge_block(u, all.data(), n, block.data());
      packed_scalar.edge_block(u, all.data(), n, block_scalar.data());
      for (std::uint32_t v = 0; v < n; ++v) {
        const bool e = u != v && !pp::anticommute3(words3.data() + u * w3,
                                                   words3.data() + v * w3, w3);
        ASSERT_EQ(per_pair.edge(u, v), e) << key;
        ASSERT_EQ(packed.edge(u, v), e) << key;
        ASSERT_EQ(packed_scalar.edge(u, v), e) << key;
        ASSERT_EQ(block[v] != 0, e) << key;
        ASSERT_EQ(block_scalar[v] != 0, e) << key;
      }
    }

    const auto ref = pcore::solve_fused(per_pair, params);
    const auto pk = papi::Session::from_params(params).solve(papi::Problem::pauli(set)).result;
    const auto pks = solve_packed_scalar(set, params);

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
// budgets, chunk sizes, thread counts, and reference kernels.

TEST(DifferentialProperties, StreamingAgreesUnderRandomBudgetsAndThreads) {
  pu::Xoshiro256 rng(kHarnessSeed ^ 0x5eed5);
  const std::string dir = spill_dir();
  for (int c = 0; c < 60; ++c) {
    const std::size_t n = 60 + rng.bounded(240);     // [60, 300)
    const std::size_t qubits = 4 + rng.bounded(37);  // [4, 40]
    const auto set = random_set(n, qubits, rng);
    pcore::PicassoParams params = random_params(rng);
    // The in-memory reference runs the scalar plane kernel or the session's
    // default one.
    const bool scalar_ref = rng.bounded(2) == 0;
    const std::string key =
        "case " + std::to_string(c) + ": n=" + std::to_string(n) + " q=" +
        std::to_string(qubits) + " seed=" + std::to_string(params.seed) +
        (scalar_ref ? " ref=packed-scalar" : " ref=session");

    const auto ref =
        scalar_ref
            ? solve_packed_scalar(set, params)
            : papi::Session::from_params(params).solve(papi::Problem::pauli(set)).result;

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
// kernels, thread counts and budgets; forced through Strategy::Fused so
// the whole session dispatch (in-memory and spill-backed) is exercised.

TEST(DifferentialProperties, FusedAgreesWithMaterializedEverywhere) {
  pu::Xoshiro256 rng(kHarnessSeed ^ 0xf05edull);
  const std::string dir = spill_dir();
  for (int c = 0; c < 60; ++c) {
    const std::size_t n = 40 + rng.bounded(220);     // [40, 260)
    const std::size_t qubits = 2 + rng.bounded(60);  // [2, 62)
    const auto set = random_set(n, qubits, rng);
    pcore::PicassoParams params = random_params(rng);
    // The materialized reference runs one of three kernels: the per-pair
    // oracle, the session's packed default, or the scalar plane kernel.
    const std::uint64_t ref_kernel = rng.bounded(3);
    params.runtime.num_threads = 1 + rng.bounded(4);  // [1, 4]
    params.runtime.serial_cutoff = 0;
    const std::string key =
        "case " + std::to_string(c) + ": n=" + std::to_string(n) + " q=" +
        std::to_string(qubits) + " seed=" + std::to_string(params.seed) +
        " ref_kernel=" + std::to_string(ref_kernel) +
        " threads=" + std::to_string(params.runtime.num_threads);

    pcore::PicassoResult ref;
    switch (ref_kernel) {
      case 0:
        ref = pcore::solve_oracle(pg::ComplementOracle(set), params);
        break;
      case 1:
        ref = papi::SessionBuilder()
                  .params(params)
                  .strategy(papi::ExecutionStrategy::InMemory)
                  .build()
                  .solve(papi::Problem::pauli(set))
                  .result;
        break;
      default:
        ref = pcore::solve_oracle(
            pg::PackedComplementOracle(set.packed_view(),
                                       pp::SimdLevel::Scalar),
            params);
        break;
    }

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
