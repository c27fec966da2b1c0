// The edge-free fused coloring engine (core/solve_fused.hpp): bit-identity
// with the materialized engines across schemes, backends, kernels and
// thread counts; no ConflictCsr charge ever; the streaming variant agrees
// under arbitrary chunkings and budgets; the CSR projection behind the
// session planner behaves sanely.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "core/picasso.hpp"
#include "core/solve_fused.hpp"
#include "core/streaming.hpp"
#include "graph/graph_gen.hpp"
#include "graph/oracles.hpp"
#include "pauli/pauli_set.hpp"
#include "pauli/pauli_stream.hpp"
#include "util/packed_colors.hpp"
#include "util/rng.hpp"

namespace pcore = picasso::core;
namespace pg = picasso::graph;
namespace pp = picasso::pauli;
namespace pu = picasso::util;

namespace {

pp::PauliSet random_set(std::size_t n, std::size_t qubits,
                        pu::Xoshiro256& rng) {
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

constexpr pcore::ConflictColoringScheme kAllSchemes[] = {
    pcore::ConflictColoringScheme::DynamicBucket,
    pcore::ConflictColoringScheme::DynamicHeap,
    pcore::ConflictColoringScheme::StaticNatural,
    pcore::ConflictColoringScheme::StaticRandom,
    pcore::ConflictColoringScheme::StaticLargestFirst,
};

}  // namespace

// Every coloring scheme, both palette regimes: the fused engine must land
// on the exact coloring of the materialized pipeline — that is the whole
// contract that lets it replace the CSR path. After the random shapes come
// the list-size boundaries of the packed (vertex, slot) index: L = 1 (no
// slot bits), L = 75 (past one 64-bit WorkingLists word) and L = 270 (a
// slot no longer fits in a byte). Only the dynamic schemes strike by slot,
// so only they run the boundaries: the static schemes' per-vertex bucket
// passes cost O(n^2 L^2 / P) pair merges there.
TEST(FusedEngine, BitIdenticalToMaterializedAcrossSchemes) {
  struct Boundary {
    std::size_t n;
    double palette_percent;
    double alpha;
    std::uint32_t list_size;
  };
  constexpr Boundary kBoundaries[] = {
      {120, 12.5, 0.1, 1}, {600, 12.5, 30.0, 75}, {500, 60.0, 100.0, 270}};
  constexpr int kRandomCases = 8;
  pu::Xoshiro256 rng(0xf05edull);
  for (int c = 0; c < kRandomCases + 3; ++c) {
    const Boundary* boundary =
        c < kRandomCases ? nullptr : &kBoundaries[c - kRandomCases];
    const std::size_t n =
        boundary != nullptr ? boundary->n : 40 + rng.bounded(120);
    const std::size_t qubits = 2 + rng.bounded(48);
    const auto set = random_set(n, qubits, rng);
    for (const auto scheme : kAllSchemes) {
      const bool dynamic =
          scheme == pcore::ConflictColoringScheme::DynamicBucket ||
          scheme == pcore::ConflictColoringScheme::DynamicHeap;
      if (boundary != nullptr && !dynamic) continue;
      pcore::PicassoParams params;
      params.palette_percent = boundary != nullptr ? boundary->palette_percent
                               : c % 2 == 0        ? 12.5
                                                   : 3.0;
      params.alpha = boundary != nullptr ? boundary->alpha
                     : c % 2 == 0        ? 2.0
                                         : 30.0;
      params.seed = rng();
      params.conflict_scheme = scheme;
      const std::string key = "case " + std::to_string(c) + " scheme=" +
                              pcore::to_string(scheme) + " n=" +
                              std::to_string(n) + " seed=" +
                              std::to_string(params.seed);

      const auto ref = pcore::solve_pauli(set, params);
      const auto fused = pcore::solve_pauli_fused(set, params);
      if (boundary != nullptr) {
        ASSERT_EQ(fused.iterations.at(0).list_size, boundary->list_size)
            << key;
      }
      ASSERT_EQ(fused.colors, ref.colors) << key;
      ASSERT_EQ(fused.num_colors, ref.num_colors) << key;
      ASSERT_EQ(fused.iterations.size(), ref.iterations.size()) << key;
      // Static schemes enumerate every conflict neighbor, so their fused
      // edge counts are exactly the materialized |Ec| per iteration.
      if (!dynamic) {
        for (std::size_t i = 0; i < fused.iterations.size(); ++i) {
          ASSERT_EQ(fused.iterations[i].conflict_edges,
                    ref.iterations[i].conflict_edges)
              << key << " iteration " << i;
        }
      }
    }
  }
}

// The strike scan against a brute-force reading of the index: each batch
// holds exactly the still-uncolored members of the color's bucket,
// ascending, and each strike carries the color's slot in the target's
// list — across repeated scans of buckets the earlier scans compacted.
TEST(FusedEngine, StrikeScanCompactsToUncoloredBucketMembers) {
  constexpr std::uint32_t n = 300;
  const pcore::IterationPalette palette{12, 5, 0};
  const auto lists = pcore::assign_random_lists(n, palette, 7, 0);
  auto index = pcore::detail::build_color_index(lists, palette.palette_size);
  std::vector<std::uint32_t> batch;
  // Every candidate tests adjacent, so the strikes must be the whole batch.
  auto tester = [&batch](std::uint32_t, std::span<const std::uint32_t> cands,
                         std::uint8_t* hits) {
    batch.assign(cands.begin(), cands.end());
    std::fill(hits, hits + cands.size(), std::uint8_t{1});
  };
  const pcore::PicassoParams params;
  std::vector<std::uint8_t> touched(n, 0);
  pcore::detail::FusedScanStats stats;
  pcore::detail::FusedStrikeEnumerator<decltype(tester)> scan(
      index, tester, params, 0, n, touched, stats);
  pu::PackedColorArray assigned;
  assigned.reset(n, pcore::ListColoringResult::kNoColorLocal,
                 palette.palette_size);
  pu::Xoshiro256 rng(3);
  std::vector<std::uint32_t> order(n);
  for (std::uint32_t v = 0; v < n; ++v) order[v] = v;
  pu::shuffle(order, rng);
  for (const std::uint32_t v : order) {
    const std::uint32_t color =
        lists.list(v)[rng.bounded(palette.list_size)];
    assigned[v] = color;
    std::vector<std::uint32_t> expected;
    for (std::uint32_t u = 0; u < n; ++u) {
      const auto list = lists.list(u);
      if (assigned[u] == pcore::ListColoringResult::kNoColorLocal &&
          std::find(list.begin(), list.end(), color) != list.end()) {
        expected.push_back(u);
      }
    }
    batch.clear();
    std::vector<std::uint32_t> struck;
    scan(v, color, assigned, [&](std::uint32_t u, std::uint32_t slot) {
      ASSERT_EQ(lists.list(u)[slot], color) << "u=" << u;
      struck.push_back(u);
    });
    ASSERT_EQ(batch, expected) << "v=" << v << " color=" << color;
    ASSERT_EQ(struck, expected) << "v=" << v << " color=" << color;
  }
  EXPECT_EQ(stats.bucket_scans, n);
}

// Backend independence: all Pauli backends drive the same relation, so the
// fused colorings are identical across them (and to the materialized path).
TEST(FusedEngine, BitIdenticalAcrossPauliBackends) {
  pu::Xoshiro256 rng(0xfab5ull);
  for (int c = 0; c < 6; ++c) {
    const std::size_t n = 50 + rng.bounded(150);
    const std::size_t qubits = 1 + rng.bounded(70);
    const auto set = random_set(n, qubits, rng);
    pcore::PicassoParams params;
    params.seed = rng();

    params.pauli_backend = pcore::PauliBackend::Scalar;
    const auto ref = pcore::solve_pauli(set, params);
    for (const auto backend :
         {pcore::PauliBackend::Scalar, pcore::PauliBackend::Packed,
          pcore::PauliBackend::PackedScalar}) {
      params.pauli_backend = backend;
      const auto fused = pcore::solve_pauli_fused(set, params);
      ASSERT_EQ(fused.colors, ref.colors)
          << "case " << c << " backend=" << pcore::to_string(backend);
    }
  }
}

// Thread-count invariance: the hit arrays are position-indexed, so the
// fused coloring cannot depend on which worker answered which slab.
TEST(FusedEngine, BitIdenticalAcrossThreadCounts) {
  pu::Xoshiro256 rng(0x7123ull);
  const auto set = random_set(400, 20, rng);
  pcore::PicassoParams params;
  params.seed = 99;
  params.runtime.num_threads = 1;
  params.runtime.serial_cutoff = 0;
  const auto serial = pcore::solve_pauli_fused(set, params);
  for (const std::uint32_t threads : {2u, 4u}) {
    params.runtime.num_threads = threads;
    const auto parallel = pcore::solve_pauli_fused(set, params);
    ASSERT_EQ(parallel.colors, serial.colors) << "threads=" << threads;
  }
}

// Generic graphs through explicit oracles (what Strategy::Fused runs for
// Csr/Dense problems).
TEST(FusedEngine, BitIdenticalOnExplicitGraphs) {
  pu::Xoshiro256 rng(0x9a9aull);
  for (int c = 0; c < 6; ++c) {
    const auto n = static_cast<pg::VertexId>(60 + rng.bounded(240));
    const auto g = pg::rmat(n, n * (2 + rng.bounded(6)), 0.57, 0.19, 0.19,
                            rng());
    pcore::PicassoParams params;
    params.seed = rng();
    const pg::CsrOracle oracle(g);
    const auto ref = pcore::solve_oracle(oracle, params);
    const auto fused = pcore::solve_fused(oracle, params);
    ASSERT_EQ(fused.colors, ref.colors) << "case " << c;
  }
}

// The memory contract of the whole PR: a fused run never charges a byte to
// ConflictCsr, tracks its index under FusedFrontier instead, and its total
// tracked peak undercuts the materialized run's.
TEST(FusedEngine, NeverChargesConflictCsr) {
  pu::Xoshiro256 rng(0xbeefull);
  const auto set = random_set(500, 24, rng);
  pcore::PicassoParams params;
  params.seed = 7;
  params.runtime.num_threads = 1;

  const auto materialized = pcore::solve_pauli(set, params);
  const auto fused = pcore::solve_pauli_fused(set, params);

  const auto sub = [](const pcore::PicassoResult& r, pu::MemSubsystem s) {
    return r.memory.subsystem_peak[static_cast<unsigned>(s)];
  };
  EXPECT_GT(sub(materialized, pu::MemSubsystem::ConflictCsr), 0u);
  EXPECT_EQ(sub(fused, pu::MemSubsystem::ConflictCsr), 0u);
  EXPECT_GT(sub(fused, pu::MemSubsystem::FusedFrontier), 0u);
  EXPECT_LT(fused.memory.peak_tracked_bytes,
            materialized.memory.peak_tracked_bytes);
  // Strikes visit a subset of the conflict edges the materialized engine
  // stores — never more.
  ASSERT_EQ(fused.iterations.size(), materialized.iterations.size());
  for (std::size_t i = 0; i < fused.iterations.size(); ++i) {
    EXPECT_LE(fused.iterations[i].conflict_edges,
              materialized.iterations[i].conflict_edges)
        << "iteration " << i;
  }
}

// Streaming variant: spilled + chunk-cached records, same coloring as the
// fully in-memory engines for every chunking/budget combination tried.
TEST(FusedEngine, ChunkedFusedMatchesInMemory) {
  pu::Xoshiro256 rng(0x5111ull);
  const auto dir =
      std::filesystem::temp_directory_path() / "picasso_fused_chunked";
  std::filesystem::create_directories(dir);
  for (int c = 0; c < 8; ++c) {
    const std::size_t n = 60 + rng.bounded(200);
    const std::size_t qubits = 4 + rng.bounded(40);
    const auto set = random_set(n, qubits, rng);
    pcore::PicassoParams params;
    params.seed = rng();
    params.pauli_backend = rng.bounded(2) == 0 ? pcore::PauliBackend::Scalar
                                               : pcore::PauliBackend::Packed;
    const auto ref = pcore::solve_pauli(set, params);

    const auto path = (dir / ("case_" + std::to_string(c) + ".pset")).string();
    pp::spill_pauli_set(set, path);
    const std::size_t chunk = 1 + rng.bounded(n);
    const pp::ChunkedPauliReader reader(path, chunk);
    switch (rng.bounded(3)) {
      case 0: params.memory_budget_bytes = 4 << 10; break;
      case 1: params.memory_budget_bytes = 1 << 20; break;
      default: params.memory_budget_bytes = 0; break;
    }
    const auto fused = pcore::solve_pauli_chunked_fused(reader, params);
    ASSERT_EQ(fused.colors, ref.colors)
        << "case " << c << " chunk=" << chunk
        << " budget=" << params.memory_budget_bytes
        << " backend=" << pcore::to_string(params.pauli_backend);
    ASSERT_TRUE(fused.memory.streamed);
    EXPECT_EQ(fused.memory.subsystem_peak[static_cast<unsigned>(
                  pu::MemSubsystem::ConflictCsr)],
              0u);
  }
  std::filesystem::remove_all(dir);
}

// Budgeted wrapper: falls back to in-memory fused when nothing forces a
// spill; streams (and still agrees) when the budget does.
TEST(FusedEngine, BudgetedFusedHonorsTheGate) {
  pu::Xoshiro256 rng(0xcafe5ull);
  const auto set = random_set(200, 16, rng);
  pcore::PicassoParams params;
  params.seed = 3;
  const auto ref = pcore::solve_pauli(set, params);

  pcore::StreamingOptions options;
  options.spill_dir =
      (std::filesystem::temp_directory_path() / "picasso_fused_budget")
          .string();

  const auto in_memory = pcore::solve_pauli_budgeted_fused(set, params, options);
  EXPECT_FALSE(in_memory.memory.streamed);
  EXPECT_EQ(in_memory.colors, ref.colors);

  params.memory_budget_bytes = set.logical_bytes();  // < 2x input => spill
  const auto streamed = pcore::solve_pauli_budgeted_fused(set, params, options);
  EXPECT_TRUE(streamed.memory.streamed);
  EXPECT_EQ(streamed.colors, ref.colors);
  std::filesystem::remove_all(options.spill_dir);
}

// The planner's projection: zero for degenerate inputs, grows with n, and
// dominates the real measured assembly charge only by bounded factors on a
// dense complement (sanity, not a tight bound).
TEST(FusedEngine, ProjectedCsrBytesIsMonotoneAndPositive) {
  EXPECT_EQ(pcore::projected_conflict_csr_bytes(0, 12.5, 2.0), 0u);
  EXPECT_EQ(pcore::projected_conflict_csr_bytes(1, 12.5, 2.0), 0u);
  std::size_t prev = 0;
  for (const std::uint32_t n : {100u, 1000u, 10000u, 100000u}) {
    const std::size_t proj = pcore::projected_conflict_csr_bytes(n, 12.5, 2.0);
    EXPECT_GT(proj, prev) << "n=" << n;
    prev = proj;
  }
}
