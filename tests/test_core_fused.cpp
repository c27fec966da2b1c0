// The edge-free fused coloring engine (core/solve_fused.hpp): bit-identity
// with the materialized engines across schemes, backends, kernels and
// thread counts; no ConflictCsr charge ever; the streaming variant agrees
// under arbitrary chunkings and budgets; the CSR projection behind the
// session planner behaves sanely.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <iterator>
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
// the list-size boundaries of the packed (vertex, slot) index and the
// strike-state records: L = 1 (no slot bits), L = 64 and L = 65 (one mask
// word exactly and just past it), L = 75 and L = 270 (a slot no longer
// fits in a byte). Only the dynamic schemes strike by slot,
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
      {120, 12.5, 0.1, 1},    {400, 30.0, 24.5, 64},
      {400, 30.0, 24.9, 65},  {600, 12.5, 30.0, 75},
      {500, 60.0, 100.0, 270}};
  constexpr int kBoundaryCases = std::size(kBoundaries);
  constexpr int kRandomCases = 8;
  pu::Xoshiro256 rng(0xf05edull);
  for (int c = 0; c < kRandomCases + kBoundaryCases; ++c) {
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
// holds exactly the uncolored members of the color's bucket whose slot for
// it is still live, ascending, and each strike carries that slot — across
// repeated scans of buckets the earlier scans compacted. Strikes land in
// the strike state between scans (about half the candidates test
// adjacent), so struck slots and emptied lists must drop out of later
// batches.
TEST(FusedEngine, StrikeScanCompactsToLiveSlots) {
  constexpr std::uint32_t n = 300;
  const pcore::IterationPalette palette{12, 5, 0};
  const auto lists = pcore::assign_random_lists(n, palette, 7, 0);
  auto index = pcore::detail::build_color_index(lists, palette.palette_size);
  const auto adjacent = [](std::uint32_t v, std::uint32_t u) {
    return ((v * 0x9e3779b1u) ^ (u * 0x85ebca6bu)) >> 31 != 0;
  };
  std::vector<std::uint32_t> batch;
  auto tester = [&](std::uint32_t v, std::span<const std::uint32_t> cands,
                    std::uint8_t* hits) {
    batch.assign(cands.begin(), cands.end());
    for (std::size_t i = 0; i < cands.size(); ++i) {
      hits[i] = adjacent(v, cands[i]) ? 1 : 0;
    }
  };
  const pcore::PicassoParams params;
  std::vector<std::uint8_t> touched(n, 0);
  pcore::detail::FusedScanStats stats;
  pcore::detail::FusedStrikeEnumerator<decltype(tester)> scan(
      index, tester, params, 0, n, touched, stats);
  pcore::detail::StrikeState state(lists, /*bucketed=*/false);
  // Reference bookkeeping, kept apart from the state under test.
  std::vector<std::uint8_t> colored(n, 0);
  std::vector<std::uint32_t> left(n, palette.list_size);
  std::vector<std::vector<std::uint8_t>> struck_slot(
      n, std::vector<std::uint8_t>(palette.list_size, 0));
  pu::Xoshiro256 rng(3);
  std::vector<std::uint32_t> order(n);
  for (std::uint32_t v = 0; v < n; ++v) order[v] = v;
  pu::shuffle(order, rng);
  std::uint64_t scans = 0;
  std::uint64_t emptied = 0;
  for (const std::uint32_t v : order) {
    if (left[v] == 0) continue;  // emptied: Algorithm 2 never colors it
    ASSERT_EQ(state.size_of(v), left[v]) << "v=" << v;
    const std::uint32_t color = state.color_at(
        v, static_cast<std::uint32_t>(rng.bounded(left[v])));
    const auto own = lists.list(v);
    const auto own_slot = static_cast<std::uint32_t>(
        std::find(own.begin(), own.end(), color) - own.begin());
    ASSERT_LT(own_slot, palette.list_size) << "v=" << v;
    ASSERT_FALSE(struck_slot[v][own_slot]) << "v=" << v;
    state.retire(v);
    colored[v] = 1;
    std::vector<std::uint32_t> expected;
    std::vector<std::uint32_t> expected_struck;
    for (std::uint32_t u = 0; u < n; ++u) {
      const auto list = lists.list(u);
      const auto it = std::find(list.begin(), list.end(), color);
      if (colored[u] || it == list.end()) continue;
      if (struck_slot[u][static_cast<std::size_t>(it - list.begin())]) continue;
      expected.push_back(u);
      if (adjacent(v, u)) expected_struck.push_back(u);
    }
    batch.clear();
    std::vector<std::uint32_t> struck;
    scan(v, color, state, [&](std::uint32_t u, std::uint32_t slot) {
      ASSERT_EQ(lists.list(u)[slot], color) << "u=" << u;
      ASSERT_TRUE(state.live(u, slot)) << "u=" << u;
      struck.push_back(u);
      struck_slot[u][slot] = 1;
      emptied += --left[u] == 0 ? 1 : 0;
      state.remove_slot(u, slot);
    });
    ++scans;
    ASSERT_EQ(batch, expected) << "v=" << v << " color=" << color;
    ASSERT_EQ(struck, expected_struck) << "v=" << v << " color=" << color;
  }
  EXPECT_EQ(stats.bucket_scans, scans);
  // The run must exercise both drop rules, not just the colored one.
  EXPECT_GT(emptied, 0u);
  EXPECT_GT(stats.edges_struck, 0u);
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

// The admission projection of a fused plan bounds what the engine really
// tracks above its input, across sizes (16400 sits just past a power of
// two, where the initial bucket's push_back capacity is widest) and both
// palette regimes (normal: L << P; aggressive: L at or near P).
TEST(FusedEngine, ProjectedFusedBytesBoundsMeasuredPeak) {
  EXPECT_EQ(pcore::projected_fused_bytes(0, 12.5, 2.0), 0u);
  struct Palette {
    double percent;
    double alpha;
  };
  for (const std::size_t n : {64u, 500u, 4000u, 16400u}) {
    pu::Xoshiro256 rng(0x5eedull + n);
    const auto set = random_set(n, 20, rng);
    for (const Palette pal : {Palette{12.5, 2.0}, Palette{3.0, 30.0},
                              Palette{1.0, 1.0}, Palette{50.0, 4.0}}) {
      pcore::PicassoParams params;
      params.seed = 11;
      params.palette_percent = pal.percent;
      params.alpha = pal.alpha;
      params.runtime.num_threads = 1;
      const auto result = pcore::solve_pauli_fused(set, params);
      const std::size_t projected =
          set.logical_bytes() +
          pcore::projected_fused_bytes(static_cast<std::uint32_t>(n),
                                       pal.percent, pal.alpha);
      EXPECT_GE(projected, result.memory.peak_tracked_bytes)
          << "n=" << n << " palette " << pal.percent << "% alpha "
          << pal.alpha;
    }
  }
}
