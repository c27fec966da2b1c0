// Unit tests for the unified memory telemetry: per-subsystem high-water
// marks, budget admission, run scoping, and the report plumbing through the
// Picasso drivers.

#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

#include "api/session.hpp"
#include "coloring/jones_plassmann.hpp"
#include "core/picasso.hpp"
#include "core/streaming.hpp"
#include "graph/graph_gen.hpp"
#include "pauli/pauli_set.hpp"
#include "util/memory.hpp"
#include "util/rng.hpp"

namespace pu = picasso::util;
namespace pcore = picasso::core;
namespace papi = picasso::api;
namespace pg = picasso::graph;
namespace pp = picasso::pauli;

TEST(MemoryRegistry, HighWaterMarkPerSubsystemAndTotal) {
  pu::MemoryRegistry reg;
  reg.charge(pu::MemSubsystem::ConflictCsr, 100);
  reg.charge(pu::MemSubsystem::PaletteLists, 50);
  EXPECT_EQ(reg.current_bytes(), 150u);
  EXPECT_EQ(reg.peak_bytes(), 150u);

  reg.release(pu::MemSubsystem::ConflictCsr, 100);
  EXPECT_EQ(reg.current_bytes(), 50u);
  EXPECT_EQ(reg.peak_bytes(), 150u);  // the peak never decreases

  // A second, smaller spike in another subsystem must not move the peak.
  reg.charge(pu::MemSubsystem::ChunkCache, 60);
  EXPECT_EQ(reg.peak_bytes(), 150u);
  // A larger one must.
  reg.charge(pu::MemSubsystem::ChunkCache, 100);
  EXPECT_EQ(reg.peak_bytes(), 210u);

  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.subsystem_peak[static_cast<unsigned>(
                pu::MemSubsystem::ConflictCsr)],
            100u);
  EXPECT_EQ(snap.subsystem_peak[static_cast<unsigned>(
                pu::MemSubsystem::PaletteLists)],
            50u);
  EXPECT_EQ(snap.subsystem_peak[static_cast<unsigned>(
                pu::MemSubsystem::ChunkCache)],
            160u);
}

TEST(MemoryRegistry, BudgetAdmissionAndOverBudgetEvents) {
  pu::MemoryRegistry reg;
  reg.set_budget(100);
  EXPECT_TRUE(reg.try_charge(pu::MemSubsystem::ChunkCache, 80));
  EXPECT_EQ(reg.headroom_bytes(), 20u);
  EXPECT_FALSE(reg.try_charge(pu::MemSubsystem::ChunkCache, 30));
  EXPECT_EQ(reg.current_bytes(), 80u);  // rejected charge left no residue

  // charge() is advisory: it goes through but is counted.
  reg.charge(pu::MemSubsystem::ConflictCsr, 30);
  EXPECT_EQ(reg.snapshot().over_budget_events, 1u);
  EXPECT_EQ(reg.headroom_bytes(), 0u);
}

TEST(MemoryRegistry, UnlimitedBudgetAlwaysAdmits) {
  pu::MemoryRegistry reg;
  EXPECT_TRUE(reg.try_charge(pu::MemSubsystem::ChunkCache, 1ull << 40));
  EXPECT_EQ(reg.snapshot().over_budget_events, 0u);
}

TEST(MemoryRegistry, ResetPeaksRebasesToCurrent) {
  pu::MemoryRegistry reg;
  reg.charge(pu::MemSubsystem::ColoringAux, 500);
  reg.release(pu::MemSubsystem::ColoringAux, 400);
  reg.reset_peaks();
  EXPECT_EQ(reg.peak_bytes(), 100u);
  EXPECT_EQ(reg.snapshot().subsystem_peak[static_cast<unsigned>(
                pu::MemSubsystem::ColoringAux)],
            100u);
}

TEST(MemoryRegistry, ExternalPeakFoldsInWithoutChangingCurrent) {
  pu::MemoryRegistry reg;
  reg.charge(pu::MemSubsystem::ConflictCsr, 100);
  reg.record_external_peak(pu::MemSubsystem::ColoringAux, 70);
  EXPECT_EQ(reg.current_bytes(), 100u);
  EXPECT_EQ(reg.peak_bytes(), 170u);  // concurrent-peak upper bound
}

TEST(MemoryRegistry, ConcurrentChargesBalance) {
  pu::MemoryRegistry reg;
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < kIters; ++i) {
        reg.charge(pu::MemSubsystem::ColoringAux, 64);
        reg.release(pu::MemSubsystem::ColoringAux, 64);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.current_bytes(), 0u);
  EXPECT_GE(reg.peak_bytes(), 64u);
  EXPECT_LE(reg.peak_bytes(), 64u * kThreads);
}

TEST(ScopedCharge, ReleasesOnDestructionAndResizesDelta) {
  pu::MemoryRegistry reg;
  {
    pu::ScopedCharge charge(pu::MemSubsystem::PaletteLists, 100, reg);
    EXPECT_EQ(reg.current_bytes(), 100u);
    charge.resize(250);
    EXPECT_EQ(reg.current_bytes(), 250u);
    charge.resize(40);
    EXPECT_EQ(reg.current_bytes(), 40u);
  }
  EXPECT_EQ(reg.current_bytes(), 0u);
  EXPECT_EQ(reg.peak_bytes(), 250u);
}

TEST(MemoryRunScope, OutermostScopeOwnsBudgetAndPeaks) {
  pu::MemoryRegistry reg;
  reg.charge(pu::MemSubsystem::PauliInput, 10);
  {
    pu::MemoryRunScope outer(1000, reg);
    EXPECT_TRUE(outer.outermost());
    EXPECT_EQ(reg.budget_bytes(), 1000u);
    EXPECT_EQ(reg.peak_bytes(), 10u);  // rebased to current
    reg.charge(pu::MemSubsystem::ConflictCsr, 500);
    {
      pu::MemoryRunScope inner(7, reg);  // nested: must not disturb anything
      EXPECT_FALSE(inner.outermost());
      EXPECT_EQ(reg.budget_bytes(), 1000u);
      EXPECT_EQ(reg.peak_bytes(), 510u);
    }
    EXPECT_EQ(reg.budget_bytes(), 1000u);
  }
  EXPECT_EQ(reg.budget_bytes(), 0u);  // restored
}

TEST(MemoryReport, PicassoRunFillsSubsystemPeaks) {
  const auto g = pg::erdos_renyi_dense(400, 0.5, 3);
  pcore::PicassoParams params;
  params.seed = 5;
  params.memory_budget_bytes = 256 << 20;
  // The materialized engine, so the conflict-CSR subsystem is exercised.
  const auto r = papi::SessionBuilder()
                     .params(params)
                     .strategy(papi::ExecutionStrategy::InMemory)
                     .build()
                     .solve(papi::Problem::dense(g))
                     .result;
  EXPECT_EQ(r.memory.budget_bytes, 256u << 20);
  EXPECT_TRUE(r.memory.within_budget());
  EXPECT_GT(r.memory.peak_tracked_bytes, 0u);
  EXPECT_GT(r.memory.peak_rss_bytes, 0u);
  const auto lists_peak = r.memory.subsystem_peak[static_cast<unsigned>(
      pu::MemSubsystem::PaletteLists)];
  const auto csr_peak = r.memory.subsystem_peak[static_cast<unsigned>(
      pu::MemSubsystem::ConflictCsr)];
  EXPECT_GT(lists_peak, 0u);
  EXPECT_GT(csr_peak, 0u);
  EXPECT_FALSE(r.memory.streamed);

  const auto json = r.memory.to_json();
  EXPECT_NE(json.find("\"peak_tracked_bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"within_budget\":true"), std::string::npos);
  EXPECT_NE(json.find("\"palette_lists\""), std::string::npos);
  EXPECT_NE(json.find("\"fused_frontier\""), std::string::npos);
}

TEST(MemoryReport, FusedRunChargesFrontierInsteadOfCsr) {
  const auto g = pg::erdos_renyi_dense(400, 0.5, 3);
  pcore::PicassoParams params;
  params.seed = 5;
  const auto r = papi::SessionBuilder()
                     .params(params)
                     .strategy(papi::ExecutionStrategy::Fused)
                     .build()
                     .solve(papi::Problem::dense(g))
                     .result;
  EXPECT_EQ(r.memory.subsystem_peak[static_cast<unsigned>(
                pu::MemSubsystem::ConflictCsr)],
            0u);
  const auto frontier_peak = r.memory.subsystem_peak[static_cast<unsigned>(
      pu::MemSubsystem::FusedFrontier)];
  EXPECT_GT(frontier_peak, 0u);
  // The frontier's floor is the inverted index itself: (nL + P + 1) words
  // of the largest iteration.
  std::size_t index_floor = 0;
  for (const auto& it : r.iterations) {
    index_floor = std::max(
        index_floor,
        (std::size_t{it.n_active} * it.list_size + it.palette_size + 1) *
            sizeof(std::uint32_t));
  }
  EXPECT_GE(frontier_peak, index_floor);
}

TEST(MemoryReport, TrackedListsPeakMatchesDriverAccounting) {
  // The telemetry's palette-lists high-water mark must agree with the
  // driver's own per-iteration accounting (max over iterations of the list
  // bytes) — the HWM is measured, not estimated.
  const auto g = pg::erdos_renyi_dense(300, 0.4, 9);
  pcore::PicassoParams params;
  params.seed = 2;
  for (const auto strategy :
       {papi::ExecutionStrategy::Fused, papi::ExecutionStrategy::InMemory}) {
    const auto r = papi::SessionBuilder()
                       .params(params)
                       .strategy(strategy)
                       .build()
                       .solve(papi::Problem::dense(g))
                       .result;
    // List entries (16 bits wide while the palette fits them, 32 bits
    // past that), plus — for the materialized driver only — the
    // one-word-per-vertex palette signatures its blocked pair-scan
    // prefilters on. The fused engine never reads them, so never builds
    // them.
    const std::size_t sig_bytes =
        strategy == papi::ExecutionStrategy::InMemory ? sizeof(std::uint64_t)
                                                      : 0;
    std::size_t expected = 0;
    for (const auto& it : r.iterations) {
      const std::size_t entry_bytes =
          it.palette_size <= pcore::ColorLists::kNarrowPaletteLimit
              ? sizeof(std::uint16_t)
              : sizeof(std::uint32_t);
      expected = std::max(
          expected, std::size_t{it.n_active} * it.list_size * entry_bytes +
                        std::size_t{it.n_active} * sig_bytes);
    }
    EXPECT_EQ(r.memory.subsystem_peak[static_cast<unsigned>(
                  pu::MemSubsystem::PaletteLists)],
              expected)
        << papi::to_string(strategy);
  }
}

// A solve's report holds only what that solve charged: running a baseline
// colorer in between must not show up in a later solve's subsystem peaks.
TEST(MemoryReport, BaselineColoringLeavesLaterSolvePeaksUnchanged) {
  picasso::util::Xoshiro256 rng(31);
  std::vector<pp::PauliString> strings;
  for (int i = 0; i < 300; ++i) {
    pp::PauliString s(12);
    for (std::size_t q = 0; q < 12; ++q) {
      s.set_op(q, static_cast<pp::PauliOp>(rng.bounded(4)));
    }
    strings.push_back(s);
  }
  const pp::PauliSet set(strings);
  const auto solve = [&set] {
    return papi::Session::from_params({})
        .solve(papi::Problem::pauli(set))
        .result.memory;
  };
  const auto before = solve();
  const auto g = pg::erdos_renyi(500, 0.1, 31);
  const auto jp = picasso::coloring::jones_plassmann(g);
  ASSERT_GT(jp.num_colors, 0u);
  const auto after = solve();
  EXPECT_EQ(before.subsystem_peak, after.subsystem_peak);
  EXPECT_EQ(before.peak_tracked_bytes, after.peak_tracked_bytes);
}

// The semi-streaming engine builds, each pass, the same conflict CSR from
// the same lists as the in-memory engine on the same graph, so it must
// charge the same palette-list, conflict-CSR and coloring peaks. (The
// in-memory Indexed build also charges its color index while it
// enumerates; on this input the CSR assembly outweighs it.)
TEST(MemoryReport, SemiStreamingChargesWhatInMemoryCharges) {
  const auto g = pg::erdos_renyi(400, 0.05, 13);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (pg::VertexId u = 0; u < g.num_vertices(); ++u) {
    for (pg::VertexId v : g.neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  const pcore::VectorEdgeStream stream(std::move(edges));
  pcore::PicassoParams params;
  params.seed = 13;
  params.runtime.num_threads = 1;
  const auto solve = [&params](papi::ExecutionStrategy strategy,
                               const papi::Problem& problem) {
    return papi::SessionBuilder()
        .params(params)
        .strategy(strategy)
        .build()
        .solve(problem)
        .result;
  };
  const auto streamed =
      solve(papi::ExecutionStrategy::SemiStreaming,
            papi::Problem::edge_stream(g.num_vertices(), stream));
  const auto in_memory =
      solve(papi::ExecutionStrategy::InMemory, papi::Problem::csr(g));
  ASSERT_EQ(streamed.colors, in_memory.colors);
  EXPECT_GT(streamed.memory.peak_tracked_bytes, 0u);
  for (const auto sub :
       {pu::MemSubsystem::PaletteLists, pu::MemSubsystem::ConflictCsr,
        pu::MemSubsystem::ColoringAux}) {
    const auto i = static_cast<unsigned>(sub);
    EXPECT_GT(in_memory.memory.subsystem_peak[i], 0u) << pu::to_string(sub);
    EXPECT_EQ(streamed.memory.subsystem_peak[i],
              in_memory.memory.subsystem_peak[i])
        << pu::to_string(sub);
  }
  EXPECT_EQ(streamed.memory.peak_tracked_bytes,
            in_memory.memory.peak_tracked_bytes);
}

// The Indexed conflict build holds the whole color index (n*L entries and
// P + 1 offsets) while it enumerates, so the conflict_csr peak covers it. On
// a sparse graph the CSR assembly alone is smaller than the index.
TEST(MemoryReport, IndexedConflictBuildChargesItsColorIndex) {
  const auto g = pg::rmat(8192, 8 * 8192, 0.57, 0.19, 0.19, 42);
  for (const std::uint32_t threads : {1u, 2u}) {
    pcore::PicassoParams params;
    params.seed = 1;
    params.runtime.num_threads = threads;
    params.runtime.serial_cutoff = 0;
    const auto r = pcore::solve_oracle(pg::CsrOracle(g), params,
                                       pcore::ConflictKernel::Indexed);
    ASSERT_FALSE(r.iterations.empty());
    const auto& first = r.iterations[0];
    const std::size_t index_bytes =
        (std::size_t{first.n_active} * first.list_size + first.palette_size +
         1) *
        sizeof(std::uint32_t);
    EXPECT_GE(r.memory.subsystem_peak[static_cast<unsigned>(
                  pu::MemSubsystem::ConflictCsr)],
              index_bytes)
        << "threads=" << threads;
  }
}
