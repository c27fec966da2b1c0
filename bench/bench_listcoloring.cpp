// §IV-B microbenchmarks: coloring the conflict graph.
//
// The paper's Algorithm 2 replaces a heap (O(log n) per update) with a
// bucket array (amortised O(1)) and argues the dynamic smallest-list-first
// order beats static orders on quality. This bench quantifies both claims:
// bucket vs heap runtime at equal policy, and dynamic vs static schemes'
// uncolored-vertex counts (quality of one Picasso iteration).

#include <benchmark/benchmark.h>

#include "core/conflict_graph.hpp"
#include "core/list_coloring.hpp"
#include "core/palette.hpp"
#include "graph/graph_gen.hpp"
#include "graph/oracles.hpp"
#include "util/rng.hpp"

namespace {

using namespace picasso;

struct Fixture {
  graph::CsrGraph gc;
  core::ColorLists lists;
};

/// A realistic conflict graph: one Picasso iteration's worth on a dense
/// random oracle at normal parameters.
Fixture make_fixture(std::uint32_t n, std::uint64_t seed) {
  const auto base = graph::erdos_renyi_dense(n, 0.5, seed);
  const graph::DenseOracle oracle(base);
  std::vector<std::uint32_t> active(n);
  for (std::uint32_t v = 0; v < n; ++v) active[v] = v;
  const auto palette = core::compute_palette(n, 12.5, 2.0, 0);
  auto lists = core::assign_random_lists(n, palette, seed, 0);
  lists.build_signatures();  // as the materialized driver does
  auto conflict =
      core::build_conflict_graph(oracle, active, lists, palette.palette_size,
                                 core::ConflictKernel::Indexed);
  return {std::move(conflict.graph), std::move(lists)};
}

void BM_Algorithm2Bucket(benchmark::State& state) {
  const auto fixture = make_fixture(static_cast<std::uint32_t>(state.range(0)), 7);
  for (auto _ : state) {
    util::Xoshiro256 rng(1);
    auto result = core::color_conflict_graph_dynamic(fixture.gc, fixture.lists, rng);
    benchmark::DoNotOptimize(result.num_colored);
  }
  state.counters["edges"] = static_cast<double>(fixture.gc.num_edges());
}
BENCHMARK(BM_Algorithm2Bucket)->Arg(500)->Arg(1000)->Arg(2000)->Arg(4000)
    ->Unit(benchmark::kMillisecond);

void BM_Algorithm2Heap(benchmark::State& state) {
  const auto fixture = make_fixture(static_cast<std::uint32_t>(state.range(0)), 7);
  for (auto _ : state) {
    util::Xoshiro256 rng(1);
    auto result = core::color_conflict_graph_heap(fixture.gc, fixture.lists, rng);
    benchmark::DoNotOptimize(result.num_colored);
  }
  state.counters["edges"] = static_cast<double>(fixture.gc.num_edges());
}
BENCHMARK(BM_Algorithm2Heap)->Arg(500)->Arg(1000)->Arg(2000)->Arg(4000)
    ->Unit(benchmark::kMillisecond);

void BM_StaticOrderColoring(benchmark::State& state) {
  const auto fixture = make_fixture(static_cast<std::uint32_t>(state.range(0)), 7);
  for (auto _ : state) {
    auto result = core::color_conflict_graph_static(
        fixture.gc, fixture.lists,
        core::ConflictColoringScheme::StaticLargestFirst, 1);
    benchmark::DoNotOptimize(result.num_colored);
  }
  state.counters["edges"] = static_cast<double>(fixture.gc.num_edges());
}
BENCHMARK(BM_StaticOrderColoring)->Arg(1000)->Arg(4000)
    ->Unit(benchmark::kMillisecond);

// Quality ablation: report the uncolored-vertex fraction of one iteration
// per scheme (lower = fewer retries in later Picasso iterations). Exposed
// as a counter; the runtime itself is secondary here.
void BM_SchemeQuality(benchmark::State& state) {
  const auto scheme = static_cast<core::ConflictColoringScheme>(state.range(0));
  const auto fixture = make_fixture(2000, 11);
  double uncolored = 0;
  for (auto _ : state) {
    util::Xoshiro256 rng(1);
    auto result =
        core::color_conflict_graph(fixture.gc, fixture.lists, scheme, rng);
    uncolored = static_cast<double>(result.uncolored.size());
    benchmark::DoNotOptimize(result.num_colored);
  }
  state.counters["uncolored"] = uncolored;
  state.SetLabel(core::to_string(scheme));
}
BENCHMARK(BM_SchemeQuality)
    ->Arg(static_cast<int>(core::ConflictColoringScheme::DynamicBucket))
    ->Arg(static_cast<int>(core::ConflictColoringScheme::StaticNatural))
    ->Arg(static_cast<int>(core::ConflictColoringScheme::StaticRandom))
    ->Arg(static_cast<int>(core::ConflictColoringScheme::StaticLargestFirst))
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
