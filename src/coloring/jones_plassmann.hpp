#pragma once
// Jones-Plassmann parallel coloring (the algorithmic family behind
// ECL-GC-R, our quality/performance comparator in Tables III, IV and Fig. 4).
//
// Each vertex gets a priority; a vertex colors itself once every
// higher-priority neighbor is colored, taking the smallest color unused in
// its neighborhood. Implemented as the priority-DAG schedule: a per-vertex
// counter of uncolored higher-priority neighbors is maintained, the frontier
// of count-zero vertices is colored each round (in parallel), and counters
// of lower-priority neighbors are decremented — O(|E|) total work instead of
// re-scanning all pairs every round, which matters on the ~50%-dense
// complement graphs of this application. The round count equals the longest
// monotone priority chain, exactly as in classic JP.
//
// Rounds execute on the work-stealing runtime pool (src/runtime/): the
// frontier is an independent set, so phase 1 colors its chunks concurrently
// (each vertex reads only colors fixed in earlier rounds), and phase 2
// releases lower-priority neighbors with atomic counter decrements — the
// thread whose decrement reaches zero claims the vertex for the next
// frontier, so each vertex is claimed exactly once under any schedule.
// Priorities use per-vertex keyed RNG streams (never a sequential draw), so
// every thread count produces the same priority vector, and the next
// frontier is sorted, making the whole run bit-identical to the serial
// `num_threads = 1` path. Per-chunk forbidden-color scratch comes from the
// thread-local runtime arenas.
//
// With largest-degree-first priorities (random tie-break) this is JP-LDF,
// the variant ECL-GC accelerates with shortcutting heuristics.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "coloring/adapters.hpp"
#include "coloring/greedy.hpp"
#include "runtime/arena.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/runtime_config.hpp"
#include "runtime/thread_pool.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace picasso::coloring {

enum class JpPriority {
  Random,              // Luby-style random priorities
  LargestDegreeFirst,  // degree, random tie-break (JP-LDF)
};

template <ColorableGraph G>
ColoringResult jones_plassmann(const G& g,
                               JpPriority priority = JpPriority::LargestDegreeFirst,
                               std::uint64_t seed = 1,
                               const runtime::RuntimeConfig& rt = {}) {
  util::WallTimer timer;
  const VertexId n = g.num_vertices();
  ColoringResult result;
  result.colors.assign(n, kNoColor);
  runtime::ThreadPool* pool = runtime::resolve_pool(rt, n);
  const unsigned workers = pool != nullptr ? pool->num_workers() : 1;

  // Priority = (key << 32) | random tie-break; vertex id breaks exact ties.
  // The tie-break stream is keyed per (seed, vertex) — not drawn from one
  // sequential generator — so the priority vector is identical under any
  // chunking or thread count.
  std::vector<std::uint64_t> prio(n);
  runtime::parallel_for(pool, 0, n, 0, [&](std::size_t v) {
    const std::uint64_t key =
        priority == JpPriority::LargestDegreeFirst
            ? g.degree(static_cast<VertexId>(v))
            : 0;
    util::SplitMix64 mix(seed ^ (0x9e3779b97f4a7c15ULL * (v + 1)));
    prio[v] = (key << 32) ^ (mix.next() & 0xffffffffu);
  });
  auto higher = [&prio](VertexId a, VertexId b) {
    if (prio[a] != prio[b]) return prio[a] > prio[b];
    return a > b;
  };

  // Count uncolored higher-priority neighbors per vertex. Atomic because
  // phase 2 decrements concurrently; round membership is schedule-
  // independent (the zero-crossing set is fixed by the priorities).
  std::unique_ptr<std::atomic<std::uint32_t>[]> wait_count(
      new std::atomic<std::uint32_t>[n]);
  runtime::parallel_for(pool, 0, n, 0, [&](std::size_t i) {
    const auto v = static_cast<VertexId>(i);
    std::uint32_t count = 0;
    for_each_neighbor(g, v, [&](VertexId u) {
      if (higher(u, v)) ++count;
    });
    wait_count[v].store(count, std::memory_order_relaxed);
  });

  std::vector<VertexId> frontier;
  for (VertexId v = 0; v < n; ++v) {
    if (wait_count[v].load(std::memory_order_relaxed) == 0) {
      frontier.push_back(v);
    }
  }

  const std::size_t forbid_size = static_cast<std::size_t>(g.max_degree()) + 2;
  std::vector<VertexId> next;
  std::vector<std::vector<VertexId>> next_parts;  // reused across rounds
  int rounds = 0;
  while (!frontier.empty()) {
    ++rounds;
    // Phase 1: color the frontier in parallel. The frontier is an
    // independent set: for any adjacent pair the lower-priority vertex
    // still waits on the higher one, so both cannot have count zero — every
    // neighbor color read here was fixed in an earlier round.
    runtime::parallel_for_chunks(
        pool, 0, frontier.size(), 0,
        [&](const runtime::ChunkRange& chunk) {
          runtime::Arena& arena = runtime::this_thread_arena();
          runtime::Arena::Scope scope(arena);
          auto forbid = arena.alloc_zeroed<std::uint64_t>(forbid_size);
          std::uint64_t stamp = 0;
          for (std::size_t idx = chunk.begin; idx < chunk.end; ++idx) {
            const VertexId v = frontier[idx];
            ++stamp;
            for_each_neighbor(g, v, [&](VertexId u) {
              const std::uint32_t c = result.colors[u];
              if (c != kNoColor && c < forbid.size()) forbid[c] = stamp;
            });
            std::uint32_t c = 0;
            while (c < forbid.size() && forbid[c] == stamp) ++c;
            result.colors[v] = c;
          }
        });

    // Phase 2: release lower-priority neighbors. The decrement that reaches
    // zero claims the vertex, so the next frontier's *membership* is
    // deterministic; its order is canonicalised by the sort below.
    {
      const auto chunks =
          runtime::uniform_chunks(0, frontier.size(), 0, workers);
      if (next_parts.size() < chunks.size()) next_parts.resize(chunks.size());
      for (auto& part : next_parts) part.clear();  // keep capacities
      runtime::run_chunks(pool, chunks, [&](const runtime::ChunkRange& chunk) {
        std::vector<VertexId>& out = next_parts[chunk.index];
        for (std::size_t idx = chunk.begin; idx < chunk.end; ++idx) {
          const VertexId v = frontier[idx];
          for_each_neighbor(g, v, [&](VertexId u) {
            if (result.colors[u] == kNoColor && higher(v, u)) {
              if (wait_count[u].fetch_sub(1, std::memory_order_acq_rel) == 1) {
                out.push_back(u);
              }
            }
          });
        }
      });
      next.clear();
      for (std::size_t c = 0; c < chunks.size(); ++c) {
        next.insert(next.end(), next_parts[c].begin(), next_parts[c].end());
      }
      std::sort(next.begin(), next.end());
    }
    frontier.swap(next);
  }

  result.rounds = rounds;
  result.num_colors = detail::count_distinct_colors(result.colors);
  // Arena scratch is charged at the arenas' block granularity: each
  // participating thread reserves at least one kMinBlockBytes block for its
  // forbidden-color marks.
  const std::size_t scratch_per_worker =
      std::max(forbid_size * sizeof(std::uint64_t),
               runtime::Arena::kMinBlockBytes);
  result.aux_peak_bytes = prio.capacity() * sizeof(std::uint64_t) +
                          n * sizeof(std::uint32_t) +
                          2 * n * sizeof(VertexId) +
                          workers * scratch_per_worker +
                          result.colors.capacity() * sizeof(std::uint32_t);
  result.seconds = timer.seconds();
  return result;
}

}  // namespace picasso::coloring
