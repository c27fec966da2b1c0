#pragma once
// Jones-Plassmann coloring (the algorithmic family behind ECL-GC-R, our
// quality/performance comparator in Tables III, IV and Fig. 4).
//
// Each vertex gets a priority; a vertex colors itself once every
// higher-priority neighbor is colored, taking the smallest color unused in
// its neighborhood. Implemented as the priority-DAG schedule: a per-vertex
// counter of uncolored higher-priority neighbors is maintained, the frontier
// of count-zero vertices is colored each round, and counters of
// lower-priority neighbors are decremented — O(|E|) total work instead of
// re-scanning all pairs every round, which matters on the ~50%-dense
// complement graphs of this application. The round count equals the longest
// monotone priority chain, exactly as in classic JP.
//
// This is the serial reference of the parallel algorithm: each round's
// frontier is an independent set that a GPU colors concurrently, and the
// colors and round count here are the ones such a run produces: a vertex's
// color depends only on colors fixed in earlier rounds, so neither the order
// within a frontier nor the schedule can change it.
//
// With largest-degree-first priorities (random tie-break) this is JP-LDF,
// the variant ECL-GC accelerates with shortcutting heuristics.

#include <cstdint>
#include <vector>

#include "coloring/adapters.hpp"
#include "coloring/greedy.hpp"
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
                               std::uint64_t seed = 1) {
  util::WallTimer timer;
  const VertexId n = g.num_vertices();
  ColoringResult result;
  result.colors.assign(n, kNoColor);

  // Priority = (key << 32) | random tie-break; vertex id breaks exact ties.
  // The tie-break is keyed per (seed, vertex), so a vertex's priority does
  // not depend on the order priorities are drawn in.
  std::vector<std::uint64_t> prio(n);
  for (VertexId v = 0; v < n; ++v) {
    const std::uint64_t key =
        priority == JpPriority::LargestDegreeFirst ? g.degree(v) : 0;
    util::SplitMix64 mix(seed ^ (0x9e3779b97f4a7c15ULL * (v + 1)));
    prio[v] = (key << 32) ^ (mix.next() & 0xffffffffu);
  }
  auto higher = [&prio](VertexId a, VertexId b) {
    if (prio[a] != prio[b]) return prio[a] > prio[b];
    return a > b;
  };

  // Uncolored higher-priority neighbors per vertex.
  std::vector<std::uint32_t> wait_count(n, 0);
  std::vector<VertexId> frontier;
  for (VertexId v = 0; v < n; ++v) {
    for_each_neighbor(g, v, [&](VertexId u) {
      if (higher(u, v)) ++wait_count[v];
    });
    if (wait_count[v] == 0) frontier.push_back(v);
  }

  // Forbidden-color marks, stamped per vertex so they are never cleared.
  std::vector<std::uint64_t> forbid(std::size_t{g.max_degree()} + 2, 0);
  std::uint64_t stamp = 0;
  std::vector<VertexId> next;
  int rounds = 0;
  while (!frontier.empty()) {
    ++rounds;
    // Color the frontier. It is an independent set: for any adjacent pair
    // the lower-priority vertex still waits on the higher one, so every
    // neighbor color read here was fixed in an earlier round.
    for (const VertexId v : frontier) {
      ++stamp;
      for_each_neighbor(g, v, [&](VertexId u) {
        const std::uint32_t c = result.colors[u];
        if (c != kNoColor && c < forbid.size()) forbid[c] = stamp;
      });
      std::uint32_t c = 0;
      while (c < forbid.size() && forbid[c] == stamp) ++c;
      result.colors[v] = c;
    }

    // Release lower-priority neighbors; a vertex joins the next frontier
    // when its last higher-priority neighbor is colored.
    next.clear();
    for (const VertexId v : frontier) {
      for_each_neighbor(g, v, [&](VertexId u) {
        if (higher(v, u) && --wait_count[u] == 0) next.push_back(u);
      });
    }
    frontier.swap(next);
  }

  result.rounds = rounds;
  result.num_colors = detail::count_distinct_colors(result.colors);
  result.aux_peak_bytes = prio.capacity() * sizeof(std::uint64_t) +
                          wait_count.capacity() * sizeof(std::uint32_t) +
                          2 * n * sizeof(VertexId) +
                          forbid.capacity() * sizeof(std::uint64_t) +
                          result.colors.capacity() * sizeof(std::uint32_t);
  result.seconds = timer.seconds();
  return result;
}

}  // namespace picasso::coloring
