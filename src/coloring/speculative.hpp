#pragma once
// Speculative (iterative conflict-resolution) parallel coloring — the
// Gebremedhin-Manne / Catalyurek et al. scheme that edge-based GPU colorers
// such as Kokkos-EB build on; our Kokkos-EB comparator in Tables III/IV.
//
// Rounds of: (1) every uncolored vertex speculatively takes the smallest
// color unused by its neighbors; (2) conflicts (same color on an edge, both
// endpoints colored this scheme) are detected and the higher-id endpoint is
// uncolored for the next round. The rounds run on the calling thread.

#include <cstdint>
#include <vector>

#include "coloring/adapters.hpp"
#include "coloring/greedy.hpp"
#include "util/timer.hpp"

namespace picasso::coloring {

template <ColorableGraph G>
ColoringResult speculative_color(const G& g, int max_rounds = 100) {
  util::WallTimer timer;
  const VertexId n = g.num_vertices();
  ColoringResult result;
  result.colors.assign(n, kNoColor);

  std::vector<VertexId> active;
  active.reserve(n);
  for (VertexId v = 0; v < n; ++v) active.push_back(v);
  std::vector<VertexId> next;
  std::vector<char> conflicted(n, 0);
  std::vector<std::uint64_t> forbid_mark(g.max_degree() + 2, 0);
  std::uint64_t stamp = 0;

  int rounds = 0;
  while (!active.empty() && rounds < max_rounds) {
    ++rounds;
    // Phase 1: speculative first-fit on every active vertex.
    for (const VertexId v : active) {
      ++stamp;
      for_each_neighbor(g, v, [&](VertexId u) {
        const std::uint32_t c = result.colors[u];
        if (c != kNoColor && c < forbid_mark.size()) forbid_mark[c] = stamp;
      });
      std::uint32_t c = 0;
      while (c < forbid_mark.size() && forbid_mark[c] == stamp) ++c;
      result.colors[v] = c;
    }
    // Phase 2: conflict detection; the higher-id endpoint loses its color.
    for (const VertexId v : active) {
      for_each_neighbor(g, v, [&](VertexId u) {
        if (u < v && result.colors[u] == result.colors[v]) conflicted[v] = 1;
      });
    }
    next.clear();
    for (VertexId v : active) {
      if (conflicted[v]) {
        result.colors[v] = kNoColor;
        conflicted[v] = 0;
        next.push_back(v);
      }
    }
    active.swap(next);
  }

  result.rounds = rounds;
  result.num_colors = detail::count_distinct_colors(result.colors);
  result.aux_peak_bytes = conflicted.capacity() * sizeof(char) +
                          2 * n * sizeof(VertexId) +
                          (g.max_degree() + 2) * sizeof(std::uint64_t) +
                          result.colors.capacity() * sizeof(std::uint32_t);
  result.seconds = timer.seconds();
  return result;
}

}  // namespace picasso::coloring
