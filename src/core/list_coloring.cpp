#include "core/list_coloring.hpp"

#include <algorithm>
#include <stdexcept>

namespace picasso::core {

const char* to_string(ConflictColoringScheme s) noexcept {
  switch (s) {
    case ConflictColoringScheme::DynamicBucket: return "dynamic-bucket";
    case ConflictColoringScheme::DynamicHeap: return "dynamic-heap";
    case ConflictColoringScheme::StaticNatural: return "static-natural";
    case ConflictColoringScheme::StaticRandom: return "static-random";
    case ConflictColoringScheme::StaticLargestFirst: return "static-LF";
  }
  return "?";
}

namespace {

/// CSR strike enumerator: the uncolored conflict-graph neighbors holding
/// `color`, ascending (CSR rows are sorted), each with color's slot in its
/// list found by binary search — the materialized reference for the fused
/// engine's packed-index slots.
auto csr_strikes(const graph::CsrGraph& gc, const ColorLists& lists) {
  return [&gc, &lists](std::uint32_t v, std::uint32_t color,
                       const util::PackedColorArray& assigned, auto&& strike) {
    for (std::uint32_t u : gc.neighbors(v)) {
      if (assigned[u] != ListColoringResult::kNoColorLocal) continue;
      const auto list = lists.list(u);
      const auto it = std::lower_bound(list.begin(), list.end(), color);
      if (it == list.end() || *it != color) continue;
      strike(u, static_cast<std::uint32_t>(it - list.begin()));
    }
  };
}

}  // namespace

ListColoringResult color_conflict_graph_dynamic(const graph::CsrGraph& gc,
                                                const ColorLists& lists,
                                                util::Xoshiro256& rng) {
  return detail::color_lists_dynamic(gc.num_vertices(), lists, rng,
                                     csr_strikes(gc, lists));
}

ListColoringResult color_conflict_graph_heap(const graph::CsrGraph& gc,
                                             const ColorLists& lists,
                                             util::Xoshiro256& rng) {
  return detail::color_lists_heap(gc.num_vertices(), lists, rng,
                                  csr_strikes(gc, lists));
}

ListColoringResult color_conflict_graph_static(const graph::CsrGraph& gc,
                                               const ColorLists& lists,
                                               ConflictColoringScheme scheme,
                                               std::uint64_t seed) {
  switch (scheme) {
    case ConflictColoringScheme::StaticNatural:
    case ConflictColoringScheme::StaticRandom:
    case ConflictColoringScheme::StaticLargestFirst:
      break;
    default:
      throw std::invalid_argument(
          "color_conflict_graph_static: not a static scheme");
  }
  return detail::color_lists_static(
      gc.num_vertices(), lists, scheme, seed,
      [&gc](std::uint32_t v) { return gc.degree(v); },
      [&gc](std::uint32_t v, auto&& visit) {
        for (std::uint32_t u : gc.neighbors(v)) visit(u);
      });
}

ListColoringResult color_conflict_graph(const graph::CsrGraph& gc,
                                        const ColorLists& lists,
                                        ConflictColoringScheme scheme,
                                        util::Xoshiro256& rng) {
  switch (scheme) {
    case ConflictColoringScheme::DynamicBucket:
      return color_conflict_graph_dynamic(gc, lists, rng);
    case ConflictColoringScheme::DynamicHeap:
      return color_conflict_graph_heap(gc, lists, rng);
    default:
      return color_conflict_graph_static(gc, lists, scheme, rng());
  }
}

}  // namespace picasso::core
