#include "core/list_coloring.hpp"

#include <algorithm>
#include <queue>
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

/// CSR strike enumerator: the conflict-graph neighbors whose slot for
/// `color` is still live, ascending (CSR rows are sorted), each slot found
/// by binary search — the materialized reference for the fused engine's
/// packed-index slots.
auto csr_strikes(const graph::CsrGraph& gc, const ColorLists& lists) {
  return [&gc, &lists](std::uint32_t v, std::uint32_t color,
                       const detail::StrikeState& work, auto&& strike) {
    lists.visit_rows([&](auto rows) {
      for (std::uint32_t u : gc.neighbors(v)) {
        const auto list = rows.row(u);
        const auto it = std::lower_bound(list.begin(), list.end(), color);
        if (it == list.end() || *it != color) continue;
        const auto slot = static_cast<std::uint32_t>(it - list.begin());
        if (work.live(u, slot)) strike(u, slot);
      }
    });
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
  const std::uint32_t n = gc.num_vertices();
  const std::uint32_t l = lists.list_size();
  ListColoringResult result;
  result.assigned.reset(n, ListColoringResult::kNoColorLocal, 0);
  if (n == 0) return result;

  detail::StrikeState state(lists, /*bucketed=*/false);
  // Min-heap on (list size, random tie-break); lazy deletion via stale
  // size entries — the textbook O(log n)-per-update structure Algorithm 2's
  // buckets replace. Colored and emptied vertices have size 0, so every
  // entry left for them is stale.
  struct Entry {
    std::uint32_t size;
    std::uint32_t tie;
    std::uint32_t vertex;
    bool operator>(const Entry& o) const {
      if (size != o.size) return size > o.size;
      if (tie != o.tie) return tie > o.tie;
      return vertex > o.vertex;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (std::uint32_t v = 0; v < n; ++v) {
    heap.push({l, static_cast<std::uint32_t>(rng() & 0xffffffffu), v});
  }
  std::size_t heap_peak = heap.size();

  auto strikes = csr_strikes(gc, lists);
  while (!heap.empty()) {
    const Entry top = heap.top();
    heap.pop();
    const std::uint32_t v = top.vertex;
    if (top.size != state.size_of(v)) continue;  // stale

    const std::uint32_t color = state.color_at(
        v, static_cast<std::uint32_t>(rng.bounded(top.size)));
    state.retire(v);
    result.assigned[v] = color;

    strikes(v, color, state, [&](std::uint32_t u, std::uint32_t slot) {
      const std::uint32_t new_size = state.remove_slot(u, slot);
      if (new_size == 0) return;
      heap.push({new_size, static_cast<std::uint32_t>(rng() & 0xffffffffu), u});
      heap_peak = std::max(heap_peak, heap.size());
    });
  }

  result.aux_peak_bytes = state.logical_bytes() + heap_peak * sizeof(Entry) +
                          result.assigned.logical_bytes();
  detail::finalize_list_coloring(result);
  return result;
}

ListColoringResult color_conflict_graph_static(const graph::CsrGraph& gc,
                                               const ColorLists& lists,
                                               ConflictColoringScheme scheme,
                                               std::uint64_t seed) {
  const std::uint32_t n = gc.num_vertices();
  std::vector<std::uint32_t> order(n);
  for (std::uint32_t v = 0; v < n; ++v) order[v] = v;
  switch (scheme) {
    case ConflictColoringScheme::StaticNatural:
      break;
    case ConflictColoringScheme::StaticRandom: {
      util::Xoshiro256 rng(seed);
      util::shuffle(order, rng);
      break;
    }
    case ConflictColoringScheme::StaticLargestFirst:
      std::stable_sort(order.begin(), order.end(),
                       [&gc](std::uint32_t a, std::uint32_t b) {
                         return gc.degree(a) > gc.degree(b);
                       });
      break;
    default:
      throw std::invalid_argument(
          "color_conflict_graph_static: not a static scheme");
  }
  ListColoringResult result;
  if (n == 0) return result;

  // Stamp array over palette-local colors; the assignment is packed at the
  // width of the widest list entry before any color is stored.
  std::uint32_t max_color = 0;
  lists.visit_rows([&](auto rows) {
    for (std::uint32_t v = 0; v < n; ++v) {
      for (const std::uint32_t c : rows.row(v)) {
        max_color = std::max(max_color, c);
      }
    }
  });
  std::vector<std::uint32_t> mark(static_cast<std::size_t>(max_color) + 1, 0);
  std::uint32_t stamp = 0;
  result.assigned.reset(n, ListColoringResult::kNoColorLocal, max_color + 1);

  lists.visit_rows([&](auto rows) {
    for (std::uint32_t v : order) {
      ++stamp;
      for (std::uint32_t u : gc.neighbors(v)) {
        const std::uint32_t c = result.assigned[u];
        if (c != ListColoringResult::kNoColorLocal) mark[c] = stamp;
      }
      for (const std::uint32_t c : rows.row(v)) {
        if (mark[c] != stamp) {
          result.assigned[v] = c;
          break;
        }
      }
    }
  });

  result.aux_peak_bytes = mark.capacity() * sizeof(std::uint32_t) +
                          order.capacity() * sizeof(std::uint32_t) +
                          result.assigned.logical_bytes();
  detail::finalize_list_coloring(result);
  return result;
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
