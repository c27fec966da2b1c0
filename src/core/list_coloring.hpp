#pragma once
// Coloring the conflict graph from the per-vertex color lists (§IV-B).
//
// Dynamic scheme — Algorithm 2 of the paper: vertices bucketed by current
// list size; repeatedly pick a uniformly random vertex from the lowest
// bucket, give it a uniformly random color from its list, and strike that
// color from all conflict-neighbors' lists (O(1) bucket moves). A vertex
// whose list empties joins V_u and is retried in the next Picasso iteration.
// Total time O((|Vc| + |Ec|) L): the bucketing removes the log factor a heap
// would cost.
//
// Static schemes: color vertices in a fixed order (natural / random /
// largest-conflict-degree-first), each taking the first color of its list
// unused by already-colored conflict neighbors.
//
// The scheme bodies are templates over an abstract *neighbor enumerator*,
// with two instantiations:
//  * the CSR functions below walk a materialised conflict graph
//    (list_coloring.cpp), and
//  * the fused engine (core/solve_fused.hpp) enumerates strike targets
//    straight off the color->vertices inverted index plus the conflict
//    oracle, with no conflict CSR ever built.
// One body serving both is what makes their bit-identity structural rather
// than a property to re-prove per scheme.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <queue>
#include <vector>

#include "core/palette.hpp"
#include "graph/csr_graph.hpp"
#include "util/bucket_queue.hpp"
#include "util/packed_colors.hpp"
#include "util/rng.hpp"

namespace picasso::core {

enum class ConflictColoringScheme {
  DynamicBucket,       // Algorithm 2 (the paper's evaluated configuration)
  DynamicHeap,         // same order, binary heap instead of buckets (ablation)
  StaticNatural,
  StaticRandom,
  StaticLargestFirst,  // by conflict-graph degree, descending
};

const char* to_string(ConflictColoringScheme s) noexcept;

struct ListColoringResult {
  /// Palette-local assigned color per vertex, kNoColorLocal if uncolored.
  /// Packed sub-byte storage: colors are < P, so the width comes from the
  /// palette bound (4 bits/vertex for the common small-palette case).
  util::PackedColorArray assigned;
  std::vector<std::uint32_t> uncolored;  // V_u, ascending vertex ids
  std::uint32_t num_colored = 0;
  std::size_t aux_peak_bytes = 0;

  static constexpr std::uint32_t kNoColorLocal = 0xffffffffu;
};

/// Algorithm 2. `gc` is the conflict graph over local ids; every vertex
/// (including isolated ones, which are the unconflicted vertices of
/// Algorithm 1 Line 8) receives a color unless its list is exhausted.
ListColoringResult color_conflict_graph_dynamic(const graph::CsrGraph& gc,
                                                const ColorLists& lists,
                                                util::Xoshiro256& rng);

/// Heap-based variant of the dynamic scheme, kept as the ablation baseline
/// for the bucketing claim (§IV-B); identical coloring order policy but
/// O(log |Vc|) per update.
ListColoringResult color_conflict_graph_heap(const graph::CsrGraph& gc,
                                             const ColorLists& lists,
                                             util::Xoshiro256& rng);

/// Static-order list coloring.
ListColoringResult color_conflict_graph_static(const graph::CsrGraph& gc,
                                               const ColorLists& lists,
                                               ConflictColoringScheme scheme,
                                               std::uint64_t seed);

/// Dispatcher over all schemes.
ListColoringResult color_conflict_graph(const graph::CsrGraph& gc,
                                        const ColorLists& lists,
                                        ConflictColoringScheme scheme,
                                        util::Xoshiro256& rng);

// ---------------------------------------------------------------------------
// Generic scheme bodies. The enumerator contracts matter for bit-identity:
//
//  * ForEachStrike(v, color, assigned, strike): v is already colored
//    `color` when this runs. Invoke strike(u, slot) for exactly the still-
//    uncolored conflict-graph neighbors u of v whose list holds `color`, in
//    ascending u order, where `slot` is color's position in u's sorted list
//    (lists.list(u)[slot] == color). Passing a non-neighbor would strike a
//    list Algorithm 2 would not touch. The CSR instantiation walks v's row
//    and finds each slot by binary search; the fused one passes the oracle-
//    confirmed, still-uncolored members of color's bucket with the slot the
//    packed index entry carries — the same affected set in the same order,
//    which is the whole bit-identity argument.
//  * ForEachNeighbor(v, visit): invoke visit(u) for every conflict-graph
//    neighbor u of v (any order; used for the idempotent mark pass of the
//    static schemes).

namespace detail {

/// Mutable view over the (immutable, sorted) color lists: a per-vertex
/// presence bitmask tracks which entries are still alive. Removal takes the
/// entry's slot (the strike enumerators supply it) and is one O(1) bit
/// clear that never reads the ColorLists row; selecting the k-th surviving
/// color is a popcount scan over ceil(L/64) words. This keeps each strike
/// of the Algorithm-2 inner loop O(1) even in the aggressive regime where
/// L = P and a swap-removal list would cost O(L).
class WorkingLists {
 public:
  explicit WorkingLists(const ColorLists& lists)
      : lists_(&lists),
        l_(lists.list_size()),
        words_(std::max<std::uint32_t>(1, (lists.list_size() + 63) / 64)),
        mask_(static_cast<std::size_t>(lists.num_vertices()) * words_, 0),
        size_(lists.num_vertices(), lists.list_size()) {
    for (std::uint32_t v = 0; v < lists.num_vertices(); ++v) {
      std::uint64_t* m = mask_.data() + static_cast<std::size_t>(v) * words_;
      for (std::uint32_t i = 0; i < l_; ++i) m[i >> 6] |= 1ull << (i & 63u);
    }
  }

  std::uint32_t size_of(std::uint32_t v) const { return size_[v]; }

  /// The idx-th (0-based) surviving color of v's list.
  std::uint32_t color_at(std::uint32_t v, std::uint32_t idx) const {
    const std::uint64_t* m = mask_.data() + static_cast<std::size_t>(v) * words_;
    for (std::uint32_t w = 0; w < words_; ++w) {
      const auto count = static_cast<std::uint32_t>(std::popcount(m[w]));
      if (idx < count) {
        std::uint64_t bits = m[w];
        for (std::uint32_t k = 0; k < idx; ++k) bits &= bits - 1;
        const auto bit = static_cast<std::uint32_t>(std::countr_zero(bits));
        return lists_->list(v)[w * 64 + bit];
      }
      idx -= count;
    }
    return kNotPresent;  // unreachable for idx < size_of(v)
  }

  /// Removes entry `slot` of v's list if still present; returns the new
  /// size, or kNotPresent if an earlier strike already removed it.
  static constexpr std::uint32_t kNotPresent = 0xffffffffu;
  std::uint32_t remove_slot(std::uint32_t v, std::uint32_t slot) {
    std::uint64_t& word =
        mask_[static_cast<std::size_t>(v) * words_ + (slot >> 6)];
    const std::uint64_t bit = 1ull << (slot & 63u);
    if ((word & bit) == 0) return kNotPresent;
    word &= ~bit;
    return --size_[v];
  }

  std::size_t logical_bytes() const {
    return mask_.capacity() * sizeof(std::uint64_t) +
           size_.capacity() * sizeof(std::uint32_t);
  }

 private:
  const ColorLists* lists_;
  std::uint32_t l_;
  std::uint32_t words_;
  std::vector<std::uint64_t> mask_;
  std::vector<std::uint32_t> size_;
};

/// Shared epilogue: finalize counters and sort V_u.
inline void finalize_list_coloring(ListColoringResult& result) {
  std::sort(result.uncolored.begin(), result.uncolored.end());
  result.num_colored = 0;
  for (std::uint32_t c : result.assigned) {
    result.num_colored += c != ListColoringResult::kNoColorLocal ? 1 : 0;
  }
}

/// Applies one strike to u (remove list slot `slot`, classify the outcome);
/// shared between the bucket and heap bodies so the skip rules cannot drift.
template <typename OnResize, typename OnEmpty>
void apply_strike(std::uint32_t u, std::uint32_t slot, WorkingLists& work,
                  OnResize&& on_resize, OnEmpty&& on_empty) {
  const std::uint32_t new_size = work.remove_slot(u, slot);
  if (new_size == WorkingLists::kNotPresent) return;
  if (new_size == 0) {
    on_empty(u);
  } else {
    on_resize(u, new_size);
  }
}

/// Algorithm 2 over an abstract strike enumerator (see contract above).
/// `color_bound` is the palette size P when the caller knows it (packs the
/// assignment at the narrowest width up front); 0 lets the array widen on
/// demand.
template <typename ForEachStrike>
ListColoringResult color_lists_dynamic(std::uint32_t n, const ColorLists& lists,
                                       util::Xoshiro256& rng,
                                       ForEachStrike&& for_each_strike,
                                       std::uint32_t color_bound = 0) {
  const std::uint32_t l = lists.list_size();
  ListColoringResult result;
  result.assigned.reset(n, ListColoringResult::kNoColorLocal, color_bound);
  if (n == 0) return result;

  WorkingLists work(lists);
  util::BucketQueue queue(n, l);
  for (std::uint32_t v = 0; v < n; ++v) queue.insert(v, l);

  while (!queue.empty()) {
    // Uniformly random vertex from the lowest non-empty bucket (Line 8).
    const std::uint32_t key = queue.min_key();
    const auto& bucket = queue.bucket(key);
    const std::uint32_t v =
        bucket[static_cast<std::size_t>(rng.bounded(bucket.size()))];
    queue.erase(v);

    // Uniformly random color from the current list (Line 9).
    const std::uint32_t color =
        work.color_at(v, static_cast<std::uint32_t>(rng.bounded(key)));
    result.assigned[v] = color;

    for_each_strike(v, color, result.assigned, [&](std::uint32_t u,
                                                    std::uint32_t slot) {
      apply_strike(
          u, slot, work,
          [&](std::uint32_t t, std::uint32_t new_size) {
            if (queue.contains(t)) queue.update_key(t, new_size);
          },
          [&](std::uint32_t t) {
            if (queue.contains(t)) queue.erase(t);
            result.uncolored.push_back(t);
          });
    });
  }

  result.aux_peak_bytes = work.logical_bytes() + queue.logical_bytes() +
                          result.assigned.logical_bytes();
  finalize_list_coloring(result);
  return result;
}

/// Heap-based ablation variant over the same strike enumerator.
template <typename ForEachStrike>
ListColoringResult color_lists_heap(std::uint32_t n, const ColorLists& lists,
                                    util::Xoshiro256& rng,
                                    ForEachStrike&& for_each_strike,
                                    std::uint32_t color_bound = 0) {
  const std::uint32_t l = lists.list_size();
  ListColoringResult result;
  result.assigned.reset(n, ListColoringResult::kNoColorLocal, color_bound);
  if (n == 0) return result;

  WorkingLists work(lists);
  // Min-heap on (list size, random tie-break); lazy deletion via stale
  // size entries — the textbook O(log n)-per-update structure Algorithm 2's
  // buckets replace.
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
  std::vector<char> done(n, 0);
  for (std::uint32_t v = 0; v < n; ++v) {
    heap.push({l, static_cast<std::uint32_t>(rng() & 0xffffffffu), v});
  }
  std::size_t heap_peak = heap.size();

  while (!heap.empty()) {
    const Entry top = heap.top();
    heap.pop();
    const std::uint32_t v = top.vertex;
    if (done[v] || top.size != work.size_of(v)) continue;  // stale
    done[v] = 1;

    const std::uint32_t color = work.color_at(
        v, static_cast<std::uint32_t>(rng.bounded(work.size_of(v))));
    result.assigned[v] = color;

    for_each_strike(v, color, result.assigned, [&](std::uint32_t u,
                                                    std::uint32_t slot) {
      apply_strike(
          u, slot, work,
          [&](std::uint32_t t, std::uint32_t new_size) {
            if (!done[t]) {
              heap.push({new_size,
                         static_cast<std::uint32_t>(rng() & 0xffffffffu), t});
              heap_peak = std::max(heap_peak, heap.size());
            }
          },
          [&](std::uint32_t t) {
            if (!done[t]) {
              done[t] = 1;
              result.uncolored.push_back(t);
            }
          });
    });
  }

  result.aux_peak_bytes = work.logical_bytes() + heap_peak * sizeof(Entry) +
                          done.capacity() + result.assigned.logical_bytes();
  finalize_list_coloring(result);
  return result;
}

/// Static-order body. `degree_of(v)` is consulted only by StaticLargestFirst
/// (conflict-graph degree); `for_each_neighbor(v, visit)` drives the mark
/// pass. Throws std::invalid_argument for non-static schemes (in the .cpp
/// wrapper; here the default case colors in natural order).
template <typename DegreeOf, typename ForEachNeighbor>
ListColoringResult color_lists_static(std::uint32_t n, const ColorLists& lists,
                                      ConflictColoringScheme scheme,
                                      std::uint64_t seed, DegreeOf&& degree_of,
                                      ForEachNeighbor&& for_each_neighbor) {
  ListColoringResult result;
  result.assigned.assign(n, ListColoringResult::kNoColorLocal);
  if (n == 0) return result;

  // Re-pack at the width of the widest list entry (known after the scan
  // below) before any assignment is stored.
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
                       [&degree_of](std::uint32_t a, std::uint32_t b) {
                         return degree_of(a) > degree_of(b);
                       });
      break;
    default:
      break;  // guarded by the public wrapper
  }

  // Stamp array over palette-local colors.
  std::uint32_t max_color = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    for (std::uint32_t c : lists.list(v)) max_color = std::max(max_color, c);
  }
  std::vector<std::uint32_t> mark(static_cast<std::size_t>(max_color) + 1, 0);
  std::uint32_t stamp = 0;
  result.assigned.reset(n, ListColoringResult::kNoColorLocal, max_color + 1);

  for (std::uint32_t v : order) {
    ++stamp;
    for_each_neighbor(v, [&](std::uint32_t u) {
      const std::uint32_t c = result.assigned[u];
      if (c != ListColoringResult::kNoColorLocal) mark[c] = stamp;
    });
    std::uint32_t chosen = ListColoringResult::kNoColorLocal;
    for (std::uint32_t c : lists.list(v)) {
      if (mark[c] != stamp) {
        chosen = c;
        break;
      }
    }
    if (chosen == ListColoringResult::kNoColorLocal) {
      result.uncolored.push_back(v);
    } else {
      result.assigned[v] = chosen;
    }
  }

  result.aux_peak_bytes = mark.capacity() * sizeof(std::uint32_t) +
                          order.capacity() * sizeof(std::uint32_t) +
                          result.assigned.logical_bytes();
  finalize_list_coloring(result);
  return result;
}

}  // namespace detail

}  // namespace picasso::core
