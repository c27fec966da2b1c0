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
//  * ForEachStrike(v, color, work, strike): v is already colored `color`
//    (and its list retired) when this runs; `work` is the scheme's
//    detail::StrikeState. Invoke strike(u, slot) for exactly the conflict-
//    graph neighbors u of v whose slot for `color` is still live
//    (work.live(u, slot), where slot holds color in u's list), in ascending
//    u order. Colored vertices, emptied lists and slots an earlier
//    same-color neighbor already struck all fail the live test, so every
//    strike removes one list entry. Passing a non-neighbor would strike a
//    list Algorithm 2 would not touch. The CSR instantiation walks v's row,
//    finds each slot by binary search and checks it live; the fused one
//    scans color's bucket, whose entries it keeps down to unstruck slots,
//    tests each member's alive flag and passes the oracle-confirmed ones —
//    the same affected set in the same order, which is the whole
//    bit-identity argument.
//  * ForEachNeighbor(v, visit): invoke visit(u) for every conflict-graph
//    neighbor u of v (any order; used for the idempotent mark pass of the
//    static schemes).

namespace detail {

/// Strike state of the dynamic schemes, one record per vertex: a head word
/// packing (bucket position, list size), then ceil(L/64) presence-mask
/// words over the (immutable, sorted) list's slots. A strike is one bit
/// clear plus, for the bucket scheme, one move between adjacent size
/// buckets — one record and two bucket slots, never a ColorLists row.
/// Selecting the k-th surviving color is a popcount scan over the mask
/// words, so each strike stays O(1) even in the aggressive regime where
/// L = P.
///
/// Beside the records sits one alive flag per vertex, set while the vertex
/// is uncolored and its list non-empty: retire() clears it, and so does the
/// strike that empties a list. A scan that only needs "can this vertex
/// still lose a color" reads one byte of a dense n-byte array instead of a
/// whole record — the fused strike scan's liveness test, since its buckets
/// never hold a struck slot (see FusedStrikeEnumerator).
///
/// The buckets are Algorithm 2's bucket queue keyed by list size. A queued
/// vertex's key always equals its size, so no key array exists. Erase is
/// swap-with-last and insert is push_back, exactly util::BucketQueue's
/// order, so rng.bounded(bucket.size()) picks the same vertex. Coloring a
/// vertex retires its record (size and mask zeroed), and an emptied list
/// has no mask bits left, so live() and alive() are false for both.
class StrikeState {
 public:
  /// `bucketed` queues every vertex at key L in ascending order (the
  /// bucket scheme); the heap scheme keeps its own queue and passes false.
  StrikeState(const ColorLists& lists, bool bucketed)
      : lists_(&lists),
        words_(std::max<std::uint32_t>(1, (lists.list_size() + 63) / 64)),
        stride_(1 + words_),
        records_(static_cast<std::size_t>(lists.num_vertices()) * stride_),
        alive_(lists.num_vertices(), 1) {
    const std::uint32_t n = lists.num_vertices();
    const std::uint32_t l = lists.list_size();
    if (bucketed) {
      buckets_.resize(static_cast<std::size_t>(l) + 1);
      buckets_[l].reserve(n);
      min_cursor_ = l;
      count_ = n;
    }
    for (std::uint32_t v = 0; v < n; ++v) {
      std::uint64_t* r = record(v);
      r[0] = head(v, l);
      for (std::uint32_t i = 0; i < l; ++i) {
        r[1 + (i >> 6)] |= 1ull << (i & 63u);
      }
      if (bucketed) buckets_[l].push_back(v);
    }
  }

  std::uint32_t size_of(std::uint32_t v) const { return size(record(v)[0]); }

  /// True iff slot `slot` of v's list is still present.
  bool live(std::uint32_t v, std::uint32_t slot) const {
    return (record(v)[1 + (slot >> 6)] >> (slot & 63u)) & 1u;
  }

  /// True iff v is uncolored and its list is not empty.
  bool alive(std::uint32_t v) const { return alive_[v] != 0; }

  /// Hints v's record into cache ahead of a strike on it.
  void prefetch(std::uint32_t v) const {
#if defined(__GNUC__)
    __builtin_prefetch(record(v), 1);
#else
    (void)v;
#endif
  }

  /// The idx-th (0-based) surviving color of v's list.
  std::uint32_t color_at(std::uint32_t v, std::uint32_t idx) const {
    const std::uint64_t* m = record(v) + 1;
    for (std::uint32_t w = 0; w < words_; ++w) {
      const auto count = static_cast<std::uint32_t>(std::popcount(m[w]));
      if (idx < count) {
        std::uint64_t bits = m[w];
        for (std::uint32_t k = 0; k < idx; ++k) bits &= bits - 1;
        const std::uint32_t slot =
            w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits));
        return lists_->visit_rows(
            [v, slot](auto rows) { return std::uint32_t{rows.row(v)[slot]}; });
      }
      idx -= count;
    }
    return ListColoringResult::kNoColorLocal;  // unreachable for idx < size
  }

  /// Zeroes v's size and mask and clears its alive flag: v was colored, so
  /// no slot of it is live.
  void retire(std::uint32_t v) {
    std::uint64_t* r = record(v);
    std::fill(r, r + stride_, std::uint64_t{0});
    alive_[v] = 0;
  }

  /// Clears live slot `slot` of u (and u's alive flag when that empties its
  /// list); returns u's new list size. The heap scheme's strike (it
  /// requeues by itself).
  std::uint32_t remove_slot(std::uint32_t u, std::uint32_t slot) {
    std::uint64_t* r = record(u);
    r[1 + (slot >> 6)] &= ~(1ull << (slot & 63u));
    r[0] -= std::uint64_t{1} << 32;
    const std::uint32_t left = size(r[0]);
    if (left == 0) alive_[u] = 0;
    return left;
  }

  // Bucket queue (bucketed states only).

  bool empty() const noexcept { return count_ == 0; }

  /// Smallest non-empty key. Buckets below the cursor are always empty:
  /// only strike() inserts, and it rewinds the cursor.
  std::uint32_t min_key() {
    while (buckets_[min_cursor_].empty()) ++min_cursor_;
    return min_cursor_;
  }

  const std::vector<std::uint32_t>& bucket(std::uint32_t key) const {
    return buckets_[key];
  }

  /// Takes queued v out of its bucket (to be colored).
  void erase(std::uint32_t v) {
    const std::uint64_t h = record(v)[0];
    unlink(size(h), static_cast<std::uint32_t>(h));
    --count_;
  }

  /// Clears live slot `slot` of queued u and moves u one bucket down, or
  /// out of the queue when its list empties (u then joins V_u).
  void strike(std::uint32_t u, std::uint32_t slot) {
    const std::uint32_t next = remove_slot(u, slot);
    std::uint64_t& h = record(u)[0];
    unlink(next + 1, static_cast<std::uint32_t>(h));
    if (next == 0) {
      --count_;
      return;
    }
    auto& to = buckets_[next];
    h = head(static_cast<std::uint32_t>(to.size()), next);
    to.push_back(u);
    if (next < min_cursor_) min_cursor_ = next;
  }

  std::size_t logical_bytes() const {
    std::size_t b = records_.capacity() * sizeof(std::uint64_t) +
                    alive_.capacity() +
                    buckets_.capacity() * sizeof(std::vector<std::uint32_t>);
    for (const auto& bucket : buckets_) {
      b += bucket.capacity() * sizeof(std::uint32_t);
    }
    return b;
  }

 private:
  static std::uint64_t head(std::uint32_t pos, std::uint32_t size) {
    return (std::uint64_t{size} << 32) | pos;
  }
  static std::uint32_t size(std::uint64_t h) {
    return static_cast<std::uint32_t>(h >> 32);
  }

  std::uint64_t* record(std::uint32_t v) {
    return records_.data() + static_cast<std::size_t>(v) * stride_;
  }
  const std::uint64_t* record(std::uint32_t v) const {
    return records_.data() + static_cast<std::size_t>(v) * stride_;
  }

  /// Swap-with-last removal of position `pos` from bucket `key`.
  void unlink(std::uint32_t key, std::uint32_t pos) {
    auto& bucket = buckets_[key];
    const std::uint32_t last = bucket.back();
    bucket[pos] = last;
    std::uint64_t& h = record(last)[0];
    h = head(pos, size(h));
    bucket.pop_back();
  }

  const ColorLists* lists_;
  std::uint32_t words_;
  std::uint32_t stride_;
  std::vector<std::uint64_t> records_;
  std::vector<std::uint8_t> alive_;  // per vertex: uncolored, list non-empty
  std::vector<std::vector<std::uint32_t>> buckets_;  // by list size, 0..L
  std::uint32_t min_cursor_ = 0;
  std::uint32_t count_ = 0;
};

/// Shared epilogue: V_u (ascending) and num_colored in one pass over the
/// assignment — every vertex the scheme did not color is in V_u.
inline void finalize_list_coloring(ListColoringResult& result) {
  result.num_colored = 0;
  const std::size_t n = result.assigned.size();
  for (std::size_t v = 0; v < n; ++v) {
    if (result.assigned[v] == ListColoringResult::kNoColorLocal) {
      result.uncolored.push_back(static_cast<std::uint32_t>(v));
    } else {
      ++result.num_colored;
    }
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
  ListColoringResult result;
  result.assigned.reset(n, ListColoringResult::kNoColorLocal, color_bound);
  if (n == 0) return result;

  StrikeState state(lists, /*bucketed=*/true);
  while (!state.empty()) {
    // Uniformly random vertex from the lowest non-empty bucket (Line 8).
    const std::uint32_t key = state.min_key();
    const auto& bucket = state.bucket(key);
    const std::uint32_t v =
        bucket[static_cast<std::size_t>(rng.bounded(bucket.size()))];
    state.erase(v);

    // Uniformly random color from the current list (Line 9).
    const std::uint32_t color =
        state.color_at(v, static_cast<std::uint32_t>(rng.bounded(key)));
    state.retire(v);
    result.assigned[v] = color;

    for_each_strike(v, color, state,
                    [&state](std::uint32_t u, std::uint32_t slot) {
                      state.strike(u, slot);
                    });
  }

  result.aux_peak_bytes =
      state.logical_bytes() + result.assigned.logical_bytes();
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

  StrikeState state(lists, /*bucketed=*/false);
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

  while (!heap.empty()) {
    const Entry top = heap.top();
    heap.pop();
    const std::uint32_t v = top.vertex;
    if (top.size != state.size_of(v)) continue;  // stale

    const std::uint32_t color = state.color_at(
        v, static_cast<std::uint32_t>(rng.bounded(top.size)));
    state.retire(v);
    result.assigned[v] = color;

    for_each_strike(
        v, color, state, [&](std::uint32_t u, std::uint32_t slot) {
          const std::uint32_t new_size = state.remove_slot(u, slot);
          if (new_size == 0) return;
          heap.push(
              {new_size, static_cast<std::uint32_t>(rng() & 0xffffffffu), u});
          heap_peak = std::max(heap_peak, heap.size());
        });
  }

  result.aux_peak_bytes = state.logical_bytes() + heap_peak * sizeof(Entry) +
                          result.assigned.logical_bytes();
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
      for_each_neighbor(v, [&](std::uint32_t u) {
        const std::uint32_t c = result.assigned[u];
        if (c != ListColoringResult::kNoColorLocal) mark[c] = stamp;
      });
      std::uint32_t chosen = ListColoringResult::kNoColorLocal;
      for (const std::uint32_t c : rows.row(v)) {
        if (mark[c] != stamp) {
          chosen = c;
          break;
        }
      }
      if (chosen != ListColoringResult::kNoColorLocal) {
        result.assigned[v] = chosen;
      }
    }
  });

  result.aux_peak_bytes = mark.capacity() * sizeof(std::uint32_t) +
                          order.capacity() * sizeof(std::uint32_t) +
                          result.assigned.logical_bytes();
  finalize_list_coloring(result);
  return result;
}

}  // namespace detail

}  // namespace picasso::core
