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
// unused by already-colored conflict neighbors. They and the heap variant
// of the dynamic scheme are the CSR-level §IV-B ablations
// (bench_listcoloring); every engine colors by Algorithm 2.
//
// Algorithm 2 is one template over an abstract *strike enumerator*
// (color_lists_dynamic below), with two instantiations:
//  * the CSR functions below walk a materialised conflict graph
//    (list_coloring.cpp), and
//  * the fused engine (core/solve_fused.hpp) enumerates strike targets
//    straight off the color->vertices inverted index plus the conflict
//    oracle, with no conflict CSR ever built.
// One body serving both is what makes their bit-identity structural rather
// than a property to re-prove.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
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
/// Algorithm 1 Line 8) receives a color unless its list is exhausted. The
/// CSR engines color every iteration with it.
ListColoringResult color_conflict_graph_dynamic(const graph::CsrGraph& gc,
                                                const ColorLists& lists,
                                                util::Xoshiro256& rng);

/// Heap-based variant of the dynamic scheme, kept as the ablation baseline
/// for the bucketing claim (§IV-B); identical coloring order policy but
/// O(log |Vc|) per update.
ListColoringResult color_conflict_graph_heap(const graph::CsrGraph& gc,
                                             const ColorLists& lists,
                                             util::Xoshiro256& rng);

/// Static-order list coloring (ablation). Throws std::invalid_argument for
/// a dynamic scheme.
ListColoringResult color_conflict_graph_static(const graph::CsrGraph& gc,
                                               const ColorLists& lists,
                                               ConflictColoringScheme scheme,
                                               std::uint64_t seed);

/// Dispatcher over all schemes, for the ablation sweeps; a static scheme
/// draws its order seed from `rng`.
ListColoringResult color_conflict_graph(const graph::CsrGraph& gc,
                                        const ColorLists& lists,
                                        ConflictColoringScheme scheme,
                                        util::Xoshiro256& rng);

// ---------------------------------------------------------------------------
// The Algorithm-2 body. The enumerator contract matters for bit-identity:
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

namespace detail {

/// Strike state of the dynamic schemes. Each vertex has one record of
/// ceil((32 + bit_width(L) + L) / 64) words — one 8-byte word whenever
/// L <= 27. Bits 0-31 hold the vertex's cell in the bucket page pool (its
/// bucket position, in pool coordinates), the next bit_width(L) bits its
/// list size, and the presence mask over the (immutable, sorted) list's
/// slots follows: slot i at bit 32 + bit_width(L) + i. Every record starts
/// as a copy of one full record (size L, every slot present). A strike is
/// one bit clear and one size decrement (a single store when the bit sits
/// in the head word) plus, for the bucket scheme, one move between adjacent
/// size buckets — one record and two pool cells, never a ColorLists row and
/// never a popcount. Only picking the k-th surviving color scans the mask.
///
/// Beside the records sits one alive flag per vertex, set while the vertex
/// is uncolored and its list non-empty: retire() clears it, and so does the
/// strike that empties a list. A scan that only needs "can this vertex
/// still lose a color" reads one byte of a dense n-byte array instead of a
/// whole record — the fused strike scan's liveness test, since its buckets
/// never hold a struck slot (see FusedStrikeEnumerator).
///
/// The buckets are Algorithm 2's bucket queue keyed by list size. A queued
/// vertex's key always equals its size, so no key array exists. Every
/// bucket draws pages of B = max(16, bit_floor(sqrt(n))) vertex ids from
/// one pool: bucket k holds its i-th member at slot i % B of page
/// table_k[i / B] and keeps a pointer to its tail page, so taking the last
/// member and appending touch no page table, and a record's cell lets a
/// member be overwritten in place. A bucket of s members holds ceil(s / B)
/// pages (a tail page that empties goes back to the pool at once), so the L
/// buckets never hold more than ceil(n / B) + L pages, and the pool is
/// allocated once at ceil(n / B) + L + 1. Erase is swap-with-last and
/// insert is append, exactly util::BucketQueue's order, so
/// rng.bounded(bucket_size(key)) picks the same vertex a vector bucket
/// would. Coloring a vertex retires its record (size and mask zeroed), and
/// an emptied list has no mask bits left, so live() and alive() are false
/// for both.
class StrikeState {
 public:
  /// `bucketed` queues every vertex at key L in ascending order (the
  /// bucket scheme); the heap scheme keeps its own queue and passes false.
  StrikeState(const ColorLists& lists, bool bucketed)
      : lists_(&lists),
        size_mask_((std::uint64_t{1} << std::bit_width(lists.list_size())) -
                   1),
        mask_shift_(32 + static_cast<std::uint32_t>(
                             std::bit_width(lists.list_size()))),
        stride_(record_words(lists.list_size())),
        records_(static_cast<std::size_t>(lists.num_vertices()) * stride_),
        alive_(lists.num_vertices(), 1) {
    const std::uint32_t n = lists.num_vertices();
    const std::uint32_t l = lists.list_size();
    if (n == 0) return;
    // Vertex 0's record is the full one; every other record copies it and
    // takes its own cell (bucket L fills pool cells 0..n-1 in order).
    std::uint64_t* const full = records_.data();
    full[0] = std::uint64_t{l} << 32;
    for (std::uint32_t i = 0; i < l; ++i) {
      const std::uint32_t g = mask_shift_ + i;
      full[g >> 6] |= std::uint64_t{1} << (g & 63u);
    }
    for (std::uint32_t v = 1; v < n; ++v) {
      std::uint64_t* const r = record(v);
      std::copy(full, full + stride_, r);
      r[0] |= v;
    }
    if (!bucketed) return;

    page_shift_ = page_shift(n);
    page_mask_ = (std::uint32_t{1} << page_shift_) - 1;
    const std::size_t cells = pool_pages(n, l) << page_shift_;
    if (cells > (std::size_t{1} << 32)) {
      throw std::length_error("StrikeState: bucket pool exceeds 2^32 cells");
    }
    const std::uint32_t table_len = ((n - 1) >> page_shift_) + 1;
    pool_.resize(cells);
    tables_.resize(static_cast<std::size_t>(l + 1) * table_len);
    buckets_.resize(static_cast<std::size_t>(l) + 1);
    for (std::uint32_t k = 0; k <= l; ++k) {
      buckets_[k].table =
          tables_.data() + static_cast<std::size_t>(k) * table_len;
    }
    Bucket& top = buckets_[l];
    for (std::uint32_t v = 0; v < n; ++v) pool_[v] = v;
    for (std::uint32_t p = 0; p < table_len; ++p) top.table[p] = p;
    top.tail = page(table_len - 1);
    top.size = n;
    next_page_ = table_len;
    min_cursor_ = l;
    count_ = n;
  }

  /// Words of one strike record for lists of `list_size` slots.
  static constexpr std::uint32_t record_words(std::uint32_t list_size) {
    return (32 + static_cast<std::uint32_t>(std::bit_width(list_size)) +
            list_size + 63) /
           64;
  }
  /// log2 of the bucket page size B for n vertices: B = bit_floor(sqrt(n)),
  /// at least 16.
  static constexpr std::uint32_t page_shift(std::uint32_t n) {
    return std::max<std::uint32_t>(
        4, static_cast<std::uint32_t>(std::bit_width(n | 1u) - 1) / 2);
  }
  /// Pages the bucket pool allocates for n > 0 vertices with lists of L:
  /// ceil(n / B) + L + 1.
  static constexpr std::size_t pool_pages(std::uint32_t n, std::uint32_t l) {
    return std::size_t{(n - 1) >> page_shift(n)} + 1 + l + 1;
  }

  /// logical_bytes() of a bucketed state over n > 0 vertices with lists of
  /// L: records, alive flags, the pool, L + 1 page tables of ceil(n / B)
  /// ids and the bucket headers.
  static constexpr std::size_t bucketed_bytes(std::uint32_t n,
                                              std::uint32_t l) {
    const std::size_t page = std::size_t{1} << page_shift(n);
    const std::size_t table_len = (std::size_t{n} + page - 1) / page;
    return (8 * std::size_t{record_words(l)} + 1) * n +
           4 * page * pool_pages(n, l) +
           (std::size_t{l} + 1) * (4 * table_len + sizeof(Bucket));
  }

  std::uint32_t size_of(std::uint32_t v) const { return size(record(v)[0]); }

  /// True iff slot `slot` of v's list is still present.
  bool live(std::uint32_t v, std::uint32_t slot) const {
    const std::uint32_t g = mask_shift_ + slot;
    return (record(v)[g >> 6] >> (g & 63u)) & 1u;
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

  /// The idx-th (0-based) surviving color of v's list, idx < size_of(v):
  /// walks the mask, clearing the lowest present bit idx times across
  /// words (no popcount), and reads that slot through ColorLists::color —
  /// from the row, or drawn again when the fused engine released the rows.
  std::uint32_t color_at(std::uint32_t v, std::uint32_t idx) const {
    const std::uint64_t* r = record(v);
    // The head word's cell and size fields sit below the mask.
    std::uint64_t bits =
        mask_shift_ < 64 ? r[0] >> mask_shift_ << mask_shift_ : 0;
    std::uint32_t w = 0;
    for (;;) {
      while (bits == 0) bits = r[++w];
      if (idx-- == 0) break;
      bits &= bits - 1;
    }
    const std::uint32_t slot =
        w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits)) -
        mask_shift_;
    return lists_->color(v, slot);
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
    const std::uint64_t h = clear_slot(r, slot);
    r[0] = h;
    const std::uint32_t left = size(h);
    if (left == 0) alive_[u] = 0;
    return left;
  }

  // Bucket queue (bucketed states only).

  bool empty() const noexcept { return count_ == 0; }

  /// Smallest non-empty key. Buckets below the cursor are always empty:
  /// only strike() inserts, and it rewinds the cursor.
  std::uint32_t min_key() {
    while (buckets_[min_cursor_].size == 0) ++min_cursor_;
    return min_cursor_;
  }

  std::uint32_t bucket_size(std::uint32_t key) const {
    return buckets_[key].size;
  }

  /// The i-th member of bucket `key`, i < bucket_size(key).
  std::uint32_t member(std::uint32_t key, std::uint32_t i) const {
    return page(buckets_[key].table[i >> page_shift_])[i & page_mask_];
  }

  /// Takes queued v out of its bucket (to be colored).
  void erase(std::uint32_t v) {
    const std::uint64_t h = record(v)[0];
    unlink(buckets_[size(h)], static_cast<std::uint32_t>(h));
    --count_;
  }

  /// Clears live slot `slot` of queued u and moves u one bucket down, or
  /// out of the queue when its list empties (u then joins V_u).
  void strike(std::uint32_t u, std::uint32_t slot) {
    std::uint64_t* const r = record(u);
    const std::uint64_t h = clear_slot(r, slot);
    const std::uint32_t next = size(h);
    unlink(buckets_[next + 1], static_cast<std::uint32_t>(h));
    if (next == 0) {
      r[0] = 0;
      alive_[u] = 0;
      --count_;
      return;
    }
    // h's cell field is stale: unlink may even have rewritten it in r.
    r[0] = (h & ~kCellMask) | append(buckets_[next], u);
    if (next < min_cursor_) min_cursor_ = next;
  }

  std::size_t logical_bytes() const {
    return records_.capacity() * sizeof(std::uint64_t) + alive_.capacity() +
           pool_.capacity() * sizeof(std::uint32_t) +
           tables_.capacity() * sizeof(std::uint32_t) +
           buckets_.capacity() * sizeof(Bucket);
  }

 private:
  struct Bucket {
    std::uint32_t* tail = nullptr;   // page holding the last member
    std::uint32_t* table = nullptr;  // page ids, ceil(n / B) entries
    std::uint32_t size = 0;
  };
  static constexpr std::uint32_t kNoPage = 0xffffffffu;
  static constexpr std::uint64_t kCellMask = 0xffffffffu;

  std::uint32_t size(std::uint64_t h) const {
    return static_cast<std::uint32_t>((h >> 32) & size_mask_);
  }

  /// Clears present slot `slot` of record r and returns r's head word with
  /// the size decremented, for the caller to store: a mask bit in the head
  /// word folds into that one store instead of a second read-modify-write
  /// of the same word.
  std::uint64_t clear_slot(std::uint64_t* r, std::uint32_t slot) const {
    const std::uint32_t g = mask_shift_ + slot;
    const std::uint64_t bit = std::uint64_t{1} << (g & 63u);
    std::uint64_t h = r[0] - (std::uint64_t{1} << 32);
    if (g < 64) {
      h ^= bit;
    } else {
      r[g >> 6] ^= bit;
    }
    return h;
  }

  /// Stores the cell field of record r alone: moving a member writes its
  /// record without reading it first.
  static void set_cell(std::uint64_t* r, std::uint32_t cell) {
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(r, &cell, sizeof cell);
    } else {
      *r = (*r & ~kCellMask) | cell;
    }
  }

  std::uint64_t* record(std::uint32_t v) {
    return records_.data() + static_cast<std::size_t>(v) * stride_;
  }
  const std::uint64_t* record(std::uint32_t v) const {
    return records_.data() + static_cast<std::size_t>(v) * stride_;
  }

  std::uint32_t* page(std::uint32_t id) {
    return pool_.data() + (static_cast<std::size_t>(id) << page_shift_);
  }
  const std::uint32_t* page(std::uint32_t id) const {
    return pool_.data() + (static_cast<std::size_t>(id) << page_shift_);
  }

  /// Swap-with-last removal of the member at pool cell `cell` from bucket
  /// `b`; the tail page goes back to the pool when that empties it.
  void unlink(Bucket& b, std::uint32_t cell) {
    const std::uint32_t end = --b.size;
    std::uint32_t* const tail = b.tail;
    const std::uint32_t last = tail[end & page_mask_];
    pool_[cell] = last;
    set_cell(record(last), cell);
    if ((end & page_mask_) == 0) {
      // Free pages form a list threaded through their first cell.
      *tail = free_page_;
      free_page_ = static_cast<std::uint32_t>(
          static_cast<std::size_t>(tail - pool_.data()) >> page_shift_);
      if (end != 0) b.tail = page(b.table[(end - 1) >> page_shift_]);
    }
  }

  /// Appends u to bucket `b`, taking a page when the tail one is full;
  /// returns u's pool cell.
  std::uint32_t append(Bucket& b, std::uint32_t u) {
    const std::uint32_t at = b.size++;
    if ((at & page_mask_) == 0) {
      std::uint32_t id = free_page_;
      if (id != kNoPage) {
        free_page_ = *page(id);
      } else {
        id = next_page_++;
      }
      b.table[at >> page_shift_] = id;
      b.tail = page(id);
    }
    std::uint32_t* const cell = b.tail + (at & page_mask_);
    *cell = u;
    return static_cast<std::uint32_t>(cell - pool_.data());
  }

  const ColorLists* lists_;
  std::uint64_t size_mask_;   // list-size field, above the 32 cell bits
  std::uint32_t mask_shift_;  // record bit of slot 0's presence flag
  std::uint32_t stride_;      // words per record
  std::vector<std::uint64_t> records_;
  std::vector<std::uint8_t> alive_;  // per vertex: uncolored, list non-empty
  // Bucket queue by list size, keys 0..L (key 0 stays empty).
  std::vector<Bucket> buckets_;
  std::vector<std::uint32_t> pool_;    // pool_pages(n, L) pages of B cells
  std::vector<std::uint32_t> tables_;  // the buckets' page-id tables
  std::uint32_t page_shift_ = 0;
  std::uint32_t page_mask_ = 0;
  std::uint32_t next_page_ = 0;  // pages from here on were never handed out
  std::uint32_t free_page_ = kNoPage;
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
    const std::uint32_t v = state.member(
        key, static_cast<std::uint32_t>(rng.bounded(state.bucket_size(key))));
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

}  // namespace detail

}  // namespace picasso::core
