#pragma once
// Palette and color-list assignment (Algorithm 1, Lines 5-6).
//
// Each iteration draws a fresh palette of P colors — disjoint from every
// earlier iteration's palette — and assigns every active vertex a list of L
// distinct colors sampled uniformly at random from it. P is specified as a
// percentage of the *current* number of active vertices (the paper's P'),
// and L = ceil(alpha * log10 n), clamped to [1, P]; the aggressive
// configurations (alpha = 30) intentionally saturate the clamp on small
// inputs. See compute_palette() in palette.cpp for the log-base rationale.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace picasso::core {

/// Per-iteration palette geometry.
struct IterationPalette {
  std::uint32_t palette_size = 0;  // P_l
  std::uint32_t list_size = 0;     // L_l
  std::uint32_t base_color = 0;    // global palette = [base, base + P_l)
};

/// Computes P_l and L_l for an iteration with `n_active` vertices.
/// `palette_percent` is P' (percent of n_active), `alpha` scales ln(n).
IterationPalette compute_palette(std::uint32_t n_active, double palette_percent,
                                 double alpha, std::uint32_t base_color);

/// A typed view of one iteration's list rows: row(v) is vertex v's list,
/// ascending. T is the row width ColorLists chose (uint16_t or uint32_t).
template <typename T>
struct ListRows {
  const T* data;
  std::uint32_t list_size;

  std::span<const T> row(std::uint32_t v) const noexcept {
    return {data + static_cast<std::size_t>(v) * list_size, list_size};
  }
};

/// The random color lists of one iteration, stored flat (n * L entries,
/// ascending within each vertex's list). Colors are palette-local, in
/// [0, P); the driver adds base_color when emitting final colors. Rows are
/// 16 bits wide when every palette color fits (P <= kNarrowPaletteLimit)
/// and 32 bits otherwise; at the default palette every Table-II input takes
/// the narrow rows. The width follows from P alone; it is not an option.
///
/// Every row is a pure function of (seed, iteration, v) — see
/// assign_random_lists — so the lists keep that key and can drop their rows:
/// release_rows() frees them, after which color(v, slot) draws the entry
/// again and every row reader (visit_rows and what is built on it) throws.
/// The fused engines release the rows once their color index is built; the
/// materialized engines, whose conflict pass merges whole rows, never do.
class ColorLists {
 public:
  static constexpr std::uint32_t kNarrowPaletteLimit = 65536;

  ColorLists() = default;
  /// Zero-filled lists of `list_size` colors for `num_vertices` vertices,
  /// at the row width palette_size calls for. They have no key, so only
  /// lists from assign_random_lists can release their rows.
  ColorLists(std::uint32_t num_vertices, std::uint32_t list_size,
             std::uint32_t palette_size);

  std::uint32_t num_vertices() const noexcept { return num_vertices_; }
  std::uint32_t list_size() const noexcept { return list_size_; }
  bool narrow() const noexcept { return palette_size_ <= kNarrowPaletteLimit; }
  bool released() const noexcept { return released_; }

  /// The one reader of the rows: calls fn(ListRows<T>) with the row width
  /// resolved, and returns what fn returns. Loops over entries go inside
  /// fn, so they branch on the width once per loop, never per entry.
  /// Throws std::logic_error once the rows are released.
  template <typename Fn>
  decltype(auto) visit_rows(Fn&& fn) const {
    if (released_) {
      throw std::logic_error("ColorLists::visit_rows: rows were released");
    }
    if (narrow()) {
      return fn(ListRows<std::uint16_t>{narrow_.data(), list_size_});
    }
    return fn(ListRows<std::uint32_t>{wide_.data(), list_size_});
  }

  /// Entry `slot` of v's list: read from the row, or drawn again from the
  /// row's key once the rows are released (the same color either way).
  std::uint32_t color(std::uint32_t v, std::uint32_t slot) const {
    if (released_) return redraw(v, slot);
    return visit_rows(
        [v, slot](auto rows) { return std::uint32_t{rows.row(v)[slot]}; });
  }

  /// Frees the rows (and their charge's worth of memory). Entries stay
  /// readable through color(); signatures are kept.
  void release_rows();

  /// Copy of v's list at 32 bits, for cold readers (tests, diagnostics).
  std::vector<std::uint32_t> list_copy(std::uint32_t v) const {
    std::vector<std::uint32_t> out(list_size_);
    for (std::uint32_t slot = 0; slot < list_size_; ++slot) {
      out[slot] = color(v, slot);
    }
    return out;
  }

  /// True iff the (sorted) lists of u and v share at least one color.
  /// Fast-exits on the packed signatures when they are built: a zero AND
  /// proves disjointness without touching the lists.
  bool share_color(std::uint32_t u, std::uint32_t v) const {
    if (!sigs_.empty() && (sigs_[u] & sigs_[v]) == 0) return false;
    return first_shared_color(u, v) != kNoShared;
  }

  static constexpr std::uint32_t kNoShared = 0xffffffffu;

  /// Smallest color present in both lists, or kNoShared. Two-pointer merge
  /// over the sorted lists, O(L).
  std::uint32_t first_shared_color(std::uint32_t u, std::uint32_t v) const {
    return visit_rows([u, v](auto rows) {
      const auto lu = rows.row(u);
      const auto lv = rows.row(v);
      std::size_t i = 0, j = 0;
      while (i < lu.size() && j < lv.size()) {
        if (lu[i] == lv[j]) return std::uint32_t{lu[i]};
        if (lu[i] < lv[j]) {
          ++i;
        } else {
          ++j;
        }
      }
      return kNoShared;
    });
  }

  /// Packed palette bitmask of vertex v: bit (c mod 64) is set for every
  /// color c in v's list. `sig_u & sig_v == 0` proves the lists disjoint
  /// (the converse can false-positive; callers re-check exactly). Returns
  /// all-ones before build_signatures() so the filter is a no-op then.
  std::uint64_t signature(std::uint32_t v) const noexcept {
    return sigs_.empty() ? ~std::uint64_t{0} : sigs_[v];
  }

  /// Builds the per-vertex signatures. Only the drivers whose conflict
  /// pass reads them (the materialized and semi-streaming ones) call
  /// this, right after the draw.
  void build_signatures();

  std::size_t logical_bytes() const noexcept {
    return narrow_.capacity() * sizeof(std::uint16_t) +
           wide_.capacity() * sizeof(std::uint32_t) +
           sigs_.capacity() * sizeof(std::uint64_t);
  }

 private:
  friend ColorLists assign_random_lists(std::uint32_t, const IterationPalette&,
                                        std::uint64_t, std::uint64_t);

  std::uint32_t redraw(std::uint32_t v, std::uint32_t slot) const;

  std::uint32_t num_vertices_ = 0;
  std::uint32_t list_size_ = 0;
  std::uint32_t palette_size_ = 0;  // P
  std::uint64_t seed_ = 0;          // the rows' key with iteration_ and v
  std::uint64_t iteration_ = 0;
  bool released_ = false;
  std::vector<std::uint16_t> narrow_;  // rows when P <= kNarrowPaletteLimit
  std::vector<std::uint32_t> wide_;    // rows otherwise (narrow_ empty)
  std::vector<std::uint64_t> sigs_;  // one word per vertex, empty until built
};

/// Draws the lists for one iteration: vertex i's list is L distinct colors
/// uniform from [0, P), sorted, sampled straight into its row. Every vertex
/// draws from its own (seed, iteration, vertex)-keyed stream, so the lists do
/// not depend on the order vertices are visited in, and the lists keep
/// (seed, iteration, P) to draw any entry again after release_rows().
/// Signatures are not built (see ColorLists::build_signatures).
ColorLists assign_random_lists(std::uint32_t num_vertices,
                               const IterationPalette& palette,
                               std::uint64_t seed, std::uint64_t iteration);

}  // namespace picasso::core
