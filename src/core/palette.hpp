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

/// The random color lists of one iteration, stored flat (n * L entries,
/// ascending within each vertex's list). Colors are palette-local, in
/// [0, P); the driver adds base_color when emitting final colors.
class ColorLists {
 public:
  ColorLists() = default;
  ColorLists(std::uint32_t num_vertices, std::uint32_t list_size)
      : list_size_(list_size),
        data_(static_cast<std::size_t>(num_vertices) * list_size) {}

  std::uint32_t num_vertices() const noexcept {
    return list_size_ == 0 ? 0
                           : static_cast<std::uint32_t>(data_.size() / list_size_);
  }
  std::uint32_t list_size() const noexcept { return list_size_; }

  std::span<const std::uint32_t> list(std::uint32_t v) const {
    return {data_.data() + static_cast<std::size_t>(v) * list_size_, list_size_};
  }
  std::span<std::uint32_t> mutable_list(std::uint32_t v) {
    return {data_.data() + static_cast<std::size_t>(v) * list_size_, list_size_};
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
  std::uint32_t first_shared_color(std::uint32_t u, std::uint32_t v) const;

  /// Packed palette bitmask of vertex v: bit (c mod 64) is set for every
  /// color c in v's list. `sig_u & sig_v == 0` proves the lists disjoint
  /// (the converse can false-positive; callers re-check exactly). Returns
  /// all-ones before build_signatures() so the filter is a no-op then.
  std::uint64_t signature(std::uint32_t v) const noexcept {
    return sigs_.empty() ? ~std::uint64_t{0} : sigs_[v];
  }

  /// Builds the per-vertex signatures (assign_random_lists calls this; call
  /// it again after mutating lists by hand).
  void build_signatures();

  /// Frees the signature words (signature() degrades to the all-ones
  /// no-op filter; share_color falls back to the exact merge, so results
  /// are unchanged). The fused sketch path drops them — its budget-sized
  /// support blooms subsume the one-word palette filter.
  void drop_signatures() {
    sigs_.clear();
    sigs_.shrink_to_fit();
  }

  std::size_t logical_bytes() const noexcept {
    return data_.capacity() * sizeof(std::uint32_t) +
           sigs_.capacity() * sizeof(std::uint64_t);
  }

 private:
  std::uint32_t list_size_ = 0;
  std::vector<std::uint32_t> data_;
  std::vector<std::uint64_t> sigs_;  // one word per vertex, empty until built
};

/// Draws the lists for one iteration: vertex i's list is L distinct colors
/// uniform from [0, P), sorted, sampled straight into its row. Every vertex
/// draws from its own (seed, iteration, vertex)-keyed stream, so the lists do
/// not depend on the order vertices are visited in.
ColorLists assign_random_lists(std::uint32_t num_vertices,
                               const IterationPalette& palette,
                               std::uint64_t seed, std::uint64_t iteration);

}  // namespace picasso::core
