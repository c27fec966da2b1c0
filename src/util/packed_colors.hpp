#pragma once
// Sub-byte color storage: a 2/4/8-bit-per-entry array of color ids with a
// uint32 escape tier, the "probabilistic palette engine" storage layer of
// the ROADMAP. Colorings are dense small integers (a palette of P colors
// needs ceil(log2 P) bits, 4 for the common <=16-color VQE case), so
// storing them as full uint32 wastes 4-16x; this container packs entries
// at a width chosen from the palette bound and keeps a drop-in
// std::vector<uint32_t>-like interface so every engine that materializes a
// coloring (ListColoringResult::assigned, FusedState residents,
// PicassoResult::colors) adopts it without call-site churn.
//
// Encoding per entry of width w (w in {2, 4, 8}):
//   * all-ones code (mask)      -> kNoColor (the engines' 0xffffffff
//                                  sentinel);
//   * mask - 1                  -> escaped: the real value lives in a
//                                  sorted (index, value) side table;
//   * anything else             -> the value itself (so values up to
//                                  mask - 2 store inline).
// Width 32 is the plain uint32 tier (no reserved codes, no escapes).
// Writes that overflow the width escape; when escapes accumulate past a
// small threshold the array re-widens itself in one O(n) pass, so
// pathological inputs degrade to the flat representation instead of an
// unbounded side table.

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

namespace picasso::util {

class PackedColorArray {
 public:
  static constexpr std::uint32_t kNoColor = 0xffffffffu;

  PackedColorArray() = default;
  /// n entries of `value`, packed at the width implied by `bound` (the
  /// number of distinct colors expected; 0 = narrowest, auto-widen later).
  explicit PackedColorArray(std::size_t n, std::uint32_t value = kNoColor,
                            std::uint32_t bound = 0);
  PackedColorArray(const std::vector<std::uint32_t>& values);  // NOLINT
  PackedColorArray& operator=(const std::vector<std::uint32_t>& values);

  /// Narrowest width (bits/entry) that stores colors [0, bound) inline.
  static unsigned pick_width(std::uint32_t bound);

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  unsigned width_bits() const noexcept { return width_; }
  std::size_t escape_count() const noexcept { return escapes_.size(); }

  void clear();
  /// Re-fill with n entries of `value`, keeping the current width unless
  /// `value` forces a wider one.
  void assign(std::size_t n, std::uint32_t value);
  /// Like assign, but first re-picks the width from `bound`.
  void reset(std::size_t n, std::uint32_t value, std::uint32_t bound);
  void resize(std::size_t n, std::uint32_t value = kNoColor);
  void push_back(std::uint32_t value);

  std::uint32_t get(std::size_t i) const {
    if (width_ == 32) return full_[i];
    const std::uint32_t mask = (1u << width_) - 1u;
    const std::uint32_t code = static_cast<std::uint32_t>(
        (words_[i * width_ / 64] >> (i * width_ % 64)) & mask);
    if (code == mask) return kNoColor;
    if (code == mask - 1u) return escaped_value(i);
    return code;
  }
  void set(std::size_t i, std::uint32_t value) {
    if (width_ == 32) {
      full_[i] = value;
      return;
    }
    const std::uint32_t mask = (1u << width_) - 1u;
    if (value < mask - 1u) {
      store_code(i, value, mask);
      return;
    }
    if (value == kNoColor) {
      store_code(i, mask, mask);
      return;
    }
    set_slow(i, value);
  }

  std::uint32_t operator[](std::size_t i) const { return get(i); }

  /// Write proxy so `arr[i] = c` keeps working on the packed storage.
  class Ref {
   public:
    Ref(PackedColorArray* a, std::size_t i) : a_(a), i_(i) {}
    operator std::uint32_t() const { return a_->get(i_); }  // NOLINT
    Ref& operator=(std::uint32_t value) {
      a_->set(i_, value);
      return *this;
    }
    Ref& operator=(const Ref& other) { return *this = std::uint32_t(other); }

   private:
    PackedColorArray* a_;
    std::size_t i_;
  };
  Ref operator[](std::size_t i) { return Ref(this, i); }

  /// Read-only random-access iterator (yields values, not references).
  class const_iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = std::uint32_t;
    using difference_type = std::ptrdiff_t;
    using pointer = const std::uint32_t*;
    using reference = std::uint32_t;

    const_iterator() : a_(nullptr), i_(0) {}
    const_iterator(const PackedColorArray* a, std::size_t i) : a_(a), i_(i) {}
    std::uint32_t operator*() const { return a_->get(i_); }
    std::uint32_t operator[](difference_type k) const {
      return a_->get(i_ + static_cast<std::size_t>(k));
    }
    const_iterator& operator++() { ++i_; return *this; }
    const_iterator operator++(int) { auto t = *this; ++i_; return t; }
    const_iterator& operator--() { --i_; return *this; }
    const_iterator operator--(int) { auto t = *this; --i_; return t; }
    const_iterator& operator+=(difference_type k) { i_ += k; return *this; }
    const_iterator& operator-=(difference_type k) { i_ -= k; return *this; }
    friend const_iterator operator+(const_iterator it, difference_type k) {
      return it += k;
    }
    friend const_iterator operator+(difference_type k, const_iterator it) {
      return it += k;
    }
    friend const_iterator operator-(const_iterator it, difference_type k) {
      return it -= k;
    }
    friend difference_type operator-(const const_iterator& a,
                                     const const_iterator& b) {
      return static_cast<difference_type>(a.i_) -
             static_cast<difference_type>(b.i_);
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.i_ == b.i_;
    }
    friend auto operator<=>(const const_iterator& a, const const_iterator& b) {
      return a.i_ <=> b.i_;
    }

   private:
    const PackedColorArray* a_;
    std::size_t i_;
  };
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }
  const_iterator cbegin() const { return begin(); }
  const_iterator cend() const { return end(); }

  std::vector<std::uint32_t> to_vector() const;
  operator std::vector<std::uint32_t>() const { return to_vector(); }  // NOLINT

  friend bool operator==(const PackedColorArray& a, const PackedColorArray& b);
  friend bool operator==(const PackedColorArray& a,
                         const std::vector<std::uint32_t>& b);

  /// Deterministic resident footprint (size-based, not capacity-based, so
  /// bench memory records are a pure function of the logical contents).
  std::size_t logical_bytes() const noexcept;

 private:
  void store_code(std::size_t i, std::uint64_t code, std::uint64_t mask) {
    std::uint64_t& w = words_[i * width_ / 64];
    const unsigned shift = i * width_ % 64;
    const std::uint32_t old = static_cast<std::uint32_t>((w >> shift) & mask);
    if (old == mask - 1u) erase_escape(i);
    w = (w & ~(mask << shift)) | (code << shift);
  }
  void set_slow(std::size_t i, std::uint32_t value);
  std::uint32_t escaped_value(std::size_t i) const;
  void erase_escape(std::size_t i);
  void widen(unsigned new_width);
  static unsigned width_for_value(std::uint32_t value);
  static std::size_t packed_word_count(std::size_t n, unsigned width) {
    return (n * width + 63) / 64;
  }

  unsigned width_ = 2;
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;          // width_ in {2, 4, 8}
  std::vector<std::uint32_t> full_;           // width_ == 32
  std::vector<std::pair<std::size_t, std::uint32_t>> escapes_;  // sorted
};

}  // namespace picasso::util
