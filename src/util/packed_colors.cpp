#include "util/packed_colors.hpp"

#include <algorithm>

namespace picasso::util {

namespace {

// Fill pattern: the w-bit code replicated across a 64-bit word.
std::uint64_t splat(std::uint64_t code, unsigned width) {
  std::uint64_t word = 0;
  for (unsigned shift = 0; shift < 64; shift += width) word |= code << shift;
  return word;
}

}  // namespace

unsigned PackedColorArray::width_for_value(std::uint32_t value) {
  // Inline storage needs value <= mask - 2 (two codes are reserved).
  if (value <= 1u) return 2;
  if (value <= 13u) return 4;
  if (value <= 253u) return 8;
  return 32;
}

unsigned PackedColorArray::pick_width(std::uint32_t bound) {
  if (bound == 0) return 2;
  return width_for_value(bound - 1);
}

PackedColorArray::PackedColorArray(std::size_t n, std::uint32_t value,
                                   std::uint32_t bound) {
  width_ = pick_width(bound);
  if (value != kNoColor && width_for_value(value) > width_) {
    width_ = width_for_value(value);
  }
  assign(n, value);
}

PackedColorArray::PackedColorArray(const std::vector<std::uint32_t>& values) {
  *this = values;
}

PackedColorArray& PackedColorArray::operator=(
    const std::vector<std::uint32_t>& values) {
  // One pass to find the widest needed inline width avoids escape churn.
  unsigned width = 2;
  for (const std::uint32_t v : values) {
    if (v != kNoColor) width = std::max(width, width_for_value(v));
  }
  width_ = width;
  assign(values.size(), kNoColor);
  for (std::size_t i = 0; i < values.size(); ++i) set(i, values[i]);
  return *this;
}

void PackedColorArray::clear() {
  size_ = 0;
  words_.clear();
  full_.clear();
  escapes_.clear();
}

void PackedColorArray::assign(std::size_t n, std::uint32_t value) {
  escapes_.clear();
  size_ = n;
  if (value != kNoColor && width_for_value(value) > width_) {
    width_ = width_for_value(value);
  }
  if (width_ == 32) {
    words_.clear();
    full_.assign(n, value);
    return;
  }
  full_.clear();
  const std::uint64_t mask = (1u << width_) - 1u;
  const std::uint64_t code = value == kNoColor ? mask : value;
  words_.assign(packed_word_count(n, width_), splat(code, width_));
}

void PackedColorArray::reset(std::size_t n, std::uint32_t value,
                             std::uint32_t bound) {
  width_ = pick_width(bound);
  assign(n, value);
}

void PackedColorArray::resize(std::size_t n, std::uint32_t value) {
  if (n <= size_) {
    size_ = n;
    if (width_ == 32) {
      full_.resize(n);
    } else {
      words_.resize(packed_word_count(n, width_));
      while (!escapes_.empty() && escapes_.back().first >= n) {
        escapes_.pop_back();
      }
    }
    return;
  }
  const std::size_t old = size_;
  size_ = n;
  if (width_ == 32) {
    full_.resize(n, value);
    return;
  }
  words_.resize(packed_word_count(n, width_), 0);
  for (std::size_t i = old; i < n; ++i) set(i, value);
}

void PackedColorArray::push_back(std::uint32_t value) {
  resize(size_ + 1, value);
}

std::uint32_t PackedColorArray::escaped_value(std::size_t i) const {
  const auto it = std::lower_bound(
      escapes_.begin(), escapes_.end(), i,
      [](const auto& entry, std::size_t idx) { return entry.first < idx; });
  return it->second;  // an escape code is only ever written with its entry
}

void PackedColorArray::erase_escape(std::size_t i) {
  const auto it = std::lower_bound(
      escapes_.begin(), escapes_.end(), i,
      [](const auto& entry, std::size_t idx) { return entry.first < idx; });
  if (it != escapes_.end() && it->first == i) escapes_.erase(it);
}

void PackedColorArray::set_slow(std::size_t i, std::uint32_t value) {
  // The value does not fit inline at the current width. Escape it, unless
  // the side table has grown past its threshold — then re-widen once and
  // store flat from here on.
  const std::size_t threshold = std::min<std::size_t>(size_ / 16, 256) + 8;
  if (escapes_.size() + 1 > threshold) {
    widen(width_for_value(value));
    set(i, value);
    return;
  }
  const std::uint64_t mask = (1u << width_) - 1u;
  const auto it = std::lower_bound(
      escapes_.begin(), escapes_.end(), i,
      [](const auto& entry, std::size_t idx) { return entry.first < idx; });
  if (it != escapes_.end() && it->first == i) {
    it->second = value;
  } else {
    escapes_.insert(it, {i, value});
  }
  std::uint64_t& w = words_[i * width_ / 64];
  const unsigned shift = i * width_ % 64;
  w = (w & ~(mask << shift)) | ((mask - 1u) << shift);
}

void PackedColorArray::widen(unsigned new_width) {
  PackedColorArray wider;
  wider.width_ = std::max(new_width, width_);
  wider.assign(size_, kNoColor);
  for (std::size_t i = 0; i < size_; ++i) wider.set(i, get(i));
  *this = std::move(wider);
}

std::vector<std::uint32_t> PackedColorArray::to_vector() const {
  std::vector<std::uint32_t> out(size_);
  for (std::size_t i = 0; i < size_; ++i) out[i] = get(i);
  return out;
}

bool operator==(const PackedColorArray& a, const PackedColorArray& b) {
  if (a.size_ != b.size_) return false;
  for (std::size_t i = 0; i < a.size_; ++i) {
    if (a.get(i) != b.get(i)) return false;
  }
  return true;
}

bool operator==(const PackedColorArray& a,
                const std::vector<std::uint32_t>& b) {
  if (a.size_ != b.size()) return false;
  for (std::size_t i = 0; i < a.size_; ++i) {
    if (a.get(i) != b[i]) return false;
  }
  return true;
}

std::size_t PackedColorArray::logical_bytes() const noexcept {
  const std::size_t payload =
      width_ == 32 ? size_ * sizeof(std::uint32_t)
                   : packed_word_count(size_, width_) * sizeof(std::uint64_t);
  return payload +
         escapes_.size() * (sizeof(std::size_t) + sizeof(std::uint32_t));
}

}  // namespace picasso::util
