#pragma once
// Word-wide 64-bit hashing: an xxh64-style multiply-rotate hash with four
// independent lanes over 4-word (32-byte) stripes, so the lanes' multiplies
// overlap instead of forming one serial dependency chain the way byte-wise
// FNV-1a does. Used where the bytes hashed are many and the value never has
// to match an older build: the problem fingerprint of the result cache
// (api/session.cpp) and the PSETSUM2 checksum trailers of .pset spills
// (pauli/pauli_stream.cpp). Not a cryptographic hash.
//
// WordHasher streams bytes in any split (file blocks, header fields,
// section payloads), keeping the 4-lane state across update() calls;
// hash_words(words, n) is its one-shot form over words already in memory.
// Words are read little-endian (host order on the x86-64 targets the .pset
// format assumes), so values compare bit-for-bit across such machines.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace picasso::util {

namespace word_hash_detail {

// The xxh64 primes: odd 64-bit constants with well-spread bits.
inline constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
inline constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
inline constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

constexpr std::uint64_t mix_round(std::uint64_t acc,
                                  std::uint64_t word) noexcept {
  return std::rotl(acc + word * kPrime2, 31) * kPrime1;
}

constexpr std::uint64_t merge_lane(std::uint64_t h,
                                   std::uint64_t lane) noexcept {
  return (h ^ mix_round(0, lane)) * kPrime1 + kPrime4;
}

/// The lanes' merged value once at least one full stripe was consumed.
constexpr std::uint64_t merge_lanes(const std::uint64_t (&lane)[4]) noexcept {
  std::uint64_t h = std::rotl(lane[0], 1) + std::rotl(lane[1], 7) +
                    std::rotl(lane[2], 12) + std::rotl(lane[3], 18);
  for (std::uint64_t l : lane) h = merge_lane(h, l);
  return h;
}

/// Folds one word that did not fill a stripe.
constexpr std::uint64_t fold_tail(std::uint64_t h,
                                  std::uint64_t word) noexcept {
  return std::rotl(h ^ mix_round(0, word), 27) * kPrime1 + kPrime4;
}

constexpr std::uint64_t avalanche(std::uint64_t h) noexcept {
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

inline std::uint64_t load_word(const unsigned char* p) noexcept {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

}  // namespace word_hash_detail

/// Streaming hash over bytes: update() in any split, then digest(). Four
/// lanes over 32-byte stripes, a merge of the lanes, the leftover words,
/// and a final avalanche; the total byte length is mixed in, so a prefix
/// never hashes like the whole. A trailing partial word is folded
/// zero-padded (the length keeps it distinct from the padded input).
class WordHasher {
 public:
  void update(const void* data, std::size_t bytes) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    total_ += bytes;
    if (buffered_ > 0) {
      const std::size_t take = bytes < kStripe - buffered_
                                   ? bytes
                                   : kStripe - buffered_;
      std::memcpy(buf_ + buffered_, p, take);
      buffered_ += take;
      p += take;
      bytes -= take;
      if (buffered_ < kStripe) return;
      consume(buf_);
      buffered_ = 0;
    }
    for (; bytes >= kStripe; p += kStripe, bytes -= kStripe) consume(p);
    if (bytes > 0) {
      std::memcpy(buf_, p, bytes);
      buffered_ = bytes;
    }
  }

  void update_u64(std::uint64_t word) noexcept {
    update(&word, sizeof(word));
  }

  /// Hash of every byte passed so far (the hasher stays usable).
  std::uint64_t digest() const noexcept {
    using namespace word_hash_detail;
    std::uint64_t h = total_ >= kStripe ? merge_lanes(lane_) : kPrime5;
    h += total_;
    constexpr std::size_t kWord = sizeof(std::uint64_t);
    std::size_t i = 0;
    for (; i + kWord <= buffered_; i += kWord) {
      h = fold_tail(h, load_word(buf_ + i));
    }
    if (i < buffered_) {
      unsigned char last[kWord] = {};
      std::memcpy(last, buf_ + i, buffered_ - i);
      h = fold_tail(h, load_word(last));
    }
    return avalanche(h);
  }

 private:
  static constexpr std::size_t kStripe = 4 * sizeof(std::uint64_t);

  void consume(const unsigned char* stripe) noexcept {
    using namespace word_hash_detail;
    for (int k = 0; k < 4; ++k) {
      lane_[k] = mix_round(lane_[k], load_word(stripe + 8 * k));
    }
  }

  std::uint64_t lane_[4] = {
      word_hash_detail::kPrime1 + word_hash_detail::kPrime2,
      word_hash_detail::kPrime2, 0, 0 - word_hash_detail::kPrime1};
  unsigned char buf_[kStripe] = {};
  std::size_t buffered_ = 0;
  std::uint64_t total_ = 0;  // bytes
};

/// One-shot hash of `n` 64-bit words: the WordHasher digest of their bytes.
inline std::uint64_t hash_words(const std::uint64_t* words,
                                std::size_t n) noexcept {
  WordHasher hasher;
  hasher.update(words, n * sizeof(std::uint64_t));
  return hasher.digest();
}

}  // namespace picasso::util
