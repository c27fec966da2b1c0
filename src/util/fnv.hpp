#pragma once
// FNV-1a fingerprints.
//
// One canonical implementation of the 64-bit FNV-1a hash the project uses
// for replay fingerprints: the coloring hash the CI baseline pins exactly
// (bench_incremental / bench_table4_memory) and ad-hoc identity checks in
// tests. Byte order is fixed (values are folded little-endian,
// lowest byte first) so fingerprints compare bit-for-bit across machines.
// Byte-serial: each byte waits on the previous multiply, so bulk data
// that need not match a pinned value belongs in util/word_hash.hpp.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/packed_colors.hpp"

namespace picasso::util {

inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline std::uint64_t fnv1a_byte(std::uint64_t h, std::uint8_t byte) noexcept {
  return (h ^ byte) * kFnvPrime;
}

inline std::uint64_t fnv1a_u32(std::uint64_t h, std::uint32_t v) noexcept {
  for (int shift = 0; shift < 32; shift += 8) {
    h = fnv1a_byte(h, static_cast<std::uint8_t>((v >> shift) & 0xffu));
  }
  return h;
}

/// The replay fingerprint of a coloring: FNV-1a over the color sequence,
/// each color folded as four little-endian bytes. Identical to the hash
/// bench_incremental has always emitted, so baseline values carry over.
inline std::uint64_t coloring_fingerprint(
    const std::vector<std::uint32_t>& colors) noexcept {
  std::uint64_t h = kFnvOffsetBasis;
  for (std::uint32_t c : colors) h = fnv1a_u32(h, c);
  return h;
}

inline std::uint64_t coloring_fingerprint(const PackedColorArray& colors) {
  std::uint64_t h = kFnvOffsetBasis;
  for (std::uint32_t c : colors) h = fnv1a_u32(h, c);
  return h;
}

}  // namespace picasso::util
