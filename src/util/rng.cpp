#include "util/rng.hpp"

#include <algorithm>

namespace picasso::util {

Xoshiro256 keyed_rng(std::uint64_t seed, std::uint64_t a, std::uint64_t b) noexcept {
  SplitMix64 sm(seed ^ 0x6a09e667f3bcc909ULL);
  std::uint64_t s = sm.next();
  s ^= a * 0xff51afd7ed558ccdULL;
  SplitMix64 sm2(s);
  s = sm2.next() ^ (b * 0xc4ceb9fe1a85ec53ULL);
  SplitMix64 sm3(s);
  return Xoshiro256(sm3.next());
}

namespace {

/// Longest row sample_without_replacement orders by rank placement. That
/// costs k^2 compares, so the aggressive regime's lists of hundreds keep
/// std::sort.
constexpr std::uint32_t kRankPlacedSampleMax = 32;

template <typename T>
std::span<T> sample_rows(std::uint32_t n, std::span<T> out, Xoshiro256& rng) {
  const auto k = static_cast<std::uint32_t>(
      std::min<std::size_t>(out.size(), n));
  out = out.first(k);
  // Floyd's algorithm: for j = n-k .. n-1 pick t in [0, j]; insert t unless
  // already present, in which case insert j. Guarantees uniformity over all
  // k-subsets. The membership test counts matches over the whole filled
  // prefix without an early exit: the count vectorizes, and at list sizes
  // it beats both a mispredicted exit and a hash set.
  auto floyd = [&](auto* draws) {
    for (std::uint32_t filled = 0, j = n - k; j < n; ++j, ++filled) {
      const auto t = static_cast<std::uint32_t>(rng.bounded(j + 1));
      std::uint32_t matches = 0;
      for (std::uint32_t i = 0; i < filled; ++i) {
        matches += draws[i] == t ? 1u : 0u;
      }
      draws[filled] = matches != 0 ? j : t;
    }
  };
  if (k > kRankPlacedSampleMax) {
    floyd(out.data());
    std::sort(out.begin(), out.end());
    return out;
  }
  // Short rows skip the sort: the draws are distinct, so each one's final
  // position is the number of draws below it — k^2 branch-free compares
  // that vectorize, against std::sort's mispredicted insertion steps.
  std::uint32_t draws[kRankPlacedSampleMax];
  floyd(draws);
  for (std::uint32_t i = 0; i < k; ++i) {
    std::uint32_t rank = 0;
    for (std::uint32_t j = 0; j < k; ++j) {
      rank += draws[j] < draws[i] ? 1u : 0u;
    }
    out[rank] = static_cast<T>(draws[i]);
  }
  return out;
}

}  // namespace

std::span<std::uint32_t> sample_without_replacement(
    std::uint32_t n, std::span<std::uint32_t> out, Xoshiro256& rng) {
  return sample_rows(n, out, rng);
}

std::span<std::uint16_t> sample_without_replacement(
    std::uint32_t n, std::span<std::uint16_t> out, Xoshiro256& rng) {
  return sample_rows(n, out, rng);
}

}  // namespace picasso::util
