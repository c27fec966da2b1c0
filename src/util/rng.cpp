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

/// Floyd's algorithm: k <= n distinct draws from [0, n), in draw order, into
/// draws[0, k). For j = n-k .. n-1 pick t in [0, j]; insert t unless already
/// present, in which case insert j. Guarantees uniformity over all k-subsets.
/// A 256-bit filter over the low bits of the values inserted so far proves
/// most draws new without a scan; only a filter hit (about k/512 of the
/// draws on average) counts matches over the filled prefix, without an
/// early exit so the count vectorizes.
template <typename T>
void floyd(std::uint32_t n, std::uint32_t k, T* draws, Xoshiro256& rng) {
  std::uint64_t seen[4] = {0, 0, 0, 0};
  for (std::uint32_t filled = 0, j = n - k; j < n; ++j, ++filled) {
    auto t = static_cast<std::uint32_t>(rng.bounded(j + 1));
    if ((seen[(t >> 6) & 3u] >> (t & 63u)) & 1u) {
      std::uint32_t matches = 0;
      for (std::uint32_t i = 0; i < filled; ++i) {
        matches += draws[i] == t ? 1u : 0u;
      }
      if (matches != 0) t = j;
    }
    draws[filled] = static_cast<T>(t);
    seen[(t >> 6) & 3u] |= std::uint64_t{1} << (t & 63u);
  }
}

/// Position of draws[i] in the ascending row: the number of draws below it
/// (the draws are distinct). k branch-free compares that vectorize.
std::uint32_t rank_of(const std::uint32_t* draws, std::uint32_t k,
                      std::uint32_t i) {
  std::uint32_t rank = 0;
  for (std::uint32_t j = 0; j < k; ++j) {
    rank += draws[j] < draws[i] ? 1u : 0u;
  }
  return rank;
}

template <typename T>
std::span<T> sample_rows(std::uint32_t n, std::span<T> out, Xoshiro256& rng) {
  const auto k = static_cast<std::uint32_t>(
      std::min<std::size_t>(out.size(), n));
  out = out.first(k);
  if (k > kRankPlacedSampleMax) {
    floyd(n, k, out.data(), rng);
    std::sort(out.begin(), out.end());
    return out;
  }
  // Short rows skip the sort: each draw's final position is its rank —
  // k^2 branch-free compares, against std::sort's mispredicted insertion
  // steps.
  std::uint32_t draws[kRankPlacedSampleMax];
  floyd(n, k, draws, rng);
  for (std::uint32_t i = 0; i < k; ++i) {
    out[rank_of(draws, k, i)] = static_cast<T>(draws[i]);
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

std::uint32_t sample_rank(std::uint32_t n, std::uint32_t k,
                          std::uint32_t rank, Xoshiro256& rng) {
  k = std::min(k, n);
  if (k > kRankPlacedSampleMax) {
    // The sort path's row, selected rather than sorted.
    std::vector<std::uint32_t> draws(k);
    floyd(n, k, draws.data(), rng);
    std::nth_element(draws.begin(), draws.begin() + rank, draws.end());
    return draws[rank];
  }
  // Only the draw of the wanted rank is placed: the scan stops at it.
  std::uint32_t draws[kRankPlacedSampleMax];
  floyd(n, k, draws, rng);
  std::uint32_t i = 0;
  while (rank_of(draws, k, i) != rank) ++i;
  return draws[i];
}

}  // namespace picasso::util
