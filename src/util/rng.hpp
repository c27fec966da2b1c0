#pragma once
// Deterministic pseudo-random number generation for Picasso.
//
// The coloring algorithm must be reproducible given a seed: every (seed,
// iteration, vertex) triple gets its own statistically independent stream, so
// the order in which vertices draw their lists cannot change them.

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace picasso::util {

/// SplitMix64: fast 64-bit mixer; used for seeding and key-derived streams.
/// Passes BigCrush when used as a generator; here mainly a seed expander.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: the main generator. Small state, excellent statistical
/// quality, trivially seedable from SplitMix64 (as its authors recommend).
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept {
    reseed(seed);
  }

  void reseed(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). Uses Lemire's multiply-shift rejection method;
  /// unbiased and much faster than std::uniform_int_distribution.
  std::uint64_t bounded(std::uint64_t bound) noexcept {
    if (bound <= 1) return 0;
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = (0ULL - bound) % bound;
      while (low < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4];
};

/// Derives an independent stream for a (seed, iteration, vertex)-style key.
/// Mixing the words through SplitMix64 decorrelates consecutive keys.
Xoshiro256 keyed_rng(std::uint64_t seed, std::uint64_t a, std::uint64_t b) noexcept;

/// Samples k = min(out.size(), n) distinct values from [0, n) uniformly at
/// random into out[0, k), ascending, and returns that prefix. Floyd's
/// algorithm: O(k) draws, no O(n) scratch and no allocation. Rows of up to
/// 32 draws are ordered by rank placement, longer ones by std::sort; both
/// give the same row. The 16-bit overload draws the identical row for
/// n <= 65,536 (every value then fits).
std::span<std::uint32_t> sample_without_replacement(
    std::uint32_t n, std::span<std::uint32_t> out, Xoshiro256& rng);
std::span<std::uint16_t> sample_without_replacement(
    std::uint32_t n, std::span<std::uint16_t> out, Xoshiro256& rng);

/// out[rank] of the row sample_without_replacement(n, out, rng) draws for an
/// `out` of k entries, from the same rng state; rank < min(k, n). It makes
/// the same k draws but places only the one asked for, so a row can be
/// dropped and any of its entries drawn again from the row's key.
std::uint32_t sample_rank(std::uint32_t n, std::uint32_t k, std::uint32_t rank,
                          Xoshiro256& rng);

/// Fisher-Yates shuffle.
template <typename T>
void shuffle(std::vector<T>& v, Xoshiro256& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::size_t j = rng.bounded(i);
    std::swap(v[i - 1], v[j]);
  }
}

}  // namespace picasso::util
