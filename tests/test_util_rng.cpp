// Tests for the deterministic RNG stack: xoshiro256**, keyed streams, and
// Floyd sampling — the primitives Picasso's reproducibility rests on.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "util/rng.hpp"

namespace pu = picasso::util;

TEST(SplitMix64, IsDeterministic) {
  pu::SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  pu::SplitMix64 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next() ? 1 : 0;
  EXPECT_EQ(same, 0);
}

TEST(Xoshiro256, DeterministicGivenSeed) {
  pu::Xoshiro256 a(777), b(777);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256, ReseedResetsStream) {
  pu::Xoshiro256 a(5);
  const auto first = a();
  a.reseed(5);
  EXPECT_EQ(a(), first);
}

TEST(Xoshiro256, BoundedStaysInRange) {
  pu::Xoshiro256 rng(99);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 20}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.bounded(bound), bound);
    }
  }
}

TEST(Xoshiro256, BoundedZeroAndOneAreZero) {
  pu::Xoshiro256 rng(3);
  EXPECT_EQ(rng.bounded(0), 0u);
  EXPECT_EQ(rng.bounded(1), 0u);
}

TEST(Xoshiro256, BoundedIsRoughlyUniform) {
  pu::Xoshiro256 rng(2024);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  std::vector<int> histogram(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) ++histogram[rng.bounded(kBuckets)];
  const double expected = static_cast<double>(kDraws) / kBuckets;
  for (int count : histogram) {
    EXPECT_NEAR(count, expected, 0.05 * expected);
  }
}

TEST(Xoshiro256, UniformIsInUnitInterval) {
  pu::Xoshiro256 rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(KeyedRng, SameKeySameStream) {
  auto a = pu::keyed_rng(1, 2, 3);
  auto b = pu::keyed_rng(1, 2, 3);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a(), b());
}

TEST(KeyedRng, NeighboringKeysDecorrelated) {
  auto a = pu::keyed_rng(1, 2, 3);
  auto b = pu::keyed_rng(1, 2, 4);
  auto c = pu::keyed_rng(1, 3, 3);
  auto d = pu::keyed_rng(2, 2, 3);
  int same_b = 0, same_c = 0, same_d = 0;
  for (int i = 0; i < 64; ++i) {
    const auto va = a();
    same_b += va == b() ? 1 : 0;
    same_c += va == c() ? 1 : 0;
    same_d += va == d() ? 1 : 0;
  }
  EXPECT_LE(same_b, 1);
  EXPECT_LE(same_c, 1);
  EXPECT_LE(same_d, 1);
}

TEST(SampleWithoutReplacement, ProducesSortedDistinctInRange) {
  pu::Xoshiro256 rng(11);
  for (std::uint32_t n : {1u, 5u, 10u, 100u, 1000u}) {
    for (std::uint32_t k : {0u, 1u, 3u, n / 2, n}) {
      std::vector<std::uint32_t> row(k);
      const auto sample = pu::sample_without_replacement(n, row, rng);
      ASSERT_EQ(sample.size(), std::min(k, n));
      EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
      std::set<std::uint32_t> unique(sample.begin(), sample.end());
      EXPECT_EQ(unique.size(), sample.size());
      for (auto v : sample) EXPECT_LT(v, n);
    }
  }
}

// Short rows are ordered by rank placement, long ones by std::sort; both
// must give exactly the row a plain Floyd-then-sort sampler gives, on both
// sides of the cutoff and at k == n (every value drawn).
TEST(SampleWithoutReplacement, RankPlacementMatchesSortReference) {
  const auto reference = [](std::uint32_t n, std::uint32_t k,
                            pu::Xoshiro256& rng) {
    std::vector<std::uint32_t> row;
    for (std::uint32_t j = n - k; j < n; ++j) {
      const auto t = static_cast<std::uint32_t>(rng.bounded(j + 1));
      row.push_back(std::find(row.begin(), row.end(), t) != row.end() ? j : t);
    }
    std::sort(row.begin(), row.end());
    return row;
  };
  for (std::uint32_t k = 1; k <= 40; ++k) {
    for (const std::uint32_t n : {k, k + 1, 2 * k + 7, 1000u}) {
      for (std::uint64_t seed = 0; seed < 8; ++seed) {
        pu::Xoshiro256 ref_rng(seed * 1315423911u + k);
        pu::Xoshiro256 rng(seed * 1315423911u + k);
        const auto expected = reference(n, k, ref_rng);
        std::vector<std::uint32_t> row(k);
        const auto sample = pu::sample_without_replacement(n, row, rng);
        ASSERT_EQ(std::vector<std::uint32_t>(sample.begin(), sample.end()),
                  expected)
            << "k=" << k << " n=" << n << " seed=" << seed;
        // Same number of draws consumed: the streams stay in lockstep.
        ASSERT_EQ(rng(), ref_rng()) << "k=" << k << " n=" << n;
      }
    }
  }
}

// sample_rank(n, k, r) is entry r of the row sample_without_replacement
// draws for k slots from the same stream, on both sides of the rank-
// placement cutoff, at k == n and with k clamped to n.
TEST(SampleWithoutReplacement, SampleRankMatchesRowEntry) {
  for (std::uint32_t k = 1; k <= 40; ++k) {
    for (const std::uint32_t n : {k, k + 1, 2 * k + 7, 1000u, 70000u}) {
      for (std::uint64_t seed = 0; seed < 4; ++seed) {
        pu::Xoshiro256 row_rng(seed * 2654435761u + k);
        std::vector<std::uint32_t> row(k);
        const auto sample = pu::sample_without_replacement(n, row, row_rng);
        for (std::uint32_t r = 0; r < sample.size(); ++r) {
          pu::Xoshiro256 rng(seed * 2654435761u + k);
          ASSERT_EQ(pu::sample_rank(n, k, r, rng), sample[r])
              << "k=" << k << " n=" << n << " rank=" << r;
        }
      }
    }
  }
  for (std::uint32_t r = 0; r < 5; ++r) {
    pu::Xoshiro256 row_rng(4), rng(4);
    std::vector<std::uint32_t> row(50);
    const auto sample = pu::sample_without_replacement(5, row, row_rng);
    EXPECT_EQ(pu::sample_rank(5, 50, r, rng), sample[r]);
  }
}

TEST(SampleWithoutReplacement, OversizedKClampsToN) {
  pu::Xoshiro256 rng(4);
  std::vector<std::uint32_t> row(50);
  const auto sample = pu::sample_without_replacement(5, row, rng);
  EXPECT_EQ(sample.size(), 5u);
}

TEST(SampleWithoutReplacement, FullSampleIsIdentitySet) {
  pu::Xoshiro256 rng(8);
  std::vector<std::uint32_t> row(16);
  const auto sample = pu::sample_without_replacement(16, row, rng);
  for (std::uint32_t i = 0; i < 16; ++i) EXPECT_EQ(sample[i], i);
}

TEST(SampleWithoutReplacement, UniformOverElements) {
  // Each element should appear in a k-of-n sample with probability k/n.
  pu::Xoshiro256 rng(31337);
  constexpr std::uint32_t n = 20, k = 5;
  constexpr int kTrials = 40000;
  std::vector<int> hits(n, 0);
  std::vector<std::uint32_t> row(k);
  for (int t = 0; t < kTrials; ++t) {
    for (auto v : pu::sample_without_replacement(n, row, rng)) ++hits[v];
  }
  const double expected = static_cast<double>(kTrials) * k / n;
  for (auto h : hits) EXPECT_NEAR(h, expected, 0.06 * expected);
}

TEST(Shuffle, IsAPermutation) {
  pu::Xoshiro256 rng(9);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  auto shuffled = v;
  pu::shuffle(shuffled, rng);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

// Parameterized determinism sweep: list assignment reproducibility depends
// on keyed streams being schedule-independent for any (seed, iter) pair.
class KeyedRngSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KeyedRngSweep, StreamsAreStableAcrossConstructionOrder) {
  const std::uint64_t seed = GetParam();
  std::vector<std::uint64_t> forward, backward;
  for (std::uint64_t v = 0; v < 32; ++v) {
    forward.push_back(pu::keyed_rng(seed, 7, v)());
  }
  for (std::uint64_t v = 32; v-- > 0;) {
    backward.push_back(pu::keyed_rng(seed, 7, v)());
  }
  std::reverse(backward.begin(), backward.end());
  EXPECT_EQ(forward, backward);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeyedRngSweep,
                         ::testing::Values(1, 2, 42, 1000003, 0xdeadbeef));
