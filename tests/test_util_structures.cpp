// Tests for the supporting data structures: bucket queue (the heart of
// Algorithm 2 and the SL/DLF/ID orderings), prefix sums, memory tracking,
// summary statistics and table formatting.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "util/bucket_queue.hpp"
#include "util/memory.hpp"
#include "util/prefix_sum.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace pu = picasso::util;

TEST(BucketQueue, InsertEraseContains) {
  pu::BucketQueue q(10, 5);
  EXPECT_TRUE(q.empty());
  q.insert(3, 2);
  q.insert(7, 0);
  EXPECT_TRUE(q.contains(3));
  EXPECT_TRUE(q.contains(7));
  EXPECT_FALSE(q.contains(0));
  EXPECT_EQ(q.size(), 2u);
  q.erase(3);
  EXPECT_FALSE(q.contains(3));
  EXPECT_EQ(q.size(), 1u);
}

TEST(BucketQueue, MinAndMaxKeys) {
  pu::BucketQueue q(10, 9);
  q.insert(0, 4);
  q.insert(1, 7);
  q.insert(2, 2);
  EXPECT_EQ(q.min_key(), 2u);
  EXPECT_EQ(q.max_key(), 7u);
  q.erase(2);
  EXPECT_EQ(q.min_key(), 4u);
  q.insert(3, 0);
  EXPECT_EQ(q.min_key(), 0u);  // cursor rewinds on smaller insert
}

TEST(BucketQueue, UpdateKeyMovesElement) {
  pu::BucketQueue q(4, 10);
  q.insert(1, 5);
  q.update_key(1, 9);
  EXPECT_EQ(q.key_of(1), 9u);
  EXPECT_EQ(q.max_key(), 9u);
  EXPECT_EQ(q.any_in_bucket(9), 1u);
}

TEST(BucketQueue, StressAgainstNaiveModel) {
  // Randomized operations cross-checked against a map-based model.
  pu::Xoshiro256 rng(55);
  constexpr std::uint32_t n = 200, max_key = 50;
  pu::BucketQueue q(n, max_key);
  std::map<std::uint32_t, std::uint32_t> model;  // id -> key
  for (int step = 0; step < 5000; ++step) {
    const std::uint32_t id = static_cast<std::uint32_t>(rng.bounded(n));
    switch (rng.bounded(3)) {
      case 0:
        if (!model.count(id)) {
          const auto key = static_cast<std::uint32_t>(rng.bounded(max_key + 1));
          q.insert(id, key);
          model[id] = key;
        }
        break;
      case 1:
        if (model.count(id)) {
          q.erase(id);
          model.erase(id);
        }
        break;
      default:
        if (model.count(id)) {
          const auto key = static_cast<std::uint32_t>(rng.bounded(max_key + 1));
          q.update_key(id, key);
          model[id] = key;
        }
    }
    ASSERT_EQ(q.size(), model.size());
    if (!model.empty()) {
      std::uint32_t lo = max_key + 1, hi = 0;
      for (const auto& [mid, key] : model) {
        lo = std::min(lo, key);
        hi = std::max(hi, key);
      }
      ASSERT_EQ(q.min_key(), lo);
      ASSERT_EQ(q.max_key(), hi);
    }
  }
}

TEST(PrefixSum, ExclusiveScanBasics) {
  std::vector<std::uint64_t> v{3, 1, 4, 1, 5};
  const auto total = pu::exclusive_scan_inplace(v);
  EXPECT_EQ(total, 14u);
  EXPECT_EQ(v, (std::vector<std::uint64_t>{0, 3, 4, 8, 9}));
}

TEST(PrefixSum, EmptyVector) {
  std::vector<std::uint64_t> v;
  EXPECT_EQ(pu::exclusive_scan_inplace(v), 0u);
}

TEST(PrefixSum, OffsetsFromCounts) {
  const std::vector<std::uint64_t> counts{2, 0, 3};
  const auto offsets = pu::offsets_from_counts(counts);
  EXPECT_EQ(offsets, (std::vector<std::uint64_t>{0, 2, 2, 5}));
}

TEST(PeakRss, ReturnsPositiveOnLinux) { EXPECT_GT(pu::peak_rss_bytes(), 0u); }

TEST(Stats, MeanStdDevGeomeanMedian) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(pu::mean(xs), 2.5);
  EXPECT_NEAR(pu::stddev(xs), 1.2909944, 1e-6);
  EXPECT_NEAR(pu::geomean(xs), 2.2133638, 1e-6);
  EXPECT_DOUBLE_EQ(pu::median(xs), 2.5);
  EXPECT_DOUBLE_EQ(pu::median({5.0, 1.0, 9.0}), 5.0);
  EXPECT_DOUBLE_EQ(pu::min_of(xs), 1.0);
  EXPECT_DOUBLE_EQ(pu::max_of(xs), 4.0);
}

TEST(Stats, GeomeanRejectsNonPositive) {
  EXPECT_DOUBLE_EQ(pu::geomean({1.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(pu::geomean({}), 0.0);
}

TEST(Stats, RunningStatsAccumulates) {
  pu::RunningStats rs;
  rs.add(2.0);
  rs.add(8.0);
  EXPECT_EQ(rs.count(), 2u);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  EXPECT_DOUBLE_EQ(rs.geomean(), 4.0);
}

TEST(Table, AlignedRenderingAndCsv) {
  pu::Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"a-longer-name", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| alpha"), std::string::npos);
  EXPECT_NE(s.find("a-longer-name"), std::string::npos);
  EXPECT_EQ(t.to_csv(), "name,value\nalpha,1\na-longer-name,22\n");
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, Formatters) {
  EXPECT_EQ(pu::Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(pu::Table::fmt_int(-42), "-42");
  EXPECT_EQ(pu::Table::fmt_pct(12.345, 1), "12.3%");
  EXPECT_EQ(pu::Table::fmt_bytes(2048), "2.00 KB");
}

TEST(FormatHelpers, BytesAndDurations) {
  char buf[64];
  EXPECT_STREQ(pu::format_bytes(512, buf, sizeof(buf)), "512 B");
  EXPECT_STREQ(pu::format_bytes(3ull << 30, buf, sizeof(buf)), "3.00 GB");
  EXPECT_EQ(pu::format_duration(0.002), "2.0 ms");
  EXPECT_EQ(pu::format_duration(2.5), "2.50 s");
}

TEST(Timer, MeasuresElapsedTime) {
  pu::WallTimer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i);
  EXPECT_GE(t.seconds(), 0.0);
  double acc = 0.0;
  {
    pu::ScopedAccumulator a(acc);
    for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i);
  }
  EXPECT_GT(acc, 0.0);
}
