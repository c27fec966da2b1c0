// PackedColorArray (util/packed_colors.hpp): the sub-byte color container
// every engine now materializes colorings into. Properties under random
// workloads: read-back equals a reference std::vector under arbitrary
// interleaved writes (including kNoColor and escape-tier values), widths
// come from palette bounds, and escapes re-widen instead of growing without
// bound.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/packed_colors.hpp"
#include "util/rng.hpp"

namespace pu = picasso::util;

using pu::PackedColorArray;

TEST(PackedColors, WidthFromPaletteBound) {
  // Inline capacity per width w is [0, 2^w - 2) (two reserved codes).
  EXPECT_EQ(PackedColorArray::pick_width(0), 2u);
  EXPECT_EQ(PackedColorArray::pick_width(1), 2u);
  EXPECT_EQ(PackedColorArray::pick_width(2), 2u);
  EXPECT_EQ(PackedColorArray::pick_width(3), 4u);
  EXPECT_EQ(PackedColorArray::pick_width(14), 4u);
  EXPECT_EQ(PackedColorArray::pick_width(15), 8u);
  EXPECT_EQ(PackedColorArray::pick_width(254), 8u);
  EXPECT_EQ(PackedColorArray::pick_width(255), 32u);
  EXPECT_EQ(PackedColorArray::pick_width(1u << 20), 32u);
}

TEST(PackedColors, ConstructDefaultsToNoColor) {
  const PackedColorArray arr(37);
  EXPECT_EQ(arr.size(), 37u);
  EXPECT_EQ(arr.width_bits(), 2u);
  for (std::size_t i = 0; i < arr.size(); ++i) {
    EXPECT_EQ(arr[i], PackedColorArray::kNoColor) << i;
  }
}

TEST(PackedColors, RandomWritesMatchReferenceVector) {
  pu::Xoshiro256 rng(0x9ac4edull);
  for (int round = 0; round < 20; ++round) {
    const std::size_t n = 1 + rng.bounded(300);
    const std::uint32_t bound = 1 + static_cast<std::uint32_t>(rng.bounded(40));
    PackedColorArray arr(n, PackedColorArray::kNoColor, bound);
    std::vector<std::uint32_t> ref(n, PackedColorArray::kNoColor);
    for (int w = 0; w < 2000; ++w) {
      const std::size_t i = rng.bounded(static_cast<std::uint32_t>(n));
      // Mix inline values, escape-tier values and the sentinel.
      std::uint32_t value;
      switch (rng.bounded(8)) {
        case 0: value = PackedColorArray::kNoColor; break;
        case 1: value = 1000 + rng.bounded(100000); break;  // escapes/widens
        default: value = rng.bounded(bound); break;
      }
      arr[i] = value;
      ref[i] = value;
    }
    ASSERT_EQ(arr.size(), ref.size());
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(arr[i], ref[i]) << i;
    ASSERT_TRUE(arr == ref);
    ASSERT_EQ(arr.to_vector(), ref);
  }
}

TEST(PackedColors, EscapesRewidenPastThreshold) {
  const std::size_t n = 4096;
  PackedColorArray arr(n, 0, 4);  // 4-bit tier
  ASSERT_EQ(arr.width_bits(), 4u);
  // Flood with values no 4- or 8-bit code stores inline; the array must
  // abandon the side table and widen instead of accumulating escapes.
  for (std::size_t i = 0; i < n; ++i) arr[i] = 1u << 20;
  EXPECT_EQ(arr.width_bits(), 32u);
  EXPECT_EQ(arr.escape_count(), 0u);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(arr[i], 1u << 20);
}

TEST(PackedColors, OverwritingEscapeReleasesSideTableEntry) {
  PackedColorArray arr(8, 0, 4);
  arr[3] = 500;  // escapes at width 4
  ASSERT_GE(arr.escape_count(), 1u);
  arr[3] = 2;  // back inline: the stale escape must not shadow the new value
  EXPECT_EQ(arr[3], 2u);
  EXPECT_EQ(arr.escape_count(), 0u);
}

TEST(PackedColors, VectorInteropAndEquality) {
  const std::vector<std::uint32_t> src = {0, 1, 2, PackedColorArray::kNoColor,
                                          7, 3, 9, 250, 251};
  const PackedColorArray arr(src);
  EXPECT_TRUE(arr == src);
  const std::vector<std::uint32_t> back(arr);  // implicit conversion
  EXPECT_EQ(back, src);

  PackedColorArray other;
  other = src;
  EXPECT_TRUE(arr == other);
  other[0] = 5;
  EXPECT_FALSE(arr == other);
}

TEST(PackedColors, IteratorCoversStdAlgorithms) {
  const std::vector<std::uint32_t> src = {4, 1, 4, 2, 9, 1, 4};
  const PackedColorArray arr(src);
  EXPECT_EQ(std::count(arr.begin(), arr.end(), 4u), 3);
  EXPECT_EQ(*std::max_element(arr.begin(), arr.end()), 9u);
  std::vector<std::uint32_t> copied(arr.begin(), arr.end());
  EXPECT_EQ(copied, src);
}

TEST(PackedColors, AssignResetResizePushBack) {
  PackedColorArray arr;
  arr.assign(5, 1);
  EXPECT_EQ(arr.size(), 5u);
  EXPECT_EQ(arr[4], 1u);

  arr.reset(10, 0, 200);  // re-picks the 8-bit tier
  EXPECT_EQ(arr.width_bits(), 8u);
  EXPECT_EQ(arr.size(), 10u);

  arr.resize(12);  // grows with kNoColor
  EXPECT_EQ(arr.size(), 12u);
  EXPECT_EQ(arr[11], PackedColorArray::kNoColor);
  arr.resize(3);
  EXPECT_EQ(arr.size(), 3u);

  arr.push_back(42);
  EXPECT_EQ(arr.size(), 4u);
  EXPECT_EQ(arr[3], 42u);

  arr.clear();
  EXPECT_TRUE(arr.empty());
}

TEST(PackedColors, LogicalBytesTracksWidth) {
  // 1024 4-bit entries: 512 payload bytes vs 4096 for flat uint32.
  const PackedColorArray narrow(1024, 0, 10);
  EXPECT_EQ(narrow.width_bits(), 4u);
  EXPECT_LE(narrow.logical_bytes(), 1024u);
  const PackedColorArray wide(1024, 0, 1u << 20);
  EXPECT_EQ(wide.width_bits(), 32u);
  EXPECT_GE(wide.logical_bytes(), 4096u);
  EXPECT_LT(narrow.logical_bytes(), wide.logical_bytes() / 4);
}
