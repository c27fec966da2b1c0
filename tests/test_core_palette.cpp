// Tests for palette geometry and random list assignment (Algorithm 1,
// Lines 5-6): clamping rules, sampling invariants, determinism, and the
// sorted-list intersection primitive.

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

#include "core/palette.hpp"

namespace pcore = picasso::core;

TEST(ComputePalette, PaletteSizeIsPercentOfActive) {
  const auto p = pcore::compute_palette(1000, 12.5, 2.0, 0);
  EXPECT_EQ(p.palette_size, 125u);
  EXPECT_EQ(p.base_color, 0u);
}

TEST(ComputePalette, ListSizeUsesLog10Rule) {
  // L = ceil(2 * log10(1000)) = 6.
  const auto p = pcore::compute_palette(1000, 12.5, 2.0, 0);
  EXPECT_EQ(p.list_size, 6u);
}

TEST(ComputePalette, ListClampsToPaletteInAggressiveMode) {
  // Aggressive (P'=3, alpha=30): L would be 30*log10(n) >> P for small n.
  const auto p = pcore::compute_palette(1000, 3.0, 30.0, 0);
  EXPECT_EQ(p.palette_size, 30u);
  EXPECT_EQ(p.list_size, 30u);  // clamped to P
}

TEST(ComputePalette, MinimaAndEdgeCases) {
  const auto tiny = pcore::compute_palette(1, 1.0, 0.5, 7);
  EXPECT_EQ(tiny.palette_size, 1u);
  EXPECT_EQ(tiny.list_size, 1u);
  EXPECT_EQ(tiny.base_color, 7u);
  const auto zero = pcore::compute_palette(0, 12.5, 2.0, 3);
  EXPECT_EQ(zero.palette_size, 0u);
  const auto all = pcore::compute_palette(10, 100.0, 1.0, 0);
  EXPECT_EQ(all.palette_size, 10u);
  // Palette never exceeds the number of active vertices.
  const auto over = pcore::compute_palette(10, 500.0, 1.0, 0);
  EXPECT_EQ(over.palette_size, 10u);
}

TEST(ComputePalette, BaseColorCarriesThrough) {
  const auto p = pcore::compute_palette(100, 10.0, 1.0, 4200);
  EXPECT_EQ(p.base_color, 4200u);
}

TEST(AssignRandomLists, ListsAreSortedDistinctAndInPalette) {
  const pcore::IterationPalette palette{50, 8, 0};
  const auto lists = pcore::assign_random_lists(200, palette, 1, 0);
  ASSERT_EQ(lists.num_vertices(), 200u);
  ASSERT_EQ(lists.list_size(), 8u);
  for (std::uint32_t v = 0; v < 200; ++v) {
    const auto list = lists.list_copy(v);
    std::set<std::uint32_t> unique(list.begin(), list.end());
    EXPECT_EQ(unique.size(), list.size()) << "v=" << v;
    EXPECT_TRUE(std::is_sorted(list.begin(), list.end()));
    for (auto c : list) EXPECT_LT(c, palette.palette_size);
  }
}

TEST(AssignRandomLists, DeterministicPerSeedAndIteration) {
  const pcore::IterationPalette palette{40, 6, 0};
  const auto a = pcore::assign_random_lists(64, palette, 9, 2);
  const auto b = pcore::assign_random_lists(64, palette, 9, 2);
  for (std::uint32_t v = 0; v < 64; ++v) {
    const auto la = a.list_copy(v);
    const auto lb = b.list_copy(v);
    EXPECT_TRUE(std::equal(la.begin(), la.end(), lb.begin()));
  }
  // A different iteration (or seed) produces different lists somewhere.
  const auto c = pcore::assign_random_lists(64, palette, 9, 3);
  const auto d = pcore::assign_random_lists(64, palette, 10, 2);
  int diff_c = 0, diff_d = 0;
  for (std::uint32_t v = 0; v < 64; ++v) {
    const auto la = a.list_copy(v);
    const auto lc = c.list_copy(v);
    const auto ld = d.list_copy(v);
    diff_c += std::equal(la.begin(), la.end(), lc.begin()) ? 0 : 1;
    diff_d += std::equal(la.begin(), la.end(), ld.begin()) ? 0 : 1;
  }
  EXPECT_GT(diff_c, 0);
  EXPECT_GT(diff_d, 0);
}

// Rows are 16 bits wide up to P = 65,536 and 32 bits from 65,537 on; either
// way row v is the sampler's draw from the (seed, iteration, v) stream. L =
// 40 takes the sampler's sort path, L = 9 its rank placement.
TEST(AssignRandomLists, RowWidthFollowsThePaletteAndKeepsTheDraw) {
  constexpr std::uint32_t kLimit = pcore::ColorLists::kNarrowPaletteLimit;
  for (const std::uint32_t palette_size : {kLimit, kLimit + 1}) {
    for (const std::uint32_t list_size : {9u, 40u}) {
      const pcore::IterationPalette palette{palette_size, list_size, 0};
      const auto lists = pcore::assign_random_lists(300, palette, 17, 4);
      EXPECT_EQ(lists.narrow(), palette_size <= kLimit);
      EXPECT_EQ(lists.logical_bytes(),
                std::size_t{300} * list_size *
                    (palette_size <= kLimit ? 2 : 4));
      std::vector<std::uint32_t> expected(list_size);
      for (std::uint32_t v = 0; v < 300; ++v) {
        auto rng = picasso::util::keyed_rng(17, 4, v);
        picasso::util::sample_without_replacement(palette_size, expected, rng);
        ASSERT_EQ(lists.list_copy(v), expected)
            << "P=" << palette_size << " L=" << list_size << " v=" << v;
      }
    }
  }
}

// After release_rows() every entry is drawn again from the row's key and
// equals the row drawn before: L from 1 to 40 (the sampler's rank placement
// and its sort path), L = P, narrow and wide rows, several seeds and
// iterations. The rows' bytes are gone and the row reader refuses.
TEST(Palette, RedrawnSlotMatchesRow) {
  constexpr std::uint32_t kLimit = pcore::ColorLists::kNarrowPaletteLimit;
  std::vector<pcore::IterationPalette> palettes;
  for (std::uint32_t l = 1; l <= 40; ++l) {
    palettes.push_back({97, l, 0});
    palettes.push_back({kLimit + 3, l, 0});
  }
  for (const std::uint32_t p : {1u, 2u, 32u, 33u, 40u}) {
    palettes.push_back({p, p, 0});
  }
  palettes.push_back({kLimit, 12, 0});
  constexpr std::uint32_t kVertices = 40;
  for (const auto& palette : palettes) {
    for (const std::uint64_t seed : {1ull, 23ull, 0xfeedbeefull}) {
      for (const std::uint64_t iteration : {0ull, 5ull}) {
        auto lists =
            pcore::assign_random_lists(kVertices, palette, seed, iteration);
        EXPECT_EQ(lists.narrow(), palette.palette_size <= kLimit);
        std::vector<std::vector<std::uint32_t>> rows;
        for (std::uint32_t v = 0; v < kVertices; ++v) {
          rows.push_back(lists.list_copy(v));
        }
        lists.release_rows();
        ASSERT_TRUE(lists.released());
        EXPECT_EQ(lists.logical_bytes(), 0u);
        EXPECT_THROW(lists.visit_rows([](auto) { return 0; }),
                     std::logic_error);
        for (std::uint32_t v = 0; v < kVertices; ++v) {
          for (std::uint32_t slot = 0; slot < palette.list_size; ++slot) {
            ASSERT_EQ(lists.color(v, slot), rows[v][slot])
                << "P=" << palette.palette_size << " L=" << palette.list_size
                << " seed=" << seed << " iteration=" << iteration
                << " v=" << v << " slot=" << slot;
          }
        }
        EXPECT_EQ(lists.list_copy(kVertices - 1), rows.back());
      }
    }
  }
}

TEST(AssignRandomLists, CoversPaletteApproximatelyUniformly) {
  // With n*L = 6000 draws over 60 colors, each color should appear about
  // 100 times; allow generous slack.
  const pcore::IterationPalette palette{60, 6, 0};
  const auto lists = pcore::assign_random_lists(1000, palette, 123, 0);
  std::vector<int> histogram(60, 0);
  for (std::uint32_t v = 0; v < 1000; ++v) {
    for (auto c : lists.list_copy(v)) ++histogram[c];
  }
  for (int count : histogram) {
    EXPECT_GT(count, 50);
    EXPECT_LT(count, 170);
  }
}

TEST(ColorLists, FirstSharedColorAgainstBruteForce) {
  const pcore::IterationPalette palette{30, 5, 0};
  auto lists = pcore::assign_random_lists(80, palette, 77, 1);
  // share_color answers the same with and without the signature fast exit.
  for (const bool signatures : {false, true}) {
    if (signatures) lists.build_signatures();
    for (std::uint32_t u = 0; u < 80; ++u) {
      for (std::uint32_t v = 0; v < 80; ++v) {
        const auto lu = lists.list_copy(u);
        const auto lv = lists.list_copy(v);
        std::uint32_t expected = pcore::ColorLists::kNoShared;
        for (auto cu : lu) {
          if (std::find(lv.begin(), lv.end(), cu) != lv.end()) {
            expected = cu;
            break;
          }
        }
        EXPECT_EQ(lists.first_shared_color(u, v), expected);
        EXPECT_EQ(lists.share_color(u, v),
                  expected != pcore::ColorLists::kNoShared);
      }
    }
  }
}

TEST(ColorLists, SelfAlwaysShares) {
  const pcore::IterationPalette palette{20, 4, 0};
  const auto lists = pcore::assign_random_lists(10, palette, 5, 0);
  for (std::uint32_t v = 0; v < 10; ++v) {
    EXPECT_EQ(lists.first_shared_color(v, v), lists.list_copy(v)[0]);
  }
}

TEST(ColorLists, LogicalBytesNonZero) {
  const pcore::IterationPalette palette{20, 4, 0};
  const auto lists = pcore::assign_random_lists(10, palette, 5, 0);
  EXPECT_GE(lists.logical_bytes(), 10u * 4u * sizeof(std::uint16_t));
}
