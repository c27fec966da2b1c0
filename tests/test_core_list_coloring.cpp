// Tests for conflict-graph list coloring (§IV-B): Algorithm 2's invariants
// (assigned color from own list, no monochromatic conflict edge, uncolored
// only on list exhaustion), the heap ablation, and the static-order schemes.

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "core/conflict_graph.hpp"
#include "core/list_coloring.hpp"
#include "core/palette.hpp"
#include "graph/graph_gen.hpp"
#include "graph/oracles.hpp"
#include "util/rng.hpp"

namespace pcore = picasso::core;
namespace pg = picasso::graph;

namespace {

constexpr std::uint32_t kNone = pcore::ListColoringResult::kNoColorLocal;

/// Checks every invariant a list coloring must satisfy.
void expect_valid_list_coloring(const pg::CsrGraph& gc,
                                const pcore::ColorLists& lists,
                                const pcore::ListColoringResult& result) {
  const std::uint32_t n = gc.num_vertices();
  ASSERT_EQ(result.assigned.size(), n);
  std::uint32_t colored = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    const std::uint32_t c = result.assigned[v];
    if (c == kNone) continue;
    ++colored;
    // Color must come from the vertex's own list.
    const auto list = lists.list_copy(v);
    EXPECT_NE(std::find(list.begin(), list.end(), c), list.end())
        << "vertex " << v << " colored outside its list";
    // No conflict edge may be monochromatic.
    for (std::uint32_t u : gc.neighbors(v)) {
      EXPECT_NE(result.assigned[u], c) << "edge (" << v << "," << u << ")";
    }
  }
  EXPECT_EQ(result.num_colored, colored);
  // uncolored = exactly the kNone vertices, sorted.
  std::vector<std::uint32_t> expected_uncolored;
  for (std::uint32_t v = 0; v < n; ++v) {
    if (result.assigned[v] == kNone) expected_uncolored.push_back(v);
  }
  EXPECT_EQ(result.uncolored, expected_uncolored);
}

struct Fixture {
  pg::CsrGraph gc;
  pcore::ColorLists lists;
};

Fixture make_fixture(std::uint32_t n, double density, double percent,
                     double alpha, std::uint64_t seed) {
  const auto base = pg::erdos_renyi_dense(n, density, seed);
  const pg::DenseOracle oracle(base);
  std::vector<std::uint32_t> active(n);
  for (std::uint32_t v = 0; v < n; ++v) active[v] = v;
  const auto palette = pcore::compute_palette(n, percent, alpha, 0);
  auto lists = pcore::assign_random_lists(n, palette, seed, 0);
  auto conflict = pcore::build_conflict_graph(
      oracle, active, lists, palette.palette_size, pcore::ConflictKernel::Indexed);
  return {std::move(conflict.graph), std::move(lists)};
}

}  // namespace

class ListColoringSweep
    : public ::testing::TestWithParam<
          std::tuple<pcore::ConflictColoringScheme, std::uint64_t>> {};

TEST_P(ListColoringSweep, SatisfiesAllInvariants) {
  const auto [scheme, seed] = GetParam();
  auto [gc, lists] = make_fixture(250, 0.5, 10.0, 2.0, seed);
  picasso::util::Xoshiro256 rng(seed);
  const auto result = pcore::color_conflict_graph(gc, lists, scheme, rng);
  expect_valid_list_coloring(gc, lists, result);
  EXPECT_GT(result.num_colored, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndSeeds, ListColoringSweep,
    ::testing::Combine(
        ::testing::Values(pcore::ConflictColoringScheme::DynamicBucket,
                          pcore::ConflictColoringScheme::DynamicHeap,
                          pcore::ConflictColoringScheme::StaticNatural,
                          pcore::ConflictColoringScheme::StaticRandom,
                          pcore::ConflictColoringScheme::StaticLargestFirst),
        ::testing::Values(1u, 7u, 23u)));

TEST(ListColoring, EveryVertexColoredWhenListsExceedDegree) {
  // Each colored neighbor removes at most one color from a list, so a list
  // longer than the conflict degree can never be exhausted: V_u is empty.
  auto [gc, lists] = make_fixture(100, 0.01, 60.0, 4.5, 3);
  std::uint32_t max_deg = 0;
  for (std::uint32_t v = 0; v < gc.num_vertices(); ++v) {
    max_deg = std::max(max_deg, static_cast<std::uint32_t>(gc.degree(v)));
  }
  if (lists.list_size() > max_deg) {
    picasso::util::Xoshiro256 rng(3);
    const auto result = pcore::color_conflict_graph_dynamic(gc, lists, rng);
    EXPECT_TRUE(result.uncolored.empty());
    EXPECT_EQ(result.num_colored, gc.num_vertices());
  } else {
    GTEST_SKIP() << "fixture did not produce L > max degree";
  }
}

TEST(ListColoring, IsolatedVerticesAlwaysColored) {
  // A conflict graph with no edges = all vertices unconflicted (Line 8 of
  // Algorithm 1): everyone gets a color from their list.
  const auto gc = pg::CsrGraph::from_edges(20, {});
  const pcore::IterationPalette palette{10, 3, 0};
  const auto lists = pcore::assign_random_lists(20, palette, 5, 0);
  picasso::util::Xoshiro256 rng(5);
  const auto result = pcore::color_conflict_graph_dynamic(gc, lists, rng);
  EXPECT_EQ(result.num_colored, 20u);
  EXPECT_TRUE(result.uncolored.empty());
  for (std::uint32_t v = 0; v < 20; ++v) {
    const auto list = lists.list_copy(v);
    EXPECT_NE(std::find(list.begin(), list.end(), result.assigned[v]),
              list.end());
  }
}

TEST(ListColoring, EmptyGraph) {
  const pg::CsrGraph gc;
  const pcore::ColorLists lists(0, 3, 3);
  picasso::util::Xoshiro256 rng(1);
  const auto result = pcore::color_conflict_graph_dynamic(gc, lists, rng);
  EXPECT_EQ(result.num_colored, 0u);
  EXPECT_TRUE(result.uncolored.empty());
}

TEST(ListColoring, SingleSharedColorForcesUncolored) {
  // Two adjacent vertices with identical singleton lists: one must end up
  // in V_u — the retry mechanism of Algorithm 1.
  const auto gc = pg::CsrGraph::from_edges(2, {{0, 1}});
  const pcore::ColorLists lists(2, 1, 1);  // zero-filled: both lists are {0}
  picasso::util::Xoshiro256 rng(2);
  const auto result = pcore::color_conflict_graph_dynamic(gc, lists, rng);
  EXPECT_EQ(result.num_colored, 1u);
  ASSERT_EQ(result.uncolored.size(), 1u);
}

TEST(ListColoring, DynamicIsDeterministicGivenRngState) {
  auto [gc, lists] = make_fixture(120, 0.5, 8.0, 2.0, 9);
  picasso::util::Xoshiro256 rng_a(42), rng_b(42);
  const auto a = pcore::color_conflict_graph_dynamic(gc, lists, rng_a);
  const auto b = pcore::color_conflict_graph_dynamic(gc, lists, rng_b);
  EXPECT_EQ(a.assigned, b.assigned);
  EXPECT_EQ(a.uncolored, b.uncolored);
}

TEST(ListColoring, BucketAndHeapColorSimilarCounts) {
  // Same policy, different priority structure: the two dynamic variants
  // should color statistically similar numbers of vertices.
  auto [gc, lists] = make_fixture(300, 0.6, 6.0, 2.0, 11);
  picasso::util::Xoshiro256 rng_a(1), rng_b(1);
  const auto bucket = pcore::color_conflict_graph_dynamic(gc, lists, rng_a);
  const auto heap = pcore::color_conflict_graph_heap(gc, lists, rng_b);
  const double ratio = static_cast<double>(bucket.num_colored + 1) /
                       static_cast<double>(heap.num_colored + 1);
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.25);
}

TEST(ListColoring, StaticSchemesRejectDynamicEnum) {
  auto [gc, lists] = make_fixture(30, 0.5, 20.0, 2.0, 2);
  EXPECT_THROW(pcore::color_conflict_graph_static(
                   gc, lists, pcore::ConflictColoringScheme::DynamicBucket, 1),
               std::invalid_argument);
}

TEST(ListColoring, SchemeNames) {
  EXPECT_STREQ(pcore::to_string(pcore::ConflictColoringScheme::DynamicBucket),
               "dynamic-bucket");
  EXPECT_STREQ(pcore::to_string(pcore::ConflictColoringScheme::StaticLargestFirst),
               "static-LF");
}

TEST(ListColoring, ReportsAuxBytes) {
  auto [gc, lists] = make_fixture(100, 0.4, 10.0, 2.0, 6);
  picasso::util::Xoshiro256 rng(6);
  const auto result = pcore::color_conflict_graph_dynamic(gc, lists, rng);
  EXPECT_GT(result.aux_peak_bytes, 0u);
}

// --- Strike state: paged buckets and packed records ------------------------

namespace {

namespace pd = pcore::detail;

/// The bucket queue and strike records as plain vectors: size buckets with
/// swap-with-last erase and push_back insert, per-vertex positions and list
/// sizes, and one presence flag per list slot.
class ReferenceStrikeState {
 public:
  explicit ReferenceStrikeState(const pcore::ColorLists& lists)
      : buckets_(lists.list_size() + 1),
        pos_(lists.num_vertices()),
        size_(lists.num_vertices(), lists.list_size()),
        present_(lists.num_vertices(),
                 std::vector<std::uint8_t>(lists.list_size(), 1)) {
    for (std::uint32_t v = 0; v < lists.num_vertices(); ++v) {
      pos_[v] = v;
      buckets_[lists.list_size()].push_back(v);
    }
  }

  const std::vector<std::uint32_t>& bucket(std::uint32_t key) const {
    return buckets_[key];
  }
  std::uint32_t size_of(std::uint32_t v) const { return size_[v]; }
  bool live(std::uint32_t v, std::uint32_t slot) const {
    return present_[v][slot] != 0;
  }

  /// Slot of v's idx-th present color.
  std::uint32_t slot_at(std::uint32_t v, std::uint32_t idx) const {
    for (std::uint32_t s = 0; s < present_[v].size(); ++s) {
      if (present_[v][s] && idx-- == 0) return s;
    }
    return kNone;
  }

  void erase(std::uint32_t v) { unlink(v); }

  void retire(std::uint32_t v) {
    size_[v] = 0;
    std::fill(present_[v].begin(), present_[v].end(), 0);
  }

  void strike(std::uint32_t u, std::uint32_t slot) {
    unlink(u);
    present_[u][slot] = 0;
    if (--size_[u] == 0) return;
    pos_[u] = static_cast<std::uint32_t>(buckets_[size_[u]].size());
    buckets_[size_[u]].push_back(u);
  }

 private:
  void unlink(std::uint32_t v) {
    auto& bucket = buckets_[size_[v]];
    const std::uint32_t last = bucket.back();
    bucket[pos_[v]] = last;
    pos_[last] = pos_[v];
    bucket.pop_back();
  }

  std::vector<std::vector<std::uint32_t>> buckets_;
  std::vector<std::uint32_t> pos_;
  std::vector<std::uint32_t> size_;
  std::vector<std::vector<std::uint8_t>> present_;
};

void expect_same_buckets(pd::StrikeState& state,
                         const ReferenceStrikeState& ref, std::uint32_t l,
                         int step) {
  for (std::uint32_t key = 1; key <= l; ++key) {
    const auto& want = ref.bucket(key);
    ASSERT_EQ(state.bucket_size(key), want.size())
        << "key " << key << " step " << step;
    for (std::uint32_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(state.member(key, i), want[i])
          << "key " << key << " index " << i << " step " << step;
    }
  }
}

/// Drives a bucketed StrikeState and the reference through one seeded run
/// of Algorithm 2's operations — pick a random member of the lowest bucket,
/// erase it, pick a random surviving color, retire it, then strike random
/// live slots of random vertices — and asserts the picks and the buckets
/// agree after each round, and every record on a cadence; counts the
/// strikes made.
void run_against_reference(std::uint32_t n, std::uint32_t p, std::uint32_t l,
                           std::uint64_t seed, std::uint64_t& strikes) {
  const pcore::IterationPalette palette{p, l, 0};
  const auto lists = pcore::assign_random_lists(n, palette, seed, 0);
  pd::StrikeState state(lists, /*bucketed=*/true);
  ReferenceStrikeState ref(lists);
  picasso::util::Xoshiro256 rng(seed);
  strikes = 0;
  int step = 0;
  expect_same_buckets(state, ref, l, step);
  while (!state.empty()) {
    ++step;
    const std::uint32_t key = state.min_key();
    std::uint32_t lowest = 1;
    while (ref.bucket(lowest).empty()) ++lowest;
    EXPECT_EQ(key, lowest) << "step " << step;
    const auto i = static_cast<std::uint32_t>(rng.bounded(state.bucket_size(key)));
    const std::uint32_t v = state.member(key, i);
    EXPECT_EQ(v, ref.bucket(key)[i]) << "step " << step;
    state.erase(v);
    ref.erase(v);
    const auto idx = static_cast<std::uint32_t>(rng.bounded(key));
    const std::uint32_t slot = ref.slot_at(v, idx);
    EXPECT_EQ(state.color_at(v, idx), lists.list_copy(v)[slot])
        << "step " << step;
    state.retire(v);
    ref.retire(v);

    // A burst of strikes: random vertices, a random live slot of each.
    const auto burst = static_cast<std::uint32_t>(rng.bounded(2 * l + 2));
    for (std::uint32_t k = 0; k < burst; ++k) {
      const auto u = static_cast<std::uint32_t>(rng.bounded(n));
      if (!state.alive(u)) {
        EXPECT_EQ(ref.size_of(u), 0u) << "u " << u << " step " << step;
        continue;
      }
      const std::uint32_t s = ref.slot_at(
          u, static_cast<std::uint32_t>(rng.bounded(ref.size_of(u))));
      EXPECT_TRUE(state.live(u, s)) << "u " << u << " step " << step;
      state.strike(u, s);
      ref.strike(u, s);
      ++strikes;
    }
    expect_same_buckets(state, ref, l, step);
    if (::testing::Test::HasFatalFailure()) return;
    // Every record, on a cadence that keeps the larger shapes quick.
    if (step % (n / 256 + 1) != 0 && !state.empty()) continue;
    for (std::uint32_t u = 0; u < n; ++u) {
      ASSERT_EQ(state.size_of(u), ref.size_of(u)) << "u " << u;
      ASSERT_EQ(state.alive(u), ref.size_of(u) != 0) << "u " << u;
      for (std::uint32_t s = 0; s < l; ++s) {
        ASSERT_EQ(state.live(u, s), ref.live(u, s)) << "u " << u << " s " << s;
      }
    }
  }
  for (std::uint32_t key = 1; key <= l; ++key) {
    EXPECT_TRUE(ref.bucket(key).empty()) << "key " << key;
  }
}

}  // namespace

TEST(StrikeState, RecordWordsFollowTheLayout) {
  // 32 cell bits, bit_width(L) size bits, then L mask bits.
  EXPECT_EQ(pd::StrikeState::record_words(1), 1u);
  EXPECT_EQ(pd::StrikeState::record_words(27), 1u);
  EXPECT_EQ(pd::StrikeState::record_words(28), 2u);
  EXPECT_EQ(pd::StrikeState::record_words(90), 3u);
  // Page size bit_floor(sqrt(n)), at least 16.
  EXPECT_EQ(pd::StrikeState::page_shift(1), 4u);
  EXPECT_EQ(pd::StrikeState::page_shift(1023), 4u);
  EXPECT_EQ(pd::StrikeState::page_shift(1024), 5u);
  EXPECT_EQ(pd::StrikeState::page_shift(20000), 7u);
  EXPECT_EQ(pd::StrikeState::pool_pages(20000, 9), 157u + 9 + 1);
}

struct StrikeShape {
  std::uint32_t n;
  std::uint32_t p;
  std::uint32_t l;
};

class StrikeStateVsReference : public ::testing::TestWithParam<StrikeShape> {};

TEST_P(StrikeStateVsReference, SamePicksBucketsAndRecords) {
  const StrikeShape shape = GetParam();
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    std::uint64_t strikes = 0;
    run_against_reference(shape.n, shape.p, shape.l, seed, strikes);
    if (HasFatalFailure()) return;
    EXPECT_GT(strikes, shape.n / 4) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, StrikeStateVsReference,
    ::testing::Values(
        StrikeShape{1000, 40, 8},   // B = 16: many page crossings
        StrikeShape{1025, 30, 5},   // n just past a power of two
        StrikeShape{4100, 90, 12},  // B = 64
        StrikeShape{300, 10, 1},    // L = 1
        StrikeShape{200, 12, 12},   // L = P
        StrikeShape{17, 4, 4},      // one partly filled page
        StrikeShape{300, 60, 27},   // the widest one-word record
        StrikeShape{300, 60, 28},   // two-word records
        StrikeShape{300, 120, 90}   // three-word records
        ),
    [](const ::testing::TestParamInfo<StrikeShape>& info) {
      return "n" + std::to_string(info.param.n) + "_P" +
             std::to_string(info.param.p) + "_L" +
             std::to_string(info.param.l);
    });

TEST(StrikeState, AuxBytesFollowTheLayoutFormula) {
  constexpr std::uint32_t n = 1000;
  auto [gc, lists] = make_fixture(n, 0.4, 10.0, 2.0, 6);
  const std::uint32_t l = lists.list_size();
  picasso::util::Xoshiro256 rng(6);
  const auto result = pcore::color_conflict_graph_dynamic(gc, lists, rng);
  // B = bit_floor(sqrt(1000)) = 16 (the floor), ceil(n / B) = 63 pages per
  // page table; each bucket header is a tail pointer, a table pointer and
  // a size (24 bytes on LP64).
  constexpr std::size_t kPage = 16;
  constexpr std::size_t kTable = 63;
  const std::size_t records = 8 * pd::StrikeState::record_words(l) * n;
  const std::size_t alive = n;
  const std::size_t pool = 4 * kPage * (kTable + l + 1);
  const std::size_t tables = 4 * kTable * (l + 1);
  const std::size_t headers = 24 * (l + 1);
  EXPECT_EQ(result.aux_peak_bytes, records + alive + pool + tables + headers +
                                       result.assigned.logical_bytes())
      << "L=" << l;
}
