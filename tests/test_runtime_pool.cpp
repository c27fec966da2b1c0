// Tests for the parallel execution runtime (src/runtime/): thread-pool
// lifecycle under contention, parallel_for chunking edge cases,
// deterministic reductions, balanced range splitting, keyed RNG streams,
// and the thread-local arenas that feed util::memory accounting.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <set>
#include <vector>

#include "runtime/arena.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/runtime_config.hpp"
#include "runtime/thread_pool.hpp"
#include "util/memory.hpp"

namespace rt = picasso::runtime;

// ---------------------------------------------------------------------------
// ThreadPool lifecycle.

TEST(ThreadPool, ConstructsAndDestructsIdle) {
  for (int i = 0; i < 8; ++i) {
    rt::ThreadPool pool(4);
    EXPECT_EQ(pool.num_workers(), 4u);
  }  // destructor must join cleanly with no submitted work
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  rt::ThreadPool pool(0);
  EXPECT_GE(pool.num_workers(), 1u);
  EXPECT_EQ(pool.num_workers(), rt::ThreadPool::hardware_threads());
}

TEST(ThreadPool, SubmitDrainExecutesEverything) {
  rt::ThreadPool pool(4);
  std::atomic<int> counter{0};
  constexpr int kTasks = 1000;
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.drain();
  EXPECT_EQ(counter.load(), kTasks);
  EXPECT_EQ(pool.tasks_executed(), static_cast<std::uint64_t>(kTasks));
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    rt::ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }  // ~ThreadPool drains before joining
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, SubmitUnderContentionFromManyProducers) {
  rt::ThreadPool pool(4);
  std::atomic<int> counter{0};
  constexpr int kPerProducer = 500;
  {
    // Producers are themselves pool tasks of a second pool, hammering
    // submit() concurrently.
    rt::ThreadPool producers(4);
    for (int p = 0; p < 4; ++p) {
      producers.submit([&pool, &counter] {
        for (int i = 0; i < kPerProducer; ++i) {
          pool.submit([&counter] { counter.fetch_add(1); });
        }
      });
    }
    producers.drain();
  }
  pool.drain();
  EXPECT_EQ(counter.load(), 4 * kPerProducer);
}

TEST(ThreadPool, WorkStealingMovesTasksAcrossQueues) {
  rt::ThreadPool pool(4);
  // One long task pins a worker; the round-robin submit puts work on its
  // deque that others must steal to finish quickly.
  std::atomic<int> counter{0};
  for (int i = 0; i < 400; ++i) {
    pool.submit([&counter, i] {
      if (i == 0) {
        volatile int spin = 0;
        while (spin < 5000000) spin = spin + 1;
      }
      counter.fetch_add(1);
    });
  }
  pool.drain();
  EXPECT_EQ(counter.load(), 400);
  EXPECT_GT(pool.tasks_stolen(), 0u);
}

TEST(ThreadPool, SharedPoolIsCachedPerThreadCount) {
  rt::ThreadPool& a = rt::ThreadPool::shared(3);
  rt::ThreadPool& b = rt::ThreadPool::shared(3);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.num_workers(), 3u);
  rt::ThreadPool& c = rt::ThreadPool::shared(2);
  EXPECT_NE(&a, &c);
}

TEST(TaskGroup, PropagatesTaskExceptionToWaiter) {
  rt::ThreadPool pool(2);
  rt::TaskGroup group(pool);
  for (int i = 0; i < 16; ++i) {
    group.run([i] {
      if (i == 7) throw std::runtime_error("boom");
    });
  }
  EXPECT_THROW(group.wait(), std::runtime_error);
}

// ---------------------------------------------------------------------------
// parallel_for chunking edge cases.

TEST(ParallelFor, EmptyRangeRunsNothing) {
  rt::ThreadPool pool(4);
  std::atomic<int> calls{0};
  rt::parallel_for(&pool, 5, 5, 0, [&](std::size_t) { calls.fetch_add(1); });
  rt::parallel_for(&pool, 7, 3, 0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, RangeSmallerThanChunkIsOneInlineChunk) {
  rt::ThreadPool pool(4);
  std::vector<int> hits(3, 0);
  rt::parallel_for(&pool, 0, 3, 1000, [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1}));
}

TEST(ParallelFor, NullPoolRunsInlineSerially) {
  std::vector<std::size_t> order;
  rt::parallel_for(nullptr, 0, 100, 7, [&](std::size_t i) {
    order.push_back(i);  // safe: inline execution is sequential
  });
  std::vector<std::size_t> expected(100);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ParallelFor, EveryIndexVisitedExactlyOnce) {
  rt::ThreadPool pool(4);
  constexpr std::size_t kN = 100000;
  std::vector<std::atomic<std::uint8_t>> visited(kN);
  rt::parallel_for(&pool, 0, kN, 0,
                   [&](std::size_t i) { visited[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(visited[i].load(), 1u);
}

TEST(ParallelFor, ChunkOrdinalsAreContiguousAndCoverRange) {
  rt::ThreadPool pool(4);
  std::vector<std::pair<std::size_t, std::size_t>> spans(64);
  std::atomic<std::size_t> chunks_seen{0};
  rt::parallel_for_chunks(&pool, 10, 1000, 17,
                          [&](const rt::ChunkRange& c) {
                            ASSERT_LT(c.index, spans.size());
                            spans[c.index] = {c.begin, c.end};
                            chunks_seen.fetch_add(1);
                          });
  const std::size_t count = chunks_seen.load();
  ASSERT_GT(count, 0u);
  std::size_t cursor = 10;
  for (std::size_t c = 0; c < count; ++c) {
    EXPECT_EQ(spans[c].first, cursor);
    EXPECT_GT(spans[c].second, spans[c].first);
    cursor = spans[c].second;
  }
  EXPECT_EQ(cursor, 1000u);
}

TEST(ParallelReduce, JoinsInChunkOrderDeterministically) {
  rt::ThreadPool pool(4);
  // Non-commutative join: string concatenation of chunk begins. The result
  // must equal the serial left-to-right fold regardless of schedule.
  auto run = [&](rt::ThreadPool* p) {
    return rt::parallel_reduce(
        p, 0, 1000, 37, std::string(),
        [](const rt::ChunkRange& c) { return std::to_string(c.begin) + ","; },
        [](std::string acc, std::string part) { return acc + part; });
  };
  const std::string serial = run(nullptr);
  for (int rep = 0; rep < 10; ++rep) EXPECT_EQ(run(&pool), serial);
}

TEST(ParallelReduce, EmptyRangeReturnsInit) {
  rt::ThreadPool pool(2);
  const int r = rt::parallel_reduce(
      &pool, 4, 4, 0, 41, [](const rt::ChunkRange&) { return 1; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(r, 41);
}

TEST(BalancedChunks, BalancesSkewedWeightsAndCoversDomain) {
  // Triangular weights (the reference kernel's shape).
  std::vector<std::uint64_t> weights(1000);
  for (std::size_t u = 0; u < weights.size(); ++u) {
    weights[u] = weights.size() - 1 - u;
  }
  const auto chunks = rt::balanced_chunks(weights, 8);
  ASSERT_GT(chunks.size(), 1u);
  ASSERT_LE(chunks.size(), 8u);
  std::size_t cursor = 0;
  std::uint64_t max_load = 0;
  const std::uint64_t total =
      std::accumulate(weights.begin(), weights.end(), std::uint64_t{0});
  for (const auto& c : chunks) {
    EXPECT_EQ(c.begin, cursor);
    cursor = c.end;
    std::uint64_t load = 0;
    for (std::size_t i = c.begin; i < c.end; ++i) load += weights[i];
    max_load = std::max(max_load, load);
  }
  EXPECT_EQ(cursor, weights.size());
  // No chunk should carry more than ~3x its fair share.
  EXPECT_LT(max_load, 3 * (total / chunks.size() + 1));
}

TEST(BalancedChunks, EmptyAndSingletonDomains) {
  EXPECT_TRUE(rt::balanced_chunks({}, 4).empty());
  std::vector<std::uint64_t> one{5};
  const auto chunks = rt::balanced_chunks(one, 4);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].begin, 0u);
  EXPECT_EQ(chunks[0].end, 1u);
}

TEST(ChunkRng, StreamsAreDeterministicAndDecorrelated) {
  auto a0 = rt::chunk_rng(1, 0);
  auto a0_again = rt::chunk_rng(1, 0);
  auto a1 = rt::chunk_rng(1, 1);
  auto b0 = rt::chunk_rng(2, 0);
  int same01 = 0, sameseed = 0;
  for (int i = 0; i < 64; ++i) {
    const auto x = a0();
    EXPECT_EQ(x, a0_again());
    same01 += x == a1() ? 1 : 0;
    sameseed += x == b0() ? 1 : 0;
  }
  EXPECT_EQ(same01, 0);
  EXPECT_EQ(sameseed, 0);
}

// ---------------------------------------------------------------------------
// Thread-local arenas.

TEST(Arena, ScopeRewindReusesMemory) {
  rt::Arena& arena = rt::this_thread_arena();
  arena.reset();
  const std::size_t used0 = arena.used_bytes();
  void* first = nullptr;
  {
    rt::Arena::Scope scope(arena);
    auto a = arena.alloc<std::uint64_t>(100);
    first = a.data();
    EXPECT_GT(arena.used_bytes(), used0);
  }
  EXPECT_EQ(arena.used_bytes(), used0);
  rt::Arena::Scope scope(arena);
  auto b = arena.alloc<std::uint64_t>(100);
  EXPECT_EQ(b.data(), first);  // same storage handed back
}

TEST(Arena, AllocZeroedZeroes) {
  rt::Arena& arena = rt::this_thread_arena();
  rt::Arena::Scope scope(arena);
  auto a = arena.alloc<std::uint32_t>(256);
  std::fill(a.begin(), a.end(), 0xdeadbeefu);
  {
    // rewind and re-allocate the same bytes zeroed
  }
  rt::Arena::Scope inner(arena);
  auto z = arena.alloc_zeroed<std::uint32_t>(128);
  for (std::uint32_t v : z) ASSERT_EQ(v, 0u);
}

TEST(Arena, GrowsAcrossBlocksAndTracksPeak) {
  rt::Arena& arena = rt::this_thread_arena();
  arena.reset();
  const std::size_t peak0 = arena.peak_bytes();
  {
    rt::Arena::Scope scope(arena);
    arena.alloc<std::byte>(1 << 20);  // forces a new block beyond 64 KiB
  }
  EXPECT_GE(arena.peak_bytes(), peak0);
  EXPECT_GE(arena.peak_bytes(), std::size_t{1} << 20);
}

TEST(Arena, PerThreadArenasAreDistinctAndPeaksAggregate) {
  rt::ThreadPool pool(4);
  std::mutex m;
  std::set<const rt::Arena*> arenas;
  rt::TaskGroup group(pool);
  for (int i = 0; i < 32; ++i) {
    group.run([&] {
      rt::Arena& a = rt::this_thread_arena();
      rt::Arena::Scope scope(a);
      a.alloc<std::uint64_t>(1024);
      std::lock_guard<std::mutex> lock(m);
      arenas.insert(&a);
    });
  }
  group.wait();
  EXPECT_GE(arenas.size(), 1u);
  EXPECT_LE(arenas.size(), 4u);

  picasso::util::MemoryTracker tracker;
  tracker.allocate(100);
  rt::absorb_thread_arena_peaks(tracker);
  EXPECT_EQ(tracker.current_bytes(), 100u);  // absorb leaves level untouched
  EXPECT_GE(tracker.peak_bytes(), 100 + rt::thread_arena_peak_total());
}
