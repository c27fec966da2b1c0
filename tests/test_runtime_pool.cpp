// Tests for the parallel execution runtime (src/runtime/): thread-pool
// lifecycle under contention, balanced range splitting, and the chunk
// runner's serial and pooled paths.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "runtime/parallel_for.hpp"
#include "runtime/runtime_config.hpp"
#include "runtime/thread_pool.hpp"

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
// Chunk splitting and the chunk runner.

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

TEST(RunChunks, NullPoolRunsInlineInChunkOrder) {
  std::vector<std::uint64_t> weights(100, 1);
  const auto chunks = rt::balanced_chunks(weights, 7);
  std::vector<std::size_t> order;
  rt::run_chunks(nullptr, chunks, [&](const rt::ChunkRange& c) {
    for (std::size_t i = c.begin; i < c.end; ++i) order.push_back(i);
  });
  std::vector<std::size_t> expected(100);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(RunChunks, PoolRunsEveryChunkOnceIntoItsOrdinalSlot) {
  rt::ThreadPool pool(4);
  std::vector<std::uint64_t> weights(100000, 1);
  const auto chunks = rt::balanced_chunks(weights, 16);
  ASSERT_GT(chunks.size(), 1u);
  std::vector<std::atomic<std::uint8_t>> visited(weights.size());
  std::vector<std::size_t> sizes(chunks.size(), 0);
  rt::run_chunks(&pool, chunks, [&](const rt::ChunkRange& c) {
    for (std::size_t i = c.begin; i < c.end; ++i) visited[i].fetch_add(1);
    sizes[c.index] = c.size();
  });
  for (const auto& v : visited) ASSERT_EQ(v.load(), 1u);
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    EXPECT_EQ(sizes[c], chunks[c].size());
  }
}
