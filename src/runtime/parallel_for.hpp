#pragma once
// Chunked execution over the work-stealing pool: weight-balanced range
// splitting and a chunk runner.
//
// Determinism contract (the property the serial-vs-parallel equivalence
// tests assert): per-chunk outputs are indexed by chunk ordinal and merged
// in chunk order, so which thread runs a chunk is unobservable. Chunk
// *decomposition* varies with worker count; callers stay bit-identical
// across thread counts by making per-chunk work a pure restriction of the
// serial loop, so that order-preserving concatenation gives back the serial
// output.
//
// run_chunks() accepts a nullptr pool and then runs every chunk inline on
// the caller, which *is* the serial reference path — there is no second
// implementation to drift from.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "runtime/thread_pool.hpp"

namespace picasso::runtime {

/// One contiguous chunk of an index range, plus its deterministic ordinal.
struct ChunkRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t index = 0;       // ordinal in [0, num_chunks)
  std::size_t num_chunks = 1;

  std::size_t size() const noexcept { return end - begin; }
};

/// Splits [0, weights.size()) into at most `max_parts` contiguous ranges of
/// roughly equal total weight — the balancer for triangular pair loops and
/// skewed color buckets, where uniform index ranges would leave the first
/// chunks with most of the work. Deterministic; never returns empty ranges.
inline std::vector<ChunkRange> balanced_chunks(
    std::span<const std::uint64_t> weights, std::size_t max_parts) {
  std::vector<ChunkRange> chunks;
  const std::size_t n = weights.size();
  if (n == 0 || max_parts == 0) return chunks;
  std::uint64_t total = 0;
  for (const std::uint64_t w : weights) total += w;
  const std::uint64_t target = std::max<std::uint64_t>(1, total / max_parts);
  std::size_t lo = 0;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += weights[i];
    const bool last_slot = chunks.size() + 1 == max_parts;
    if (acc >= target && !last_slot) {
      chunks.push_back({lo, i + 1, chunks.size(), 0});
      lo = i + 1;
      acc = 0;
    }
  }
  if (lo < n) chunks.push_back({lo, n, chunks.size(), 0});
  for (auto& c : chunks) c.num_chunks = chunks.size();
  return chunks;
}

/// Runs `body(chunk)` for every range, on the pool when one is given (and we
/// are not already inside one of its workers — nested parallelism runs
/// inline instead of deadlocking), else serially in chunk order.
template <typename Body>
void run_chunks(ThreadPool* pool, std::span<const ChunkRange> chunks,
                Body&& body) {
  if (chunks.empty()) return;
  if (pool == nullptr || pool->num_workers() <= 1 || chunks.size() <= 1 ||
      pool->on_worker_thread()) {
    for (const ChunkRange& chunk : chunks) body(chunk);
    return;
  }
  TaskGroup group(*pool);
  for (const ChunkRange& chunk : chunks) {
    group.run([&body, chunk] { body(chunk); });
  }
  group.wait();
}

}  // namespace picasso::runtime
