#pragma once
// Data-parallel primitives over the work-stealing pool: chunked parallel_for,
// deterministic parallel_reduce, weight-balanced range splitting, and keyed
// per-chunk RNG streams.
//
// Determinism contract (the property the serial-vs-parallel equivalence
// tests assert): per-chunk outputs are indexed by chunk ordinal, reductions
// join in chunk order, and RNG streams are keyed by stable ids — so which
// thread runs a chunk is unobservable. Chunk *decomposition* does vary with
// worker count (auto sizing targets ~4 chunks per worker); algorithms stay
// bit-identical across thread counts by making per-chunk work a pure
// restriction of the serial loop (order-preserving concatenation gives back
// the serial output) and by keying any randomness per logical item, not per
// chunk. chunk_rng() keyed by chunk ordinal is reproducible across reruns
// and schedules of one decomposition; pass an explicit chunk size if you
// need it stable across worker counts too.
//
// All primitives accept a nullptr pool and then run every chunk inline on
// the caller, which *is* the serial reference path — there is no second
// implementation to drift from.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "runtime/thread_pool.hpp"
#include "util/rng.hpp"

namespace picasso::runtime {

/// One contiguous chunk of an index range, plus its deterministic ordinal.
struct ChunkRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t index = 0;       // ordinal in [0, num_chunks)
  std::size_t num_chunks = 1;

  std::size_t size() const noexcept { return end - begin; }
};

/// Auto chunk size: about four chunks per worker, so stealing can rebalance
/// skew without drowning in per-chunk overhead.
inline std::size_t auto_chunk_size(std::size_t n, unsigned workers,
                                   std::size_t requested) noexcept {
  if (requested > 0) return requested;
  const std::size_t target = std::max<std::size_t>(1, std::size_t{workers} * 4);
  const std::size_t chunk = (n + target - 1) / target;
  return chunk == 0 ? 1 : chunk;
}

/// Splits [begin, end) into uniform chunks of `chunk_size` (0 = auto).
inline std::vector<ChunkRange> uniform_chunks(std::size_t begin,
                                              std::size_t end,
                                              std::size_t chunk_size,
                                              unsigned workers) {
  std::vector<ChunkRange> chunks;
  if (end <= begin) return chunks;
  const std::size_t n = end - begin;
  chunk_size = auto_chunk_size(n, workers, chunk_size);
  const std::size_t count = (n + chunk_size - 1) / chunk_size;
  chunks.reserve(count);
  for (std::size_t c = 0; c < count; ++c) {
    const std::size_t lo = begin + c * chunk_size;
    const std::size_t hi = std::min(end, lo + chunk_size);
    chunks.push_back({lo, hi, c, count});
  }
  return chunks;
}

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

/// Chunked loop: `body(ChunkRange)` once per chunk.
template <typename Body>
void parallel_for_chunks(ThreadPool* pool, std::size_t begin, std::size_t end,
                         std::size_t chunk_size, Body&& body) {
  const unsigned workers = pool != nullptr ? pool->num_workers() : 1;
  const auto chunks = uniform_chunks(begin, end, chunk_size, workers);
  run_chunks(pool, chunks, std::forward<Body>(body));
}

/// Element-wise loop: `fn(i)` for every i in [begin, end). `fn` must be safe
/// to call concurrently for distinct i.
template <typename Fn>
void parallel_for(ThreadPool* pool, std::size_t begin, std::size_t end,
                  std::size_t chunk_size, Fn&& fn) {
  parallel_for_chunks(pool, begin, end, chunk_size,
                      [&fn](const ChunkRange& chunk) {
                        for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
                          fn(i);
                        }
                      });
}

/// Map-reduce over chunks: `map(ChunkRange) -> T` runs in parallel, partial
/// results land in a slot indexed by chunk ordinal, and `join` folds them
/// left-to-right in chunk order — deterministic even for non-commutative or
/// floating-point joins.
template <typename T, typename Map, typename Join>
T parallel_reduce(ThreadPool* pool, std::size_t begin, std::size_t end,
                  std::size_t chunk_size, T init, Map&& map, Join&& join) {
  const unsigned workers = pool != nullptr ? pool->num_workers() : 1;
  const auto chunks = uniform_chunks(begin, end, chunk_size, workers);
  if (chunks.empty()) return init;
  std::vector<T> partial(chunks.size());
  run_chunks(pool, chunks, [&](const ChunkRange& chunk) {
    partial[chunk.index] = map(chunk);
  });
  T acc = std::move(init);
  for (T& p : partial) acc = join(std::move(acc), std::move(p));
  return acc;
}

/// Independent RNG stream for a (seed, stream) key. Key by a stable logical
/// id — a vertex or a pinned chunk ordinal — never by thread id; that is
/// what makes randomised parallel phases reproducible.
inline util::Xoshiro256 chunk_rng(std::uint64_t seed,
                                  std::uint64_t stream) noexcept {
  return util::keyed_rng(seed, 0xa0761d6478bd642fULL, stream);
}

}  // namespace picasso::runtime
