#pragma once
// Knobs for the parallel execution runtime (src/runtime/).
//
// Every parallel entry point in the library threads one of these through to
// the thread pool. The contract that matters for reproducing the paper's
// tables: results are bit-identical across any `num_threads`, including the
// serial `num_threads = 1` reference — each chunk's work is a restriction of
// the serial loop, and chunk outputs are merged in chunk order.

#include <cstdint>

namespace picasso::runtime {

class ThreadPool;

struct RuntimeConfig {
  /// Worker threads. 0 = one per hardware thread; 1 = serial (no pool, all
  /// chunks run inline on the caller).
  std::uint32_t num_threads = 0;

  /// Inputs smaller than this many items run inline even when a pool is
  /// configured — below it, chunk bookkeeping costs more than it buys.
  std::uint32_t serial_cutoff = 2048;

  /// Externally-owned pool to run on instead of the per-count shared()
  /// cache. Non-owning: the caller keeps it alive for the solve. This is
  /// how a long-running server funnels every request through ONE pool
  /// (fair-share across tenants) rather than letting each solve grab the
  /// process cache. Ignored when `serial()` — num_threads = 1 stays the
  /// inline reference path that determinism tests compare against.
  ThreadPool* pool = nullptr;

  bool serial() const noexcept { return num_threads == 1; }
};

}  // namespace picasso::runtime
