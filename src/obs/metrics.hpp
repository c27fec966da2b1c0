#pragma once
// Deterministic work counters.
//
// Wall-clock on shared CI runners is too noisy to gate, so the observable
// that CI regresses on is *work*: oracle pair evaluations, kernel
// invocations, bucket scans, cache traffic, spill bytes. Every counter is
// incremented at a schedule-independent choke point (per row, per flush,
// per iteration — never per pool-slab), so totals are bit-identical across
// thread counts and across Counters/Full telemetry levels.
//
// The registry mirrors util::MemoryRegistry: a process-wide singleton with
// an outermost-run scope (MetricsRunScope), but the hot path is cheaper —
// each thread owns a cache-line-aligned shard of plain uint64s, and add()
// is one relaxed atomic load of the enabled flag, a branch, and a plain
// add. When telemetry is off the add() sites cost the load+branch only.
// totals() is valid when the registry is quiescent (no concurrent add()),
// which every caller guarantees: solves join their pool work before the
// driver harvests.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace picasso::obs {

/// How much telemetry a solve records. Off keeps every count site to a
/// relaxed load + untaken branch; Counters aggregates work counters;
/// Full additionally records phase/iteration spans (trace.hpp).
enum class TelemetryLevel : unsigned { Off, Counters, Full };

const char* to_string(TelemetryLevel level) noexcept;
/// Parses "off" / "counters" / "full" (case-sensitive). Returns false and
/// leaves `out` untouched on unknown names.
bool parse_telemetry_level(const std::string& text, TelemetryLevel& out);

/// The work counters. Keep to_string() and kNumCounters in sync when
/// extending; counter_is_deterministic() marks which ones the CI gate may
/// compare exactly.
enum class Counter : unsigned {
  OraclePairEvals,       // pairs handed to a conflict oracle (post sig/list filters)
  EdgeBlockCallsAvx2,    // logical edge_block batches dispatched to the AVX2 kernel
  EdgeBlockCallsScalar,  // logical edge_block batches dispatched to the scalar kernel
  BucketStrikeScans,     // fused engine: candidate-bucket scans issued
  StrikeHits,            // fused engine: conflict edges struck (pairs that tested true)
  SignatureFastExits,    // pairs rejected by the palette-signature AND test alone
  RecolorEvents,         // vertices left uncolored by an iteration (deferred to the next)
  ChunkCacheHits,        // chunk requests served from the resident cache
  ChunkCacheMisses,      // chunk requests that had to load from disk
  ChunkCacheEvictions,   // resident chunks dropped to admit another
  ChunkReReads,          // chunk loads beyond the first per chunk (budget-forced re-scans)
  SpillBytesWritten,     // bytes spilled to .pset files
  SpillBytesRead,        // bytes read back from spill files
  StreamEdgesScanned,    // semi-streaming: edges seen across all passes
  UpdateVerticesInserted,  // incremental: delta vertices colored in place
  UpdateBucketProbes,      // incremental: color buckets probed during insertion
  UpdateRecolorMoves,      // incremental: blockers moved by bounded local recoloring
  UpdateEscalations,       // incremental: full prefix re-solves triggered
  UpdateFreshColors,       // incremental: colors first used by an inserted vertex
};
inline constexpr std::size_t kNumCounters = 19;

const char* to_string(Counter c) noexcept;

/// False for counters whose value legitimately varies across machines
/// (the AVX2/scalar split depends on the host ISA); the CI gate compares
/// their *sum* instead. Everything else must be bit-stable.
bool counter_is_deterministic(Counter c) noexcept;

/// Aggregated counter values (a quiescent sum over all shards).
struct CounterTotals {
  std::array<std::uint64_t, kNumCounters> value{};

  std::uint64_t operator[](Counter c) const noexcept {
    return value[static_cast<unsigned>(c)];
  }
  bool all_zero() const noexcept {
    for (std::uint64_t v : value) {
      if (v != 0) return false;
    }
    return true;
  }
  /// `{"oracle_pair_evals":123,...}` — one key per counter, enum order.
  std::string to_json() const;
};

/// Per-thread sharded counter registry. Registration of a new thread's
/// shard takes a mutex once per (thread, registry); every subsequent add()
/// touches only the thread's own cache line. Intended to be long-lived
/// (see global_metrics()) — the thread-local shard cache keys on the
/// registry address.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Adds `n` to counter `c` on the calling thread's shard; no-op (one
  /// relaxed load + branch) while disabled.
  void add(Counter c, std::uint64_t n) {
    if (!enabled_.load(std::memory_order_relaxed)) return;
    shard_for_thread().value[static_cast<unsigned>(c)] += n;
  }

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Zeroes every shard. Quiescent-only (run start, before workers count).
  void reset() noexcept;

  /// Sums all shards. Quiescent-only (after pool joins — the join gives
  /// the happens-before edge that makes the plain reads safe).
  CounterTotals totals() const;

  /// Run-scope nesting depth (see MetricsRunScope); kept on the registry
  /// so nested solves (engines layered through Session) cannot clobber the
  /// outermost run's window.
  int enter_run() noexcept {
    return run_depth_.fetch_add(1, std::memory_order_relaxed);
  }
  void exit_run() noexcept {
    run_depth_.fetch_sub(1, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::array<std::uint64_t, kNumCounters> value{};
  };

  Shard& shard_for_thread();

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> enabled_{false};
  std::atomic<int> run_depth_{0};
};

/// The process-wide registry every count() site charges.
MetricsRegistry& global_metrics();

/// Counts `n` events against the global registry (the form every engine
/// uses; the indirection keeps call sites one line).
inline void count(Counter c, std::uint64_t n = 1) { global_metrics().add(c, n); }

/// Guard for one solve: the outermost scope resets the registry and
/// enables/disables it per the requested level, restoring the previous
/// enabled state on exit; nested scopes (engines layered through Session)
/// are no-ops so the outermost window accumulates everything. Harvest totals() before the scope dies.
class MetricsRunScope {
 public:
  explicit MetricsRunScope(bool enable,
                           MetricsRegistry& registry = global_metrics()) noexcept
      : registry_(&registry), outermost_(registry.enter_run() == 0) {
    if (!outermost_) return;
    saved_enabled_ = registry_->enabled();
    registry_->reset();
    registry_->set_enabled(enable);
  }
  ~MetricsRunScope() {
    registry_->exit_run();
    if (outermost_) registry_->set_enabled(saved_enabled_);
  }
  MetricsRunScope(const MetricsRunScope&) = delete;
  MetricsRunScope& operator=(const MetricsRunScope&) = delete;

  bool outermost() const noexcept { return outermost_; }

 private:
  MetricsRegistry* registry_;
  bool outermost_;
  bool saved_enabled_ = false;
};

}  // namespace picasso::obs
