#pragma once
// Cooperative execution control for the staged solve pipeline.
//
// Every Picasso driver — the oracle driver, the semi-streaming driver and
// the fused engines (in memory and budgeted) — runs as a sequence of
// iteration-sized stages. The session front-end
// (api/session.hpp) hands the drivers two optional hooks through
// PicassoParams:
//
//   * a StopToken, checked at iteration boundaries (and, in the fused
//     engines, before every bucket scan). A requested stop raises
//     SolveCancelled from the next checkpoint; RAII unwinds every charge
//     and the budgeted driver removes its spill file on the way out, so a
//     cancelled solve leaves no state behind.
//   * a ProgressFn, invoked after each completed iteration (and every
//     kFusedProgressInterval bucket scans in the fused engines) with a
//     ProgressEvent snapshot.
//
// Both hooks default to inert: a default-constructed StopToken can never
// request a stop and costs one pointer test per checkpoint, so drivers run
// exactly as before when no session is involved.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "util/packed_colors.hpp"

namespace picasso::core {

/// Thrown by the drivers when a StopToken reports a requested stop at a
/// checkpoint. Partial results are discarded; RAII releases every memory
/// charge and temporary file on the way out.
struct SolveCancelled : std::runtime_error {
  SolveCancelled() : std::runtime_error("picasso solve cancelled") {}
};

/// Shared-state cancellation flag (a minimal std::stop_token lookalike —
/// copyable, cheap to test, detached from any particular thread). A token
/// may observe several sources (any_of); a stop from any of them counts.
class StopToken {
 public:
  /// A default token has no state and never reports a stop.
  StopToken() = default;

  bool stop_requested() const noexcept {
    for (const auto& state : states_) {
      if (state->load(std::memory_order_relaxed)) return true;
    }
    return false;
  }

  /// True when the token is connected to a StopSource at all.
  bool stop_possible() const noexcept { return !states_.empty(); }

  /// A token that reports a stop when either input does — how solve_async
  /// honors a caller-supplied token alongside its handle's own source.
  /// Composes associatively: any_of of composites observes every source.
  static StopToken any_of(const StopToken& a, const StopToken& b) {
    StopToken combined;
    combined.states_.reserve(a.states_.size() + b.states_.size());
    combined.states_.insert(combined.states_.end(), a.states_.begin(),
                            a.states_.end());
    combined.states_.insert(combined.states_.end(), b.states_.begin(),
                            b.states_.end());
    return combined;
  }

 private:
  friend class StopSource;
  explicit StopToken(std::shared_ptr<std::atomic<bool>> state) {
    states_.push_back(std::move(state));
  }

  std::vector<std::shared_ptr<std::atomic<bool>>> states_;
};

/// Owner side of a StopToken. request_stop() is thread-safe and may be
/// called from a progress callback, another thread, or a signal-handling
/// path; every token minted from this source observes it.
class StopSource {
 public:
  StopSource() : state_(std::make_shared<std::atomic<bool>>(false)) {}

  StopToken token() const noexcept { return StopToken(state_); }

  void request_stop() noexcept {
    state_->store(true, std::memory_order_relaxed);
  }

  bool stop_requested() const noexcept {
    return state_->load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<std::atomic<bool>> state_;
};

/// What just finished when a ProgressEvent fires. The values cross the
/// service wire as raw bytes, so they are pinned; 1 belonged to the retired
/// chunk-pair engine's per-pair event and stays unused.
enum class ProgressStage {
  IterationDone = 0,   // one Algorithm-1 iteration completed (all drivers)
  BucketScanned = 2,   // a batch of fused bucket scans completed (fused engine)
  VertexInserted = 3,  // a batch of incremental insertions completed (updates)
};

/// Snapshot handed to the progress callback. IterationDone fills every
/// iteration-scoped field; BucketScanned events fired mid-iteration leave
/// colored / uncolored zero.
struct ProgressEvent {
  ProgressStage stage = ProgressStage::IterationDone;
  int iteration = 0;                 // 0-based iteration index
  std::uint32_t n_active = 0;        // active vertices entering the iteration
  std::uint32_t colored = 0;         // vertices colored by this iteration
  std::uint32_t uncolored = 0;       // carried to the next iteration
  /// Conflict edges of this iteration. Per-strategy meaning:
  ///  * materializing engines (in-memory, semi-streaming):
  ///    exact |Ec| of the built conflict CSR, reported on IterationDone;
  ///  * fused engines: the running strike-hit count — list
  ///    entries struck so far, one per (vertex, color) removed. Edges
  ///    whose far end was already colored, emptied or struck of that
  ///    color are never tested, so this is a lower bound on |Ec| that
  ///    grows monotonically across the iteration's BucketScanned events
  ///    and lands on the iteration's total at IterationDone.
  std::uint64_t conflict_edges = 0;
  // BucketScanned extras (fused engine): strike scans completed so far this
  // iteration — at most n_active, shrinking work as the frontier empties.
  std::size_t bucket_scans = 0;
};

/// Invoked from the driver thread between stages — keep it cheap; heavy
/// work belongs on the consumer's side of a queue.
using ProgressFn = std::function<void(const ProgressEvent&)>;

namespace detail {

/// The engines' checkpoint: one branch when no token is attached.
inline void throw_if_stopped(const StopToken& stop) {
  if (stop.stop_requested()) throw SolveCancelled();
}

/// Distinct colors of a finished Algorithm-1 run: the loop hands out
/// colors below palette_total (palettes are disjoint and the tail takes
/// fresh ones past them), so one bitmap over [0, palette_total) replaces a
/// copy-and-sort of all n colors.
inline std::uint32_t count_palette_colors(const util::PackedColorArray& colors,
                                          std::uint32_t palette_total) {
  std::vector<std::uint64_t> seen(
      (static_cast<std::size_t>(palette_total) + 63) / 64);
  std::uint32_t distinct = 0;
  for (const std::uint32_t c : colors) {
    if (c >= palette_total) continue;
    std::uint64_t& word = seen[c >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (c & 63u);
    distinct += (word & bit) == 0 ? 1u : 0u;
    word |= bit;
  }
  return distinct;
}

}  // namespace detail

}  // namespace picasso::core
