#pragma once
// Unified session front-end — the one stable entry point to the Picasso
// pipeline.
//
// The paper's algorithm (encode → palette → conflict subgraph → list-color
// → recurse) is one algorithm behind several engines. A Session owns the
// wiring of params, telemetry and the runtime for all of them:
//
//   auto session = picasso::api::SessionBuilder()
//                      .palette(12.5, 2.0)
//                      .seed(1)
//                      .memory_budget(64u << 20)
//                      .build();             // eager validation -> ApiError
//   auto report = session.solve(picasso::api::Problem::pauli(set));
//   // report.result : the usual core::PicassoResult
//   // report.plan   : which strategy/chunking actually ran
//
// solve() plans an execution strategy from the problem kind and size —
// the edge-free fused engine (spilling under a memory budget), the
// materialized in-memory reference, or semi-streaming edge passes — and
// runs the core engines underneath, so colorings are bit-identical to
// calling those engines directly with equal parameters. solve(problem, options) adds per-iteration progress
// callbacks and cooperative cancellation; solve_async() runs the same
// staged pipeline on a worker thread behind a cancellable handle.

#include <cstdint>
#include <future>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/problem.hpp"
#include "api/version.hpp"
#include "core/incremental.hpp"
#include "core/picasso.hpp"
#include "core/solve_control.hpp"
#include "core/solve_fused.hpp"
#include "core/streaming.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace picasso::api {

/// How a solve executes. Auto (the default) picks from the problem kind and
/// the memory budget; the rest force one pipeline and
/// fail with ApiError(IncompatibleStrategy) when the problem cannot run it.
/// The values cross the service wire as raw bytes, so they are pinned; 2
/// belonged to the chunk-pair streaming strategy removed in 2.0, 4 to the
/// multi-device sharding removed in 5.0 and 6 to the probabilistic
/// prefilter tier removed in 3.0; all three stay unused.
enum class ExecutionStrategy {
  Auto = 0,
  InMemory = 1,       // paper Algorithm 1 reference: conflict CSR
                      // materialized per iteration (Auto never plans it)
  SemiStreaming = 3,  // one edge pass per iteration over an edge stream
  Fused = 5,          // edge-free engine: no conflict CSR is ever built
                      // (spills + strikes off chunked records when the
                      // budget/chunking forces streaming); Auto's pick for
                      // every oracle-capable or spill-backed problem
};

const char* to_string(ExecutionStrategy strategy) noexcept;

/// Inverse of to_string(ExecutionStrategy): parses "auto" / "in-memory" /
/// "semi-streaming" / "fused" (plus the CLI shorthand
/// "inmemory"). Throws
/// std::invalid_argument naming the valid spellings on anything else — the
/// CLI surfaces that message verbatim with exit code 2.
ExecutionStrategy parse_strategy(std::string_view name);

/// The execution decision solve() made (or plan() previews), returned
/// alongside the result.
struct SolvePlan {
  ExecutionStrategy strategy = ExecutionStrategy::InMemory;
  std::size_t memory_budget_bytes = 0;
  std::size_t chunk_strings = 0;   // streaming plans: strings per chunk
  std::string reason;              // one line of why, for logs

  /// One-line human-readable summary ("streamed: 4096 strings/chunk ...").
  std::string summary() const;
};

/// What one solve did, in numbers: the deterministic work counters, the
/// phase spans (TelemetryLevel::Full only) and the memory report, harvested
/// by Session::solve when the session's telemetry level is not Off. The
/// counter totals are bit-identical across thread counts and telemetry
/// levels — they count logical algorithm work, not physical scheduling —
/// except the avx2/scalar kernel split, which depends on the host ISA (its
/// sum is deterministic; see obs::counter_is_deterministic).
struct SolveTelemetry {
  obs::TelemetryLevel level = obs::TelemetryLevel::Off;
  obs::CounterTotals counters;
  std::vector<obs::SpanRecord> spans;  // empty below Full
  std::uint64_t dropped_spans = 0;
  core::MemoryReport memory;

  bool enabled() const noexcept { return level != obs::TelemetryLevel::Off; }

  /// {"level":..,"counters":{..},"memory":{..},"spans":N,"dropped_spans":M}
  std::string to_json() const;
  /// chrome://tracing / Perfetto "traceEvents" document over spans.
  std::string chrome_trace_json() const {
    return obs::TraceRecorder::chrome_trace_json(spans);
  }
  /// One JSON object per span, newline-separated (jq-friendly).
  std::string spans_json_lines() const {
    return obs::TraceRecorder::json_lines(spans);
  }
};

/// PicassoResult enriched with the plan that produced it.
struct SolveReport {
  core::PicassoResult result;
  SolvePlan plan;
  /// Canonical problem fingerprint (see problem_fingerprint below): set for
  /// Pauli / PackedPauli problems, 0 otherwise. Two solves with equal
  /// problem_hash return bit-identical colorings — the key the service
  /// result cache trusts.
  std::uint64_t problem_hash = 0;
  SolveTelemetry telemetry;  // empty unless SessionBuilder::telemetry()
  /// Set by Session::update() only: the insertion/recolor/escalation work
  /// accounting of that one delta.
  std::optional<core::UpdateStats> update;
};

/// One increment handed to Session::update(): either new Pauli records to
/// append to the session's resident set, or new generic-graph vertices,
/// each carrying its conflict edges to strictly earlier vertices. Pauli
/// payloads follow the Problem ownership contract: the && factory owns,
/// the const& factory borrows (the referent must outlive the update call).
class UpdateDelta {
 public:
  static UpdateDelta pauli(pauli::PauliSet&& records);
  static UpdateDelta pauli(const pauli::PauliSet& records);
  static UpdateDelta graph(std::vector<core::GraphVertexDelta> vertices);

  bool is_pauli() const noexcept { return records_ != nullptr; }
  const pauli::PauliSet& pauli_records() const { return *records_; }
  const std::vector<core::GraphVertexDelta>& graph_vertices() const noexcept {
    return vertices_;
  }

 private:
  UpdateDelta() = default;

  std::shared_ptr<const pauli::PauliSet> records_;
  std::vector<core::GraphVertexDelta> vertices_;
};

/// Canonical fingerprint of an encoded Pauli problem under a parameter set:
/// a 64-bit-word hash (four xxh64-style multiply-rotate lanes over the
/// packed symplectic planes, then one fold of the qubit count, string count,
/// planes hash and params) of the canonical bytes — identical whether the
/// records arrived symbolic, packed or off the wire — plus exactly the
/// params that can change the coloring: palette_percent, alpha, seed,
/// max_iterations. Thread count, strategy, telemetry and budget are
/// deliberately EXCLUDED — the library's determinism contract pins
/// colorings bit-identical across all of them, so one cache entry serves
/// every execution flavor of the same problem. Values differ from 8.x
/// builds, which also folded in the coloring-scheme word; nothing persists
/// them (the service cache lives in memory).
std::uint64_t problem_fingerprint(const pauli::PackedView& view,
                                  std::size_t num_qubits,
                                  const core::PicassoParams& params);
std::uint64_t problem_fingerprint(const pauli::PauliSet& set,
                                  const core::PicassoParams& params);

/// Per-call hooks; both default to inert. The progress callback runs on
/// the solving thread (the worker thread for solve_async) and overrides a
/// session-level callback; stop tokens compose — a stop requested through
/// the session-level token, the per-call token, or (async) the handle all
/// cancel the run.
struct SolveOptions {
  core::StopToken stop;
  core::ProgressFn progress;
};

class Session;

/// Handle to a staged solve running on a worker thread. Movable, not
/// copyable; get() joins and rethrows (core::SolveCancelled after a
/// request_stop that won the race, ApiError for planning failures).
class AsyncSolve {
 public:
  AsyncSolve(AsyncSolve&&) noexcept = default;
  AsyncSolve& operator=(AsyncSolve&&) noexcept = default;

  /// Signals the StopToken the drivers poll at iteration/bucket-scan
  /// boundaries.
  void request_stop() noexcept { stop_.request_stop(); }

  bool stop_requested() const noexcept { return stop_.stop_requested(); }

  void wait() const { future_.wait(); }

  bool ready() const {
    return future_.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
  }

  /// Blocks until the solve finishes and returns (or rethrows) its outcome.
  SolveReport get() { return future_.get(); }

 private:
  friend class Session;
  AsyncSolve(core::StopSource stop, std::future<SolveReport> future)
      : stop_(std::move(stop)), future_(std::move(future)) {}

  core::StopSource stop_;
  std::future<SolveReport> future_;
};

class Session {
 public:
  /// Default session: PicassoParams{} semantics, Auto strategy.
  Session() = default;

  /// Bridges existing PicassoParams-based code onto the session pipeline —
  /// every field (seed, palette, runtime, budget, hooks) carries over.
  static Session from_params(const core::PicassoParams& params) {
    Session s;
    s.params_ = params;
    return s;
  }

  const core::PicassoParams& params() const noexcept { return params_; }

  obs::TelemetryLevel telemetry_level() const noexcept { return telemetry_; }

  /// Previews the execution decision for `problem` without solving.
  /// Throws ApiError(IncompatibleStrategy) when a forced strategy cannot
  /// run this problem kind.
  SolvePlan plan(const Problem& problem) const;

  SolveReport solve(const Problem& problem) const {
    return solve(problem, SolveOptions{});
  }

  /// Staged solve with cooperative cancellation and per-iteration progress.
  /// A stop requested through options.stop raises core::SolveCancelled from
  /// the next iteration (or bucket scan) boundary; a cancelled budgeted
  /// solve removes its spill file before unwinding.
  SolveReport solve(const Problem& problem, const SolveOptions& options) const;

  /// Runs solve() on a worker thread. The returned handle owns a
  /// StopSource wired into the run; Problem payloads are shared_ptr-backed,
  /// so owned problems are safe to hand off — borrowed payloads must
  /// outlive the handle.
  AsyncSolve solve_async(Problem problem, SolveOptions options = {}) const;

  // --- Incremental updates -------------------------------------------------
  // The online path: one full solve seeds a resident core::FusedState
  // (palette assignment, color→vertices buckets, packed signatures, record
  // store — in memory, or a budget-grown .pset spill when the session has a
  // memory budget or an explicit chunk size), and each update() extends it
  // in place. Determinism contract: the coloring after N updates is
  // bit-identical to one update over the concatenated input, across thread
  // counts and in-memory vs spilled stores (the CI replay gate pins it).

  /// Full fused solve over `problem` (an encoded Pauli set) that keeps the
  /// solved state resident for later update() calls. Replaces any previous
  /// incremental state on success. Throws ApiError(IncompatibleStrategy)
  /// for non-Pauli problems.
  SolveReport solve_incremental(const Problem& problem,
                                const SolveOptions& options = {});

  /// Applies one delta to the resident state: appends the records, colors
  /// each new vertex by striking the existing color buckets (bounded local
  /// recoloring, then a fresh color, then — past update_params().
  /// max_new_colors — one full fused re-solve of the ingested prefix).
  /// A Pauli delta with no prior solve_incremental bootstraps an empty
  /// state; graph deltas require a prior solve. A cancelled update keeps
  /// the state consistent — the ingested-but-uncolored backlog is colored
  /// by the next call. The report carries the full coloring so far and
  /// SolveReport::update. At TelemetryLevel::Full its spans are one
  /// "update" root over the delta's "append", "refresh" (spilled stores)
  /// and "color_backlog" phases.
  SolveReport update(const UpdateDelta& delta, const SolveOptions& options = {});

  bool has_incremental_state() const noexcept { return state_ != nullptr; }
  /// The resident state (nullptr before the first solve_incremental /
  /// update). Copied Sessions share it.
  const core::FusedState* incremental_state() const noexcept {
    return state_.get();
  }
  /// Drops the resident state (removing its spill file, if any).
  void reset_incremental() noexcept { state_.reset(); }

  const core::UpdateParams& update_params() const noexcept {
    return update_params_;
  }

 private:
  friend class SessionBuilder;

  core::PicassoParams params_;
  core::StreamingOptions streaming_;
  obs::TelemetryLevel telemetry_ = obs::TelemetryLevel::Off;
  ExecutionStrategy strategy_ = ExecutionStrategy::Auto;
  core::UpdateParams update_params_;
  // shared_ptr so Session stays copyable (solve_async copies the session);
  // copies share the incremental state.
  std::shared_ptr<core::FusedState> state_;
};

/// Fluent configuration for Session, validated eagerly at build() with
/// structured ApiErrors instead of asserts deep in the drivers.
class SessionBuilder {
 public:
  /// Seeds every knob from an existing PicassoParams (migration aid).
  SessionBuilder& params(const core::PicassoParams& params) {
    session_.params_ = params;
    return *this;
  }

  /// P' (percent of active vertices) and alpha (list-size multiplier) —
  /// Table III's "Norm." is (12.5, 2), "Aggr." is (3, 30).
  SessionBuilder& palette(double percent, double alpha) {
    session_.params_.palette_percent = percent;
    session_.params_.alpha = alpha;
    return *this;
  }

  SessionBuilder& seed(std::uint64_t seed) {
    session_.params_.seed = seed;
    return *this;
  }

  SessionBuilder& max_iterations(int iterations) {
    session_.params_.max_iterations = iterations;
    return *this;
  }

  SessionBuilder& runtime(const runtime::RuntimeConfig& config) {
    session_.params_.runtime = config;
    return *this;
  }

  /// Runs every parallel phase of this session on an externally-owned pool
  /// instead of the process-wide shared() cache. Non-owning: `pool` must
  /// outlive every solve. This is the server injection point — one pool
  /// serves all concurrent sessions, so tenants share workers fairly
  /// instead of each solve spinning up (or monopolising) its own.
  SessionBuilder& shared_pool(runtime::ThreadPool* pool) {
    session_.params_.runtime.pool = pool;
    return *this;
  }

  /// Directory for spill files of streamed / incremental plans ("" = the
  /// system temp directory). Convenience over .streaming() when only the
  /// placement matters — the server points every session at its one
  /// managed spill directory.
  SessionBuilder& spill_dir(std::string dir) {
    session_.streaming_.spill_dir = std::move(dir);
    return *this;
  }

  /// Hard cap on tracked resident bytes; also what Auto weighs when
  /// deciding to stream (budget < 2x encoded input => spill + chunk).
  SessionBuilder& memory_budget(std::size_t bytes) {
    session_.params_.memory_budget_bytes = bytes;
    return *this;
  }

  /// Spill-file placement / chunk sizing for streamed plans.
  SessionBuilder& streaming(const core::StreamingOptions& options) {
    session_.streaming_ = options;
    return *this;
  }

  /// Forces a pipeline instead of Auto planning.
  SessionBuilder& strategy(ExecutionStrategy strategy) {
    session_.strategy_ = strategy;
    return *this;
  }

  /// Telemetry harvested into SolveReport::telemetry. Off (the default)
  /// adds nothing to the solve; Counters enables the deterministic work
  /// counters; Full additionally records nested phase spans exportable as
  /// a chrome://tracing document. The global counter registry is run-scoped
  /// per solve, so concurrent solves with telemetry enabled would mix
  /// counts — run them sequentially when exact totals matter.
  SessionBuilder& telemetry(obs::TelemetryLevel level) {
    session_.telemetry_ = level;
    return *this;
  }

  /// Knobs of the incremental insertion path (Session::update): the local
  /// recoloring cap and the fresh-color escalation budget.
  SessionBuilder& update_params(core::UpdateParams params) {
    session_.update_params_ = params;
    return *this;
  }

  /// Session-wide progress hook (a SolveOptions callback overrides it).
  SessionBuilder& progress(core::ProgressFn fn) {
    session_.params_.progress = std::move(fn);
    return *this;
  }

  /// Session-wide stop token; per-call SolveOptions tokens compose with it.
  SessionBuilder& stop_token(core::StopToken stop) {
    session_.params_.stop = std::move(stop);
    return *this;
  }

  /// Validates the whole configuration; throws ApiError naming the field.
  Session build() const;

 private:
  Session session_;
};

}  // namespace picasso::api
