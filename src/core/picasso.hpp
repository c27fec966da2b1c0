#pragma once
// Picasso (Algorithm 1): iterative palette-based coloring.
//
// Every iteration draws a fresh palette for the still-uncolored vertices,
// samples per-vertex color lists, materialises only the *conflict* subgraph
// (edges whose endpoints share a list color), colors unconflicted vertices
// trivially and the conflict graph by list coloring, then recurses on the
// vertices whose lists were exhausted. Palettes of different iterations are
// disjoint ([base, base+P) with advancing base), so cross-iteration validity
// is structural and the graph itself is only ever touched through the
// adjacency oracle.

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/conflict_graph.hpp"
#include "core/list_coloring.hpp"
#include "core/palette.hpp"
#include "core/solve_control.hpp"
#include "device/device_context.hpp"
#include "graph/oracles.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/arena.hpp"
#include "runtime/runtime_config.hpp"
#include "util/memory.hpp"
#include "util/packed_colors.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace picasso::core {

/// Which anticommutation backend the Pauli entry points plug into the
/// conflict-oracle interface. Every backend computes the same relation, so
/// colorings are bit-identical across all of them (the differential test
/// suite pins this); they differ only in speed and resident bytes.
enum class PauliBackend {
  Auto,          // Packed with runtime SIMD dispatch (the default)
  Scalar,        // 3-bit inverse-one-hot per-pair kernel (paper §IV-A)
  Packed,        // bit-packed symplectic records, blocked SIMD pair-scan
  PackedScalar,  // packed records, SIMD forced off (ablation baseline)
};

const char* to_string(PauliBackend backend) noexcept;

/// Inverse of to_string(PauliBackend): parses "auto" / "scalar" / "packed" /
/// "packed-scalar". Throws std::invalid_argument naming the valid spellings
/// on anything else — the CLI and config loaders surface that message
/// verbatim.
PauliBackend parse_pauli_backend(std::string_view name);

constexpr PauliBackend resolve_backend(PauliBackend backend) noexcept {
  return backend == PauliBackend::Auto ? PauliBackend::Packed : backend;
}

struct PicassoParams {
  /// P' — palette size as a percent of the active vertex count (Table III's
  /// "Norm." uses 12.5, "Aggr." uses 3).
  double palette_percent = 12.5;
  /// alpha — list size multiplier, L = ceil(alpha * log10 n) clamped to
  /// [1, P] ("Norm." uses 2, "Aggr." uses 30); see compute_palette() for the
  /// choice of logarithm base.
  double alpha = 2.0;
  std::uint64_t seed = 1;
  /// Safety valve; the algorithm terminates on its own (at least one vertex
  /// is colored per iteration), this bounds the tail.
  int max_iterations = 64;
  ConflictKernel kernel = ConflictKernel::Auto;
  ConflictColoringScheme conflict_scheme = ConflictColoringScheme::DynamicBucket;
  /// Anticommutation backend for the Pauli drivers (in-memory and streaming).
  /// All settings yield bit-identical colorings; see PauliBackend.
  PauliBackend pauli_backend = PauliBackend::Auto;
  /// Parallel execution runtime for the conflict-graph build (and, in the
  /// multi-device driver, the concurrent shard builds). Defaults to one
  /// worker per hardware thread with deterministic merging, so results are
  /// bit-identical to `runtime.num_threads = 1`.
  runtime::RuntimeConfig runtime;
  /// When set, conflict graphs are built through the simulated device
  /// (Algorithm 3) against its memory budget. The device pipeline charges a
  /// single sequential ledger, so it always runs serially.
  device::DeviceContext* device = nullptr;
  /// Hard cap on tracked resident bytes for the whole run (0 = unlimited).
  /// The oracle driver reports against it (MemoryReport::within_budget);
  /// the budgeted streaming driver (core/streaming.hpp) additionally sizes
  /// its chunk cache under it and spills the Pauli input to disk, re-reading
  /// chunks on demand, so the cap actually binds.
  std::size_t memory_budget_bytes = 0;
  /// Engages the probabilistic sketch tier in front of the exact conflict
  /// oracle where an engine supports it: the fused engines put OR-folded
  /// support blooms before the packed merge (complement oracles only — a
  /// provably disjoint support pair commutes, hence IS a complement edge,
  /// so the sketch only ever answers when the answer is certain), and the
  /// incremental engine folds its bucket signatures the same way. Colorings
  /// stay bit-identical; obs counters sketch_probes / sketch_hits /
  /// sketch_false_positives measure the filter.
  bool sketch_prefilter = false;
  /// Sketch width in 32-bit words per vertex (0 = auto: one word, or
  /// budget/64 spread over the active set when memory_budget_bytes is set;
  /// always clamped to the oracle's natural fold width). Deterministic
  /// given params — never derived from live memory headroom.
  std::size_t sketch_words = 0;
  /// Cooperative cancellation: checked at iteration boundaries in every
  /// driver and between chunk-pair scans in the chunked engine. A requested
  /// stop raises SolveCancelled; the default token never fires. See
  /// core/solve_control.hpp.
  StopToken stop;
  /// Per-iteration (and, in the chunked engine, per-chunk-pair) progress
  /// callback, invoked from the solving thread. Empty = no reporting.
  ProgressFn progress;
  /// Phase-span recorder (obs/trace.hpp). When non-null every engine
  /// records its nested phase/iteration/chunk-pair spans here; null (the
  /// default) costs one pointer test per scope. Session installs one for
  /// TelemetryLevel::Full.
  obs::TraceRecorder* trace = nullptr;
};

/// Unified memory telemetry for one run: the registry's per-subsystem
/// high-water marks (arenas, conflict CSR, palettes, chunk cache, ML
/// features, ...) plus the streaming pipeline's spill counters. Every bench
/// surfaces this as machine-readable JSON via to_json().
struct MemoryReport {
  std::size_t budget_bytes = 0;        // 0 = unlimited
  std::size_t peak_tracked_bytes = 0;  // registry total high-water mark
  std::size_t peak_rss_bytes = 0;      // whole-process context
  std::uint64_t over_budget_events = 0;
  std::array<std::size_t, util::kNumMemSubsystems> subsystem_peak{};

  // Streaming-pipeline extras (zero when the in-memory driver ran).
  bool streamed = false;
  std::size_t spill_bytes = 0;      // bytes written to the spill file
  std::size_t num_chunks = 0;       // chunks the input was split into
  std::uint64_t chunk_loads = 0;    // disk chunk reads (loads > chunks ⇒ re-scan)
  std::uint64_t chunk_evictions = 0;
  std::uint64_t cache_hits = 0;     // chunk requests served resident
  std::uint64_t cache_misses = 0;   // chunk requests that loaded from disk
  std::uint64_t chunk_re_reads = 0; // loads beyond the first per chunk

  bool within_budget() const noexcept {
    return budget_bytes == 0 || peak_tracked_bytes <= budget_bytes;
  }

  /// Fills the registry-derived fields from a snapshot (streaming extras
  /// are left for the streaming driver to set).
  static MemoryReport capture(const util::MemorySnapshot& snap);

  /// One-line machine-readable JSON object.
  std::string to_json() const;
};

struct IterationStats {
  std::uint32_t n_active = 0;
  std::uint32_t palette_size = 0;     // P_l
  std::uint32_t list_size = 0;        // L_l
  std::uint64_t conflict_edges = 0;   // |Ec|
  std::uint32_t conflicted_vertices = 0;  // |Vc|
  std::uint32_t colored = 0;          // colored this iteration (all paths)
  std::uint32_t uncolored = 0;        // |Vu| carried to the next iteration
  double assign_seconds = 0.0;
  double conflict_seconds = 0.0;
  double coloring_seconds = 0.0;
  std::size_t logical_bytes = 0;      // iteration-local peak
  bool csr_built_on_device = false;
};

struct PicassoResult {
  /// Global colors, per input vertex — stored sub-byte-packed (2/4/8 bits
  /// per entry with a uint32 escape tier) and readable through operator[]
  /// or the implicit std::vector<std::uint32_t> conversion.
  util::PackedColorArray colors;
  std::uint32_t num_colors = 0;       // distinct colors used
  std::uint32_t palette_total = 0;    // Σ P_l (upper bound of Lemma 2)
  std::vector<IterationStats> iterations;
  double total_seconds = 0.0;
  double assign_seconds = 0.0;
  double conflict_seconds = 0.0;
  double coloring_seconds = 0.0;
  std::uint64_t max_conflict_edges = 0;      // max |Ec| over iterations
  std::size_t peak_logical_bytes = 0;        // max iteration footprint
  MemoryReport memory;                       // unified telemetry for the run
  /// False only if max_iterations was hit and the tail was finished with
  /// fresh singleton colors (still a valid coloring).
  bool converged = true;
  /// Graceful degradation: true when the solve completed by a different
  /// route than planned (e.g. spill ENOSPC fell back to an in-memory run).
  /// The coloring is still bit-identical; only the resource profile moved.
  bool degraded = false;
  std::string degraded_reason;

  /// Color percentage C/|V|*100 — the paper's application-quality metric.
  double color_percent() const {
    return colors.empty() ? 0.0
                          : 100.0 * static_cast<double>(num_colors) /
                                static_cast<double>(colors.size());
  }
};

/// Runs Picasso against any adjacency oracle — the core engine every public
/// entry point (api/session.hpp) ultimately drives.
template <graph::GraphOracle Oracle>
PicassoResult solve_oracle(const Oracle& oracle, const PicassoParams& params);

/// Engine behind the Pauli entry point: picks the anticommutation oracle for
/// params.pauli_backend and runs solve_oracle. Charges the encoded input to
/// MemSubsystem::PauliInput for the duration of the run.
PicassoResult solve_pauli(const pauli::PauliSet& set,
                          const PicassoParams& params);

// ---------------------------------------------------------------------------
// Legacy free-function surface. These are thin [[deprecated]] shims kept so
// existing callers keep compiling; new code goes through picasso::api::
// Session (api/session.hpp), which plans in-memory / streamed / sharded
// execution from one configuration and returns the plan alongside the
// result. Each shim delegates to the Session pipeline (or directly to the
// engine it wraps, for the template entry points) and is bit-identical to
// its pre-deprecation behavior — the differential suite pins this.

template <graph::GraphOracle Oracle>
[[deprecated("use picasso::api::Session with Problem::oracle() instead")]]
PicassoResult picasso_color(const Oracle& oracle, const PicassoParams& params) {
  return solve_oracle(oracle, params);
}

[[deprecated("use picasso::api::Session with Problem::pauli() instead")]]
PicassoResult picasso_color_pauli(const pauli::PauliSet& set,
                                  const PicassoParams& params);
[[deprecated("use picasso::api::Session with Problem::csr() instead")]]
PicassoResult picasso_color_csr(const graph::CsrGraph& g,
                                const PicassoParams& params);
[[deprecated("use picasso::api::Session with Problem::dense() instead")]]
PicassoResult picasso_color_dense(const graph::DenseGraph& g,
                                  const PicassoParams& params);

// ---------------------------------------------------------------------------
// Implementation.

template <graph::GraphOracle Oracle>
PicassoResult solve_oracle(const Oracle& oracle, const PicassoParams& params) {
  util::WallTimer total_timer;
  util::MemoryRegistry& memory = util::global_memory();
  util::MemoryRunScope run_scope(params.memory_budget_bytes, memory);
  obs::ScopedSpan solve_span(params.trace, "solve_oracle");
  PicassoResult result;
  const std::uint32_t n = oracle.num_vertices();
  result.colors.assign(n, 0xffffffffu);

  std::vector<std::uint32_t> active(n);
  for (std::uint32_t v = 0; v < n; ++v) active[v] = v;

  util::Xoshiro256 coloring_rng(params.seed ^ 0x5bf03635dd3bb1f0ULL);
  std::uint32_t base_color = 0;
  int iteration = 0;

  while (!active.empty() && iteration < params.max_iterations) {
    detail::throw_if_stopped(params.stop);
    obs::ScopedSpan iter_span(params.trace, "iteration",
                              static_cast<std::uint64_t>(iteration));
    IterationStats stats;
    stats.n_active = static_cast<std::uint32_t>(active.size());

    const IterationPalette palette =
        compute_palette(stats.n_active, params.palette_percent, params.alpha,
                        base_color);
    stats.palette_size = palette.palette_size;
    stats.list_size = palette.list_size;

    // Line 6: random color lists.
    ColorLists lists;
    {
      obs::ScopedPhase acc(params.trace, "assign_lists", stats.assign_seconds);
      lists = assign_random_lists(stats.n_active, palette, params.seed,
                                  static_cast<std::uint64_t>(iteration));
    }
    util::ScopedCharge lists_charge(util::MemSubsystem::PaletteLists,
                                    lists.logical_bytes(), memory);

    // Line 7: conflict graph (host or simulated-device pipeline).
    ConflictBuildResult conflict;
    {
      obs::ScopedPhase acc(params.trace, "conflict_graph",
                           stats.conflict_seconds);
      if (params.device != nullptr) {
        conflict = build_conflict_graph_device(*params.device, oracle, active,
                                               lists, palette.palette_size,
                                               params.kernel);
      } else {
        conflict = build_conflict_graph(oracle, active, lists,
                                        palette.palette_size, params.kernel,
                                        params.runtime);
      }
    }
    util::ScopedCharge csr_charge(util::MemSubsystem::ConflictCsr,
                                  conflict.graph.logical_bytes(), memory);
    stats.conflict_edges = conflict.num_edges;
    stats.conflicted_vertices = conflict.num_conflicted_vertices;
    stats.csr_built_on_device = conflict.csr_built_on_device;

    // Lines 8-9: color unconflicted vertices and the conflict graph. The
    // list colorer handles isolated conflict-graph vertices (the
    // unconflicted set) as a special case of its main loop.
    ListColoringResult colored;
    {
      obs::ScopedPhase acc(params.trace, "coloring", stats.coloring_seconds);
      colored = color_conflict_graph(conflict.graph, lists,
                                     params.conflict_scheme, coloring_rng);
    }
    memory.record_external_peak(util::MemSubsystem::ColoringAux,
                                colored.aux_peak_bytes);

    std::vector<std::uint32_t> next_active;
    next_active.reserve(colored.uncolored.size());
    for (std::uint32_t local = 0; local < stats.n_active; ++local) {
      const std::uint32_t c = colored.assigned[local];
      if (c == ListColoringResult::kNoColorLocal) {
        next_active.push_back(active[local]);
      } else {
        result.colors[active[local]] = palette.base_color + c;
      }
    }
    stats.colored = colored.num_colored;
    stats.uncolored = static_cast<std::uint32_t>(next_active.size());
    obs::count(obs::Counter::RecolorEvents, stats.uncolored);
    stats.logical_bytes = lists.logical_bytes() + conflict.logical_bytes +
                          colored.aux_peak_bytes +
                          active.capacity() * sizeof(std::uint32_t);

    result.iterations.push_back(stats);
    result.assign_seconds += stats.assign_seconds;
    result.conflict_seconds += stats.conflict_seconds;
    result.coloring_seconds += stats.coloring_seconds;
    result.max_conflict_edges =
        std::max(result.max_conflict_edges, stats.conflict_edges);
    result.peak_logical_bytes =
        std::max(result.peak_logical_bytes, stats.logical_bytes);

    detail::report_iteration(params.progress, iteration, stats.n_active,
                             stats.colored, stats.uncolored,
                             stats.conflict_edges);

    base_color += palette.palette_size;
    active = std::move(next_active);
    ++iteration;
  }

  // Safety valve: fresh singleton colors for any tail (trivially valid,
  // disjoint from every palette used above).
  if (!active.empty()) {
    result.converged = false;
    for (std::uint32_t v : active) result.colors[v] = base_color++;
  }
  result.palette_total = base_color;

  result.num_colors =
      detail::count_palette_colors(result.colors, result.palette_total);
  result.total_seconds = total_timer.seconds();
  // Fold the thread-arena high-water mark in (process-lifetime, hence a
  // conservative upper bound for this run) and snapshot the telemetry while
  // the run scope's budget is still installed.
  memory.record_external_peak(util::MemSubsystem::Arena,
                              runtime::thread_arena_peak_total());
  result.memory = MemoryReport::capture(memory.snapshot());
  return result;
}

}  // namespace picasso::core
