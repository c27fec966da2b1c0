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
//
// The loop exists once, as detail::run_algorithm1 below; each engine
// supplies only the step that finds one iteration's conflicts and
// list-colors (Lines 7-9): solve_oracle builds the conflict CSR through the
// oracle, solve_stream (core/streaming.hpp) in one pass over an edge
// stream, and the fused engines (core/solve_fused.hpp) strike through the
// color index without building one.

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/conflict_graph.hpp"
#include "core/list_coloring.hpp"
#include "core/palette.hpp"
#include "core/solve_control.hpp"
#include "graph/oracles.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/runtime_config.hpp"
#include "util/memory.hpp"
#include "util/packed_colors.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace picasso::core {

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
  /// Parallel execution runtime for the materialized conflict-graph build.
  /// Defaults to one worker per hardware thread with deterministic merging,
  /// so results are bit-identical to `runtime.num_threads = 1`. The fused
  /// engines ignore it: their strike scans run on the calling thread.
  runtime::RuntimeConfig runtime;
  /// Hard cap on tracked resident bytes for the whole run (0 = unlimited).
  /// The oracle driver reports against it (MemoryReport::within_budget);
  /// the budgeted streaming driver (core/streaming.hpp) additionally sizes
  /// its chunk cache under it and spills the Pauli input to disk, re-reading
  /// chunks on demand, so the cap actually binds.
  std::size_t memory_budget_bytes = 0;
  /// Cooperative cancellation: checked at iteration boundaries in every
  /// driver and before every bucket scan in the fused engines. A requested
  /// stop raises SolveCancelled; the default token never fires. See
  /// core/solve_control.hpp.
  StopToken stop;
  /// Per-iteration (and, in the fused engines, per-bucket-scan-batch)
  /// progress callback, invoked from the solving thread. Empty = no
  /// reporting.
  ProgressFn progress;
  /// Phase-span recorder (obs/trace.hpp). When non-null every engine
  /// records its nested phase/iteration spans here; null (the
  /// default) costs one pointer test per scope. Session installs one for
  /// TelemetryLevel::Full.
  obs::TraceRecorder* trace = nullptr;
};

/// Unified memory telemetry for one run: the registry's per-subsystem
/// high-water marks (conflict CSR, palettes, chunk cache, ML
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

/// Runs Picasso against any adjacency oracle with a materialized conflict
/// CSR per iteration — the reference the edge-free engines are pinned to.
/// `kernel` picks how the conflict build finds candidate pairs (Auto: the
/// cost rule of resolve_kernel); every kernel builds the same CSR, so the
/// coloring does not depend on it.
template <graph::GraphOracle Oracle>
PicassoResult solve_oracle(const Oracle& oracle, const PicassoParams& params,
                           ConflictKernel kernel = ConflictKernel::Auto);

/// Engine behind the Pauli entry point: runs solve_oracle over a
/// PackedComplementOracle on the set's records (AVX2 when the CPU has it,
/// the scalar plane kernel otherwise). Charges the encoded input to
/// MemSubsystem::PauliInput for the duration of the run.
PicassoResult solve_pauli(const pauli::PauliSet& set,
                          const PicassoParams& params,
                          ConflictKernel kernel = ConflictKernel::Auto);

// ---------------------------------------------------------------------------
// Implementation.

namespace detail {

/// One iteration of Algorithm 1 as run_algorithm1 hands it to an engine's
/// step: the active vertices (global ids, ascending; local id = position),
/// the palette and lists just drawn for them with the lists' PaletteLists
/// charge (a step that releases the rows sets it to 0), the coloring RNG,
/// and the stats the step fills in (conflict_edges, conflicted_vertices
/// and the seconds of its own phases).
struct Iteration {
  int index;
  std::span<const std::uint32_t> active;
  const IterationPalette& palette;
  ColorLists& lists;
  util::ScopedCharge& lists_charge;
  util::Xoshiro256& rng;
  IterationStats& stats;
};

/// What a step returns: the list coloring of the active set, and the charge
/// of the structure it colored from (the conflict CSR or the fused color
/// index), held until the iteration ends. `scratch_bytes` is folded into
/// that charge once the ColoringAux peak has been recorded.
struct StepResult {
  ListColoringResult colored;
  util::ScopedCharge structure;
  std::size_t scratch_bytes = 0;
};

/// Algorithm 1's outer loop, the one every engine runs. It owns the run
/// scope and root span (`span_name`), the active set, the palette and list
/// draw of Lines 5-6 (with palette signatures when `signatures`, inside the
/// PaletteLists charge), the coloring RNG, the ColoringAux peak, frontier
/// compaction, stats, progress, the singleton tail and the memory capture.
/// `step(const Iteration&) -> StepResult` is the engine's Lines 7-9: find
/// the conflicts of the drawn lists and list-color the active set.
template <typename Step>
PicassoResult run_algorithm1(std::uint32_t n, const PicassoParams& params,
                             const char* span_name, bool signatures,
                             Step&& step) {
  util::WallTimer total_timer;
  util::MemoryRegistry& memory = util::global_memory();
  util::MemoryRunScope run_scope(params.memory_budget_bytes, memory);
  obs::ScopedSpan solve_span(params.trace, span_name);
  PicassoResult result;
  result.colors.assign(n, 0xffffffffu);

  std::vector<std::uint32_t> active(n);
  for (std::uint32_t v = 0; v < n; ++v) active[v] = v;

  util::Xoshiro256 coloring_rng(params.seed ^ 0x5bf03635dd3bb1f0ULL);
  std::uint32_t base_color = 0;
  int iteration = 0;

  while (!active.empty() && iteration < params.max_iterations) {
    throw_if_stopped(params.stop);
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
      if (signatures) lists.build_signatures();
    }
    util::ScopedCharge lists_charge(util::MemSubsystem::PaletteLists,
                                    lists.logical_bytes(), memory);

    // Lines 7-9: the engine's conflict step and list coloring.
    StepResult step_result = step(Iteration{iteration, active, palette, lists,
                                            lists_charge, coloring_rng, stats});
    const ListColoringResult& colored = step_result.colored;
    memory.record_external_peak(util::MemSubsystem::ColoringAux,
                                colored.aux_peak_bytes);
    // A resize, not an external peak: the structure's bytes are already in
    // the registry's current level, so adding them again would double-count
    // the total peak.
    util::ScopedCharge& structure = step_result.structure;
    structure.resize(structure.bytes() + step_result.scratch_bytes);

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
    stats.logical_bytes = lists.logical_bytes() + structure.bytes() +
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

    if (params.progress) {
      ProgressEvent event;
      event.stage = ProgressStage::IterationDone;
      event.iteration = iteration;
      event.n_active = stats.n_active;
      event.colored = stats.colored;
      event.uncolored = stats.uncolored;
      event.conflict_edges = stats.conflict_edges;
      params.progress(event);
    }

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

  result.num_colors = count_palette_colors(result.colors, result.palette_total);
  result.total_seconds = total_timer.seconds();
  // Snapshot the telemetry while the run scope's budget is still installed.
  result.memory = MemoryReport::capture(memory.snapshot());
  return result;
}

/// Lines 8-9 of the two CSR engines: charges the conflict CSR for the rest
/// of the iteration and list-colors it by Algorithm 2. The list colorer
/// handles isolated conflict-graph vertices (the unconflicted set) as a
/// special case of its main loop.
inline StepResult color_conflict_csr(const ConflictBuildResult& conflict,
                                     const Iteration& it,
                                     const PicassoParams& params) {
  StepResult out;
  out.structure = util::ScopedCharge(util::MemSubsystem::ConflictCsr,
                                     conflict.graph.logical_bytes());
  it.stats.conflict_edges = conflict.num_edges;
  it.stats.conflicted_vertices = conflict.num_conflicted_vertices;
  obs::ScopedPhase acc(params.trace, "coloring", it.stats.coloring_seconds);
  out.colored = color_conflict_graph_dynamic(conflict.graph, it.lists, it.rng);
  return out;
}

}  // namespace detail

template <graph::GraphOracle Oracle>
PicassoResult solve_oracle(const Oracle& oracle, const PicassoParams& params,
                           ConflictKernel kernel) {
  return detail::run_algorithm1(
      oracle.num_vertices(), params, "solve_oracle", /*signatures=*/true,
      [&](const detail::Iteration& it) {
        // Line 7: conflict graph, assembled as a CSR on the host.
        ConflictBuildResult conflict;
        {
          obs::ScopedPhase acc(params.trace, "conflict_graph",
                               it.stats.conflict_seconds);
          conflict = build_conflict_graph(oracle, it.active, it.lists,
                                          it.palette.palette_size, kernel,
                                          params.runtime);
        }
        return detail::color_conflict_csr(conflict, it, params);
      });
}

}  // namespace picasso::core
