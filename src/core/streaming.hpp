#pragma once
// Semi-streaming Picasso.
//
// The algorithm descends from Assadi-Chen-Khanna's palette-sparsification
// streaming colorers (§III): the graph need not support random-access
// adjacency queries at all — one *pass* over the edge list per iteration
// suffices, because the only thing an iteration needs is the subset of
// edges whose endpoints share a list color. This driver runs Algorithm 1
// against any edge source that can replay its stream, keeping
// O(n L + |Ec|) state per pass. The oracle-based driver needs O(1)-time
// adjacency; this one needs O(1)-space edge enumeration — together they
// cover both access models of the paper's lineage.
//
// An EdgeSource is anything with
//     void for_each_edge(Fn&& fn) const;   // fn(u, v), u != v, each
//                                          // undirected edge at least once
// Passes are counted; PicassoResult::iterations.size() == #passes.

// The memory-budgeted Pauli pipeline (solve_pauli_budgeted_fused /
// solve_pauli_chunked_fused in core/solve_fused.hpp) extends the same idea
// to the paper's flagship input: the encoded Pauli set is spilled to disk
// once and read back in chunks through a budget-admission LRU cache. This
// header holds the pieces that pipeline shares with the incremental store
// and the service: the streaming options, the chunk-size derivation and
// the spill-file naming / janitor.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/picasso.hpp"

namespace picasso::core {

/// Replayable in-memory edge stream.
class VectorEdgeStream {
 public:
  explicit VectorEdgeStream(std::vector<std::pair<std::uint32_t, std::uint32_t>> edges)
      : edges_(std::move(edges)) {}

  template <typename Fn>
  void for_each_edge(Fn&& fn) const {
    for (const auto& [u, v] : edges_) fn(u, v);
  }

  std::size_t size() const noexcept { return edges_.size(); }

 private:
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges_;
};

/// Replayable on-disk edge stream: re-reads the edge-list file (the format
/// of graph/graph_io.hpp) on every pass, so the graph never resides in
/// memory — the honest semi-streaming setting.
class FileEdgeStream {
 public:
  explicit FileEdgeStream(std::string path);

  template <typename Fn>
  void for_each_edge(Fn&& fn) const {
    replay([&fn](std::uint32_t u, std::uint32_t v) { fn(u, v); });
  }

  std::uint32_t num_vertices() const noexcept { return num_vertices_; }
  std::uint64_t num_edges() const noexcept { return num_edges_; }

 private:
  void replay(const std::function<void(std::uint32_t, std::uint32_t)>& fn) const;

  std::string path_;
  std::uint32_t num_vertices_ = 0;
  std::uint64_t num_edges_ = 0;
};

/// Runs Picasso over a replayable edge stream on `n` vertices. With equal
/// seed and parameters the coloring is identical to the oracle-based driver
/// on the same graph: each pass reconstructs exactly the conflict edges the
/// oracle path would have found.
template <typename EdgeSource>
PicassoResult solve_stream(std::uint32_t n, const EdgeSource& source,
                           const PicassoParams& params);

// ---------------------------------------------------------------------------
// Memory-budgeted Pauli streaming pipeline.

struct StreamingOptions {
  /// Strings per chunk. 0 = auto: sized so two resident chunks take about
  /// half of memory_budget_bytes (see spill_chunk_strings).
  std::size_t chunk_strings = 0;
  /// Directory for the spill file ("" = the system temp directory).
  std::string spill_dir;
  /// Keep the spill file after the run instead of removing it.
  bool keep_spill = false;
};

/// Collision-free spill file path: `<dir>/picasso_<tag>_<pid>_<seq>.pset`,
/// where `<seq>` comes from ONE process-wide atomic counter shared by every
/// spill site (the budgeted engine, incremental stores, the service daemon).
/// The pid isolates processes sharing a spill directory; the single counter
/// isolates concurrent solves inside one process — two sessions spilling at
/// once can never race to the same name. "" for `dir` means the system temp
/// directory; the directory is created if missing.
std::string unique_spill_path(const std::string& dir, const char* tag);

/// Spill-directory janitor: removes `picasso_<tag>_<pid>_<counter>.pset`
/// files (and their `.colors` sidecars) whose owning pid no longer exists —
/// the debris a crashed or SIGKILLed process leaves behind. Files named by
/// live pids, by this process, or by anything else are untouched. Returns
/// the number of files removed. Safe to call on a missing directory.
std::size_t sweep_orphan_spills(const std::string& dir);

/// Strings per spill chunk: `explicit_chunk` when set, else sized so two
/// resident chunks of `per_string` bytes each take about half of `budget`;
/// with neither, one chunk holds every string. Clamped to [1, max(1, n)].
/// The one derivation behind the planner's reported chunking, the budgeted
/// engine's and the incremental store's.
std::size_t spill_chunk_strings(std::size_t explicit_chunk, std::size_t budget,
                                std::size_t per_string, std::size_t n);

// ---------------------------------------------------------------------------
// Implementation.

template <typename EdgeSource>
PicassoResult solve_stream(std::uint32_t n, const EdgeSource& source,
                           const PicassoParams& params) {
  util::WallTimer total_timer;
  obs::ScopedSpan solve_span(params.trace, "solve_stream");
  PicassoResult result;
  result.colors.assign(n, 0xffffffffu);

  // global -> local index of active vertices; kInactive for colored ones.
  constexpr std::uint32_t kInactive = 0xffffffffu;
  std::vector<std::uint32_t> local_of(n);
  std::vector<std::uint32_t> active(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    active[v] = v;
    local_of[v] = v;
  }

  util::Xoshiro256 coloring_rng(params.seed ^ 0x5bf03635dd3bb1f0ULL);
  std::uint32_t base_color = 0;
  int iteration = 0;

  while (!active.empty() && iteration < params.max_iterations) {
    detail::throw_if_stopped(params.stop);
    obs::ScopedSpan iter_span(params.trace, "iteration",
                              static_cast<std::uint64_t>(iteration));
    IterationStats stats;
    stats.n_active = static_cast<std::uint32_t>(active.size());
    const IterationPalette palette = compute_palette(
        stats.n_active, params.palette_percent, params.alpha, base_color);
    stats.palette_size = palette.palette_size;
    stats.list_size = palette.list_size;

    ColorLists lists;
    {
      obs::ScopedPhase acc(params.trace, "assign_lists", stats.assign_seconds);
      lists = assign_random_lists(stats.n_active, palette, params.seed,
                                  static_cast<std::uint64_t>(iteration));
      lists.build_signatures();
    }

    // One pass: keep exactly the conflicted edges among active vertices.
    ConflictBuildResult conflict;
    {
      obs::ScopedPhase acc(params.trace, "conflict_pass",
                           stats.conflict_seconds);
      std::uint64_t edges_seen = 0;  // flushed per pass (serial stream)
      conflict.graph = detail::csr_from_enumerator(
          stats.n_active, [&](auto&& emit) {
            source.for_each_edge([&](std::uint32_t gu, std::uint32_t gv) {
              ++edges_seen;
              std::uint32_t lu = local_of[gu];
              std::uint32_t lv = local_of[gv];
              if (lu == kInactive || lv == kInactive) return;
              if (lu > lv) std::swap(lu, lv);
              if (lists.share_color(lu, lv)) emit(lu, lv);
            });
          });
      obs::count(obs::Counter::StreamEdgesScanned, edges_seen);
      conflict.num_edges = conflict.graph.num_edges();
      conflict.num_conflicted_vertices =
          detail::count_conflicted(conflict.graph);
      conflict.logical_bytes = conflict.graph.logical_bytes();
    }
    stats.conflict_edges = conflict.num_edges;
    stats.conflicted_vertices = conflict.num_conflicted_vertices;

    ListColoringResult colored;
    {
      obs::ScopedPhase acc(params.trace, "coloring", stats.coloring_seconds);
      colored = color_conflict_graph(conflict.graph, lists,
                                     params.conflict_scheme, coloring_rng);
    }

    std::vector<std::uint32_t> next_active;
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
                          local_of.capacity() * sizeof(std::uint32_t);

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
    std::fill(local_of.begin(), local_of.end(), kInactive);
    for (std::uint32_t local = 0; local < active.size(); ++local) {
      local_of[active[local]] = local;
    }
    ++iteration;
  }

  if (!active.empty()) {
    result.converged = false;
    for (std::uint32_t v : active) result.colors[v] = base_color++;
  }
  result.palette_total = base_color;
  result.num_colors =
      detail::count_palette_colors(result.colors, result.palette_total);
  result.total_seconds = total_timer.seconds();
  return result;
}

}  // namespace picasso::core
