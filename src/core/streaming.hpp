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

// The memory-budgeted Pauli pipeline below extends the same idea to the
// paper's flagship input: the encoded Pauli set is spilled to disk once,
// read back in chunks through a budget-admission LRU cache, and the
// conflict edges of each iteration are generated on the fly from chunk
// pairs — palette-restricted first, oracle second — so the only O(n)-sized
// resident state is one iteration's color lists plus the (sparse) conflict
// CSR. When the chunk cache cannot hold every chunk, inner chunks are
// re-read from disk per outer chunk: the multi-pass re-scan that trades
// I/O for memory. Chunk-pair scans run on the PR-1 runtime pool and stay
// bit-identical to the in-memory oracle driver (canonical CSR assembly
// makes emission order immaterial; lists and coloring RNG are keyed
// identically).

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/picasso.hpp"
#include "pauli/pauli_stream.hpp"

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

/// Deprecated name for solve_stream; new code goes through
/// picasso::api::Session with Problem::edge_stream().
template <typename EdgeSource>
[[deprecated("use picasso::api::Session with Problem::edge_stream() instead")]]
PicassoResult picasso_color_stream(std::uint32_t n, const EdgeSource& source,
                                   const PicassoParams& params) {
  return solve_stream(n, source, params);
}

// ---------------------------------------------------------------------------
// Memory-budgeted Pauli streaming pipeline.

struct StreamingOptions {
  /// Strings per chunk. 0 = auto: sized so two resident chunks (the pair
  /// scan's working set) take about half of memory_budget_bytes.
  std::size_t chunk_strings = 0;
  /// Directory for the spill file ("" = the system temp directory).
  std::string spill_dir;
  /// Keep the spill file after the run instead of removing it.
  bool keep_spill = false;
};

/// Collision-free spill file path: `<dir>/picasso_<tag>_<pid>_<seq>.pset`,
/// where `<seq>` comes from ONE process-wide atomic counter shared by every
/// spill site (budgeted engines, incremental stores, the service daemon).
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

/// Memory-budgeted engine. With no budget and no explicit chunk size this
/// is exactly solve_pauli; when the encoded set does not fit comfortably in
/// the budget (or chunk_strings forces it) the set is spilled to disk and
/// colored through the chunked engine below. The coloring is bit-identical
/// to solve_pauli for equal params.
PicassoResult solve_pauli_budgeted(const pauli::PauliSet& set,
                                   const PicassoParams& params,
                                   const StreamingOptions& options = {});

/// Chunked engine: colors the anticommutation-complement graph of the
/// spilled Pauli set behind `reader`, holding at most the chunks the
/// budget admits resident at a time (plus one iteration's lists and the
/// conflict CSR). Chunk-pair scans run on the configured runtime pool.
PicassoResult solve_pauli_chunked(const pauli::ChunkedPauliReader& reader,
                                  const PicassoParams& params);

// Deprecated names for the two engines above; new code goes through
// picasso::api::Session, which plans streaming from the memory budget (or
// takes a spill file / reader directly via Problem::pauli_spill() /
// Problem::spill_reader()).
[[deprecated("use picasso::api::Session with a memory budget instead")]]
PicassoResult picasso_color_pauli_budgeted(
    const pauli::PauliSet& set, const PicassoParams& params,
    const StreamingOptions& options = {});

[[deprecated("use picasso::api::Session with Problem::spill_reader() instead")]]
PicassoResult picasso_color_pauli_chunked(
    const pauli::ChunkedPauliReader& reader, const PicassoParams& params);

namespace detail {

/// Spill scaffold shared by the budgeted engines (materialized and fused):
/// decides in-memory vs streamed from the budget / explicit chunk size,
/// spills the set, derives the chunking, runs `solve_chunked` over a reader
/// on the spill file, and removes the file afterwards (and on unwind). The
/// two engine callbacks are what differ between solve_pauli_budgeted and
/// solve_pauli_budgeted_fused — the lifecycle cannot drift.
PicassoResult run_budgeted_spill(
    const pauli::PauliSet& set, const PicassoParams& params,
    const StreamingOptions& options,
    const std::function<PicassoResult(const pauli::PauliSet&,
                                      const PicassoParams&)>& solve_in_memory,
    const std::function<PicassoResult(const pauli::ChunkedPauliReader&,
                                      const PicassoParams&)>& solve_chunked);

}  // namespace detail

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
