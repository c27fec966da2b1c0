#pragma once
// Semi-streaming Picasso.
//
// The algorithm descends from Assadi-Chen-Khanna's palette-sparsification
// streaming colorers (§III): the graph need not support random-access
// adjacency queries at all — one *pass* over the edge list per iteration
// suffices, because the only thing an iteration needs is the subset of
// edges whose endpoints share a list color. solve_stream runs the shared
// Algorithm-1 loop (detail::run_algorithm1, core/picasso.hpp) against any
// edge source that can replay its stream; its step is one pass that keeps
// those edges in a conflict CSR, O(n L + |Ec|) state charged exactly like
// the in-memory engine's. The oracle-based driver needs O(1)-time
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

#include <algorithm>
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
/// files (and the `.pset.colors` sidecars earlier builds wrote next to
/// them) whose owning pid no longer exists — the debris a crashed or
/// SIGKILLed process leaves behind. Files named by live pids, by this
/// process, or by anything else are untouched. Returns the number of files
/// removed. Safe to call on a missing directory.
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
  // global -> local index of active vertices; kInactive for colored ones.
  constexpr std::uint32_t kInactive = 0xffffffffu;
  std::vector<std::uint32_t> local_of(n);
  return detail::run_algorithm1(
      n, params, "solve_stream", /*signatures=*/true,
      [&](const detail::Iteration& it) {
        std::fill(local_of.begin(), local_of.end(), kInactive);
        for (std::uint32_t local = 0; local < it.active.size(); ++local) {
          local_of[it.active[local]] = local;
        }
        // One pass: keep exactly the conflicted edges among active vertices.
        ConflictBuildResult conflict;
        {
          obs::ScopedPhase acc(params.trace, "conflict_pass",
                               it.stats.conflict_seconds);
          std::uint64_t edges_seen = 0;  // flushed per pass (serial stream)
          conflict.graph = detail::csr_from_enumerator(
              it.stats.n_active, [&](auto&& emit) {
                source.for_each_edge([&](std::uint32_t gu, std::uint32_t gv) {
                  ++edges_seen;
                  std::uint32_t lu = local_of[gu];
                  std::uint32_t lv = local_of[gv];
                  if (lu == kInactive || lv == kInactive) return;
                  if (lu > lv) std::swap(lu, lv);
                  if (it.lists.share_color(lu, lv)) emit(lu, lv);
                });
              });
          obs::count(obs::Counter::StreamEdgesScanned, edges_seen);
          conflict.num_edges = conflict.graph.num_edges();
          conflict.num_conflicted_vertices =
              detail::count_conflicted(conflict.graph);
        }
        return detail::color_conflict_csr(conflict, it, params);
      });
}

}  // namespace picasso::core
