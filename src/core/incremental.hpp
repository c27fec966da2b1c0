#pragma once
// Incremental online coloring over the fused bucket index.
//
// Real VQE/ADAPT loops grow their Pauli pools a few records at a time; a
// full re-solve per growth step throws away everything the previous solve
// learned. The fused engine (core/solve_fused.hpp) already maintains the
// only state an insertion needs — the color→vertices inverted index — so
// an update is: append the delta records to the resident store, then color
// each new vertex by striking its candidate color buckets through the same
// edge_block kernels the fused engine runs per vertex. When no existing
// color admits a vertex, a *bounded local recoloring* tries to relocate
// the smallest blocking set (capped by UpdateParams::max_recolor) before a
// fresh color is opened; when fresh colors pile up past
// UpdateParams::max_new_colors, the engine escalates to one full fused
// re-solve of the ingested prefix and rebuilds its state from the result.
//
// Determinism contract (the replay gate of ci/bench_baseline.json pins it):
// insertion is strictly sequential in record order, every probe answers the
// same anticommutation relation whichever store it reads, and escalations
// re-solve through the fused engines, which are bit-identical across thread
// counts and chunking. The final coloring is therefore a pure function of
// the concatenated record sequence and the (params, update-params) pair —
// independent of how the sequence was split into updates, of the thread
// count, and of whether the store lives in memory or in a budget-grown
// .pset spill.
//
// State lives in FusedState; api::Session wraps it behind update() /
// solve_incremental() and owns the in-memory-vs-spill decision.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/picasso.hpp"
#include "core/solve_control.hpp"
#include "pauli/pauli_set.hpp"
#include "pauli/pauli_stream.hpp"
#include "util/packed_colors.hpp"

namespace picasso::core {

/// Knobs of the insertion path. Defaults: shallow recoloring, never
/// escalate (escalation needs an explicit budget of tolerated fresh
/// colors, since "too many new colors" is workload-dependent).
struct UpdateParams {
  /// Largest blocking set a local recoloring may relocate to admit one new
  /// vertex into an existing color; 0 disables recoloring entirely.
  std::uint32_t max_recolor = 8;
  /// Fresh colors tolerated (cumulatively, since the last escalation)
  /// before one full fused re-solve of the ingested prefix; 0 = never
  /// escalate.
  std::uint32_t max_new_colors = 0;
};

/// Work accounting for one update() call. Mirrors the update_* counters of
/// obs::MetricsRegistry — every field is schedule-independent.
struct UpdateStats {
  std::uint32_t vertices_inserted = 0;  // delta vertices colored
  std::uint64_t bucket_probes = 0;      // color buckets examined
  std::uint64_t signature_fast_exits = 0;  // buckets rejected by support sig
  std::uint32_t recolor_attempts = 0;   // insertions that tried relocation
  std::uint32_t recolor_moves = 0;      // blockers actually moved
  std::uint32_t fresh_colors = 0;       // colors opened by this update
  std::uint32_t escalations = 0;        // full prefix re-solves triggered
  std::uint32_t num_colors = 0;         // distinct colors after the update
  std::uint32_t num_vertices = 0;       // total colored vertices after
  double seconds = 0.0;
};

/// One vertex of a generic-graph delta: its *conflict* edges (same-color
/// forbidden) to vertices with smaller ids — earlier original vertices or
/// earlier insertions, the natural shape of an online graph stream.
struct GraphVertexDelta {
  std::vector<std::uint32_t> conflicts;
};

/// The solved state an incremental session keeps resident between updates:
/// the per-vertex coloring, the color→vertices inverted index (the fused
/// engine's bucket structure), per-color packed support signatures (a
/// disjoint-support AND test that rejects hopeless buckets without touching
/// a kernel), and the record store — either an in-memory PauliSet or a
/// budget-grown .pset spill read through the chunk cache. Either store is
/// probed through one pauli::PackedRecordProber, the class the chunked
/// fused engine tests its candidates with, so insertion answers are
/// storage-invariant by construction. Each probe charges its pairs to
/// OraclePairEvals here; the prober counts the kernel calls.
///
/// A FusedState is either Pauli-backed (update_pauli) or graph-backed
/// (update_graph, after adopt_graph_solution); the two delta kinds cannot
/// mix. Graph-backed states insert greedily (first feasible color, else a
/// fresh one): relocation and escalation need the full adjacency of old
/// vertices, which a generic oracle delta does not carry.
class FusedState {
 public:
  static constexpr std::uint32_t kUncolored = 0xffffffffu;

  FusedState(PicassoParams params, UpdateParams update_params);
  ~FusedState();
  FusedState(FusedState&&) noexcept;
  FusedState& operator=(FusedState&&) noexcept;
  FusedState(const FusedState&) = delete;
  FusedState& operator=(const FusedState&) = delete;

  /// Switches the record store to a .pset spill at `path` (created at the
  /// first ingest, grown in place by append_pauli_set) read back through a
  /// budget-admitted chunk cache of `chunk_strings` strings per chunk. Must be
  /// called before any records are ingested. The state owns the file and
  /// removes it on destruction.
  void use_spill(std::string path, std::size_t chunk_strings);

  /// The baseline of Session::solve_incremental: a fused solve of `set`
  /// under `params`, adopted as by adopt_pauli_solution. A spilled state
  /// writes `set` once, as its own spill, and the baseline streams from
  /// that spill (solve_pauli_chunked_fused; the coloring is bit-identical
  /// to the in-memory engine). A full spill device (ENOSPC) falls back to
  /// solve_pauli_fused_after_enospc, and adoption then tries the spill
  /// once more. Must be the first ingest.
  PicassoResult solve_pauli_baseline(const pauli::PauliSet& set,
                                     const PicassoParams& params);

  /// Seeds the state from a completed full solve over `set`: adopts the
  /// records (a spilled state writes its spill unless
  /// solve_pauli_baseline already did), the coloring, and rebuilds
  /// buckets + signatures. Must be the first ingest.
  void adopt_pauli_solution(const pauli::PauliSet& set,
                            const PicassoResult& result);

  /// Seeds a graph-backed state from an existing coloring (one color per
  /// original vertex). Must be the first ingest.
  void adopt_graph_solution(const std::vector<std::uint32_t>& colors);

  /// Ingests `delta` (records append to the store first, so a cancelled
  /// call leaves a consistent, re-updatable state whose backlog the next
  /// call colors) and colors every not-yet-colored vertex sequentially.
  /// Throws SolveCancelled at vertex boundaries when `stop` fires and
  /// std::invalid_argument on qubit-count mismatch. A non-null `trace`
  /// records an "append" span, a "refresh" span (spilled stores) and a
  /// "color_backlog" span holding any escalation's re-solve.
  UpdateStats update_pauli(const pauli::PauliSet& delta,
                           const StopToken& stop = {},
                           const ProgressFn& progress = {},
                           obs::TraceRecorder* trace = nullptr);

  /// Graph twin of update_pauli. Each delta vertex's conflict ids must
  /// reference strictly earlier vertices.
  UpdateStats update_graph(const std::vector<GraphVertexDelta>& delta,
                           const StopToken& stop = {},
                           const ProgressFn& progress = {});

  /// Coloring of every ingested vertex (kUncolored marks backlog left by a
  /// cancelled update), stored sub-byte-packed; convert with to_vector()
  /// or read through operator[].
  const util::PackedColorArray& colors() const noexcept { return colors_; }
  std::size_t num_vertices() const noexcept { return colors_.size(); }
  std::size_t colored_vertices() const noexcept { return cursor_; }
  /// Upper bound of the color range in use (buckets allocated).
  std::uint32_t total_colors() const noexcept { return total_colors_; }
  /// Distinct colors actually used by the colored prefix.
  std::uint32_t distinct_colors() const;

  bool spilled() const noexcept { return use_spill_; }
  const std::string& spill_path() const noexcept { return spill_path_; }
  /// Strings per chunk of a spilled state (0 for in-memory states).
  std::size_t chunk_strings() const noexcept { return chunk_strings_; }
  /// Current spill file size (0 for in-memory states).
  std::size_t spill_bytes() const;

 private:
  enum class Kind { Unset, Pauli, Graph };

  void ingest_pauli(const pauli::PauliSet& delta, obs::TraceRecorder* trace);
  /// Writes `set` as the state's spill (owned from here on) and opens the
  /// reader on it.
  void spill_base(const pauli::PauliSet& set);
  /// spill_base, except that a full device (ENOSPC) removes the partial
  /// spill and returns false.
  bool try_spill_base(const pauli::PauliSet& set);
  /// Opens the spill reader and cache on first use; afterwards refreshes
  /// the reader in place and drops only the chunks that changed.
  void sync_reader();
  /// Prober over the live store: the in-memory set or the spill's cache.
  pauli::PackedRecordProber make_prober() const;
  void color_pauli_backlog(const StopToken& stop, const ProgressFn& progress,
                           obs::TraceRecorder* trace, UpdateStats& stats);
  /// Scratch of first_fit's probe windows, reused across vertices: the
  /// window's signature-surviving buckets (members, color, size, members
  /// probed so far, end of this round's slice of `ids`), the window indices
  /// still in the running, the ids one probe round sends and the edges()
  /// answers. `ids` and `hits` only grow.
  struct Sweep {
    struct Candidate {
      const std::uint32_t* members;
      std::uint32_t color;
      std::uint32_t size;
      std::uint32_t probed;
      std::uint32_t end;
    };
    std::vector<Candidate> window;
    std::vector<std::uint32_t> live;
    std::vector<std::uint32_t> ids;
    std::vector<std::uint8_t> hits;
  };
  /// Lowest color whose bucket admits the vertex pinned in `prober`
  /// (support `sup_v`), kUncolored when every allocated color is blocked.
  std::uint32_t first_fit(pauli::PackedRecordProber& prober,
                          const std::uint64_t* sup_v, Sweep& sweep,
                          UpdateStats& stats);
  /// Index in sweep.window of the lowest bucket that admits the pinned
  /// vertex, window.size() when none does; probes each bucket only up to
  /// its first conflict.
  std::size_t probe_window(pauli::PackedRecordProber& prober, Sweep& sweep);
  bool try_recolor(pauli::PackedRecordProber& prober, std::uint32_t v,
                   const std::uint64_t* sup_v, UpdateStats& stats);
  void open_fresh_color(std::uint32_t v, const std::uint64_t* sup_v,
                        UpdateStats& stats);
  void escalate(const StopToken& stop, const ProgressFn& progress,
                obs::TraceRecorder* trace, UpdateStats& stats);
  void rebuild_from_colors(const std::vector<std::uint32_t>& colors);
  void rebuild_signatures(pauli::PackedRecordProber& prober);
  void or_signature(std::uint32_t color, const std::uint64_t* record);
  /// out[0..rec_words_) = the (x|z) support of `rec`: a zero AND against a
  /// bucket signature proves v's support disjoint from every member's.
  void fold_support(const std::uint64_t* rec, std::uint64_t* out) const;

  PicassoParams params_;
  UpdateParams update_params_;
  Kind kind_ = Kind::Unset;

  util::PackedColorArray colors_;  // per ingested vertex, sub-byte packed
  std::vector<std::vector<std::uint32_t>> buckets_;  // color -> member ids
  std::vector<std::uint64_t> sigs_;  // total_colors_ * rec_words_, OR-fold
                                     // of members' (x|z) support words
  std::size_t rec_words_ = 0;  // packed words per plane of one record
  std::uint32_t total_colors_ = 0;
  std::size_t cursor_ = 0;          // colored prefix length
  std::uint32_t fresh_colors_ = 0;  // since the last escalation

  // Pauli store — exactly one of these two is live once records exist.
  pauli::PauliSet store_;  // in-memory
  bool use_spill_ = false;
  std::string spill_path_;
  std::size_t chunk_strings_ = 0;
  std::size_t num_qubits_ = 0;
  std::unique_ptr<pauli::ChunkedPauliReader> reader_;
  std::unique_ptr<pauli::PackedPauliChunkCache> chunk_cache_;
  // Owns the spill file once created; removes it on destruction. A
  // unique_ptr so moved-from states cannot double-remove.
  struct SpillGuard;
  std::unique_ptr<SpillGuard> spill_guard_;

  // Graph deltas: conflict lists of inserted vertices (ids >= graph_base_),
  // kept so a cancelled update's backlog can be colored later.
  std::size_t graph_base_ = 0;
  std::vector<std::vector<std::uint32_t>> graph_adj_;
};

}  // namespace picasso::core
