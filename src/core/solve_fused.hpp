#pragma once
// Edge-free fused coloring engine.
//
// The materialized engines pay, per iteration, for a full conflict-graph
// build: every same-bucket pair is examined, the surviving edges are staged
// as COO partitions, counted, prefix-summed and scattered into a CSR — and
// telemetry shows that assembly (MemSubsystem::ConflictCsr) is the top
// peak-memory consumer of the whole pipeline. The fused engine never builds
// any of it. It runs Algorithm 2 (color_lists_dynamic, core/list_coloring.hpp)
// directly against the color -> vertices inverted index plus the conflict
// oracle:
//
//  * when a vertex v is colored with palette color c, the vertices whose
//    lists must lose c are exactly the members of color bucket c whose
//    slot for c is still live and that the oracle confirms adjacent to v —
//    so one bucket scan per colored vertex replaces both the up-front pair
//    enumeration and the CSR neighbor walks;
//  * each index entry packs a member with c's slot in its list, so a
//    confirmed strike is one bit clear in the member's strike record — no
//    search;
//  * every strike scan compacts its bucket in place (stable, so candidates
//    stay ascending): members whose alive flag is down (colored, or list
//    emptied) leave, and so do the entries the scan itself strikes. Only a
//    scan of bucket c strikes c, so a bucket never holds a struck slot and
//    the liveness test is one byte per member; the oracle never re-tests a
//    pair whose strike could no longer change a list, and only one bucket
//    per vertex is ever scanned instead of all L;
//  * the palette rows are released as soon as the index is built. A pick
//    draws its one color again from the row's key (ColorLists::color), so
//    the rows and the coloring state are never live together;
//  * candidate batches go through the blocked SIMD kernels (edge_block) on
//    the calling thread. A bucket at the default palette holds about 8L
//    candidates, far too few to pay for a pool dispatch, so the coloring
//    and every counter are independent of PicassoParams::runtime.
//
// Both fused engines run the shared Algorithm-1 loop (detail::run_algorithm1,
// core/picasso.hpp) with fused_step below as their Lines 7-9, and differ
// only in its candidate tester: the in-memory one asks an oracle
// (OracleBatchTester), the chunked one maps candidates to global ids and
// asks a pauli::PackedRecordProber over the spill's chunk cache — the same
// prober the incremental store probes with.
//
// Bit-identity with the materialized engines is structural: both run the
// one Algorithm-2 body of core/list_coloring.hpp, and the fused strike
// enumerator feeds it the same affected set in the same ascending order as
// a CSR neighbor walk would (see the ForEachStrike contract there). The
// differential suite pins this across kernels, budgets and thread counts.
//
// Iteration-stats caveat: the fused engine has no conflict-build phase, so
// IterationStats::conflict_seconds stays 0 (oracle time is folded into
// coloring_seconds). conflict_edges (and the StrikeHits counter) counts
// list removals: exactly one per (vertex, color) a strike took out of a
// list. That is a lower bound of |Ec|: edges whose second endpoint was
// already colored, had emptied, or had already lost the color to another
// neighbor are never tested. conflicted_vertices counts the endpoints of
// the counted edges.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/conflict_graph.hpp"
#include "core/list_coloring.hpp"
#include "core/picasso.hpp"
#include "core/streaming.hpp"
#include "pauli/pauli_stream.hpp"

namespace picasso::core {

/// Projected peak bytes of one iteration's conflict-CSR assembly for an
/// n-vertex input under the given palette configuration — what a
/// materialized engine would have to hold live during csr_from_partitions
/// (one COO copy + offsets + the CSR rows). Derivation: the first iteration
/// draws P colors and lists of L, so each bucket holds ~nL/P vertices in
/// expectation and the indexed scan examines ~n^2 L^2 / (2P) pairs; on the
/// paper's ~50%-dense complement graphs about half of them survive as
/// conflict edges. api::Session::plan() compares this projection against
/// the memory budget to auto-select the fused engine.
std::size_t projected_conflict_csr_bytes(std::uint32_t n,
                                         double palette_percent, double alpha);

/// Projected peak bytes the in-memory fused engine tracks for an n-vertex
/// input under the given palette configuration, on top of the input
/// itself — what a plan that never materializes a conflict CSR costs. The
/// first iteration is the largest (every term grows with the active count).
/// It holds the (vertex, slot) index (nL entries + P + 1 offsets) throughout,
/// and beside it the larger of its two phases: while the index is built,
/// the color lists (nL colors, 2 bytes each when
/// P <= ColorLists::kNarrowPaletteLimit and 4 otherwise, no palette
/// signatures); once they are released, the dynamic-bucket coloring state
/// (detail::StrikeState::bucketed_bytes: packed strike records, alive
/// flags, the size buckets' page pool and page tables; plus the assignment
/// array). Strike-scan scratch (5 bytes per entry of the largest bucket,
/// the tester's 4-byte global ids per candidate, one touched flag per
/// vertex) is charged after the coloring state is released and never
/// exceeds it.
std::size_t projected_fused_bytes(std::uint32_t n, double palette_percent,
                                  double alpha);

namespace detail {

/// Progress cadence of the fused engine: one BucketScanned event per this
/// many strike scans (every scan still checks the stop token).
inline constexpr std::size_t kFusedProgressInterval = 256;

/// How many confirmed entries ahead of the strike the fused scan prefetches
/// strike records.
inline constexpr std::uint32_t kStrikePrefetchDistance = 4;

/// Work counters one fused iteration accumulates. fused_step flushes them
/// into obs::global_metrics() once per iteration — a schedule-
/// independent boundary, so counter totals stay bit-identical across
/// thread counts.
struct FusedScanStats {
  std::uint64_t edges_struck = 0;  // list removals (confirmed live strikes)
  std::uint64_t pairs_tested = 0;  // candidates handed to the oracle
  std::uint64_t bucket_scans = 0;  // candidate-bucket scans issued
};

/// Strike enumerator color_lists_dynamic drives (ForEachStrike
/// contract, list_coloring.hpp): candidates are the alive members of the
/// assigned color's bucket (v itself is retired by then), in ascending
/// order; the Tester answers adjacency for the whole batch; confirmed
/// candidates are struck in candidate order with the slot their packed
/// entry carries.
///
/// A strike of color c only ever comes from a scan of bucket c, and each
/// scan drops the entries it strikes from the bucket in the same pass that
/// gathers them. So a bucket never holds a struck slot, and "slot still
/// live" reduces to the member's alive flag (StrikeState::alive, one byte
/// per vertex): colored vertices and emptied lists leave the bucket at the
/// next scan, struck slots at the scan that struck them. None of them can
/// be struck again, so the batches shrink while the strikes — and so every
/// coloring — stay what a full bucket walk would give. The scan keeps the
/// bucket's surviving entries in place, stable (candidates stay ascending)
/// and kEnd-terminated when it shrinks; both passes are branch-free (store,
/// then advance by the flag or the hit) into scratch sized once to the
/// largest bucket. The strike pass prefetches the strike records of the
/// confirmed entries a few entries ahead of striking them. Checks the stop
/// token at every bucket boundary and reports progress every
/// kFusedProgressInterval scans.
///
/// Tester contract: tester(v, cands, hits) fills hits[i] = 1 iff
/// {v, cands[i]} (local ids) is an edge of the conflict oracle's graph.
template <typename Tester>
class FusedStrikeEnumerator {
 public:
  FusedStrikeEnumerator(ColorIndex& index, Tester& tester,
                        const PicassoParams& params, int iteration,
                        std::uint32_t n_active, std::vector<std::uint8_t>& touched,
                        FusedScanStats& stats)
      : index_(&index),
        tester_(&tester),
        params_(&params),
        iteration_(iteration),
        n_active_(n_active),
        touched_(&touched),
        stats_(&stats) {
    std::uint32_t largest = 0;
    for (std::size_t c = 0; c + 1 < index.offsets.size(); ++c) {
      largest = std::max(largest, index.offsets[c + 1] - index.offsets[c]);
    }
    cands_.resize(largest);
    hits_.resize(largest);
  }

  template <typename Strike>
  void operator()(std::uint32_t v, std::uint32_t color, const StrikeState& work,
                  Strike&& strike) {
    // Bucket-boundary checkpoint: a requested stop cancels before the next
    // bucket is scanned; RAII in the driver unwinds every charge.
    throw_if_stopped(params_->stop);
    ColorIndex& index = *index_;
    std::uint32_t* bucket = index.members.data() + index.offsets[color];
    const std::uint32_t size = index.offsets[color + 1] - index.offsets[color];
    std::uint32_t* cands = cands_.data();
    std::uint32_t live = 0;
    for (std::uint32_t i = 0; i < size; ++i) {
      const std::uint32_t entry = bucket[i];
      if (entry == ColorIndex::kEnd) break;
      const std::uint32_t u = index.vertex(entry);
      bucket[live] = entry;
      cands[live] = u;
      live += work.alive(u) ? 1u : 0u;
    }
    std::uint8_t* hits = hits_.data();
    if (live != 0) {
      (*tester_)(v, std::span<const std::uint32_t>(cands, live), hits);
      stats_->pairs_tested += live;
    }
    // The batch is spent: reuse it for the confirmed entries, and keep the
    // rest in the bucket — the struck slots leave it here.
    std::uint32_t confirmed = 0;
    std::uint32_t kept = 0;
    for (std::uint32_t i = 0; i < live; ++i) {
      const std::uint32_t entry = bucket[i];
      const std::uint32_t hit = hits[i] != 0 ? 1u : 0u;
      cands[confirmed] = entry;
      bucket[kept] = entry;
      confirmed += hit;
      kept += 1u - hit;
    }
    if (kept < size) bucket[kept] = ColorIndex::kEnd;
    for (std::uint32_t k = 0; k < confirmed; ++k) {
      if (k + kStrikePrefetchDistance < confirmed) {
        work.prefetch(index.vertex(cands[k + kStrikePrefetchDistance]));
      }
      const std::uint32_t u = index.vertex(cands[k]);
      strike(u, index.slot(cands[k]));
      (*touched_)[u] = 1;
    }
    stats_->edges_struck += confirmed;
    if (confirmed != 0) (*touched_)[v] = 1;

    ++scans_;
    ++stats_->bucket_scans;
    if (params_->progress && scans_ % kFusedProgressInterval == 0) {
      ProgressEvent event;
      event.stage = ProgressStage::BucketScanned;
      event.iteration = iteration_;
      event.n_active = n_active_;
      event.bucket_scans = scans_;
      // Running strike count — the fused engine builds no CSR, so
      // this lower bound on |Ec| is what progress consumers get
      // mid-iteration (see ProgressEvent::conflict_edges).
      event.conflict_edges = stats_->edges_struck;
      params_->progress(event);
    }
  }

  std::size_t scratch_bytes() const noexcept {
    return cands_.capacity() * sizeof(std::uint32_t) + hits_.capacity();
  }

 private:
  ColorIndex* index_;
  Tester* tester_;
  const PicassoParams* params_;
  int iteration_;
  std::uint32_t n_active_;
  std::vector<std::uint8_t>* touched_;
  FusedScanStats* stats_;
  std::vector<std::uint32_t> cands_;  // sized to the largest bucket
  std::vector<std::uint8_t> hits_;
  std::size_t scans_ = 0;
};

/// In-memory candidate tester: maps candidates to oracle (global) ids and
/// answers through edge_block when the oracle supports it (kBlockScanBatch
/// sub-batches keep the id spans in L1), per-pair otherwise.
template <ConflictOracle Oracle>
class OracleBatchTester {
 public:
  OracleBatchTester(const Oracle& oracle, std::span<const std::uint32_t> active)
      : oracle_(&oracle), active_(active) {}

  void operator()(std::uint32_t v, std::span<const std::uint32_t> cands,
                  std::uint8_t* hits) {
    global_.resize(cands.size());
    for (std::size_t i = 0; i < cands.size(); ++i) {
      global_[i] = active_[cands[i]];
    }
    const std::uint32_t gu = active_[v];
    if constexpr (BlockConflictOracle<Oracle>) {
      obs::count(edge_block_counter(*oracle_),
                 (cands.size() + kBlockScanBatch - 1) / kBlockScanBatch);
      for (std::size_t b = 0; b < cands.size(); b += kBlockScanBatch) {
        const std::size_t len = std::min(kBlockScanBatch, cands.size() - b);
        oracle_->edge_block(gu, global_.data() + b, len, hits + b);
      }
    } else {
      for (std::size_t i = 0; i < cands.size(); ++i) {
        hits[i] = oracle_->edge(gu, global_[i]) ? 1 : 0;
      }
    }
  }

  std::size_t scratch_bytes() const noexcept {
    return global_.capacity() * sizeof(std::uint32_t);
  }

 private:
  const Oracle* oracle_;
  std::span<const std::uint32_t> active_;
  std::vector<std::uint32_t> global_;
};

/// Lines 7-9 of both fused engines (the in-memory oracle one below and the
/// chunked streaming one in solve_fused.cpp), so the two can only differ in
/// how candidates are tested. Builds and charges the color index, releases
/// the palette rows and their charge, colors the iteration by Algorithm 2
/// with a FusedStrikeEnumerator over a `Tester` constructed from
/// `(tester_args..., active)`, hands the scan scratch, the tester's scratch
/// and the touched flags to the loop to fold into the index charge, and
/// flushes the scan counters. `it.rng` is the coloring RNG the materialized
/// engines hand the CSR list colorer.
template <typename Tester, typename... TesterArgs>
StepResult fused_step(const Iteration& it, const PicassoParams& params,
                      TesterArgs&... tester_args) {
  StepResult out;
  // The fused frontier: the color -> (vertex, slot) inverted index — where
  // the materialized engines stage COO partitions and a CSR, this engine
  // holds nL + P + 1 words, period. Strike scans compact it in place,
  // dropping the colored, the emptied and the struck entries, so it is
  // spent once the iteration is colored.
  ColorIndex index = build_color_index(it.lists, it.palette.palette_size);
  out.structure = util::ScopedCharge(
      util::MemSubsystem::FusedFrontier,
      index.offsets.capacity() * sizeof(std::uint32_t) +
          index.members.capacity() * sizeof(std::uint32_t));
  // The index carries every slot a strike needs; only a pick still reads a
  // list entry, and the lists draw that one again from its key. So the rows
  // go before the strike state is built, and the two never peak together.
  it.lists.release_rows();
  it.lists_charge.resize(0);

  const std::uint32_t n = it.stats.n_active;
  FusedScanStats scan_stats;
  {
    obs::ScopedPhase acc(params.trace, "coloring", it.stats.coloring_seconds);
    Tester tester(tester_args..., it.active);
    std::vector<std::uint8_t> touched(n, 0);
    FusedStrikeEnumerator<Tester> strikes(index, tester, params, it.index, n,
                                          touched, scan_stats);
    out.colored = color_lists_dynamic(n, it.lists, it.rng, strikes,
                                      it.palette.palette_size);
    std::uint32_t conflicted = 0;
    for (std::uint8_t t : touched) conflicted += t;
    it.stats.conflicted_vertices = conflicted;
    out.scratch_bytes = strikes.scratch_bytes() + tester.scratch_bytes() + n;
  }
  it.stats.conflict_edges = scan_stats.edges_struck;

  // Per-iteration counter flush (the testers only count their kernel
  // dispatches; all pair/strike accounting funnels through scan_stats).
  obs::count(obs::Counter::OraclePairEvals, scan_stats.pairs_tested);
  obs::count(obs::Counter::StrikeHits, scan_stats.edges_struck);
  obs::count(obs::Counter::BucketStrikeScans, scan_stats.bucket_scans);
  return out;
}

}  // namespace detail

/// The edge-free fused engine over any adjacency oracle: identical
/// colorings to solve_oracle (deterministic mode), no ConflictCsr charge,
/// and strictly less oracle work — only pairs (colored vertex, same-bucket
/// member whose slot for the color is still live) are ever examined.
template <graph::GraphOracle Oracle>
PicassoResult solve_fused(const Oracle& oracle, const PicassoParams& params) {
  return detail::run_algorithm1(
      oracle.num_vertices(), params, "solve_fused", /*signatures=*/false,
      [&](const detail::Iteration& it) {
        return detail::fused_step<detail::OracleBatchTester<Oracle>>(
            it, params, oracle);
      });
}

/// Fused engine behind the Pauli entry points: the same oracle as
/// solve_pauli, driving solve_fused instead of the materialized pipeline.
PicassoResult solve_pauli_fused(const pauli::PauliSet& set,
                                const PicassoParams& params);

/// Streaming engine for spilled Pauli input: the spilled set is read back
/// chunk-wise through the budget-admission LRU cache, and bucket strike
/// scans test candidates through a pauli::PackedRecordProber, one kernel
/// call per chunk a batch touches — no conflict edges are ever staged.
/// Under very tight budgets chunks load on demand (the LRU absorbs the
/// locality that exists); the coloring stays bit-identical to the in-memory
/// engines throughout.
PicassoResult solve_pauli_chunked_fused(const pauli::ChunkedPauliReader& reader,
                                        const PicassoParams& params);

/// The in-memory fallback of a streamed plan whose spill device is full
/// (ENOSPC): solve_pauli_fused, flagged in PicassoResult::degraded.
PicassoResult solve_pauli_fused_after_enospc(const pauli::PauliSet& set,
                                            const PicassoParams& params);

/// Memory-budgeted Pauli engine. With no budget and no explicit chunk size
/// this is exactly solve_pauli_fused; when the encoded set takes more than
/// half the budget (or options.chunk_strings forces it) the set is spilled
/// to disk, colored by solve_pauli_chunked_fused, and the spill removed
/// afterwards (and on unwind) unless options.keep_spill. A full spill
/// device (ENOSPC) falls back to the in-memory solve and reports it in
/// PicassoResult::degraded. The coloring is bit-identical either way.
PicassoResult solve_pauli_budgeted_fused(const pauli::PauliSet& set,
                                         const PicassoParams& params,
                                         const StreamingOptions& options = {});

}  // namespace picasso::core
