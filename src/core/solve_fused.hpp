#pragma once
// Edge-free fused coloring engine.
//
// The materialized engines pay, per iteration, for a full conflict-graph
// build: every same-bucket pair is examined, the surviving edges are staged
// as COO partitions, counted, prefix-summed and scattered into a CSR — and
// telemetry shows that assembly (MemSubsystem::ConflictCsr) is the top
// peak-memory consumer of the whole pipeline. The fused engine never builds
// any of it. It runs the list-coloring schemes of core/list_coloring.hpp
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
//  * every strike scan compacts its bucket in place down to the live
//    entries (stable, so candidates stay ascending): colored vertices,
//    emptied lists and slots an earlier same-color neighbor struck all
//    leave, so the oracle never re-tests a pair whose strike could no
//    longer change a list, and only one bucket per vertex is ever scanned
//    instead of all L;
//  * candidate batches go through the blocked SIMD kernels (edge_block)
//    and, for large buckets, are slabbed over the PR-1 thread pool into
//    position-indexed hit slots — a pure function of the candidate array,
//    so the coloring is bit-identical across thread counts by construction.
//
// Bit-identity with the materialized engines is structural: the scheme
// bodies are the shared templates of core/list_coloring.hpp, and the fused
// strike enumerator feeds them the same affected set in the same ascending
// order as a CSR neighbor walk would (see the ForEachStrike contract there).
// The differential suite pins this across schemes, backends, budgets and
// thread counts.
//
// Iteration-stats caveat: the fused engine has no conflict-build phase, so
// IterationStats::conflict_seconds stays 0 (oracle time is folded into
// coloring_seconds). For the dynamic schemes conflict_edges (and the
// StrikeHits counter) counts list removals: exactly one per (vertex,
// color) a strike took out of a list. That is a lower bound of |Ec|:
// edges whose second endpoint was already colored, had emptied, or had
// already lost the color to another neighbor are never tested. The static
// schemes enumerate every neighbor, so there it is exactly |Ec|.
// conflicted_vertices counts the endpoints of the counted edges.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "core/conflict_graph.hpp"
#include "core/list_coloring.hpp"
#include "core/picasso.hpp"
#include "core/sketch.hpp"
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
/// first iteration is the largest (every term grows with the active count)
/// and holds, all at once: the color lists (nL colors + one signature word
/// per vertex), the (vertex, slot) index (nL entries + P + 1 offsets), and
/// the dynamic-bucket coloring state (one strike record per vertex, the
/// size-bucket vectors, the assignment array). Strike-scan scratch (5
/// bytes per entry of the largest bucket, the tester's 4-byte global ids
/// per candidate, one touched flag per vertex) is charged after the
/// coloring state is released and never exceeds it.
std::size_t projected_fused_bytes(std::uint32_t n, double palette_percent,
                                  double alpha);

namespace detail {

/// Progress cadence of the fused engine: one BucketScanned event per this
/// many strike scans (every scan still checks the stop token).
inline constexpr std::size_t kFusedProgressInterval = 256;

/// Work counters one fused iteration accumulates. The driver loop flushes
/// them into obs::global_metrics() once per iteration — a schedule-
/// independent boundary, so counter totals stay bit-identical across
/// thread counts.
struct FusedScanStats {
  std::uint64_t edges_struck = 0;  // list removals (confirmed live strikes)
  std::uint64_t pairs_tested = 0;  // candidates handed to the oracle
  std::uint64_t bucket_scans = 0;  // candidate-bucket scans issued
  // Sketch tier (zero unless params.sketch_prefilter engaged a
  // SupportSketchOracle): batch probes, whole-batch bloom dismissals, and
  // batches the bloom failed to dismiss although the exact kernel then
  // confirmed every candidate. All counted in the serial enumerator, so
  // they are bit-identical across thread counts and backends.
  std::uint64_t sketch_probes = 0;
  std::uint64_t sketch_hits = 0;
  std::uint64_t sketch_false_positives = 0;
};

/// Strike enumerator the shared scheme bodies drive (ForEachStrike
/// contract, list_coloring.hpp): candidates are the members of the
/// assigned color's bucket whose slot for it is still live (v itself is
/// retired by then), in ascending order; the Tester answers adjacency for
/// the whole batch; confirmed candidates are struck in candidate order with
/// the slot their packed entry carries. The scan compacts the bucket to
/// exactly the candidates' entries (kEnd-terminated when it shrinks), so
/// bucket entry i belongs to candidate i and the strike pass needs no
/// second array. One live-bit test drops colored vertices, emptied lists
/// and slots an earlier same-color neighbor struck; none of them can be
/// struck again, so the batches shrink while the strikes — and so every
/// coloring — stay what a full bucket walk would give. The compaction is
/// branch-free (store, then advance by the live bit) into scratch sized
/// once to the largest bucket. Checks the stop token at every bucket
/// boundary and reports progress every kFusedProgressInterval scans.
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
      live += work.live(u, index.slot(entry)) ? 1u : 0u;
    }
    if (live < size) bucket[live] = ColorIndex::kEnd;
    std::uint8_t* hits = hits_.data();
    if (live != 0) {
      (*tester_)(v, std::span<const std::uint32_t>(cands, live), hits);
      stats_->pairs_tested += live;
    }
    // The batch is spent: reuse it for the confirmed entries, gathered
    // branch-free, then strike them in candidate order.
    std::uint32_t confirmed = 0;
    for (std::uint32_t i = 0; i < live; ++i) {
      cands[confirmed] = bucket[i];
      confirmed += hits[i] != 0 ? 1u : 0u;
    }
    for (std::uint32_t k = 0; k < confirmed; ++k) {
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
      // Running strike count — the fused dynamic schemes build no CSR, so
      // this lower bound on |Ec| is what progress consumers get
      // mid-iteration (see ProgressEvent::conflict_edges).
      event.conflict_edges = stats_->edges_struck;
      params_->progress(event);
    }
  }

  std::size_t scans() const noexcept { return scans_; }

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

/// Neighbor enumerator for the static schemes (ForEachNeighbor contract):
/// v's conflict neighbors are found bucket by bucket over v's own list,
/// deduplicated at the smallest shared color exactly like the indexed
/// build, then batch-tested. Visits include already-colored neighbors (the
/// mark pass needs them), so nothing filters on `assigned` here. Every
/// vertex runs one pass, so each conflict edge is discovered from both
/// endpoints — counting it at the u < v discovery makes edges_struck
/// exactly |Ec| for static schemes (unlike the dynamic strikes' lower
/// bound).
template <typename Tester>
class FusedNeighborEnumerator {
 public:
  FusedNeighborEnumerator(const ColorLists& lists, const ColorIndex& index,
                          Tester& tester, const PicassoParams& params,
                          std::vector<std::uint8_t>& touched,
                          FusedScanStats& stats)
      : lists_(&lists),
        index_(&index),
        tester_(&tester),
        params_(&params),
        touched_(&touched),
        stats_(&stats) {}

  template <typename Visit>
  void operator()(std::uint32_t v, Visit&& visit) {
    throw_if_stopped(params_->stop);
    for (std::uint32_t c : lists_->list(v)) {
      ++stats_->bucket_scans;
      cands_.clear();
      const std::uint32_t lo = index_->offsets[c];
      const std::uint32_t hi = index_->offsets[c + 1];
      for (std::uint32_t i = lo; i < hi; ++i) {
        const std::uint32_t u = index_->vertex(index_->members[i]);
        if (u == v) continue;
        // Each (u, v) pair is examined once, at its smallest shared color.
        const std::uint32_t a = std::min(u, v);
        const std::uint32_t b = std::max(u, v);
        if (lists_->first_shared_color(a, b) != c) continue;
        cands_.push_back(u);
      }
      if (cands_.empty()) continue;
      hits_.resize(cands_.size());
      (*tester_)(v, std::span<const std::uint32_t>(cands_), hits_.data());
      stats_->pairs_tested += cands_.size();
      for (std::size_t i = 0; i < cands_.size(); ++i) {
        if (!hits_[i]) continue;
        const std::uint32_t u = cands_[i];
        if (v < u) ++stats_->edges_struck;
        (*touched_)[u] = 1;
        (*touched_)[v] = 1;
        visit(u);
      }
    }
  }

  std::size_t scratch_bytes() const noexcept {
    return cands_.capacity() * sizeof(std::uint32_t) + hits_.capacity();
  }

 private:
  const ColorLists* lists_;
  const ColorIndex* index_;
  Tester* tester_;
  const PicassoParams* params_;
  std::vector<std::uint8_t>* touched_;
  FusedScanStats* stats_;
  std::vector<std::uint32_t> cands_;
  std::vector<std::uint8_t> hits_;
};

/// Exact conflict-graph degrees without a CSR, for StaticLargestFirst:
/// every bucket's pairs, deduplicated at the smallest shared color, counted
/// into both endpoints through the tester (serial; the scheme is an
/// ablation path).
template <typename Tester>
std::vector<std::uint32_t> fused_conflict_degrees(std::uint32_t n,
                                                  const ColorLists& lists,
                                                  const ColorIndex& index,
                                                  std::uint32_t palette_size,
                                                  Tester& tester) {
  std::vector<std::uint32_t> degree(n, 0);
  std::vector<std::uint32_t> cands;
  std::vector<std::uint8_t> hits;
  for (std::uint32_t c = 0; c < palette_size; ++c) {
    const std::uint32_t lo = index.offsets[c];
    const std::uint32_t hi = index.offsets[c + 1];
    for (std::uint32_t a = lo; a < hi; ++a) {
      const std::uint32_t u = index.vertex(index.members[a]);
      cands.clear();
      for (std::uint32_t b = a + 1; b < hi; ++b) {
        const std::uint32_t v = index.vertex(index.members[b]);
        const std::uint32_t s = std::min(u, v);
        const std::uint32_t t = std::max(u, v);
        if (lists.first_shared_color(s, t) != c) continue;
        cands.push_back(v);
      }
      if (cands.empty()) continue;
      hits.resize(cands.size());
      tester(u, std::span<const std::uint32_t>(cands), hits.data());
      for (std::size_t i = 0; i < cands.size(); ++i) {
        if (hits[i]) {
          ++degree[u];
          ++degree[cands[i]];
        }
      }
    }
  }
  return degree;
}

/// Parallel twin of fused_conflict_degrees for thread-safe oracles: color
/// buckets are split into weight-balanced chunks (weight |S_c|^2, the
/// bucket's pair slots — the same balancer the materialized indexed build
/// uses) and run over the pool; counts land in atomic slots, whose sums are
/// schedule-independent.
template <graph::GraphOracle Oracle>
std::vector<std::uint32_t> fused_conflict_degrees_parallel(
    const Oracle& oracle, std::span<const std::uint32_t> active,
    const ColorLists& lists, const ColorIndex& index,
    std::uint32_t palette_size, const runtime::RuntimeConfig& rt) {
  const auto n = static_cast<std::uint32_t>(active.size());
  runtime::ThreadPool* pool = runtime::resolve_pool(rt, n);
  const unsigned workers = pool != nullptr ? pool->num_workers() : 1;
  const auto chunks = plan_conflict_chunks(ConflictKernel::Indexed, n, &index,
                                           palette_size, rt, workers);
  std::vector<std::atomic<std::uint32_t>> degree(n);
  runtime::run_chunks(pool, chunks, [&](const runtime::ChunkRange& chunk) {
    enumerate_indexed_range(oracle, active, lists, index,
                            static_cast<std::uint32_t>(chunk.begin),
                            static_cast<std::uint32_t>(chunk.end),
                            [&degree](std::uint32_t u, std::uint32_t v) {
                              degree[u].fetch_add(1, std::memory_order_relaxed);
                              degree[v].fetch_add(1, std::memory_order_relaxed);
                            });
  });
  std::vector<std::uint32_t> out(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    out[v] = degree[v].load(std::memory_order_relaxed);
  }
  return out;
}

/// In-memory candidate tester: maps candidates to oracle (global) ids and
/// answers through edge_block when the oracle supports it (kBlockScanBatch
/// sub-batches keep the id spans in L1), per-pair otherwise. Batches at or
/// above `parallel_cutoff` candidates are slabbed over the pool into
/// disjoint, position-indexed slices of the hit array — which thread runs a
/// slice is unobservable, so fused colorings never depend on thread count.
template <ConflictOracle Oracle>
class OracleBatchTester {
 public:
  OracleBatchTester(const Oracle& oracle, std::span<const std::uint32_t> active,
                    runtime::ThreadPool* pool, std::uint32_t parallel_cutoff)
      : oracle_(&oracle),
        active_(active),
        pool_(pool),
        parallel_cutoff_(std::max<std::uint32_t>(1, parallel_cutoff)) {}

  void operator()(std::uint32_t v, std::span<const std::uint32_t> cands,
                  std::uint8_t* hits) {
    global_.resize(cands.size());
    for (std::size_t i = 0; i < cands.size(); ++i) {
      global_[i] = active_[cands[i]];
    }
    const std::uint32_t gu = active_[v];
    if constexpr (BlockConflictOracle<Oracle>) {
      // Logical batch count: the physical call count shifts with pool slab
      // boundaries, so the dispatch counter charges ceil(|cands| / batch)
      // — the serial batching — to stay bit-identical across threads.
      obs::count(edge_block_counter(*oracle_),
                 (cands.size() + kBlockScanBatch - 1) / kBlockScanBatch);
    }
    auto test_range = [&](std::size_t lo, std::size_t hi) {
      if constexpr (BlockConflictOracle<Oracle>) {
        for (std::size_t b = lo; b < hi; b += kBlockScanBatch) {
          const std::size_t len = std::min(kBlockScanBatch, hi - b);
          oracle_->edge_block(gu, global_.data() + b, len, hits + b);
        }
      } else {
        for (std::size_t i = lo; i < hi; ++i) {
          hits[i] = oracle_->edge(gu, global_[i]) ? 1 : 0;
        }
      }
    };
    if (pool_ != nullptr && cands.size() >= parallel_cutoff_) {
      runtime::parallel_for_chunks(pool_, 0, cands.size(), 0,
                                   [&](const runtime::ChunkRange& chunk) {
                                     test_range(chunk.begin, chunk.end);
                                   });
    } else {
      test_range(0, cands.size());
    }
  }

  std::size_t scratch_bytes() const noexcept {
    return global_.capacity() * sizeof(std::uint32_t);
  }

 private:
  const Oracle* oracle_;
  std::span<const std::uint32_t> active_;
  runtime::ThreadPool* pool_;
  std::uint32_t parallel_cutoff_;
  std::vector<std::uint32_t> global_;
};

/// Sketch-prefiltered wrapper over an exact batch tester, for complement
/// oracles only: if v's support bloom is disjoint from EVERY candidate's
/// bloom, the supports are provably disjoint, disjoint supports commute,
/// and commuting pairs are complement edges — so the whole batch is marked
/// all-conflict without running the exact kernel. Overlapping blooms prove
/// nothing and fall through to the exact tester, so every answer this
/// wrapper gives matches the exact tester bit for bit; only the kernel-
/// dispatch counters (EdgeBlockCalls*) shrink. Runs in the serial scheme
/// body, so the sketch counters are schedule-independent.
template <typename Inner>
class SketchedBatchTester {
 public:
  SketchedBatchTester(Inner& inner, const SupportBlooms& blooms,
                      FusedScanStats& stats)
      : inner_(&inner), blooms_(&blooms), stats_(&stats) {}

  void operator()(std::uint32_t v, std::span<const std::uint32_t> cands,
                  std::uint8_t* hits) {
    ++stats_->sketch_probes;
    const std::uint32_t* bv = blooms_->row(v);
    const std::size_t b = blooms_->words;
    std::uint32_t acc = 0;
    for (std::size_t i = 0; i < cands.size() && acc == 0; ++i) {
      const std::uint32_t* bu = blooms_->row(cands[i]);
      for (std::size_t k = 0; k < b; ++k) acc |= bv[k] & bu[k];
    }
    if (acc == 0) {
      std::fill(hits, hits + cands.size(), std::uint8_t{1});
      ++stats_->sketch_hits;
      return;
    }
    (*inner_)(v, cands, hits);
    bool all_edges = true;
    for (std::size_t i = 0; i < cands.size(); ++i) {
      all_edges &= hits[i] != 0;
    }
    // The batch was in fact all-conflict but the bloom could not prove it —
    // a (measured) false positive of the one-sided filter.
    if (all_edges) ++stats_->sketch_false_positives;
  }

  std::size_t scratch_bytes() const noexcept {
    return inner_->scratch_bytes();
  }

 private:
  Inner* inner_;
  const SupportBlooms* blooms_;
  FusedScanStats* stats_;
};

/// One fused iteration: dispatches the scheme over the shared bodies with
/// the fused enumerators. `rng` must be the same coloring RNG the
/// materialized driver would hand color_conflict_graph. The dynamic schemes
/// compact `index` as they go, so it is spent once this returns.
template <typename Tester, typename DegreeFn>
ListColoringResult fused_color_iteration(
    std::uint32_t n_active, const ColorLists& lists, ColorIndex& index,
    ConflictColoringScheme scheme, util::Xoshiro256& rng, Tester& tester,
    const PicassoParams& params, int iteration, std::uint32_t palette_size,
    DegreeFn&& degree_fn, FusedScanStats& scan_stats,
    std::uint32_t& conflicted_out, std::size_t& scratch_bytes_out) {
  std::vector<std::uint8_t> touched(n_active, 0);
  ListColoringResult colored;
  switch (scheme) {
    case ConflictColoringScheme::DynamicBucket: {
      FusedStrikeEnumerator<Tester> strikes(index, tester, params, iteration,
                                            n_active, touched, scan_stats);
      colored = color_lists_dynamic(n_active, lists, rng, strikes,
                                    palette_size);
      scratch_bytes_out = strikes.scratch_bytes();
      break;
    }
    case ConflictColoringScheme::DynamicHeap: {
      FusedStrikeEnumerator<Tester> strikes(index, tester, params, iteration,
                                            n_active, touched, scan_stats);
      colored = color_lists_heap(n_active, lists, rng, strikes, palette_size);
      scratch_bytes_out = strikes.scratch_bytes();
      break;
    }
    default: {
      // Static schemes: the dispatcher draws the order seed from the
      // coloring RNG exactly like color_conflict_graph does.
      std::vector<std::uint32_t> degrees;
      if (scheme == ConflictColoringScheme::StaticLargestFirst) {
        degrees = degree_fn();
      }
      FusedNeighborEnumerator<Tester> neighbors(lists, index, tester, params,
                                                touched, scan_stats);
      colored = color_lists_static(
          n_active, lists, scheme, rng(),
          [&degrees](std::uint32_t v) { return degrees[v]; }, neighbors);
      scratch_bytes_out =
          neighbors.scratch_bytes() + degrees.capacity() * sizeof(std::uint32_t);
      break;
    }
  }
  std::uint32_t conflicted = 0;
  for (std::uint8_t t : touched) conflicted += t;
  conflicted_out = conflicted;
  return colored;
}

/// The shared driver scaffold of both fused engines (the in-memory oracle
/// one below and the chunked streaming one in solve_fused.cpp): the whole
/// Algorithm-1 loop — palette, lists, inverted index, charges, frontier
/// compaction, stats, progress, tail and telemetry capture — lives here
/// exactly once, so the two engines can only differ in how one iteration's
/// candidates are tested. `color_iteration(active, lists, index, palette,
/// rng, iteration, scan_stats, conflicted, scan_scratch)` colors one
/// iteration (through fused_color_iteration with an engine-specific
/// tester) and returns its ListColoringResult, adding any tester scratch
/// into scan_scratch. `span_name` labels the root trace span ("solve_fused"
/// vs "solve_fused_streaming").
template <typename ColorIteration>
PicassoResult solve_fused_loop(std::uint32_t n, const PicassoParams& params,
                               const char* span_name,
                               ColorIteration&& color_iteration) {
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

    ColorLists lists;
    {
      obs::ScopedPhase acc(params.trace, "assign_lists", stats.assign_seconds);
      lists = assign_random_lists(stats.n_active, palette, params.seed,
                                  static_cast<std::uint64_t>(iteration));
    }
    // Under the sketch prefilter the dynamic schemes never consult the
    // one-word palette signatures (their strike path is bucket-indexed, and
    // share_color falls back to the exact merge), so drop them before the
    // charge — the budget-sized support blooms take their place, and at the
    // default one-word bloom the iteration footprint shrinks by 4 bytes per
    // active vertex net.
    if (params.sketch_prefilter &&
        (params.conflict_scheme == ConflictColoringScheme::DynamicBucket ||
         params.conflict_scheme == ConflictColoringScheme::DynamicHeap)) {
      lists.drop_signatures();
    }
    util::ScopedCharge lists_charge(util::MemSubsystem::PaletteLists,
                                    lists.logical_bytes(), memory);

    // The fused frontier: the color -> (vertex, slot) inverted index is the
    // only per-iteration structure beyond the lists themselves — where the
    // materialized engines stage COO partitions and a CSR, this engine
    // holds nL + P + 1 words, period. Strike scans compact it in place.
    ColorIndex index = build_color_index(lists, palette.palette_size);
    util::ScopedCharge index_charge(
        util::MemSubsystem::FusedFrontier,
        index.offsets.capacity() * sizeof(std::uint32_t) +
            index.members.capacity() * sizeof(std::uint32_t),
        memory);

    FusedScanStats scan_stats;
    std::uint32_t conflicted = 0;
    std::size_t scan_scratch = 0;
    ListColoringResult colored;
    {
      obs::ScopedPhase acc(params.trace, "coloring", stats.coloring_seconds);
      colored = color_iteration(std::span<const std::uint32_t>(active), lists,
                                index, palette, coloring_rng, iteration,
                                scan_stats, conflicted, scan_scratch);
    }
    memory.record_external_peak(util::MemSubsystem::ColoringAux,
                                colored.aux_peak_bytes);
    // Fold the scan scratch + touched flags into the live index charge (a
    // resize, not an external peak: the index bytes are already counted in
    // the registry's current level, so adding them again would double-count
    // the total peak).
    const std::size_t index_bytes = index_charge.bytes();
    index_charge.resize(index_bytes + scan_scratch + stats.n_active);
    stats.conflict_edges = scan_stats.edges_struck;
    stats.conflicted_vertices = conflicted;

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
    stats.logical_bytes = lists.logical_bytes() + index_charge.bytes() +
                          colored.aux_peak_bytes +
                          active.capacity() * sizeof(std::uint32_t);

    // Per-iteration counter flush (the testers only count their kernel
    // dispatches; all pair/strike accounting funnels through scan_stats).
    obs::count(obs::Counter::OraclePairEvals, scan_stats.pairs_tested);
    obs::count(obs::Counter::StrikeHits, scan_stats.edges_struck);
    obs::count(obs::Counter::BucketStrikeScans, scan_stats.bucket_scans);
    obs::count(obs::Counter::RecolorEvents, stats.uncolored);
    obs::count(obs::Counter::SketchProbes, scan_stats.sketch_probes);
    obs::count(obs::Counter::SketchHits, scan_stats.sketch_hits);
    obs::count(obs::Counter::SketchFalsePositives,
               scan_stats.sketch_false_positives);

    result.iterations.push_back(stats);
    result.assign_seconds += stats.assign_seconds;
    result.coloring_seconds += stats.coloring_seconds;
    result.max_conflict_edges =
        std::max(result.max_conflict_edges, stats.conflict_edges);
    result.peak_logical_bytes =
        std::max(result.peak_logical_bytes, stats.logical_bytes);

    report_iteration(params.progress, iteration, stats.n_active,
                     stats.colored, stats.uncolored, stats.conflict_edges);

    base_color += palette.palette_size;
    active = std::move(next_active);
    ++iteration;
  }

  if (!active.empty()) {
    result.converged = false;
    for (std::uint32_t v : active) result.colors[v] = base_color++;
  }
  result.palette_total = base_color;
  result.num_colors =
      count_palette_colors(result.colors, result.palette_total);
  result.total_seconds = total_timer.seconds();
  memory.record_external_peak(util::MemSubsystem::Arena,
                              runtime::thread_arena_peak_total());
  result.memory = MemoryReport::capture(memory.snapshot());
  return result;
}

}  // namespace detail

/// The edge-free fused engine over any adjacency oracle: identical
/// colorings to solve_oracle (deterministic mode), no ConflictCsr charge,
/// and strictly less oracle work — only pairs (colored vertex, same-bucket
/// member whose slot for the color is still live) are ever examined.
template <graph::GraphOracle Oracle>
PicassoResult solve_fused(const Oracle& oracle, const PicassoParams& params) {
  return detail::solve_fused_loop(
      oracle.num_vertices(), params, "solve_fused",
      [&](std::span<const std::uint32_t> active, const ColorLists& lists,
          detail::ColorIndex& index, const IterationPalette& palette,
          util::Xoshiro256& rng, int iteration,
          detail::FusedScanStats& scan_stats, std::uint32_t& conflicted,
          std::size_t& scan_scratch) {
        const auto n_active = static_cast<std::uint32_t>(active.size());
        runtime::ThreadPool* pool =
            runtime::resolve_pool(params.runtime, n_active);
        detail::OracleBatchTester<Oracle> exact(oracle, active, pool,
                                                params.runtime.serial_cutoff);
        auto run_with = [&](auto& tester) {
          ListColoringResult colored = detail::fused_color_iteration(
              n_active, lists, index, params.conflict_scheme, rng, tester,
              params, iteration, palette.palette_size,
              [&] {
                return detail::fused_conflict_degrees_parallel(
                    oracle, active, lists, index, palette.palette_size,
                    params.runtime);
              },
              scan_stats, conflicted, scan_scratch);
          scan_scratch += exact.scratch_bytes();
          return colored;
        };
        if constexpr (graph::SupportSketchOracle<Oracle>) {
          if (params.sketch_prefilter) {
            // Per-iteration blooms over the shrinking active set: row i is
            // the OR-folded support of active[i], sized off the params
            // budget (never the registry's live headroom — sketch width
            // must be a pure function of the inputs for determinism).
            const std::size_t b = sketch_bloom_words(
                oracle.support_fold_words(), params, n_active);
            const SupportBlooms blooms(oracle, active, b);
            util::ScopedCharge bloom_charge(util::MemSubsystem::SketchSigs,
                                            blooms.logical_bytes());
            detail::SketchedBatchTester<detail::OracleBatchTester<Oracle>>
                tester(exact, blooms, scan_stats);
            return run_with(tester);
          }
        }
        return run_with(exact);
      });
}

/// Fused engine behind the Pauli entry points: same backend dispatch as
/// solve_pauli, driving solve_fused instead of the materialized pipeline.
PicassoResult solve_pauli_fused(const pauli::PauliSet& set,
                                const PicassoParams& params);

/// Streaming twin of solve_pauli_chunked: the spilled set is still read
/// back chunk-wise through the budget-admission LRU caches, but bucket
/// strike scans replace the chunk-pair COO/CSR assembly — candidates are
/// grouped by owning chunk (active ids are ascending, so groups are
/// contiguous runs) and answered against the pinned chunk records, so
/// budgeted solves skip CSR assembly too. Under very tight budgets this
/// trades the materialized engine's k^2/2 ordered chunk scans for
/// demand-driven chunk loads (the LRU absorbs the locality that exists);
/// the coloring stays bit-identical throughout.
PicassoResult solve_pauli_chunked_fused(const pauli::ChunkedPauliReader& reader,
                                        const PicassoParams& params);

/// Budgeted wrapper around the fused chunked engine — same spill lifecycle
/// as solve_pauli_budgeted (falls back to the in-memory fused engine when
/// nothing forces streaming).
PicassoResult solve_pauli_budgeted_fused(const pauli::PauliSet& set,
                                         const PicassoParams& params,
                                         const StreamingOptions& options = {});

}  // namespace picasso::core
