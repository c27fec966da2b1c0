#pragma once
// Conflict-graph construction (Algorithm 1, Line 7; §IV-A; §V).
//
// An edge {u, v} of the (implicit) graph is *conflicted* when the two color
// lists intersect. Only conflicted edges are ever materialised — this is the
// entire memory story of the paper: the conflict graph is expected to be
// O(n log^3 n) edges (Lemma 2) while the input graph has Θ(n^2).
//
// Two kernels produce identical edge sets:
//  * Reference: scan all n(n-1)/2 pairs, check list intersection then the
//    oracle. This mirrors the paper's GPU kernel (one thread per pair) and
//    the character-comparison CPU baseline of Table V.
//  * Indexed: invert the lists into a color -> vertices index; only pairs
//    sharing at least one color are examined, each exactly once (at its
//    smallest shared color). Expected work Σ_c |S_c|^2 (L + oracle) — the
//    optimised path that stands in for the paper's accelerated build.
//
// Either kernel can route its output through the simulated device pipeline
// of Algorithm 3 (device/device_conflict.hpp).

#include <cstdint>
#include <span>
#include <vector>

#include "core/conflict_oracle.hpp"
#include "core/palette.hpp"
#include "device/device_conflict.hpp"
#include "graph/csr_graph.hpp"
#include "graph/oracles.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/runtime_config.hpp"
#include "runtime/thread_pool.hpp"
#include "util/memory.hpp"
#include "util/prefix_sum.hpp"
#include "util/timer.hpp"

namespace picasso::core {

enum class ConflictKernel {
  Reference,  // all-pairs (GPU-kernel mirror / unencoded CPU baseline)
  Indexed,    // color-inverted-index fast path
  Auto,       // Indexed when lists are sparse in the palette, else Reference
};

/// Relative per-examined-pair cost of the indexed kernel when the oracle is
/// block-capable (edge_block). The reference scan answers its survivors
/// through the batched SIMD kernel (~4-8x cheaper per pair at the kernel
/// level, bench_ablation_kernels part 2), while the indexed kernel's dedup
/// runs a per-pair list merge plus a per-pair oracle call it cannot batch —
/// so with a packed backend the index must win by a wider margin before it
/// beats the all-pairs scan.
inline constexpr std::uint64_t kBlockedOraclePairCost = 4;

/// Cost model for Auto: the indexed kernel examines ~n^2 L^2 / (2P) pair
/// slots, the reference kernel n^2/2 — the index only pays off while
/// c * L^2 < P, where c is the indexed kernel's per-pair cost relative to
/// the reference scan's (1 for per-pair oracles, kBlockedOraclePairCost for
/// block-capable SIMD oracles, whose batched answers make reference slots
/// cheaper). In the aggressive regime (L ~ P) every vertex sits in every
/// color bucket and the index degenerates, so Auto falls back to the
/// all-pairs scan there. The conflict builders pass `blocked_oracle` from
/// the oracle's static capability, which is how the Pauli backend choice
/// (PauliBackend::Packed vs Scalar) reaches the heuristic.
constexpr ConflictKernel resolve_kernel(ConflictKernel kernel,
                                        std::uint32_t palette_size,
                                        std::uint32_t list_size,
                                        bool blocked_oracle = false) noexcept {
  if (kernel != ConflictKernel::Auto) return kernel;
  const std::uint64_t cost =
      static_cast<std::uint64_t>(list_size) * list_size *
      (blocked_oracle ? kBlockedOraclePairCost : 1);
  return cost >= palette_size ? ConflictKernel::Reference
                              : ConflictKernel::Indexed;
}

const char* to_string(ConflictKernel k) noexcept;

struct ConflictBuildResult {
  /// Conflict graph over local indices [0, active.size()); vertices with
  /// degree 0 are the *unconflicted* vertices of Algorithm 1 Line 8.
  graph::CsrGraph graph;
  std::uint64_t num_edges = 0;
  std::uint32_t num_conflicted_vertices = 0;  // |Vc|
  double seconds = 0.0;
  std::size_t logical_bytes = 0;
  bool csr_built_on_device = false;
};

namespace detail {

/// Emits the conflicted edges with first endpoint in [u_lo, u_hi) — one slab
/// of the all-pairs scan. The full scan and every parallel chunk run this
/// same loop body, so the partitioned build cannot drift from the serial one.
/// Block-capable oracles (core/conflict_oracle.hpp) go through the blocked
/// pair-scan — palette signatures and list merge first, surviving candidates
/// batched per oracle call — which emits the identical edge stream in the
/// identical (ascending v) order, so the CSR and the coloring cannot differ.
template <graph::GraphOracle Oracle, typename Emit>
void enumerate_reference_range(const Oracle& oracle,
                               std::span<const std::uint32_t> active,
                               const ColorLists& lists, std::uint32_t u_lo,
                               std::uint32_t u_hi, Emit&& emit) {
  const auto n = static_cast<std::uint32_t>(active.size());
  if constexpr (BlockConflictOracle<Oracle>) {
    BlockScanBuffers buf;
    buf.reserve(kBlockScanBatch);
    for (std::uint32_t u = u_lo; u < u_hi; ++u) {
      blocked_row_scan(oracle, active, lists, u, u + 1, n, emit, buf);
    }
  } else {
    for (std::uint32_t u = u_lo; u < u_hi; ++u) {
      std::uint64_t evals = 0;  // flushed per row: schedule-independent
      for (std::uint32_t v = u + 1; v < n; ++v) {
        if (!lists.share_color(u, v)) continue;
        ++evals;
        if (oracle.edge(active[u], active[v])) emit(u, v);
      }
      obs::count(obs::Counter::OraclePairEvals, evals);
    }
  }
}

/// Emits every conflicted edge exactly once (u < v, local ids), by scanning
/// all pairs. Emit must accept (u32, u32).
template <graph::GraphOracle Oracle, typename Emit>
void enumerate_reference(const Oracle& oracle,
                         std::span<const std::uint32_t> active,
                         const ColorLists& lists, Emit&& emit) {
  enumerate_reference_range(oracle, active, lists, 0,
                            static_cast<std::uint32_t>(active.size()),
                            std::forward<Emit>(emit));
}

/// Inverted index: bucket c holds one entry per vertex u whose list has
/// color c, ascending in u. An entry packs (u << slot_bits) | k, where k is
/// c's slot in u's sorted list, so a consumer that strikes c from u clears
/// list bit k directly instead of searching u's list for c. The fused strike
/// scan compacts buckets in place; kEnd then ends a bucket that has shrunk
/// below its offsets range. Packing is why n << slot_bits must stay below
/// 2^32 (see color_index_slot_bits). The cap holds for every index user,
/// the materialized Indexed kernel included: since 2^slot_bits < 2L, it
/// admits up to ~2x fewer vertices than the n*L < 2^32 an unpacked index
/// would.
struct ColorIndex {
  std::vector<std::uint32_t> offsets;  // size P+1
  std::vector<std::uint32_t> members;  // size n*L packed entries, by color
  std::uint32_t slot_bits = 0;         // bit_width(L - 1)

  static constexpr std::uint32_t kEnd = 0xffffffffu;

  std::uint32_t vertex(std::uint32_t entry) const noexcept {
    return entry >> slot_bits;
  }
  std::uint32_t slot(std::uint32_t entry) const noexcept {
    return entry & ((std::uint32_t{1} << slot_bits) - 1);
  }
};

/// Slot width s = bit_width(L - 1) of a packed index over n vertices with
/// lists of L. Throws std::length_error unless every entry, at most
/// (n << s) - 1, fits in 32 bits with kEnd left free — which also keeps the
/// n*L entry count inside the uint32 offsets.
std::uint32_t color_index_slot_bits(std::uint32_t n, std::uint32_t list_size);

ColorIndex build_color_index(const ColorLists& lists,
                             std::uint32_t palette_size);

/// Emits the conflicted edges owned by color buckets [c_lo, c_hi) of a
/// prebuilt index. Ownership (dedup at the smallest shared color) is a
/// per-color property, so disjoint color ranges emit disjoint edge sets and
/// any partition of [0, P) covers every edge exactly once.
template <graph::GraphOracle Oracle, typename Emit>
void enumerate_indexed_range(const Oracle& oracle,
                             std::span<const std::uint32_t> active,
                             const ColorLists& lists, const ColorIndex& index,
                             std::uint32_t c_lo, std::uint32_t c_hi,
                             Emit&& emit) {
  for (std::uint32_t c = c_lo; c < c_hi; ++c) {
    const std::uint32_t lo = index.offsets[c];
    const std::uint32_t hi = index.offsets[c + 1];
    std::uint64_t evals = 0;  // flushed per bucket: schedule-independent
    for (std::uint32_t a = lo; a < hi; ++a) {
      for (std::uint32_t b = a + 1; b < hi; ++b) {
        // Buckets ascend in u, so the a-th member is the smaller endpoint.
        const std::uint32_t u = index.vertex(index.members[a]);
        const std::uint32_t v = index.vertex(index.members[b]);
        // Deduplicate: this pair belongs to color c's bucket for every
        // shared color; only the smallest one reports it.
        if (lists.first_shared_color(u, v) != c) continue;
        ++evals;
        if (oracle.edge(active[u], active[v])) emit(u, v);
      }
    }
    obs::count(obs::Counter::OraclePairEvals, evals);
  }
}

/// Emits every conflicted edge exactly once using the inverted index: a
/// pair is examined within each shared color's bucket but emitted only at
/// its smallest shared color.
template <graph::GraphOracle Oracle, typename Emit>
void enumerate_indexed(const Oracle& oracle,
                       std::span<const std::uint32_t> active,
                       const ColorLists& lists, std::uint32_t palette_size,
                       Emit&& emit) {
  const ColorIndex index = build_color_index(lists, palette_size);
  enumerate_indexed_range(oracle, active, lists, index, 0, palette_size,
                          std::forward<Emit>(emit));
}

/// Merges COO partitions into the conflict CSR: per-vertex degree counts,
/// offsets via the existing util prefix sum, then the same sorted-row
/// scatter the device path uses. This is the *only* COO -> CSR assembly in
/// the host build — serial and parallel paths both land here, so their
/// bit-identity cannot drift.
inline graph::CsrGraph csr_from_partitions(
    std::uint32_t n, std::vector<std::vector<std::uint32_t>> parts) {
  std::vector<std::uint64_t> counts(n, 0);
  std::uint64_t num_edges = 0;
  for (const auto& part : parts) {
    num_edges += part.size() / 2;
    for (std::size_t i = 0; i < part.size(); ++i) ++counts[part[i]];
  }
  // The transient assembly arrays are the conflict build's true high-water
  // mark (one COO copy + offsets + the CSR rows, all live at once during
  // the scatter); charge them so the telemetry sees the spike, not just the
  // surviving CSR.
  util::ScopedCharge assembly_charge(
      util::MemSubsystem::ConflictCsr,
      (2 * n + 2) * sizeof(std::uint64_t) +
          4 * num_edges * sizeof(std::uint32_t));
  std::vector<std::uint64_t> offsets = util::offsets_from_counts(counts);
  std::vector<std::uint32_t> coo;
  coo.reserve(2 * num_edges);
  for (auto& part : parts) {
    coo.insert(coo.end(), part.begin(), part.end());
    part = {};  // free each partition as it is folded in: peak stays ~one
                // COO copy plus the CSR, not two copies plus the CSR
  }
  std::vector<std::uint32_t> neighbors(2 * num_edges);
  device::fill_csr(offsets, coo.data(), num_edges, neighbors.data());
  return graph::CsrGraph::from_csr(std::move(offsets), std::move(neighbors));
}

/// Builds a CSR conflict graph on the host from an edge enumerator (the
/// serial path: one partition holding the whole emission order).
template <typename EnumerateFn>
graph::CsrGraph csr_from_enumerator(std::uint32_t n, EnumerateFn&& enumerate) {
  std::vector<std::vector<std::uint32_t>> parts(1);
  enumerate([&parts](std::uint32_t u, std::uint32_t v) {
    parts[0].push_back(u);
    parts[0].push_back(v);
  });
  return csr_from_partitions(n, std::move(parts));
}

inline std::uint32_t count_conflicted(const graph::CsrGraph& g) {
  std::uint32_t count = 0;
  for (std::uint32_t v = 0; v < g.num_vertices(); ++v) {
    count += g.degree(v) > 0 ? 1 : 0;
  }
  return count;
}

/// Work-balanced chunk plan for a kernel: slabs of the triangular u-loop for
/// Reference (weight of u is its pair count n-1-u), color-bucket ranges for
/// Indexed (weight of c is |S_c|^2, the bucket's pair slots). An explicit
/// RuntimeConfig::chunk_size overrides the balancer with uniform ranges.
inline std::vector<runtime::ChunkRange> plan_conflict_chunks(
    ConflictKernel kernel, std::uint32_t n, const ColorIndex* index,
    std::uint32_t palette_size, const runtime::RuntimeConfig& rt,
    unsigned workers) {
  const std::uint32_t domain =
      kernel == ConflictKernel::Reference ? n : palette_size;
  if (rt.chunk_size > 0) {
    return runtime::uniform_chunks(0, domain, rt.chunk_size, workers);
  }
  std::vector<std::uint64_t> weights(domain);
  if (kernel == ConflictKernel::Reference) {
    for (std::uint32_t u = 0; u < n; ++u) weights[u] = n - 1 - u;
  } else {
    for (std::uint32_t c = 0; c < palette_size; ++c) {
      const std::uint64_t bucket = index->offsets[c + 1] - index->offsets[c];
      weights[c] = bucket * bucket;
    }
  }
  return runtime::balanced_chunks(weights, std::size_t{workers} * 4);
}

/// Runs the enumeration chunked over the pool. `init(num_chunks)` is called
/// once (before any chunk runs) so the caller can size per-chunk output
/// slots; `make_emit(chunk)` then produces each chunk's emit callback. Each
/// chunk's emissions are the exact restriction of the serial enumeration to
/// its domain, so replaying chunk outputs in chunk order reproduces the
/// serial emission order — the parallel build's determinism rests on this
/// plus the canonical (sorted-row) CSR assembly.
template <graph::GraphOracle Oracle, typename Init, typename MakeEmit>
void enumerate_conflicts_chunked(runtime::ThreadPool* pool,
                                 const Oracle& oracle,
                                 std::span<const std::uint32_t> active,
                                 const ColorLists& lists,
                                 std::uint32_t palette_size,
                                 ConflictKernel kernel,
                                 const runtime::RuntimeConfig& rt, Init&& init,
                                 MakeEmit&& make_emit) {
  const auto n = static_cast<std::uint32_t>(active.size());
  const unsigned workers = pool != nullptr ? pool->num_workers() : 1;
  ColorIndex index;
  if (kernel == ConflictKernel::Indexed) {
    index = build_color_index(lists, palette_size);
  }
  const auto chunks =
      plan_conflict_chunks(kernel, n, &index, palette_size, rt, workers);
  init(chunks.size());
  runtime::run_chunks(pool, chunks, [&](const runtime::ChunkRange& chunk) {
    auto emit = make_emit(chunk);
    if (kernel == ConflictKernel::Reference) {
      enumerate_reference_range(oracle, active, lists,
                                static_cast<std::uint32_t>(chunk.begin),
                                static_cast<std::uint32_t>(chunk.end), emit);
    } else {
      enumerate_indexed_range(oracle, active, lists, index,
                              static_cast<std::uint32_t>(chunk.begin),
                              static_cast<std::uint32_t>(chunk.end), emit);
    }
  });
}

/// Chunked enumeration into one COO partition per chunk.
template <graph::GraphOracle Oracle>
std::vector<std::vector<std::uint32_t>> enumerate_conflicts_partitioned(
    runtime::ThreadPool* pool, const Oracle& oracle,
    std::span<const std::uint32_t> active, const ColorLists& lists,
    std::uint32_t palette_size, ConflictKernel kernel,
    const runtime::RuntimeConfig& rt) {
  std::vector<std::vector<std::uint32_t>> parts;
  enumerate_conflicts_chunked(
      pool, oracle, active, lists, palette_size, kernel, rt,
      [&parts](std::size_t num_chunks) { parts.resize(num_chunks); },
      [&parts](const runtime::ChunkRange& chunk) {
        std::vector<std::uint32_t>* coo = &parts[chunk.index];
        return [coo](std::uint32_t u, std::uint32_t v) {
          coo->push_back(u);
          coo->push_back(v);
        };
      });
  return parts;
}

}  // namespace detail

/// Host conflict-graph construction with the selected kernel. The runtime
/// config picks serial vs pool-parallel; with `deterministic = true` (the
/// default) the two produce bit-identical CSRs — partitions restrict the
/// serial loops, merge order is fixed, and row assembly is canonical.
template <graph::GraphOracle Oracle>
ConflictBuildResult build_conflict_graph(
    const Oracle& oracle, std::span<const std::uint32_t> active,
    const ColorLists& lists, std::uint32_t palette_size, ConflictKernel kernel,
    const runtime::RuntimeConfig& rt = {}) {
  util::WallTimer timer;
  ConflictBuildResult result;
  const auto n = static_cast<std::uint32_t>(active.size());
  kernel = resolve_kernel(kernel, palette_size, lists.list_size(),
                          BlockConflictOracle<Oracle>);
  runtime::ThreadPool* pool = runtime::resolve_pool(rt, n);
  if (pool != nullptr) {
    auto parts = detail::enumerate_conflicts_partitioned(
        pool, oracle, active, lists, palette_size, kernel, rt);
    result.graph = detail::csr_from_partitions(n, std::move(parts));
  } else {
    auto run = [&](auto&& enumerate) {
      result.graph = detail::csr_from_enumerator(
          n, std::forward<decltype(enumerate)>(enumerate));
    };
    if (kernel == ConflictKernel::Reference) {
      run([&](auto&& emit) {
        detail::enumerate_reference(oracle, active, lists,
                                    std::forward<decltype(emit)>(emit));
      });
    } else {
      run([&](auto&& emit) {
        detail::enumerate_indexed(oracle, active, lists, palette_size,
                                  std::forward<decltype(emit)>(emit));
      });
    }
  }
  result.num_edges = result.graph.num_edges();
  result.num_conflicted_vertices = detail::count_conflicted(result.graph);
  result.logical_bytes = result.graph.logical_bytes();
  result.seconds = timer.seconds();
  return result;
}

/// Device-pipeline conflict-graph construction (Algorithm 3): same edge
/// set, but the COO buffer, counters and (if they fit) the CSR arrays are
/// charged against the device budget.
template <graph::GraphOracle Oracle>
ConflictBuildResult build_conflict_graph_device(
    device::DeviceContext& ctx, const Oracle& oracle,
    std::span<const std::uint32_t> active, const ColorLists& lists,
    std::uint32_t palette_size, ConflictKernel kernel) {
  util::WallTimer timer;
  ConflictBuildResult result;
  const auto n = static_cast<std::uint32_t>(active.size());
  const std::uint64_t worst_case =
      static_cast<std::uint64_t>(n) * (n > 0 ? n - 1 : 0) / 2;
  kernel = resolve_kernel(kernel, palette_size, lists.list_size(),
                          BlockConflictOracle<Oracle>);
  device::DeviceCsrResult dres;
  if (kernel == ConflictKernel::Reference) {
    dres = device::build_conflict_csr(ctx, n, worst_case, [&](auto&& emit) {
      detail::enumerate_reference(oracle, active, lists,
                                  std::forward<decltype(emit)>(emit));
    });
  } else {
    dres = device::build_conflict_csr(ctx, n, worst_case, [&](auto&& emit) {
      detail::enumerate_indexed(oracle, active, lists, palette_size,
                                std::forward<decltype(emit)>(emit));
    });
  }
  result.graph = std::move(dres.graph);
  result.num_edges = dres.num_edges;
  result.num_conflicted_vertices = detail::count_conflicted(result.graph);
  result.logical_bytes = dres.device_peak_bytes;
  result.csr_built_on_device = dres.csr_built_on_device;
  result.seconds = timer.seconds();
  return result;
}

}  // namespace picasso::core
