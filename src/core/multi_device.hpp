#pragma once
// Multi-device Picasso — the paper's §VIII future work ("distributed
// multi-GPU parallel implementations"), simulated.
//
// The conflict-graph build is the device-resident phase, so the natural
// distribution is by edges: conflicted edges are sharded across D simulated
// devices by a deterministic hash, each device runs its own Algorithm-3
// accounting (counters + COO within its private budget), and the host
// merges the per-device COO partitions into the global conflict CSR before
// the (host-side) list coloring — mirroring how the single-GPU pipeline
// already falls back to the host for CSR assembly when tight on memory.
//
// The coloring produced is bit-identical to the single-device driver (the
// merged edge set is the same); what changes — and what the bench measures —
// is the per-device peak, which drops ~1/D and thereby admits inputs whose
// conflict graph exceeds any single device.
//
// Execution is two-stage on the runtime pool (PicassoParams::runtime): the
// conflict enumeration runs chunk-parallel into device-agnostic COO
// partitions, then the D simulated devices ingest their shards
// *concurrently* — each ingest task touches only its own context, ledger
// and buffers, so the per-device peak-memory model now coexists with real
// wall-clock speedup instead of being simulated one shard at a time.

#include <cstdint>
#include <vector>

#include "core/picasso.hpp"
#include "device/device_context.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/thread_pool.hpp"

namespace picasso::core {

struct MultiDeviceConfig {
  std::uint32_t num_devices = 2;
  std::size_t device_capacity_bytes = 256u << 20;  // per device
};

struct DeviceShardStats {
  std::uint64_t edges = 0;        // conflict edges routed to this device
  std::size_t peak_bytes = 0;     // device-budget high-water mark
};

// Aggregations over per-device shard stats — shared by MultiDeviceResult
// and the session layer's SolveReport so the two can't drift.

inline std::uint64_t total_shard_edges(
    const std::vector<DeviceShardStats>& devices) noexcept {
  std::uint64_t total = 0;
  for (const auto& d : devices) total += d.edges;
  return total;
}

/// max/mean edge load across devices; 1.0 = perfectly balanced, which is
/// also what an empty (non-sharded) stats vector reports.
inline double shard_imbalance(
    const std::vector<DeviceShardStats>& devices) noexcept {
  if (devices.empty()) return 1.0;
  std::uint64_t max_edges = 0;
  for (const auto& d : devices) max_edges = std::max(max_edges, d.edges);
  const double mean = static_cast<double>(total_shard_edges(devices)) /
                      static_cast<double>(devices.size());
  return mean > 0 ? static_cast<double>(max_edges) / mean : 1.0;
}

inline std::size_t max_shard_peak_bytes(
    const std::vector<DeviceShardStats>& devices) noexcept {
  std::size_t peak = 0;
  for (const auto& d : devices) peak = std::max(peak, d.peak_bytes);
  return peak;
}

struct MultiDeviceResult {
  PicassoResult coloring;
  std::vector<DeviceShardStats> devices;

  std::uint64_t total_edges() const { return total_shard_edges(devices); }

  /// max/mean edge load across devices (1.0 = perfectly balanced).
  double imbalance() const { return shard_imbalance(devices); }

  std::size_t max_device_peak_bytes() const {
    return max_shard_peak_bytes(devices);
  }
};

/// Deterministic edge -> device routing (splitmix over the packed pair, so
/// the shards stay balanced regardless of vertex-id structure).
std::uint32_t edge_shard(std::uint32_t u, std::uint32_t v,
                         std::uint32_t num_devices) noexcept;

/// Runs Picasso with the conflict build sharded over simulated devices.
/// Throws device::DeviceOutOfMemory if a shard exceeds its budget.
template <graph::GraphOracle Oracle>
MultiDeviceResult solve_multi_device(const Oracle& oracle,
                                     const PicassoParams& params,
                                     const MultiDeviceConfig& config);

/// Deprecated name for solve_multi_device; new code goes through
/// picasso::api::Session configured with .devices(count, capacity).
template <graph::GraphOracle Oracle>
[[deprecated("use picasso::api::Session configured with .devices() instead")]]
MultiDeviceResult picasso_color_multi_device(const Oracle& oracle,
                                             const PicassoParams& params,
                                             const MultiDeviceConfig& config) {
  return solve_multi_device(oracle, params, config);
}

// ---------------------------------------------------------------------------
// Implementation.

template <graph::GraphOracle Oracle>
MultiDeviceResult solve_multi_device(const Oracle& oracle,
                                     const PicassoParams& params,
                                     const MultiDeviceConfig& config) {
  MultiDeviceResult result;
  result.devices.assign(config.num_devices, {});
  obs::ScopedSpan solve_span(params.trace, "solve_multi_device");

  // Per-device contexts persist across iterations so the reported peaks are
  // whole-run high-water marks, as in the single-device driver.
  std::vector<device::DeviceContext> devices;
  devices.reserve(config.num_devices);
  for (std::uint32_t d = 0; d < config.num_devices; ++d) {
    devices.emplace_back(config.device_capacity_bytes);
  }

  PicassoResult coloring;
  const std::uint32_t n = oracle.num_vertices();
  coloring.colors.assign(n, 0xffffffffu);
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

    // Shard the conflicted edges across the devices: each device holds its
    // partition as COO plus per-vertex counters, charged to its own budget.
    ConflictBuildResult conflict;
    {
      obs::ScopedPhase acc(params.trace, "conflict_shard",
                           stats.conflict_seconds);
      const std::uint32_t d_count = config.num_devices;
      runtime::ThreadPool* pool =
          runtime::resolve_pool(params.runtime, stats.n_active);

      // Stage 1: chunk-parallel enumeration, routed into per-(chunk,
      // device) buckets as edges are emitted — one O(|Ec|) routing pass
      // total, not one per device. Bucket order is deterministic: chunk
      // ordinal x shard hash, both schedule-independent.
      const ConflictKernel kernel = resolve_kernel(
          params.kernel, palette.palette_size, palette.list_size,
          BlockConflictOracle<Oracle>);
      std::vector<std::vector<std::vector<std::uint32_t>>> buckets;
      detail::enumerate_conflicts_chunked(
          pool, oracle, active, lists, palette.palette_size, kernel,
          params.runtime,
          [&buckets, d_count](std::size_t num_chunks) {
            buckets.assign(num_chunks,
                           std::vector<std::vector<std::uint32_t>>(d_count));
          },
          [&buckets, d_count](const runtime::ChunkRange& chunk) {
            std::vector<std::vector<std::uint32_t>>* by_device =
                &buckets[chunk.index];
            return [by_device, d_count](std::uint32_t u, std::uint32_t v) {
              std::vector<std::uint32_t>& coo =
                  (*by_device)[edge_shard(u, v, d_count)];
              coo.push_back(u);
              coo.push_back(v);
            };
          });

      // Stage 2: the D devices ingest their buckets concurrently, in chunk
      // order. COO slots are charged to the owning device in 4096-edge
      // chunks (one RAII charge per chunk keeps the ledger small while
      // preserving the mid-enumeration OOM semantics of Algorithm 3); the
      // fixed scan order makes each shard's COO — and therefore its charge
      // sequence and peak — independent of the schedule.
      constexpr std::uint64_t kChunkEdges = 4096;
      std::vector<device::DeviceBuffer<std::uint64_t>> counters(d_count);
      std::vector<std::vector<std::uint32_t>> shard_coo(d_count);
      std::vector<std::vector<device::DeviceAllocation>> coo_charges(d_count);
      const std::uint32_t n_active = stats.n_active;
      auto ingest_shard = [&](std::size_t d_index) {
        const auto d = static_cast<std::uint32_t>(d_index);
        counters[d] = device::DeviceBuffer<std::uint64_t>(devices[d], n_active);
        for (std::uint32_t v = 0; v < n_active; ++v) counters[d][v] = 0;
        std::uint64_t edges = 0;
        for (auto& chunk_buckets : buckets) {
          auto& part = chunk_buckets[d];
          for (std::size_t i = 0; i + 1 < part.size(); i += 2) {
            const std::uint32_t u = part[i];
            const std::uint32_t v = part[i + 1];
            if (edges % kChunkEdges == 0) {
              coo_charges[d].push_back(devices[d].allocate(
                  kChunkEdges * 2 * sizeof(std::uint32_t)));
            }
            ++edges;
            shard_coo[d].push_back(u);
            shard_coo[d].push_back(v);
            ++counters[d][u];
            ++counters[d][v];
          }
          part = {};  // each device frees its bucket as it ingests it —
                      // only [d]-slots are touched, so tasks stay disjoint
        }
        // Per-device flush: the splitmix routing fixes each shard's edge
        // count, so the total is schedule-independent.
        obs::count(obs::Counter::ShardEdgesRouted, edges);
        result.devices[d].edges += edges;
      };
      // One task per device; a shard blowing its budget throws
      // DeviceOutOfMemory through the task group to the caller.
      runtime::parallel_for(pool, 0, d_count, 1, ingest_shard);

      // Host-side merge: global per-vertex counts = sum over devices.
      std::vector<std::uint64_t> offsets(stats.n_active + 1, 0);
      std::uint64_t num_edges = 0;
      for (std::uint32_t v = 0; v < stats.n_active; ++v) {
        std::uint64_t degree = 0;
        for (std::uint32_t d = 0; d < d_count; ++d) degree += counters[d][v];
        offsets[v + 1] = offsets[v] + degree;
      }
      for (std::uint32_t d = 0; d < d_count; ++d) {
        num_edges += shard_coo[d].size() / 2;
      }
      std::vector<std::uint32_t> merged_coo;
      merged_coo.reserve(2 * num_edges);
      for (std::uint32_t d = 0; d < d_count; ++d) {
        merged_coo.insert(merged_coo.end(), shard_coo[d].begin(),
                          shard_coo[d].end());
        shard_coo[d] = {};  // merged; drop the per-shard copy
      }
      std::vector<std::uint32_t> neighbors(2 * num_edges);
      device::fill_csr(offsets, merged_coo.data(), num_edges, neighbors.data());
      conflict.graph = graph::CsrGraph::from_csr(std::move(offsets),
                                                 std::move(neighbors));
      conflict.num_edges = num_edges;
      conflict.num_conflicted_vertices = detail::count_conflicted(conflict.graph);
      conflict.logical_bytes = conflict.graph.logical_bytes();
      // Release the per-iteration device charges; peaks persist.
      coo_charges.clear();
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
        coloring.colors[active[local]] = palette.base_color + c;
      }
    }
    stats.colored = colored.num_colored;
    stats.uncolored = static_cast<std::uint32_t>(next_active.size());
    obs::count(obs::Counter::RecolorEvents, stats.uncolored);
    stats.logical_bytes = lists.logical_bytes() + conflict.logical_bytes +
                          colored.aux_peak_bytes;

    coloring.iterations.push_back(stats);
    coloring.assign_seconds += stats.assign_seconds;
    coloring.conflict_seconds += stats.conflict_seconds;
    coloring.coloring_seconds += stats.coloring_seconds;
    coloring.max_conflict_edges =
        std::max(coloring.max_conflict_edges, stats.conflict_edges);
    coloring.peak_logical_bytes =
        std::max(coloring.peak_logical_bytes, stats.logical_bytes);

    detail::report_iteration(params.progress, iteration, stats.n_active,
                             stats.colored, stats.uncolored,
                             stats.conflict_edges);

    base_color += palette.palette_size;
    active = std::move(next_active);
    ++iteration;
  }

  if (!active.empty()) {
    coloring.converged = false;
    for (std::uint32_t v : active) coloring.colors[v] = base_color++;
  }
  coloring.palette_total = base_color;
  coloring.num_colors =
      detail::count_palette_colors(coloring.colors, coloring.palette_total);
  for (std::uint32_t d = 0; d < config.num_devices; ++d) {
    result.devices[d].peak_bytes = devices[d].peak_bytes();
  }
  result.coloring = std::move(coloring);
  return result;
}

}  // namespace picasso::core
