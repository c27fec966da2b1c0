// §VIII future work, simulated: multi-device conflict-graph construction.
//
// The paper's largest instance ran out of a single A100's memory; its
// stated future work is a distributed multi-GPU implementation. This bench
// shards the conflict build across D simulated devices (deterministic edge
// hashing, per-device Algorithm-3 accounting, host merge) and reports the
// per-device peak. Shape to demonstrate: per-device memory falls ~1/D with
// near-perfect load balance and a bit-identical coloring, so an input whose
// conflict graph overflows one device fits on several.

#include "api/session.hpp"
#include "bench_common.hpp"
#include "core/multi_device.hpp"
#include "graph/oracles.hpp"

int main() {
  using namespace picasso;
  bench::print_banner("§VIII (future work)", "multi-device conflict build");

  const auto& spec = pauli::dataset_by_name(
      bench::quick_mode() ? "H4_2D_sto3g" : "H4_3D_631g");
  const auto& set = pauli::load_dataset(spec);
  std::printf("instance %s: |V|=%zu\n", spec.name.c_str(), set.size());

  core::PicassoParams params;  // normal configuration
  params.seed = 1;

  util::Table table({"devices", "colors", "max |Ec|", "edges/device (max)",
                     "imbalance", "per-device peak", "identical?"});
  // Reference: one device through the session, which shards the packed
  // oracle. Every row below shards the paper's 3-bit oracle instead (no
  // type erasure) and must color bit-identically to it.
  const std::vector<std::uint32_t> baseline_colors =
      api::SessionBuilder()
          .params(params)
          .devices(1, 512u << 20)
          .build()
          .solve(api::Problem::pauli(set))
          .result.colors;
  const bench::InverseOneHotComplementOracle oracle(set);
  for (std::uint32_t d : {1u, 2u, 4u, 8u}) {
    const auto r = core::solve_multi_device(
        oracle, params, {.num_devices = d, .device_capacity_bytes = 512u << 20});
    std::uint64_t max_edges = 0;
    for (const auto& shard : r.devices) {
      max_edges = std::max(max_edges, shard.edges);
    }
    table.add_row({util::Table::fmt_int(d),
                   util::Table::fmt_int(r.coloring.num_colors),
                   util::Table::fmt_int(
                       static_cast<long long>(r.coloring.max_conflict_edges)),
                   util::Table::fmt_int(static_cast<long long>(max_edges)),
                   util::Table::fmt(r.imbalance(), 3),
                   util::Table::fmt_bytes(r.max_device_peak_bytes()),
                   r.coloring.colors == baseline_colors ? "yes" : "NO"});
  }
  table.print("Multi-device sharding (P'=12.5, alpha=2)");
  std::printf(
      "\nShape: per-device peak falls ~1/D at <1.05 imbalance with the\n"
      "coloring unchanged — the memory headroom the paper's future-work\n"
      "multi-GPU design targets.\n");
  return 0;
}
