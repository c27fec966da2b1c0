// Fig. 4 of the paper: Picasso vs Kokkos-EB vs ECL-GC-R with everything
// normalised to ECL-GC-R — final colors, memory requirement, and execution
// time — while P' sweeps from 1% to 15% at fixed alpha = 4.5.
//
// Paper shape to reproduce: smaller P' improves Picasso's quality toward
// the parallel baselines (matching them at P'=1%) while raising its cost;
// the speculative (Kokkos-EB) colorer is the fastest but hungriest; Picasso
// stays at or below the ECL-GC-R memory line.

#include "api/session.hpp"
#include "bench_common.hpp"
#include "coloring/jones_plassmann.hpp"
#include "coloring/speculative.hpp"
#include "core/picasso.hpp"

int main() {
  using namespace picasso;
  bench::print_banner("Fig. 4", "Picasso vs parallel baselines, relative to ECL-GC-R");

  const std::vector<double> percent_sweep =
      bench::quick_mode() ? std::vector<double>{1.0, 15.0}
                          : std::vector<double>{1.0, 2.5, 5.0, 10.0, 15.0};

  auto datasets = pauli::datasets_in_class(pauli::SizeClass::Small);
  // The paper's Fig. 4 uses the mid-size small instances.
  util::Table table({"problem", "config", "rel. colors", "rel. memory",
                     "rel. time"});

  for (const auto& spec : datasets) {
    const auto& set = pauli::load_dataset(spec);
    if (set.size() < 1000) continue;  // mirror the paper's instance choice
    const graph::ComplementOracle oracle(set);
    const auto dense = graph::materialize_dense(oracle);
    const std::uint64_t edges = dense.num_edges();
    const std::size_t csr = bench::csr_resident_bytes(set.size(), edges);

    // ECL-GC-R reference: JP-LDF over the resident graph.
    const auto jp = coloring::jones_plassmann(dense);
    const std::size_t jp_mem = csr + jp.aux_peak_bytes;

    // Kokkos-EB stand-in: speculative, with the edge-based staging charge.
    const auto spec_r = coloring::speculative_color(dense);
    const std::size_t spec_mem = 2 * csr + spec_r.aux_peak_bytes;
    table.add_row({spec.name, "Kokkos-EB*",
                   util::Table::fmt(double(spec_r.num_colors) / jp.num_colors, 2),
                   util::Table::fmt(double(spec_mem) / jp_mem, 2),
                   util::Table::fmt(spec_r.seconds / jp.seconds, 2)});

    for (double percent : percent_sweep) {
      core::PicassoParams params;
      params.palette_percent = percent;
      params.alpha = 4.5;
      params.seed = 1;
      const auto r = api::SessionBuilder()
                         .params(params)
                         .strategy(api::ExecutionStrategy::InMemory)
                         .build()
                         .solve(api::Problem::pauli(set))
                         .result;
      const std::size_t mem = set.logical_bytes() + r.peak_logical_bytes;
      char label[32];
      std::snprintf(label, sizeof(label), "Picasso P'=%.1f%%", percent);
      table.add_row({spec.name, label,
                     util::Table::fmt(double(r.num_colors) / jp.num_colors, 2),
                     util::Table::fmt(double(mem) / jp_mem, 2),
                     util::Table::fmt(r.total_seconds / jp.seconds, 2)});
    }
  }
  table.print("Fig. 4 analogue: all quantities relative to ECL-GC-R (= 1.0)");
  std::printf(
      "\nShape: Picasso's relative colors fall toward 1.0 as P' shrinks\n"
      "(quality matches the parallel baselines at P'=1%%), trading time;\n"
      "Kokkos-EB* runs fastest but with a multiple of the memory; Picasso's\n"
      "memory stays at or below the ECL-GC-R line for moderate P'.\n");
  return 0;
}
