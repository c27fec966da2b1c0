// Fig. 3 of the paper: runtime breakdown (list assignment / conflict-graph
// construction / conflict coloring) across the medium — and one large —
// dataset, sorted by size.
//
// Paper shape to reproduce: list assignment is negligible; totals stay
// within interactive bounds even for the largest instance (the paper
// colors a trillion-edge graph in under 800 s; our scaled-down largest
// stays in single-digit seconds). One expected divergence: the paper's
// GPU makes the conflict *build* so fast that the CPU-side conflict
// coloring dominates its Fig. 3; on this single-core container the
// oracle-driven build remains the top cost, as in the paper's CPU-only
// configuration (Table V reports >98% build share there).

#include <algorithm>

#include "api/session.hpp"
#include "bench_common.hpp"
#include "core/picasso.hpp"

int main() {
  using namespace picasso;
  bench::print_banner("Fig. 3", "phase breakdown on medium/large datasets");

  util::Table table({"problem", "|V|", "assignment(s)", "conflict graph(s)",
                     "conflict coloring(s)", "total(s)", "colors %", "iters"});

  std::vector<pauli::DatasetSpec> datasets =
      pauli::datasets_in_class(pauli::SizeClass::Medium);
  if (!bench::quick_mode()) {
    for (const auto& spec : pauli::datasets_in_class(pauli::SizeClass::Large)) {
      datasets.push_back(spec);
    }
  }
  std::sort(datasets.begin(), datasets.end(),
            [](const pauli::DatasetSpec& a, const pauli::DatasetSpec& b) {
              return pauli::load_dataset(a).size() <
                     pauli::load_dataset(b).size();
            });

  util::RunningStats fused_ratios;
  for (const auto& spec : datasets) {
    const auto& set = pauli::load_dataset(spec);
    core::PicassoParams params;
    params.palette_percent = 12.5;
    // Paper practice for >1T-edge instances: alpha = 1.
    params.alpha = spec.size_class == pauli::SizeClass::Large ? 1.0 : 2.0;
    params.seed = 1;
    const auto r =
        api::SessionBuilder()
            .params(params)
            .strategy(api::ExecutionStrategy::InMemory)
            .build()
            .solve(api::Problem::pauli(set))
            .result;
    table.add_row(
        {spec.name, util::Table::fmt_int(static_cast<long long>(set.size())),
         util::Table::fmt(r.assign_seconds, 3),
         util::Table::fmt(r.conflict_seconds, 3),
         util::Table::fmt(r.coloring_seconds, 3),
         util::Table::fmt(r.total_seconds, 3),
         util::Table::fmt_pct(r.color_percent(), 1),
         util::Table::fmt_int(static_cast<long long>(r.iterations.size()))});

    // Fused engine on the same configuration: no conflict-build phase at
    // all — oracle work happens inside the strike scans, so it lands in the
    // coloring column. Colorings are bit-identical by contract.
    const auto f = api::SessionBuilder()
                       .params(params)
                       .strategy(api::ExecutionStrategy::Fused)
                       .build()
                       .solve(api::Problem::pauli(set))
                       .result;
    if (f.colors != r.colors) {
      std::fprintf(stderr, "FATAL: fused coloring diverged on %s\n",
                   spec.name.c_str());
      return 1;
    }
    fused_ratios.add(f.total_seconds / std::max(1e-9, r.total_seconds));
    table.add_row(
        {spec.name + " (fused)",
         util::Table::fmt_int(static_cast<long long>(set.size())),
         util::Table::fmt(f.assign_seconds, 3), "-",
         util::Table::fmt(f.coloring_seconds, 3),
         util::Table::fmt(f.total_seconds, 3),
         util::Table::fmt_pct(f.color_percent(), 1),
         util::Table::fmt_int(static_cast<long long>(f.iterations.size()))});
    char extra[64];
    std::snprintf(extra, sizeof(extra), "\"seconds\":%.6f", f.total_seconds);
    // The "_fused" suffix is what compare_bench.py's fused gate keys
    // on — keep it if these records ever join the CI baseline.
    bench::emit_json_record("fig3_breakdown", spec.name + "_fused", f.memory,
                            extra);
  }
  table.print("Fig. 3 analogue: Picasso phase breakdown (P'=12.5)");
  std::printf(
      "\nShape: assignment is negligible and totals stay interactive even\n"
      "for the largest instance. On one core the conflict build dominates\n"
      "(the paper's CPU-only split); with their GPU the build shrinks and\n"
      "conflict coloring takes over — see bench_table5_speedup for the\n"
      "accelerated-vs-reference build gap. Color percentages track input\n"
      "density: our ~55%%-dense medium instances land near the paper's\n"
      "14-17%% band; the denser (74-82%%) synthetic 631g instances run\n"
      "proportionally higher (see EXPERIMENTS.md).\n"
      "Fused rows skip the build entirely (oracle work rides inside the\n"
      "strike scans): fused/materialized total geomean %.2fx.\n",
      fused_ratios.geomean());
  return 0;
}
