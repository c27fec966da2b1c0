// Incremental-coloring replay gate + work-counter records.
//
// Two jobs in one binary (CI runs it inside bench-smoke):
//
//  1. Replay gate — the determinism contract of core/incremental.hpp,
//     checked end to end: splitting a record sequence into update() calls,
//     changing the thread count (1/2/8), seeding from a solve_incremental()
//     baseline, or moving the store to a budget/chunk spill must all
//     reproduce the serial one-shot coloring bit for bit. Any divergence
//     exits 1 and fails the job.
//
//  2. Machine-readable records — one JSON-lines row per dataset from the
//     single-threaded from-scratch run, carrying the update_* work
//     counters and an FNV-1a hash of the final coloring. The baseline gate
//     (scripts/compare_bench.py vs ci/bench_baseline.json) compares
//     both exactly: counters and coloring hash are pure functions of
//     (dataset, params) for single-threaded runs.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "bench_common.hpp"
#include "core/incremental.hpp"
#include "util/fnv.hpp"
#include "util/table.hpp"

namespace {

using picasso::pauli::PauliSet;
using picasso::pauli::PauliString;

/// FNV-1a over the color sequence — the replay fingerprint the CI baseline
/// pins exactly.
std::uint64_t coloring_hash(const std::vector<std::uint32_t>& colors) {
  return picasso::util::coloring_fingerprint(colors);
}

PauliSet slice(const std::vector<PauliString>& strings, std::size_t begin,
               std::size_t end) {
  return PauliSet(std::vector<PauliString>(strings.begin() + begin,
                                           strings.begin() + end));
}

struct RunOutcome {
  std::vector<std::uint32_t> colors;
  picasso::api::SolveReport last;
};

/// Builds a session and feeds `strings` through `splits` update() calls
/// (after an optional solve_incremental() baseline over the first
/// `baseline` records).
RunOutcome run(const std::vector<PauliString>& strings, std::uint32_t threads,
               std::size_t baseline, const std::vector<std::size_t>& splits,
               std::size_t budget, std::size_t chunk_strings) {
  namespace api = picasso::api;
  picasso::core::PicassoParams params;
  params.seed = 1;
  params.runtime.num_threads = threads;
  auto builder = api::SessionBuilder()
                     .params(params)
                     .update_params({.max_recolor = 4, .max_new_colors = 0})
                     .telemetry(picasso::obs::TelemetryLevel::Counters);
  if (budget != 0) builder.memory_budget(budget);
  if (chunk_strings != 0) builder.streaming({.chunk_strings = chunk_strings});
  auto session = builder.build();

  RunOutcome out;
  std::size_t begin = baseline;
  if (baseline != 0) {
    out.last = session.solve_incremental(
        api::Problem::pauli(slice(strings, 0, baseline)));
  }
  for (std::size_t width : splits) {
    out.last = session.update(
        api::UpdateDelta::pauli(slice(strings, begin, begin + width)));
    begin += width;
  }
  out.colors = out.last.result.colors;
  return out;
}

}  // namespace

int main() {
  using namespace picasso;
  bench::print_banner("Incremental replay",
                      "update() determinism gate + work-counter records");

  util::Table table({"problem", "|V|", "colors", "probes", "sig exits",
                     "recolors", "fresh", "one-shot s", "hash"});

  int divergences = 0;
  for (const auto& spec : pauli::datasets_in_class(pauli::SizeClass::Small)) {
    const auto& set = pauli::load_dataset(spec);
    std::vector<PauliString> strings;
    strings.reserve(set.size());
    for (std::size_t i = 0; i < set.size(); ++i) {
      strings.push_back(set.string(i));
    }
    const std::size_t n = strings.size();
    const std::size_t half = n / 2;
    const std::vector<std::size_t> quarters{n / 4, n / 4, n / 4,
                                            n - 3 * (n / 4)};

    // Two replay families, each against its own serial reference: a fused
    // baseline solve legitimately colors differently than pure sequential
    // insertion, so baseline-seeded runs are compared among themselves.
    const auto reference = run(strings, 1, 0, {n}, 0, 0);
    const auto seeded_reference = run(strings, 1, half, {n - half}, 0, 0);

    struct Variant {
      const char* name;
      const RunOutcome* reference;
      RunOutcome outcome;
    };
    const std::vector<Variant> variants = {
        {"t1/quarters", &reference, run(strings, 1, 0, quarters, 0, 0)},
        {"t2/one-shot", &reference, run(strings, 2, 0, {n}, 0, 0)},
        {"t2/quarters", &reference, run(strings, 2, 0, quarters, 0, 0)},
        {"t8/quarters", &reference, run(strings, 8, 0, quarters, 0, 0)},
        {"t2/64MiB/quarters", &reference,
         run(strings, 2, 0, quarters, std::size_t{64} << 20, 0)},
        {"t2/chunk64/quarters", &reference,
         run(strings, 2, 0, quarters, 0, 64)},
        {"t2/baseline+rest", &seeded_reference,
         run(strings, 2, half, {n - half}, 0, 0)},
        {"t8/baseline+rest", &seeded_reference,
         run(strings, 8, half, {n - half}, 0, 0)},
        {"t2/64MiB/baseline+rest", &seeded_reference,
         run(strings, 2, half, {n - half}, std::size_t{64} << 20, 0)},
    };
    for (const auto& v : variants) {
      if (v.outcome.colors != v.reference->colors) {
        std::fprintf(stderr,
                     "FATAL: incremental replay diverged on %s (%s)\n",
                     spec.name.c_str(), v.name);
        ++divergences;
      }
    }

    const auto& stats = *reference.last.update;
    const std::uint64_t hash = coloring_hash(reference.colors);
    char hash_buf[20];
    std::snprintf(hash_buf, sizeof(hash_buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    table.add_row(
        {spec.name, util::Table::fmt_int(static_cast<long long>(n)),
         util::Table::fmt_int(stats.num_colors),
         util::Table::fmt_int(static_cast<long long>(stats.bucket_probes)),
         util::Table::fmt_int(
             static_cast<long long>(stats.signature_fast_exits)),
         util::Table::fmt_int(stats.recolor_moves),
         util::Table::fmt_int(stats.fresh_colors),
         util::Table::fmt(stats.seconds, 4), hash_buf});

    char extra[160];
    std::snprintf(extra, sizeof(extra),
                  "\"seconds\":%.6f,\"colors\":%u,\"coloring_hash\":\"%016llx\"",
                  stats.seconds, stats.num_colors,
                  static_cast<unsigned long long>(hash));
    bench::emit_json_record(
        "incremental", spec.name + "/update_replay",
        reference.last.result.memory,
        extra +
            ("," + bench::counters_field(reference.last.telemetry.counters)));

    if (bench::quick_mode() && spec.name.rfind("H6", 0) == 0) break;
  }

  table.print("Incremental replay: one-shot update() work per dataset");
  if (divergences != 0) {
    std::fprintf(stderr, "incremental replay gate FAILED: %d divergences\n",
                 divergences);
    return 1;
  }
  std::printf("\nreplay gate passed: every variant (threads 1/2/8, splits,\n"
              "baseline-seeded, 64 MiB budget, chunk-forced spill) matched\n"
              "the serial one-shot coloring bit for bit.\n");
  return 0;
}
