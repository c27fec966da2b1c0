// picasso_cli — command-line front end for the library, driving the public
// picasso::api::Session pipeline.
//
// Subcommands:
//   list                               registered datasets
//   info <dataset>                     dataset statistics
//   partition <dataset> [options]      group Pauli strings into unitaries
//   color --file <edgelist> [options]  color an arbitrary graph
//   sweep <dataset> [options]          (P', alpha) grid sweep, CSV output
//   remote <dataset> --connect ADDR    solve on a picasso_serve daemon
//   remote --connect ADDR --stats      print the daemon's counters
//   remote --connect ADDR --shutdown   ask the daemon to drain and exit
//
// Common options:
//   --percent P     palette percent P' (default 12.5)
//   --alpha A       list-size multiplier (default 2.0)
//   --seed S        RNG seed (default 1)
//   --mode M        partition relation: unitary | commute | qwc
//   --strategy S    execution strategy: auto | in-memory (inmemory) |
//                   semi-streaming | fused.
//                   Applies to `color` and (for unitary mode)
//                   `partition`; `fused` colors edge-free
//                   off the palette buckets, never building the conflict
//                   CSR.
//   --budget BYTES  memory budget (0 = unlimited; may make the fused
//                   engine spill the input and stream it back in chunks)
//   --mtx           color: parse --file as MatrixMarket (auto-detected for
//                   .mtx extensions)
//   --stream        color: re-read the file per pass (semi-streaming mode)
//   --refine        apply iterated-greedy refinement to the result
//   --csv           machine-readable output where supported
//   --metrics       collect the deterministic work counters during the solve
//                   and print the telemetry JSON (stderr under --csv, so the
//                   CSV stream stays clean)
//   --trace FILE    record phase spans (TelemetryLevel::Full) and write a
//                   chrome://tracing / Perfetto document to FILE
//   --connect ADDR  remote: daemon address (unix:/path or tcp:host:port)
//   --tenant NAME   remote: tenant label for fair-share scheduling
//   --priority N    remote: request priority (higher runs first)
//   --cancel-after N remote: cancel the request after N progress frames
//                   (prints "cancelled by client", exits 0 when the
//                   cancellation was honored)
//   --deadline-ms N remote: server-side deadline; the daemon answers
//                   deadline-exceeded instead of finishing a solve that
//                   outlives N milliseconds (0 = none)
//   --retries N     remote: attempt the request up to N times with
//                   exponential backoff on transport faults and retryable
//                   errors (queue-full, storage-full); safe because
//                   completed solves are answered from the result cache.
//                   Incompatible with --cancel-after (which needs one
//                   pinned connection). Default 1 = no retry.
//   --verify-local  remote: re-solve locally with identical parameters and
//                   assert the colorings are bit-identical (exit 1 on any
//                   divergence)
//   --stats         remote: print the daemon's counters instead of solving
//   --shutdown      remote: ask the daemon to drain and exit
//   --update FILE   partition: solve the dataset as an incremental baseline
//                   (Session::solve_incremental), then ingest FILE — a .pset
//                   written by PauliSet::save_binary — through
//                   Session::update(), printing one work summary per update.
//                   Repeatable; files apply in command-line order. Combine
//                   with --budget to grow a disk spill instead of resident
//                   memory.
//
// Exit codes: 0 success, 1 runtime failure (unreadable input, invalid
// result), 2 usage error (unknown command/flag/value, or a flag
// combination the session planner rejects — invalid-argument /
// invalid-configuration / incompatible-strategy ApiErrors). Every failure
// prints exactly one diagnostic line to stderr.
//
// Examples:
//   picasso_cli partition H6_2D_sto3g --percent 3 --alpha 30
//   picasso_cli color --file graph.el --stream
//   picasso_cli sweep H4_1D_sto3g --csv > sweep.csv

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "coloring/refine.hpp"
#include "coloring/verify.hpp"
#include "core/clique_partition.hpp"
#include "graph/graph_io.hpp"
#include "ml/sweep.hpp"
#include "pauli/datasets.hpp"
#include "service/client.hpp"
#include "util/fnv.hpp"
#include "util/table.hpp"

namespace {

using namespace picasso;

/// Argument errors: one-line diagnostic, exit code 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct CliOptions {
  std::string command;
  std::string target;  // dataset name or (with --file) a path
  std::string file;
  double percent = 12.5;
  double alpha = 2.0;
  std::uint64_t seed = 1;
  core::GroupingMode mode = core::GroupingMode::Unitary;
  api::ExecutionStrategy strategy = api::ExecutionStrategy::Auto;
  std::size_t budget_bytes = 0;
  bool mtx = false;
  bool stream = false;
  bool refine = false;
  bool csv = false;
  bool metrics = false;
  std::string trace_file;
  std::vector<std::string> update_files;
  // remote subcommand
  std::string connect;
  std::string tenant;
  std::uint32_t priority = 0;
  int cancel_after = -1;  // progress frames before Cancel; -1 = never
  std::uint32_t deadline_ms = 0;  // server-side deadline; 0 = none
  std::uint32_t retries = 1;      // attempts incl. the first; 1 = no retry
  bool verify_local = false;
  bool remote_stats = false;
  bool remote_shutdown = false;

  obs::TelemetryLevel telemetry_level() const {
    if (!trace_file.empty()) return obs::TelemetryLevel::Full;
    if (metrics) return obs::TelemetryLevel::Counters;
    return obs::TelemetryLevel::Off;
  }
};

const char* kUsage =
    "usage: picasso_cli <list|info|partition|color|sweep|remote> [target] "
    "[--percent P] [--alpha A] [--seed S] [--mode unitary|commute|qwc] "
    "[--strategy "
    "auto|inmemory|semi-streaming|fused] "
    "[--budget BYTES] [--file path] [--mtx] [--stream] [--refine] [--csv] "
    "[--metrics] [--trace FILE] [--update FILE]... "
    "[--connect ADDR] [--tenant NAME] [--priority N] [--cancel-after N] "
    "[--deadline-ms N] [--retries N] [--verify-local] [--stats] [--shutdown]";

double parse_double(const char* flag, const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    throw UsageError(std::string(flag) + " expects a number, got '" + text +
                     "'");
  }
  return value;
}

std::uint64_t parse_u64(const char* flag, const std::string& text) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') {
    throw UsageError(std::string(flag) + " expects an integer, got '" + text +
                     "'");
  }
  return value;
}

CliOptions parse_args(int argc, char** argv) {
  if (argc < 2) throw UsageError("missing command");
  CliOptions opt;
  opt.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        throw UsageError(std::string("missing value for ") + flag);
      }
      return argv[++i];
    };
    if (arg == "--percent") {
      opt.percent = parse_double("--percent", next("--percent"));
    } else if (arg == "--alpha") {
      opt.alpha = parse_double("--alpha", next("--alpha"));
    } else if (arg == "--seed") {
      opt.seed = parse_u64("--seed", next("--seed"));
    } else if (arg == "--budget") {
      opt.budget_bytes =
          static_cast<std::size_t>(parse_u64("--budget", next("--budget")));
    } else if (arg == "--file") {
      opt.file = next("--file");
    } else if (arg == "--mode") {
      const std::string m = next("--mode");
      if (m == "unitary") {
        opt.mode = core::GroupingMode::Unitary;
      } else if (m == "commute") {
        opt.mode = core::GroupingMode::GeneralCommute;
      } else if (m == "qwc") {
        opt.mode = core::GroupingMode::QubitWiseCommute;
      } else {
        throw UsageError("unknown mode '" + m +
                         "' (valid: unitary, commute, qwc)");
      }
    } else if (arg == "--strategy") {
      // parse_strategy's invalid_argument lists the valid spellings.
      try {
        opt.strategy = api::parse_strategy(next("--strategy"));
      } catch (const std::invalid_argument& e) {
        throw UsageError(e.what());
      }
    } else if (arg == "--metrics") {
      opt.metrics = true;
    } else if (arg == "--trace") {
      opt.trace_file = next("--trace");
    } else if (arg == "--update") {
      opt.update_files.push_back(next("--update"));
    } else if (arg == "--connect") {
      opt.connect = next("--connect");
    } else if (arg == "--tenant") {
      opt.tenant = next("--tenant");
    } else if (arg == "--priority") {
      opt.priority =
          static_cast<std::uint32_t>(parse_u64("--priority", next("--priority")));
    } else if (arg == "--cancel-after") {
      opt.cancel_after = static_cast<int>(
          parse_u64("--cancel-after", next("--cancel-after")));
    } else if (arg == "--deadline-ms") {
      opt.deadline_ms = static_cast<std::uint32_t>(
          parse_u64("--deadline-ms", next("--deadline-ms")));
    } else if (arg == "--retries") {
      opt.retries =
          static_cast<std::uint32_t>(parse_u64("--retries", next("--retries")));
      if (opt.retries == 0) {
        throw UsageError("--retries expects at least 1 attempt");
      }
    } else if (arg == "--verify-local") {
      opt.verify_local = true;
    } else if (arg == "--stats") {
      opt.remote_stats = true;
    } else if (arg == "--shutdown") {
      opt.remote_shutdown = true;
    } else if (arg == "--mtx") {
      opt.mtx = true;
    } else if (arg == "--stream") {
      opt.stream = true;
    } else if (arg == "--refine") {
      opt.refine = true;
    } else if (arg == "--csv") {
      opt.csv = true;
    } else if (!arg.empty() && arg[0] != '-' && opt.target.empty()) {
      opt.target = arg;
    } else {
      throw UsageError("unknown argument '" + arg + "'");
    }
  }
  return opt;
}

core::PicassoParams params_from(const CliOptions& opt) {
  core::PicassoParams params;
  params.palette_percent = opt.percent;
  params.alpha = opt.alpha;
  params.seed = opt.seed;
  params.memory_budget_bytes = opt.budget_bytes;
  return params;
}

/// One Session for every solve the CLI performs. Builder validation fires
/// before any work happens, and a rejected configuration is an operator
/// mistake (bad flag value), so it maps to UsageError / exit 2 — the same
/// class as an unparsable flag.
api::Session session_from(const CliOptions& opt) {
  try {
    return api::SessionBuilder()
        .params(params_from(opt))
        .strategy(opt.strategy)
        .telemetry(opt.telemetry_level())
        .build();
  } catch (const api::ApiError& e) {
    throw UsageError(e.what());
  }
}

/// Post-solve telemetry output: the counters/memory JSON on stdout (stderr
/// under --csv, keeping the CSV stream machine-clean) and the Chrome-trace
/// document to --trace FILE. Throws std::runtime_error (exit 1) when the
/// trace file cannot be written.
void emit_telemetry(const api::SolveReport& report, const CliOptions& opt) {
  if (opt.metrics || !opt.trace_file.empty()) {
    std::fprintf(opt.csv ? stderr : stdout, "%s\n",
                 report.telemetry.to_json().c_str());
  }
  if (!opt.trace_file.empty()) {
    const std::string doc = report.telemetry.chrome_trace_json();
    std::FILE* out = std::fopen(opt.trace_file.c_str(), "w");
    if (out == nullptr || std::fwrite(doc.data(), 1, doc.size(), out) !=
                              doc.size()) {
      if (out != nullptr) std::fclose(out);
      throw std::runtime_error("cannot write trace file " + opt.trace_file);
    }
    std::fclose(out);
    std::fprintf(stderr,
                 "picasso_cli: wrote %zu spans to %s (load in "
                 "chrome://tracing or https://ui.perfetto.dev)\n",
                 report.telemetry.spans.size(), opt.trace_file.c_str());
  }
}

int cmd_list() {
  util::Table table({"name", "class", "qubits", "atoms", "geometry", "basis"});
  for (const auto& d : pauli::all_datasets()) {
    table.add_row({d.name, to_string(d.size_class),
                   util::Table::fmt_int(2 * d.molecule.num_atoms *
                                        static_cast<int>(d.molecule.basis)),
                   util::Table::fmt_int(d.molecule.num_atoms),
                   to_string(d.molecule.geometry), to_string(d.molecule.basis)});
  }
  table.print("registered datasets");
  return 0;
}

int cmd_info(const CliOptions& opt) {
  if (opt.target.empty()) throw UsageError("info requires a dataset name");
  const auto& spec = pauli::dataset_by_name(opt.target);
  const auto& set = pauli::load_dataset(spec);
  std::printf("dataset      : %s (%s)\n", spec.name.c_str(),
              to_string(spec.size_class));
  std::printf("qubits       : %zu\n", set.num_qubits());
  std::printf("Pauli strings: %zu\n", set.size());
  std::printf("encoded size : %.2f MB\n",
              static_cast<double>(set.logical_bytes()) / (1 << 20));
  if (set.size() <= 20000) {
    const graph::ComplementOracle oracle(set);
    const auto edges = graph::count_edges(oracle);
    std::printf("compl. edges : %llu (%.1f%% dense)\n",
                static_cast<unsigned long long>(edges),
                200.0 * static_cast<double>(edges) /
                    (static_cast<double>(set.size()) *
                     static_cast<double>(set.size() - 1)));
  }
  return 0;
}

/// --update path of `partition`: incremental baseline over the dataset,
/// then one Session::update() per file, each with a work-summary line.
/// Returns the final report; appends every delta's strings to `strings` so
/// the caller can group and verify the combined set.
api::SolveReport run_updates(api::Session& session, const CliOptions& opt,
                             const pauli::PauliSet& set,
                             std::vector<pauli::PauliString>& strings) {
  api::SolveReport report =
      session.solve_incremental(api::Problem::pauli(set));
  std::fprintf(stderr,
               "picasso_cli: baseline %zu strings -> %u colors (%s)\n",
               set.size(), report.result.num_colors,
               util::format_duration(report.result.total_seconds).c_str());
  for (const std::string& path : opt.update_files) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open update file " + path);
    pauli::PauliSet delta = pauli::PauliSet::load_binary(in);
    for (std::size_t i = 0; i < delta.size(); ++i) {
      strings.push_back(delta.string(i));
    }
    report = session.update(api::UpdateDelta::pauli(std::move(delta)));
    const core::UpdateStats& u = *report.update;
    std::fprintf(stderr,
                 "picasso_cli: update %s: +%u vertices, %llu probes, "
                 "%u recolor moves, %u fresh colors, %u escalations -> "
                 "%u colors (%s)%s\n",
                 path.c_str(), u.vertices_inserted,
                 static_cast<unsigned long long>(u.bucket_probes),
                 u.recolor_moves, u.fresh_colors, u.escalations, u.num_colors,
                 util::format_duration(u.seconds).c_str(),
                 session.incremental_state()->spilled() ? " [spilled]" : "");
  }
  return report;
}

int cmd_partition(const CliOptions& opt) {
  if (opt.target.empty()) throw UsageError("partition requires a dataset name");
  // Validates numeric flags eagerly (UsageError on bad ones).
  api::Session session = session_from(opt);
  const auto& spec = pauli::dataset_by_name(opt.target);
  const auto& set = pauli::load_dataset(spec);
  core::PartitionResult result;
  api::SolveReport report;
  // The update and default paths color edge-free; a session solve reports
  // the engine its plan picked.
  api::ExecutionStrategy engine = api::ExecutionStrategy::Fused;
  const bool want_telemetry =
      opt.telemetry_level() != obs::TelemetryLevel::Off;
  // The combined set the groups are built from — the dataset itself unless
  // --update files extend it.
  const pauli::PauliSet* active = &set;
  pauli::PauliSet combined;
  if (!opt.update_files.empty()) {
    if (opt.mode != core::GroupingMode::Unitary) {
      throw UsageError("--update applies to unitary partitioning only");
    }
    std::vector<pauli::PauliString> strings;
    strings.reserve(set.size());
    for (std::size_t i = 0; i < set.size(); ++i) {
      strings.push_back(set.string(i));
    }
    report = run_updates(session, opt, set, strings);
    combined = pauli::PauliSet(std::move(strings));
    active = &combined;
    result.coloring = report.result;
    result.groups = core::groups_from_coloring(combined, result.coloring.colors);
  } else if (opt.strategy == api::ExecutionStrategy::Auto && !want_telemetry) {
    result = core::partition_pauli_strings(set, params_from(opt), opt.mode);
  } else if (opt.mode == core::GroupingMode::Unitary) {
    // A forced strategy (or a telemetry request) routes the coloring through
    // the session planner (e.g. --strategy fused colors edge-free); grouping
    // is unchanged and the coloring is bit-identical to the default path.
    report = session.solve(api::Problem::pauli(set));
    engine = report.plan.strategy;
    result.coloring = report.result;
    result.groups = core::groups_from_coloring(set, result.coloring.colors);
  } else {
    throw UsageError(
        "--strategy/--metrics/--trace overrides apply to unitary "
        "partitioning only; commute/qwc run the default pipeline");
  }
  const std::string violation =
      core::verify_partition(*active, result.groups, opt.mode);
  if (!violation.empty()) {
    std::fprintf(stderr, "picasso_cli: INVALID PARTITION: %s\n",
                 violation.c_str());
    return 1;
  }
  if (opt.csv) {
    std::printf("group,member,string,coefficient\n");
    for (std::size_t g = 0; g < result.groups.size(); ++g) {
      for (std::uint32_t m : result.groups[g].members) {
        std::printf("%zu,%u,%s,%.12g\n", g, m,
                    active->string(m).to_string().c_str(),
                    active->coefficient(m));
      }
    }
    emit_telemetry(report, opt);
    return 0;
  }
  // The edge-free engine never builds the conflict graph: its count is the
  // edges the strike scans visited, a lower bound of the conflict-graph
  // size.
  const bool edges_visited = engine == api::ExecutionStrategy::Fused;
  std::printf("%s under %s: %zu strings -> %zu groups (%.2fx), "
              "%zu iterations, %llu max conflict edges%s, %s\n",
              spec.name.c_str(), to_string(opt.mode), active->size(),
              result.num_groups(), result.compression_ratio(),
              result.coloring.iterations.size(),
              static_cast<unsigned long long>(result.coloring.max_conflict_edges),
              edges_visited ? " visited (a lower bound)" : "",
              util::format_duration(result.coloring.total_seconds).c_str());
  emit_telemetry(report, opt);
  return 0;
}

int cmd_color(const CliOptions& opt) {
  if (opt.file.empty()) {
    throw UsageError("color requires --file <edgelist|matrixmarket>");
  }
  const bool mtx = opt.mtx || graph::is_matrix_market_path(opt.file);
  const api::Session session = session_from(opt);
  api::SolveReport report;
  if (opt.stream) {
    if (mtx) {
      throw UsageError(
          "--stream replays edge-list files; convert the MatrixMarket input "
          "first (or drop --stream)");
    }
    report = session.solve(api::Problem::edge_stream_file(opt.file));
    const auto g = graph::read_edge_list_file(opt.file);  // verification only
    if (!coloring::is_valid_coloring(g, report.result.colors)) {
      std::fprintf(stderr, "picasso_cli: INVALID COLORING\n");
      return 1;
    }
  } else {
    auto g = mtx ? graph::read_matrix_market_file(opt.file)
                 : graph::read_edge_list_file(opt.file);
    report = session.solve(api::Problem::csr(g));
    if (opt.refine) {
      const auto refined = coloring::iterated_greedy_refine(g, report.result.colors);
      report.result.num_colors = refined.colors_after;
    }
    if (!coloring::is_valid_coloring(g, report.result.colors)) {
      std::fprintf(stderr, "picasso_cli: INVALID COLORING\n");
      return 1;
    }
  }
  const core::PicassoResult& result = report.result;
  if (opt.csv) {
    std::printf("vertex,color\n");
    for (std::uint32_t v = 0; v < result.colors.size(); ++v) {
      std::printf("%u,%u\n", v, result.colors[v]);
    }
    emit_telemetry(report, opt);
    return 0;
  }
  std::printf("%s: %zu vertices colored with %u colors in %zu iterations "
              "(%s) [%s]\n",
              opt.file.c_str(), result.colors.size(), result.num_colors,
              result.iterations.size(),
              util::format_duration(result.total_seconds).c_str(),
              to_string(report.plan.strategy));
  emit_telemetry(report, opt);
  return 0;
}

int cmd_sweep(const CliOptions& opt) {
  if (opt.target.empty()) throw UsageError("sweep requires a dataset name");
  session_from(opt);  // validate numeric flags eagerly (UsageError on bad ones)
  const auto& spec = pauli::dataset_by_name(opt.target);
  const auto& set = pauli::load_dataset(spec);
  const auto sweep = ml::parameter_sweep(set, ml::default_percent_grid(),
                                         ml::default_alpha_grid(),
                                         params_from(opt));
  if (opt.csv) {
    std::printf("percent,alpha,colors,max_conflict_edges,seconds\n");
    for (const auto& p : sweep) {
      std::printf("%.2f,%.2f,%u,%llu,%.4f\n", p.palette_percent, p.alpha,
                  p.colors, static_cast<unsigned long long>(p.max_conflict_edges),
                  p.seconds);
    }
    return 0;
  }
  util::Table table({"P'(%)", "alpha", "colors", "max |Ec|", "time"});
  for (const auto& p : sweep) {
    table.add_row({util::Table::fmt(p.palette_percent, 1),
                   util::Table::fmt(p.alpha, 1), util::Table::fmt_int(p.colors),
                   util::Table::fmt_int(static_cast<long long>(p.max_conflict_edges)),
                   util::format_duration(p.seconds)});
  }
  table.print("sweep of " + spec.name);
  return 0;
}

/// remote — drive a picasso_serve daemon: submit the dataset, stream
/// progress, optionally cancel mid-solve or verify against a local solve.
int cmd_remote(const CliOptions& opt) {
  if (opt.connect.empty()) {
    throw UsageError("remote requires --connect unix:/path or tcp:host:port");
  }
  if (opt.retries > 1 && opt.cancel_after >= 0) {
    throw UsageError("--retries and --cancel-after are incompatible "
                     "(cancellation needs one pinned connection)");
  }
  if (opt.remote_shutdown) {
    service::Client client = service::Client::connect(opt.connect);
    client.shutdown_server();
    std::printf("shutdown requested\n");
    return 0;
  }
  if (opt.remote_stats) {
    service::Client client = service::Client::connect(opt.connect);
    const service::StatsMsg stats = client.stats();
    std::printf(
        "received=%llu completed=%llu cache_hits=%llu cache_misses=%llu "
        "rejected_over_budget=%llu rejected_queue_full=%llu cancelled=%llu "
        "active=%llu queued=%llu spill_files_live=%llu "
        "deadline_exceeded=%llu degraded=%llu client_disconnects=%llu "
        "idle_disconnects=%llu orphan_spills_swept=%llu\n",
        static_cast<unsigned long long>(stats.received),
        static_cast<unsigned long long>(stats.completed),
        static_cast<unsigned long long>(stats.cache_hits),
        static_cast<unsigned long long>(stats.cache_misses),
        static_cast<unsigned long long>(stats.rejected_over_budget),
        static_cast<unsigned long long>(stats.rejected_queue_full),
        static_cast<unsigned long long>(stats.cancelled),
        static_cast<unsigned long long>(stats.active),
        static_cast<unsigned long long>(stats.queued),
        static_cast<unsigned long long>(stats.spill_files_live),
        static_cast<unsigned long long>(stats.deadline_exceeded),
        static_cast<unsigned long long>(stats.degraded),
        static_cast<unsigned long long>(stats.client_disconnects),
        static_cast<unsigned long long>(stats.idle_disconnects),
        static_cast<unsigned long long>(stats.orphan_spills_swept));
    return 0;
  }
  if (opt.target.empty()) throw UsageError("remote requires a dataset name");
  const auto& spec = pauli::dataset_by_name(opt.target);
  const auto& set = pauli::load_dataset(spec);

  service::RemoteParams params;
  params.palette_percent = opt.percent;
  params.alpha = opt.alpha;
  params.seed = opt.seed;
  params.strategy = static_cast<std::uint8_t>(opt.strategy);
  params.memory_budget_bytes = opt.budget_bytes;
  params.deadline_ms = opt.deadline_ms;

  service::RemoteResult outcome;
  int progress_frames = 0;
  if (opt.retries > 1) {
    service::RetryPolicy policy;
    policy.max_attempts = opt.retries;
    outcome = service::solve_with_retry(opt.connect, set, params, policy,
                                        opt.tenant, opt.priority);
  } else {
    service::Client client = service::Client::connect(opt.connect);
    service::ProgressHandler on_progress;
    if (opt.cancel_after >= 0) {
      on_progress = [&](const service::ProgressMsg& msg) {
        if (++progress_frames == opt.cancel_after) client.request_cancel();
        (void)msg;
      };
    }
    outcome = client.solve(set, params, opt.tenant, opt.priority, on_progress);
  }
  if (!outcome.ok) {
    if (outcome.error_code == service::ServiceErrorCode::Cancelled &&
        opt.cancel_after >= 0) {
      // The cancellation this invocation asked for — a success.
      std::printf("%s: cancelled by client after %d progress frames\n",
                  spec.name.c_str(), progress_frames);
      return 0;
    }
    std::fprintf(stderr, "picasso_cli: remote error [%s]: %s\n",
                 to_string(outcome.error_code),
                 outcome.error_message.c_str());
    return 1;
  }

  const service::ResultMsg& result = outcome.result;
  std::printf("%s: %zu strings -> %u colors (palette %u, %u iterations) "
              "in %s [%s] coloring_hash=%016llx\n",
              spec.name.c_str(), result.colors.size(), result.num_colors,
              result.palette_total, result.iterations,
              util::format_duration(result.seconds).c_str(),
              result.cache_hit ? "cache-hit" : "solved",
              static_cast<unsigned long long>(result.coloring_hash));
  if (outcome.attempts > 1) {
    std::printf("%s: succeeded on attempt %u\n", spec.name.c_str(),
                outcome.attempts);
  }
  if (result.degraded) {
    std::printf("%s: DEGRADED: %s\n", spec.name.c_str(),
                result.degraded_reason.c_str());
  }

  if (opt.verify_local) {
    const api::Session session = session_from(opt);
    const api::SolveReport local = session.solve(api::Problem::pauli(set));
    const std::vector<std::uint32_t> local_colors = local.result.colors;
    if (local_colors != result.colors ||
        util::coloring_fingerprint(local_colors) != result.coloring_hash) {
      std::fprintf(stderr,
                   "picasso_cli: REMOTE/LOCAL MISMATCH on %s (local hash "
                   "%016llx, remote %016llx)\n",
                   spec.name.c_str(),
                   static_cast<unsigned long long>(
                       util::coloring_fingerprint(local_colors)),
                   static_cast<unsigned long long>(result.coloring_hash));
      return 1;
    }
    std::printf("%s: local verification MATCH\n", spec.name.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliOptions opt = parse_args(argc, argv);
    if (opt.command == "list") return cmd_list();
    if (opt.command == "info") return cmd_info(opt);
    if (opt.command == "partition") return cmd_partition(opt);
    if (opt.command == "color") return cmd_color(opt);
    if (opt.command == "sweep") return cmd_sweep(opt);
    if (opt.command == "remote") return cmd_remote(opt);
    throw UsageError("unknown command '" + opt.command + "'");
  } catch (const UsageError& e) {
    std::fprintf(stderr, "picasso_cli: %s\n%s\n", e.what(), kUsage);
    return 2;
  } catch (const picasso::api::ApiError& e) {
    std::fprintf(stderr, "picasso_cli: %s\n", e.what());
    // Configuration-class errors (a flag combination the planner rejects,
    // e.g. --stream with --strategy fused) are operator mistakes -> usage
    // exit code; IO and internal failures stay runtime errors.
    switch (e.code()) {
      case picasso::api::ErrorCode::InvalidArgument:
      case picasso::api::ErrorCode::InvalidConfiguration:
      case picasso::api::ErrorCode::IncompatibleStrategy:
        std::fprintf(stderr, "%s\n", kUsage);
        return 2;
      default:
        return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "picasso_cli: error: %s\n", e.what());
    return 1;
  }
}
