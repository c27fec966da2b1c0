#include "api/session.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <thread>
#include <utility>

#include "util/word_hash.hpp"

namespace picasso::api {

namespace {

bool oracle_capable(ProblemKind kind) {
  switch (kind) {
    case ProblemKind::Pauli:
    case ProblemKind::PackedPauli:
    case ProblemKind::Csr:
    case ProblemKind::Dense:
    case ProblemKind::Oracle:
      return true;
    default:
      return false;
  }
}

/// Runs `engine` on the adjacency oracle of an oracle-backed problem; a
/// packed Pauli input is charged for the whole solve, as solve_pauli does.
template <typename Engine>
core::PicassoResult on_oracle(const Problem& problem, Engine&& engine) {
  switch (problem.kind()) {
    case ProblemKind::PackedPauli: {
      const pauli::PackedPauliSet& set = problem.packed_set();
      util::ScopedCharge input_charge(util::MemSubsystem::PauliInput,
                                      set.logical_bytes());
      return engine(graph::PackedComplementOracle(set.view()));
    }
    case ProblemKind::Csr:
      return engine(graph::CsrOracle(problem.csr_graph()));
    case ProblemKind::Dense:
      return engine(graph::DenseOracle(problem.dense_graph()));
    default:
      return engine(problem.oracle_ref());
  }
}

/// A fresh spill path for an incremental state (the state owns and removes
/// the file). Shares core::unique_spill_path's process-wide counter with
/// the budgeted engine, so no two concurrent solves — whatever mix of
/// incremental and streamed — can collide on a name.
std::string incremental_spill_path(const std::string& spill_dir) {
  return core::unique_spill_path(spill_dir, "incr");
}

/// Builds the resident state for a session. A memory budget or an explicit
/// chunk size routes the record store through a spill from the first
/// ingest: an incremental store only ever grows, so a budgeted session
/// spills up front rather than migrating later. The coloring is identical
/// either way.
std::shared_ptr<core::FusedState> make_incremental_state(
    const core::PicassoParams& params, const core::UpdateParams& update_params,
    const core::StreamingOptions& streaming, std::size_t num_qubits) {
  auto state = std::make_shared<core::FusedState>(params, update_params);
  if (streaming.chunk_strings > 0 || params.memory_budget_bytes > 0) {
    // Same derivation as the budgeted engine; the store only grows, so the
    // chunk is not clamped to the baseline's size.
    const std::size_t chunk = core::spill_chunk_strings(
        streaming.chunk_strings, params.memory_budget_bytes,
        pauli::pset_record_bytes(num_qubits),
        std::numeric_limits<std::size_t>::max());
    state->use_spill(incremental_spill_path(streaming.spill_dir), chunk);
  }
  return state;
}

}  // namespace

UpdateDelta UpdateDelta::pauli(pauli::PauliSet&& records) {
  UpdateDelta delta;
  delta.records_ =
      std::make_shared<const pauli::PauliSet>(std::move(records));
  return delta;
}

UpdateDelta UpdateDelta::pauli(const pauli::PauliSet& records) {
  UpdateDelta delta;
  delta.records_ = std::shared_ptr<const pauli::PauliSet>(
      &records, [](const pauli::PauliSet*) {});
  return delta;
}

UpdateDelta UpdateDelta::graph(std::vector<core::GraphVertexDelta> vertices) {
  UpdateDelta delta;
  delta.vertices_ = std::move(vertices);
  return delta;
}

const char* to_string(ExecutionStrategy strategy) noexcept {
  switch (strategy) {
    case ExecutionStrategy::Auto: return "auto";
    case ExecutionStrategy::InMemory: return "in-memory";
    case ExecutionStrategy::SemiStreaming: return "semi-streaming";
    case ExecutionStrategy::Fused: return "fused";
  }
  return "?";
}

ExecutionStrategy parse_strategy(std::string_view name) {
  constexpr ExecutionStrategy kAll[] = {
      ExecutionStrategy::Auto, ExecutionStrategy::InMemory,
      ExecutionStrategy::SemiStreaming, ExecutionStrategy::Fused};
  for (ExecutionStrategy strategy : kAll) {
    if (name == to_string(strategy)) return strategy;
  }
  // CLI shorthands.
  if (name == "inmemory") return ExecutionStrategy::InMemory;
  // Build the valid list from the same enumeration the parser walks, so
  // the message can never drift from what is actually accepted.
  std::string valid;
  for (ExecutionStrategy strategy : kAll) {
    if (!valid.empty()) valid += ", ";
    valid += to_string(strategy);
    if (strategy == ExecutionStrategy::InMemory) valid += " (inmemory)";
  }
  throw std::invalid_argument("unknown execution strategy '" +
                              std::string(name) + "' (valid: " + valid + ")");
}

std::uint64_t problem_fingerprint(const pauli::PackedView& view,
                                  std::size_t num_qubits,
                                  const core::PicassoParams& params) {
  // Geometry, the raw symplectic planes (the canonical record words shared
  // by PauliSet::packed_view() and PackedPauliSet::view()), then only the
  // params that can change the coloring (see the header contract). Doubles
  // enter as their bit patterns: they are exact user inputs, not computed
  // values, so bitwise identity is the right equality.
  const std::uint64_t fields[] = {
      static_cast<std::uint64_t>(num_qubits),
      static_cast<std::uint64_t>(view.size),
      util::hash_words(view.data, view.size * view.record_words()),
      std::bit_cast<std::uint64_t>(params.palette_percent),
      std::bit_cast<std::uint64_t>(params.alpha),
      params.seed,
      static_cast<std::uint64_t>(params.max_iterations)};
  return util::hash_words(fields, std::size(fields));
}

std::uint64_t problem_fingerprint(const pauli::PauliSet& set,
                                  const core::PicassoParams& params) {
  return problem_fingerprint(set.packed_view(), set.num_qubits(), params);
}

std::string SolveTelemetry::to_json() const {
  std::string out = "{\"level\":\"";
  out += obs::to_string(level);
  out += "\",\"counters\":";
  out += counters.to_json();
  out += ",\"memory\":";
  out += memory.to_json();
  char tail[64];
  std::snprintf(tail, sizeof(tail), ",\"spans\":%zu,\"dropped_spans\":%llu}",
                spans.size(),
                static_cast<unsigned long long>(dropped_spans));
  out += tail;
  return out;
}

std::string SolvePlan::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "strategy=%s budget=%zu chunk_strings=%zu (%s)",
                to_string(strategy), memory_budget_bytes, chunk_strings,
                reason.c_str());
  return buf;
}

Session SessionBuilder::build() const {
  const core::PicassoParams& p = session_.params_;
  if (!(p.palette_percent > 0.0) || p.palette_percent > 100.0) {
    throw ApiError(ErrorCode::InvalidArgument, "palette_percent",
                   "must be in (0, 100], got " +
                       std::to_string(p.palette_percent));
  }
  if (!(p.alpha > 0.0)) {
    throw ApiError(ErrorCode::InvalidArgument, "alpha",
                   "must be > 0, got " + std::to_string(p.alpha));
  }
  if (p.max_iterations < 1) {
    throw ApiError(ErrorCode::InvalidArgument, "max_iterations",
                   "must be >= 1, got " + std::to_string(p.max_iterations));
  }
  return session_;
}

SolvePlan Session::plan(const Problem& problem) const {
  SolvePlan plan;
  plan.memory_budget_bytes = params_.memory_budget_bytes;

  const ProblemKind kind = problem.kind();
  const std::size_t n = problem.num_vertices();
  // Bytes per string a spill chunk holds: the .pset record of an encoded
  // set, or what a spill-backed problem recorded (n records).
  const std::size_t per_string =
      kind == ProblemKind::Pauli
          ? pauli::pset_record_bytes(problem.pauli_set().num_qubits())
          : (n > 0 ? problem.logical_bytes() / n : problem.logical_bytes());

  // The budgeted engine's own spill gate: stream when told the chunk size
  // or when holding the whole encoded input would eat more than half the
  // budget. Spill-backed kinds always stream.
  const bool spill_backed =
      kind == ProblemKind::SpillFile || kind == ProblemKind::SpillReader;
  const bool pauli_spills =
      kind == ProblemKind::Pauli &&
      (streaming_.chunk_strings > 0 ||
       (params_.memory_budget_bytes > 0 &&
        2 * problem.logical_bytes() > params_.memory_budget_bytes));

  ExecutionStrategy strategy = strategy_;
  if (strategy == ExecutionStrategy::Auto) {
    if (spill_backed) {
      strategy = ExecutionStrategy::Fused;
      plan.reason = "problem is spill-backed: fused streaming engine";
    } else if (kind == ProblemKind::EdgeStream) {
      strategy = ExecutionStrategy::SemiStreaming;
      plan.reason = "problem is an edge stream";
    } else if (pauli_spills && n > 0) {
      strategy = ExecutionStrategy::Fused;
      plan.reason = streaming_.chunk_strings > 0
                        ? "explicit chunk size forces streaming"
                        : "encoded input exceeds half the memory budget";
    } else {
      // Every remaining kind is oracle-capable: color edge-free off the
      // palette buckets (bit-identical to the materialized engine, which
      // stays reachable as the paper reference via .strategy(InMemory)).
      strategy = ExecutionStrategy::Fused;
      plan.reason = "input fits in memory: edge-free fused engine";
    }
  } else {
    plan.reason = "strategy forced by configuration";
  }

  // Forced-strategy compatibility checks.
  switch (strategy) {
    case ExecutionStrategy::InMemory:
      if (!oracle_capable(kind)) {
        throw ApiError(ErrorCode::IncompatibleStrategy, "strategy",
                       std::string("InMemory cannot run a ") +
                           to_string(kind) + " problem");
      }
      break;
    case ExecutionStrategy::SemiStreaming:
      if (kind != ProblemKind::EdgeStream) {
        throw ApiError(ErrorCode::IncompatibleStrategy, "strategy",
                       std::string("SemiStreaming needs an edge-stream "
                                   "problem, got ") +
                           to_string(kind));
      }
      break;
    case ExecutionStrategy::Fused:
      if (!oracle_capable(kind) && !spill_backed) {
        throw ApiError(ErrorCode::IncompatibleStrategy, "strategy",
                       std::string("Fused needs an oracle-capable or "
                                   "spill-backed problem, got ") +
                           to_string(kind));
      }
      break;
    case ExecutionStrategy::Auto:
      break;  // resolved above
  }

  plan.strategy = strategy;
  if (strategy == ExecutionStrategy::Fused) {
    // A fused solve streams only when spill-backed input or the budgeted
    // engine's own gate forces it; chunk_strings == 0 means the in-memory
    // fused engine runs. The solve hands this chunking to the engine, so
    // plan == execution.
    if (kind == ProblemKind::SpillReader) {
      plan.chunk_strings = problem.reader().strings_per_chunk();
    } else if (spill_backed || pauli_spills) {
      plan.chunk_strings = core::spill_chunk_strings(
          streaming_.chunk_strings, params_.memory_budget_bytes, per_string,
          n);
    }
  }
  return plan;
}

SolveReport Session::solve(const Problem& problem,
                           const SolveOptions& options) const {
  SolveReport report;
  report.plan = plan(problem);
  if (problem.kind() == ProblemKind::Pauli) {
    report.problem_hash = problem_fingerprint(problem.pauli_set(), params_);
  } else if (problem.kind() == ProblemKind::PackedPauli) {
    report.problem_hash =
        problem_fingerprint(problem.packed_set().view(),
                            problem.packed_set().num_qubits(), params_);
  }

  core::PicassoParams params = params_;
  // Stop tokens compose (a stop from either the session-level token or the
  // per-call one cancels); the progress callback overrides.
  if (options.stop.stop_possible()) {
    params.stop = core::StopToken::any_of(params.stop, options.stop);
  }
  if (options.progress) params.progress = options.progress;

  // Telemetry scope around the whole dispatch: the run scope zeroes the
  // global counter registry and enables it per the session's level; a
  // local recorder collects phase spans at Full (engines test one pointer
  // per scope when it is absent, so Off/Counters pay nothing for tracing).
  obs::MetricsRunScope metrics_scope(telemetry_ != obs::TelemetryLevel::Off);
  obs::TraceRecorder recorder;
  if (telemetry_ == obs::TelemetryLevel::Full) params.trace = &recorder;

  switch (report.plan.strategy) {
    case ExecutionStrategy::InMemory:
      report.result =
          problem.kind() == ProblemKind::Pauli
              ? core::solve_pauli(problem.pauli_set(), params)
              : on_oracle(problem, [&params](const auto& oracle) {
                  return core::solve_oracle(oracle, params);
                });
      break;
    case ExecutionStrategy::SemiStreaming:
      report.result = core::solve_stream(problem.num_vertices(),
                                         problem.edge_source(), params);
      break;
    case ExecutionStrategy::Fused: {
      switch (problem.kind()) {
        case ProblemKind::Pauli: {
          // The budgeted engine streams with the planned chunking and runs
          // the in-memory fused engine when nothing forces a spill
          // (plan.chunk_strings == 0).
          core::StreamingOptions options_with_chunk = streaming_;
          options_with_chunk.chunk_strings = report.plan.chunk_strings;
          report.result = core::solve_pauli_budgeted_fused(
              problem.pauli_set(), params, options_with_chunk);
          break;
        }
        case ProblemKind::SpillReader:
          report.result =
              core::solve_pauli_chunked_fused(problem.reader(), params);
          break;
        case ProblemKind::SpillFile: {
          const pauli::ChunkedPauliReader reader(problem.path(),
                                                 report.plan.chunk_strings);
          report.result = core::solve_pauli_chunked_fused(reader, params);
          break;
        }
        default:
          report.result = on_oracle(problem, [&params](const auto& oracle) {
            return core::solve_fused(oracle, params);
          });
          break;
      }
      break;
    }
    case ExecutionStrategy::Auto:
      break;  // unreachable: plan() always resolves Auto
  }

  if (telemetry_ != obs::TelemetryLevel::Off) {
    report.telemetry.level = telemetry_;
    // The engines' pools have joined by now, so the per-thread shards are
    // quiescent and the totals are exact.
    report.telemetry.counters = obs::global_metrics().totals();
    report.telemetry.spans = recorder.take_spans();
    report.telemetry.dropped_spans = recorder.dropped();
    report.telemetry.memory = report.result.memory;
  }
  return report;
}

SolveReport Session::solve_incremental(const Problem& problem,
                                       const SolveOptions& options) {
  const ProblemKind kind = problem.kind();
  const bool graph_backed = kind == ProblemKind::Csr ||
                            kind == ProblemKind::Dense ||
                            kind == ProblemKind::Oracle;
  if (kind != ProblemKind::Pauli && !graph_backed) {
    throw ApiError(ErrorCode::IncompatibleStrategy, "problem",
                   std::string("solve_incremental needs an encoded Pauli or "
                               "explicit-graph problem, got ") +
                       to_string(kind));
  }

  core::PicassoParams params = params_;
  if (options.stop.stop_possible()) {
    params.stop = core::StopToken::any_of(params.stop, options.stop);
  }
  if (options.progress) params.progress = options.progress;

  SolveReport report;
  obs::MetricsRunScope metrics_scope(telemetry_ != obs::TelemetryLevel::Off);
  obs::TraceRecorder recorder;
  if (telemetry_ == obs::TelemetryLevel::Full) params.trace = &recorder;

  // The state is installed only after the solve and the adoption both
  // succeed, so a cancelled baseline leaves any previous state untouched.
  std::shared_ptr<core::FusedState> state;
  if (kind == ProblemKind::Pauli) {
    const pauli::PauliSet& set = problem.pauli_set();
    state = make_incremental_state(params_, update_params_, streaming_,
                                   set.num_qubits());
    // A spilled state honors the budget during the baseline too: it
    // streams from the spill it keeps, bit-identical to the in-memory
    // fused engine.
    report.result = state->solve_pauli_baseline(set, params);
  } else {
    // Graph-backed baseline: fused solve over the explicit graph, then
    // adopt the coloring. Later update() calls take GraphVertexDelta
    // increments (greedy insertion; see core::FusedState).
    report.result = on_oracle(problem, [&params](const auto& oracle) {
      return core::solve_fused(oracle, params);
    });
    state = std::make_shared<core::FusedState>(params_, update_params_);
    state->adopt_graph_solution(report.result.colors);
  }
  state_ = std::move(state);

  report.plan.strategy = ExecutionStrategy::Fused;
  report.plan.memory_budget_bytes = params_.memory_budget_bytes;
  report.plan.chunk_strings = state_->chunk_strings();
  report.plan.reason = "incremental baseline: fused solve, state kept resident";

  if (telemetry_ != obs::TelemetryLevel::Off) {
    report.telemetry.level = telemetry_;
    report.telemetry.counters = obs::global_metrics().totals();
    report.telemetry.spans = recorder.take_spans();
    report.telemetry.dropped_spans = recorder.dropped();
    report.telemetry.memory = report.result.memory;
  }
  return report;
}

SolveReport Session::update(const UpdateDelta& delta,
                            const SolveOptions& options) {
  core::StopToken stop = params_.stop;
  if (options.stop.stop_possible()) {
    stop = core::StopToken::any_of(stop, options.stop);
  }
  const core::ProgressFn& progress =
      options.progress ? options.progress : params_.progress;

  SolveReport report;
  obs::MetricsRunScope metrics_scope(telemetry_ != obs::TelemetryLevel::Off);
  obs::TraceRecorder recorder;
  obs::TraceRecorder* trace =
      telemetry_ == obs::TelemetryLevel::Full ? &recorder : nullptr;

  if (!state_) {
    if (!delta.is_pauli()) {
      throw ApiError(ErrorCode::InvalidConfiguration, "delta",
                     "graph deltas need a resident graph state; only Pauli "
                     "deltas bootstrap an empty session — call "
                     "solve_incremental first");
    }
    state_ = make_incremental_state(params_, update_params_, streaming_,
                                    delta.pauli_records().num_qubits());
  }

  core::UpdateStats stats;
  try {
    const obs::ScopedSpan span(trace, "update");
    stats = delta.is_pauli()
                ? state_->update_pauli(delta.pauli_records(), stop, progress,
                                       trace)
                : state_->update_graph(delta.graph_vertices(), stop, progress);
  } catch (const std::invalid_argument& error) {
    // Shape errors (qubit-count mismatch, delta kind vs state kind, bad
    // conflict ids) surface as structured ApiErrors; SolveCancelled
    // propagates as-is — the state stays consistent and the next update
    // colors the ingested backlog.
    throw ApiError(ErrorCode::InvalidArgument, "delta", error.what());
  }

  report.update = stats;
  report.plan.strategy = ExecutionStrategy::Fused;
  report.plan.memory_budget_bytes = params_.memory_budget_bytes;
  report.plan.chunk_strings = state_->chunk_strings();
  report.plan.reason = "incremental update over the resident fused state";

  report.result.colors = state_->colors();
  report.result.num_colors = stats.num_colors;
  report.result.palette_total = state_->total_colors();
  report.result.total_seconds = stats.seconds;
  report.result.memory =
      core::MemoryReport::capture(util::global_memory().snapshot());
  report.result.memory.streamed = state_->spilled();
  report.result.memory.spill_bytes = state_->spill_bytes();

  if (telemetry_ != obs::TelemetryLevel::Off) {
    report.telemetry.level = telemetry_;
    report.telemetry.counters = obs::global_metrics().totals();
    report.telemetry.spans = recorder.take_spans();
    report.telemetry.dropped_spans = recorder.dropped();
    report.telemetry.memory = report.result.memory;
  }
  return report;
}

AsyncSolve Session::solve_async(Problem problem, SolveOptions options) const {
  core::StopSource stop;
  // The worker observes both the handle's source and any caller-supplied
  // token, so either can cancel the run.
  options.stop = core::StopToken::any_of(options.stop, stop.token());
  Session session = *this;  // the worker owns its own copy
  std::future<SolveReport> future = std::async(
      std::launch::async,
      [session, problem = std::move(problem), options]() mutable {
        return session.solve(problem, options);
      });
  return AsyncSolve(std::move(stop), std::move(future));
}

}  // namespace picasso::api
