// The public session front-end: builder validation (structured ApiErrors),
// plan selection (budget forces streaming, spill/stream problems pick
// their pipelines), cooperative cancellation
// (including the no-spill-left-behind guarantee), progress reporting,
// async solves, problem factories, and the version macros.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "api/version.hpp"
#include "coloring/verify.hpp"
#include "graph/graph_gen.hpp"
#include "graph/oracles.hpp"
#include "pauli/pauli_packed.hpp"
#include "pauli/pauli_stream.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"

namespace papi = picasso::api;
namespace pcore = picasso::core;
namespace pg = picasso::graph;
namespace pp = picasso::pauli;
namespace fs = std::filesystem;

namespace {

pp::PauliSet random_set(std::size_t count, std::size_t qubits,
                        std::uint64_t seed) {
  picasso::util::Xoshiro256 rng(seed);
  std::vector<pp::PauliString> strings;
  for (std::size_t i = 0; i < count; ++i) {
    pp::PauliString s(qubits);
    for (std::size_t q = 0; q < qubits; ++q) {
      s.set_op(q, static_cast<pp::PauliOp>(rng.bounded(4)));
    }
    strings.push_back(s);
  }
  return pp::PauliSet(strings);
}

/// Expects fn() to throw ApiError with the given code and field.
template <typename Fn>
void expect_api_error(Fn&& fn, papi::ErrorCode code, const std::string& field) {
  try {
    fn();
    FAIL() << "expected ApiError " << to_string(code) << " on " << field;
  } catch (const papi::ApiError& e) {
    EXPECT_EQ(e.code(), code) << e.what();
    EXPECT_EQ(e.field(), field) << e.what();
  }
}

}  // namespace

// --- Builder validation ------------------------------------------------------

TEST(SessionBuilder, RejectsOutOfDomainPalette) {
  for (double bad : {0.0, -3.0, 101.0}) {
    expect_api_error([&] { papi::SessionBuilder().palette(bad, 2.0).build(); },
                     papi::ErrorCode::InvalidArgument, "palette_percent");
  }
  expect_api_error([&] { papi::SessionBuilder().palette(12.5, 0.0).build(); },
                   papi::ErrorCode::InvalidArgument, "alpha");
}

TEST(SessionBuilder, RejectsNonPositiveIterations) {
  expect_api_error([&] { papi::SessionBuilder().max_iterations(0).build(); },
                   papi::ErrorCode::InvalidArgument, "max_iterations");
}

// --- Plan selection ----------------------------------------------------------

TEST(SessionPlan, DefaultsToFused) {
  const auto g = pg::erdos_renyi_dense(60, 0.4, 1);
  const auto plan = papi::Session().plan(papi::Problem::dense(g));
  EXPECT_EQ(plan.strategy, papi::ExecutionStrategy::Fused);
}

// Auto plans the edge-free engine for every in-memory oracle-capable kind
// and lands on the materialized engine's exact coloring for each.
TEST(SessionPlan, AutoPlansFusedWithTheInMemoryColoringForEveryKind) {
  const auto set = random_set(200, 14, 13);
  const pp::PackedPauliSet packed(set);
  const auto csr = pg::erdos_renyi(300, 0.1, 13);
  const auto dense = pg::erdos_renyi_dense(150, 0.4, 13);
  const pg::CsrOracle oracle(csr);
  const std::vector<std::pair<const char*, papi::Problem>> problems = {
      {"pauli", papi::Problem::pauli(set)},
      {"packed", papi::Problem::packed(packed)},
      {"csr", papi::Problem::csr(csr)},
      {"dense", papi::Problem::dense(dense)},
      {"oracle", papi::Problem::oracle(oracle)},
  };
  const auto in_memory = papi::SessionBuilder()
                             .seed(13)
                             .strategy(papi::ExecutionStrategy::InMemory)
                             .build();
  const auto automatic = papi::SessionBuilder().seed(13).build();
  for (const auto& [name, problem] : problems) {
    EXPECT_EQ(automatic.plan(problem).strategy,
              papi::ExecutionStrategy::Fused)
        << name;
    const auto fused = automatic.solve(problem);
    const auto ref = in_memory.solve(problem);
    EXPECT_EQ(fused.plan.strategy, papi::ExecutionStrategy::Fused) << name;
    EXPECT_EQ(ref.plan.strategy, papi::ExecutionStrategy::InMemory) << name;
    EXPECT_EQ(picasso::util::coloring_fingerprint(fused.result.colors),
              picasso::util::coloring_fingerprint(ref.result.colors))
        << name;
  }
}

TEST(SessionPlan, TightBudgetForcesStreamingForPauli) {
  const auto set = random_set(300, 16, 3);
  const auto problem = papi::Problem::pauli(set);
  // Budget below twice the encoded bytes => spill; and since the projected
  // conflict CSR would blow a budget this small too, Auto escalates to the
  // fused streaming engine. Chunk size still derived.
  const auto tight = papi::SessionBuilder()
                         .memory_budget(set.logical_bytes())
                         .build()
                         .plan(problem);
  ASSERT_GT(pcore::projected_conflict_csr_bytes(
                static_cast<std::uint32_t>(set.size()), 12.5, 2.0),
            set.logical_bytes());
  EXPECT_EQ(tight.strategy, papi::ExecutionStrategy::Fused);
  EXPECT_GT(tight.chunk_strings, 0u);
  EXPECT_LE(tight.chunk_strings, set.size());

  // Tight for the input but roomy for the conflict CSR (few long strings):
  // still the fused streaming engine, the one engine for spilled input.
  const auto wide_set = random_set(60, 2000, 3);
  const std::size_t wide_budget = 48 << 10;
  ASSERT_GT(2 * wide_set.logical_bytes(), wide_budget);
  ASSERT_LE(pcore::projected_conflict_csr_bytes(
                static_cast<std::uint32_t>(wide_set.size()), 12.5, 2.0),
            wide_budget);
  const auto spilled = papi::SessionBuilder()
                           .memory_budget(wide_budget)
                           .build()
                           .plan(papi::Problem::pauli(wide_set));
  EXPECT_EQ(spilled.strategy, papi::ExecutionStrategy::Fused);
  EXPECT_GT(spilled.chunk_strings, 0u);

  // A budget roomy for the input but below the projected conflict-CSR
  // assembly plans the edge-free fused engine instead of materialising.
  const auto mid = papi::SessionBuilder()
                       .memory_budget(16 * set.logical_bytes())
                       .build()
                       .plan(problem);
  ASSERT_GT(pcore::projected_conflict_csr_bytes(
                static_cast<std::uint32_t>(set.size()), 12.5, 2.0),
            16 * set.logical_bytes());
  EXPECT_EQ(mid.strategy, papi::ExecutionStrategy::Fused);
  EXPECT_EQ(mid.chunk_strings, 0u);  // in-memory fused: nothing spills

  // A budget above both gates keeps it fully in memory, on the same
  // edge-free engine Auto picks without a budget.
  const auto roomy = papi::SessionBuilder()
                         .memory_budget(std::size_t{1} << 30)
                         .build()
                         .plan(problem);
  EXPECT_EQ(roomy.strategy, papi::ExecutionStrategy::Fused);
  EXPECT_EQ(roomy.chunk_strings, 0u);
}

TEST(SessionPlan, ExplicitChunkSizeForcesStreaming) {
  const auto set = random_set(100, 10, 5);
  pcore::StreamingOptions options;
  options.chunk_strings = 25;
  const auto plan = papi::SessionBuilder()
                        .streaming(options)
                        .build()
                        .plan(papi::Problem::pauli(set));
  EXPECT_EQ(plan.strategy, papi::ExecutionStrategy::Fused);
  EXPECT_EQ(plan.chunk_strings, 25u);
}

TEST(SessionPlan, ProblemKindPicksItsPipeline) {
  const auto set = random_set(60, 8, 9);
  const auto dir = fs::temp_directory_path() / "picasso_api_plan";
  fs::create_directories(dir);
  const auto spill = (dir / "plan.pset").string();
  pp::spill_pauli_set(set, spill);

  const papi::Session session;
  EXPECT_EQ(session.plan(papi::Problem::pauli_spill(spill)).strategy,
            papi::ExecutionStrategy::Fused);

  const pp::ChunkedPauliReader reader(spill, 16);
  const auto reader_plan = session.plan(papi::Problem::spill_reader(reader));
  EXPECT_EQ(reader_plan.strategy, papi::ExecutionStrategy::Fused);
  EXPECT_EQ(reader_plan.chunk_strings, 16u);  // the reader's chunking wins

  const pcore::VectorEdgeStream stream({{0, 1}, {1, 2}});
  EXPECT_EQ(session.plan(papi::Problem::edge_stream(3, stream)).strategy,
            papi::ExecutionStrategy::SemiStreaming);

  fs::remove_all(dir);
}

// Spill-backed input has one engine: Auto plans the fused streaming engine
// with no budget and with a budget the projected conflict CSR fits, and
// runs it to the same coloring as the in-memory solve.
TEST(SessionPlan, SpillBackedInputPlansFusedWithOrWithoutBudget) {
  const auto set = random_set(120, 10, 13);
  const auto dir = fs::temp_directory_path() / "picasso_api_plan_spill";
  fs::create_directories(dir);
  const auto spill = (dir / "spill.pset").string();
  pp::spill_pauli_set(set, spill);
  const pp::ChunkedPauliReader reader(spill, 30);
  const auto in_memory =
      papi::Session().solve(papi::Problem::pauli(set)).result.colors;

  const std::size_t csr_fits = std::size_t{1} << 30;
  ASSERT_LE(pcore::projected_conflict_csr_bytes(
                static_cast<std::uint32_t>(set.size()), 12.5, 2.0),
            csr_fits);
  for (const std::size_t budget : {std::size_t{0}, csr_fits}) {
    const auto session = papi::SessionBuilder().memory_budget(budget).build();
    for (const auto& problem : {papi::Problem::pauli_spill(spill),
                                papi::Problem::spill_reader(reader)}) {
      const auto report = session.solve(problem);
      EXPECT_EQ(report.plan.strategy, papi::ExecutionStrategy::Fused)
          << budget << " " << papi::to_string(problem.kind());
      EXPECT_TRUE(report.result.memory.streamed);
      EXPECT_EQ(report.result.colors, in_memory);
    }
  }
  // No budget, no chunk size: the spill file is read as one chunk.
  EXPECT_EQ(papi::Session().plan(papi::Problem::pauli_spill(spill))
                .chunk_strings,
            set.size());
  fs::remove_all(dir);
}

TEST(SessionPlan, ForcedStrategyMismatchThrows) {
  const auto g = pg::erdos_renyi_dense(40, 0.3, 2);
  const auto problem = papi::Problem::dense(g);
  expect_api_error(
      [&] {
        papi::SessionBuilder()
            .strategy(papi::ExecutionStrategy::SemiStreaming)
            .build()
            .plan(problem);
      },
      papi::ErrorCode::IncompatibleStrategy, "strategy");
  const pcore::VectorEdgeStream stream({{0, 1}, {1, 2}});
  expect_api_error(
      [&] {
        papi::SessionBuilder()
            .strategy(papi::ExecutionStrategy::Fused)
            .memory_budget(1 << 20)
            .build()
            .plan(papi::Problem::edge_stream(3, stream));
      },
      papi::ErrorCode::IncompatibleStrategy, "strategy");
}

TEST(SessionPlan, ReportCarriesTheExecutedPlan) {
  const auto set = random_set(200, 12, 11);
  pcore::StreamingOptions options;
  options.chunk_strings = 50;
  const auto report = papi::SessionBuilder()
                          .streaming(options)
                          .build()
                          .solve(papi::Problem::pauli(set));
  EXPECT_EQ(report.plan.strategy, papi::ExecutionStrategy::Fused);
  EXPECT_EQ(report.plan.chunk_strings, 50u);
  EXPECT_TRUE(report.result.memory.streamed);
  EXPECT_FALSE(report.plan.summary().empty());
}

// --- Progress and cancellation ----------------------------------------------

TEST(SessionProgress, IterationEventsCoverTheWholeSolve) {
  const auto g = pg::erdos_renyi_dense(200, 0.4, 21);
  std::vector<pcore::ProgressEvent> events;
  papi::SolveOptions options;
  options.progress = [&events](const pcore::ProgressEvent& e) {
    events.push_back(e);
  };
  const auto report =
      papi::Session().solve(papi::Problem::dense(g), options);
  ASSERT_FALSE(events.empty());
  std::uint32_t colored = 0;
  int last_iteration = -1;
  for (const auto& e : events) {
    EXPECT_EQ(e.stage, pcore::ProgressStage::IterationDone);
    EXPECT_GT(e.iteration, last_iteration);
    last_iteration = e.iteration;
    colored += e.colored;
  }
  EXPECT_EQ(events.size(), report.result.iterations.size());
  // converged => every vertex was colored through an iteration event.
  ASSERT_TRUE(report.result.converged);
  EXPECT_EQ(colored, g.num_vertices());
}

TEST(SessionCancel, PreRequestedStopCancelsImmediately) {
  const auto g = pg::erdos_renyi_dense(100, 0.4, 23);
  pcore::StopSource stop;
  stop.request_stop();
  papi::SolveOptions options;
  options.stop = stop.token();
  EXPECT_THROW(papi::Session().solve(papi::Problem::dense(g), options),
               pcore::SolveCancelled);
}

TEST(SessionCancel, MidSolveCancellationStopsAtIterationBoundary) {
  const auto g = pg::erdos_renyi_dense(300, 0.4, 25);
  pcore::StopSource stop;
  papi::SolveOptions options;
  options.stop = stop.token();
  int events_seen = 0;
  options.progress = [&](const pcore::ProgressEvent&) {
    if (++events_seen == 1) stop.request_stop();
  };
  EXPECT_THROW(papi::Session().solve(papi::Problem::dense(g), options),
               pcore::SolveCancelled);
  EXPECT_EQ(events_seen, 1);  // no further iterations ran
}

TEST(SessionCancel, CancelledStreamingSolveLeavesNoSpillFiles) {
  // Large enough for the first iteration to fire BucketScanned events.
  const auto set = random_set(1200, 16, 27);
  const auto dir = fs::temp_directory_path() / "picasso_api_cancel_spill";
  fs::remove_all(dir);

  pcore::StreamingOptions streaming;
  streaming.chunk_strings = 150;  // 8 chunks
  streaming.spill_dir = dir.string();

  pcore::StopSource stop;
  papi::SolveOptions options;
  options.stop = stop.token();
  options.progress = [&](const pcore::ProgressEvent& e) {
    // Cancel from inside the first iteration's strike scans.
    if (e.stage == pcore::ProgressStage::BucketScanned) stop.request_stop();
  };

  const auto session = papi::SessionBuilder().streaming(streaming).build();
  EXPECT_THROW(session.solve(papi::Problem::pauli(set), options),
               pcore::SolveCancelled);

  // The spill directory exists (the run created it) but holds nothing: the
  // cancelled solve removed its spill file on unwind.
  ASSERT_TRUE(fs::exists(dir));
  EXPECT_TRUE(fs::is_empty(dir));
  fs::remove_all(dir);
}

TEST(SessionAsync, CompletesAndReturnsReport) {
  const auto g = pg::erdos_renyi_dense(150, 0.4, 29);
  auto async = papi::Session().solve_async(papi::Problem::dense(g));
  const auto report = async.get();
  EXPECT_TRUE(picasso::coloring::is_valid_coloring(g, report.result.colors));
  // Matches the synchronous solve bit for bit.
  const auto sync = papi::Session().solve(papi::Problem::dense(g));
  EXPECT_EQ(report.result.colors, sync.result.colors);
}

TEST(SessionAsync, RequestStopCancelsTheWorker) {
  const auto g = pg::erdos_renyi_dense(300, 0.4, 31);
  // Deterministic cancellation: the worker's own first progress event waits
  // for the handle to be published, then triggers its stop source.
  std::atomic<papi::AsyncSolve*> handle{nullptr};
  papi::SolveOptions options;
  options.progress = [&](const pcore::ProgressEvent&) {
    papi::AsyncSolve* h = nullptr;
    while ((h = handle.load()) == nullptr) std::this_thread::yield();
    h->request_stop();
  };
  auto async =
      papi::Session().solve_async(papi::Problem::dense(g), options);
  handle.store(&async);
  EXPECT_THROW(async.get(), pcore::SolveCancelled);
}

TEST(SessionAsync, CallerSuppliedTokenAlsoCancels) {
  // solve_async must observe a caller-provided token alongside the
  // handle's own source, not replace it.
  const auto g = pg::erdos_renyi_dense(200, 0.4, 33);
  pcore::StopSource caller;
  caller.request_stop();  // already stopped: first checkpoint cancels
  papi::SolveOptions options;
  options.stop = caller.token();
  auto async = papi::Session().solve_async(papi::Problem::dense(g), options);
  EXPECT_THROW(async.get(), pcore::SolveCancelled);
}

TEST(SessionAsync, BuilderLevelTokenAlsoCancels) {
  // A session-wide stop_token() composes with the handle's source too.
  const auto g = pg::erdos_renyi_dense(200, 0.4, 34);
  pcore::StopSource builder_stop;
  builder_stop.request_stop();
  auto async = papi::SessionBuilder()
                   .stop_token(builder_stop.token())
                   .build()
                   .solve_async(papi::Problem::dense(g));
  EXPECT_THROW(async.get(), pcore::SolveCancelled);
}

TEST(StopToken, AnyOfObservesEverySource) {
  pcore::StopSource a, b, c;
  const auto ab = pcore::StopToken::any_of(a.token(), b.token());
  const auto abc = pcore::StopToken::any_of(ab, c.token());
  EXPECT_TRUE(abc.stop_possible());
  EXPECT_FALSE(abc.stop_requested());
  c.request_stop();  // the nested source still counts
  EXPECT_TRUE(abc.stop_requested());
  EXPECT_FALSE(ab.stop_requested());
  a.request_stop();
  EXPECT_TRUE(ab.stop_requested());
}

// --- Problem factories -------------------------------------------------------

TEST(Problem, FileFactoriesReportStructuredIoErrors) {
  expect_api_error([] { papi::Problem::matrix_market("/nonexistent/x.mtx"); },
                   papi::ErrorCode::IoError, "matrix_market");
  expect_api_error([] { papi::Problem::edge_list("/nonexistent/x.el"); },
                   papi::ErrorCode::IoError, "edge_list");
  expect_api_error([] { papi::Problem::pauli_spill("/nonexistent/x.pset"); },
                   papi::ErrorCode::IoError, "pauli_spill");
  expect_api_error(
      [] { papi::Problem::edge_stream_file("/nonexistent/x.el"); },
      papi::ErrorCode::IoError, "edge_stream_file");
}

TEST(Problem, IntrospectionMatchesThePayload) {
  const auto set = random_set(42, 6, 33);
  const auto problem = papi::Problem::pauli(set);
  EXPECT_EQ(problem.kind(), papi::ProblemKind::Pauli);
  EXPECT_EQ(problem.num_vertices(), 42u);
  EXPECT_EQ(problem.logical_bytes(), set.logical_bytes());

  const auto g = pg::erdos_renyi_dense(30, 0.5, 35);
  EXPECT_EQ(papi::Problem::dense(g).kind(), papi::ProblemKind::Dense);
  EXPECT_EQ(papi::Problem::dense(g).num_vertices(), 30u);
}

TEST(Problem, OwningFactoryKeepsThePayloadAlive) {
  auto problem = papi::Problem::pauli(random_set(50, 6, 37));
  const auto report = papi::Session().solve(problem);
  EXPECT_EQ(report.result.colors.size(), 50u);
  // A copy shares the payload.
  const papi::Problem copy = problem;
  EXPECT_EQ(papi::Session().solve(copy).result.colors,
            report.result.colors);
}

// --- Fused strategy ----------------------------------------------------------

TEST(SessionFused, ForcedFusedMatchesInMemoryAndSkipsTheCsr) {
  const auto set = random_set(250, 18, 41);
  const auto ref = papi::SessionBuilder()
                       .strategy(papi::ExecutionStrategy::InMemory)
                       .build()
                       .solve(papi::Problem::pauli(set));
  const auto fused = papi::SessionBuilder()
                         .strategy(papi::ExecutionStrategy::Fused)
                         .build()
                         .solve(papi::Problem::pauli(set));
  EXPECT_EQ(fused.plan.strategy, papi::ExecutionStrategy::Fused);
  EXPECT_EQ(fused.result.colors, ref.result.colors);
  EXPECT_EQ(fused.result.memory.subsystem_peak[static_cast<unsigned>(
                picasso::util::MemSubsystem::ConflictCsr)],
            0u);
  EXPECT_GT(fused.result.memory.subsystem_peak[static_cast<unsigned>(
                picasso::util::MemSubsystem::FusedFrontier)],
            0u);
}

TEST(SessionFused, BudgetBelowTwiceTheInputStreamsTheFusedSolve) {
  const auto set = random_set(300, 16, 43);
  const auto report = papi::SessionBuilder()
                          .strategy(papi::ExecutionStrategy::Fused)
                          .memory_budget(set.logical_bytes())
                          .build()
                          .solve(papi::Problem::pauli(set));
  EXPECT_EQ(report.plan.strategy, papi::ExecutionStrategy::Fused);
  EXPECT_GT(report.plan.chunk_strings, 0u);
  EXPECT_TRUE(report.result.memory.streamed);
  EXPECT_EQ(report.result.memory.subsystem_peak[static_cast<unsigned>(
                picasso::util::MemSubsystem::ConflictCsr)],
            0u);
  EXPECT_EQ(report.result.colors,
            papi::Session().solve(papi::Problem::pauli(set)).result.colors);
}

TEST(SessionFused, TightBudgetEscalatesSpillBackedProblemsToFused) {
  const auto set = random_set(300, 12, 45);
  const auto dir = fs::temp_directory_path() / "picasso_api_fused_spill";
  fs::create_directories(dir);
  const auto spill = (dir / "escalate.pset").string();
  pp::spill_pauli_set(set, spill);

  // Budget below the projected conflict CSR: Auto must not plan an engine
  // that materializes it.
  const auto session =
      papi::SessionBuilder().memory_budget(16 << 10).build();
  const auto plan = session.plan(papi::Problem::pauli_spill(spill));
  EXPECT_EQ(plan.strategy, papi::ExecutionStrategy::Fused);
  EXPECT_GT(plan.chunk_strings, 0u);

  const pp::ChunkedPauliReader reader(spill, 32);
  const auto report = session.solve(papi::Problem::spill_reader(reader));
  EXPECT_EQ(report.plan.strategy, papi::ExecutionStrategy::Fused);
  EXPECT_EQ(report.plan.chunk_strings, 32u);  // the reader's chunking wins
  EXPECT_TRUE(report.result.memory.streamed);
  EXPECT_EQ(report.result.memory.subsystem_peak[static_cast<unsigned>(
                picasso::util::MemSubsystem::ConflictCsr)],
            0u);
  EXPECT_EQ(report.result.colors,
            papi::Session().solve(papi::Problem::pauli(set)).result.colors);
  fs::remove_all(dir);
}

TEST(SessionFused, RejectsEdgeStreamProblems) {
  const pcore::VectorEdgeStream stream({{0, 1}, {1, 2}});
  const auto session = papi::SessionBuilder()
                           .strategy(papi::ExecutionStrategy::Fused)
                           .build();
  expect_api_error(
      [&] { session.plan(papi::Problem::edge_stream(3, stream)); },
      papi::ErrorCode::IncompatibleStrategy, "strategy");
}

TEST(SessionFused, BucketProgressEventsFireAndComposeWithIterations) {
  const auto g = pg::erdos_renyi_dense(400, 0.4, 47);
  std::size_t bucket_events = 0;
  std::size_t iteration_events = 0;
  papi::SolveOptions options;
  options.progress = [&](const pcore::ProgressEvent& e) {
    if (e.stage == pcore::ProgressStage::BucketScanned) {
      EXPECT_GT(e.bucket_scans, 0u);
      EXPECT_LE(e.bucket_scans, e.n_active);
      ++bucket_events;
    } else if (e.stage == pcore::ProgressStage::IterationDone) {
      ++iteration_events;
    }
  };
  const auto report = papi::SessionBuilder()
                          .strategy(papi::ExecutionStrategy::Fused)
                          .build()
                          .solve(papi::Problem::dense(g), options);
  EXPECT_GT(bucket_events, 0u);  // 400 first-iteration scans, cadence 256
  EXPECT_EQ(iteration_events, report.result.iterations.size());
}

TEST(SessionFused, MidSolveCancellationStopsAtBucketBoundary) {
  const auto g = pg::erdos_renyi_dense(400, 0.4, 49);
  pcore::StopSource stop;
  papi::SolveOptions options;
  options.stop = stop.token();
  std::size_t bucket_events = 0;
  options.progress = [&](const pcore::ProgressEvent& e) {
    if (e.stage == pcore::ProgressStage::BucketScanned &&
        ++bucket_events == 1) {
      stop.request_stop();  // next bucket scan must observe it
    }
  };
  EXPECT_THROW(papi::SessionBuilder()
                   .strategy(papi::ExecutionStrategy::Fused)
                   .build()
                   .solve(papi::Problem::dense(g), options),
               pcore::SolveCancelled);
  EXPECT_EQ(bucket_events, 1u);  // cancelled inside the first iteration
}

// --- parse_strategy ----------------------------------------------------------

TEST(ParseStrategy, RoundTripsEveryStrategyAndAcceptsShorthands) {
  for (auto strategy :
       {papi::ExecutionStrategy::Auto, papi::ExecutionStrategy::InMemory,
        papi::ExecutionStrategy::SemiStreaming,
        papi::ExecutionStrategy::Fused}) {
    EXPECT_EQ(papi::parse_strategy(papi::to_string(strategy)), strategy);
  }
  EXPECT_EQ(papi::parse_strategy("inmemory"),
            papi::ExecutionStrategy::InMemory);
}

// The chunk-pair streaming strategy is gone in 2.0, the probabilistic
// prefilter tier in 3.0 and multi-device sharding in 5.0: their spellings
// are unknown names now, answered with the valid list.
TEST(ParseStrategy, RetiredStreamingAndSketchSpellingsThrowWithTheValidList) {
  for (const char* name :
       {"streaming", "budgeted-streaming", "sketch", "multi-device"}) {
    try {
      papi::parse_strategy(name);
      FAIL() << "expected std::invalid_argument for " << name;
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("(valid: auto, in-memory (inmemory), "
                             "semi-streaming, fused)"),
                std::string::npos)
          << message;
    }
  }
}

TEST(ParseStrategy, RejectsUnknownNamesWithTheValidList) {
  try {
    papi::parse_strategy("warp-drive");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("warp-drive"), std::string::npos);
    EXPECT_NE(message.find("fused"), std::string::npos);
    EXPECT_NE(message.find("semi-streaming"), std::string::npos);
  }
}

// --- version ------------------------------------------------------------------

TEST(ApiVersion, MacrosAndHelpersAgree) {
  EXPECT_EQ(papi::kVersionMajor, PICASSO_API_VERSION_MAJOR);
  EXPECT_STREQ(papi::version_string(), PICASSO_API_VERSION);
  EXPECT_EQ(PICASSO_API_VERSION_CODE,
            PICASSO_API_VERSION_MAJOR * 10000 +
                PICASSO_API_VERSION_MINOR * 100 + PICASSO_API_VERSION_PATCH);
}
