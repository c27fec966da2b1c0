// The observability layer: deterministic work counters, phase-span tracing
// and the Session telemetry surface. The load-bearing contract is counter
// determinism — totals are a pure function of (problem, seed, params), so
// they must come out bit-identical across thread counts, across telemetry
// levels, and match closed-form work counts on hand-sized problems. Also
// covers: Off produces empty telemetry, the Chrome-trace export is valid
// JSON, fused BucketScanned progress events carry the running strike count
// (not zero), and the chunk-cache counters surface in MemoryReport.

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "core/picasso.hpp"
#include "core/streaming.hpp"
#include "graph/csr_graph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace pcore = picasso::core;
namespace papi = picasso::api;
namespace pp = picasso::pauli;
namespace pg = picasso::graph;
namespace pobs = picasso::obs;
namespace pu = picasso::util;

namespace {

pp::PauliSet random_set(std::size_t n, std::size_t qubits,
                        std::uint64_t seed) {
  pu::Xoshiro256 rng(seed);
  std::vector<pp::PauliString> strings;
  strings.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pp::PauliString s(qubits);
    for (std::size_t q = 0; q < qubits; ++q) {
      s.set_op(q, static_cast<pp::PauliOp>(rng.bounded(4)));
    }
    strings.push_back(std::move(s));
  }
  return pp::PauliSet(strings);
}

// ---------------------------------------------------------------------------
// Minimal JSON syntax checker — enough to prove the exported documents
// parse (balanced structure, legal literals); not a full validator.

class JsonChecker {
 public:
  static bool valid(const std::string& text) {
    JsonChecker c(text);
    c.skip_ws();
    if (!c.value()) return false;
    c.skip_ws();
    return c.pos_ == text.size();
  }

 private:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::size_t len = std::char_traits<char>::length(word);
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Session helpers: one solve per (strategy, thread count, level). The tiny
// palette (P' under 1/n percent forces P_l = 1) makes every active pair a
// candidate, giving closed-form pair counts.

struct SolveSpec {
  papi::ExecutionStrategy strategy = papi::ExecutionStrategy::InMemory;
  unsigned threads = 1;
  pobs::TelemetryLevel level = pobs::TelemetryLevel::Counters;
  std::size_t chunk_strings = 0;  // forces streaming engines to chunk
};

papi::SolveReport solve_pauli_spec(const pp::PauliSet& set,
                                   const SolveSpec& spec) {
  pcore::PicassoParams params;
  params.seed = 7;
  params.runtime.num_threads = spec.threads;
  papi::SessionBuilder builder;
  builder.params(params).telemetry(spec.level).strategy(spec.strategy);
  if (spec.chunk_strings > 0) {
    pcore::StreamingOptions options;
    options.chunk_strings = spec.chunk_strings;
    builder.streaming(options);
  }
  return builder.build().solve(papi::Problem::pauli(set));
}

std::uint64_t sum_uncolored(const pcore::PicassoResult& r) {
  std::uint64_t total = 0;
  for (const auto& it : r.iterations) total += it.uncolored;
  return total;
}

std::uint64_t pairs_closed_form(const pcore::PicassoResult& r) {
  std::uint64_t total = 0;
  for (const auto& it : r.iterations) {
    const std::uint64_t n = it.n_active;
    total += n * (n - 1) / 2;
  }
  return total;
}

}  // namespace

// ---------------------------------------------------------------------------
// MetricsRegistry mechanics.

TEST(MetricsRegistry, DisabledAddsAreDropped) {
  pobs::MetricsRegistry registry;
  EXPECT_FALSE(registry.enabled());
  registry.add(pobs::Counter::OraclePairEvals, 42);
  EXPECT_TRUE(registry.totals().all_zero());

  registry.set_enabled(true);
  registry.add(pobs::Counter::OraclePairEvals, 42);
  registry.add(pobs::Counter::StrikeHits, 7);
  const pobs::CounterTotals totals = registry.totals();
  EXPECT_EQ(totals[pobs::Counter::OraclePairEvals], 42u);
  EXPECT_EQ(totals[pobs::Counter::StrikeHits], 7u);
  EXPECT_FALSE(totals.all_zero());

  registry.reset();
  EXPECT_TRUE(registry.totals().all_zero());
}

TEST(MetricsRegistry, SumsAcrossThreadShards) {
  pobs::MetricsRegistry registry;
  registry.set_enabled(true);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        registry.add(pobs::Counter::OraclePairEvals, 1);
      }
      registry.add(pobs::Counter::ChunkCacheHits, 3);
    });
  }
  for (auto& w : workers) w.join();
  const pobs::CounterTotals totals = registry.totals();
  EXPECT_EQ(totals[pobs::Counter::OraclePairEvals], kThreads * kPerThread);
  EXPECT_EQ(totals[pobs::Counter::ChunkCacheHits], 3u * kThreads);
}

TEST(MetricsRegistry, NestedRunScopesKeepTheOutermostWindow) {
  pobs::MetricsRegistry registry;
  {
    pobs::MetricsRunScope outer(true, registry);
    EXPECT_TRUE(outer.outermost());
    EXPECT_TRUE(registry.enabled());
    registry.add(pobs::Counter::RecolorEvents, 1);
    {
      // A nested scope (an engine layered under a Session solve) must not
      // reset or re-gate the outermost window.
      pobs::MetricsRunScope inner(false, registry);
      EXPECT_FALSE(inner.outermost());
      EXPECT_TRUE(registry.enabled());
      registry.add(pobs::Counter::RecolorEvents, 1);
    }
    EXPECT_EQ(registry.totals()[pobs::Counter::RecolorEvents], 2u);
  }
  EXPECT_FALSE(registry.enabled());  // restored to the pre-scope state
}

TEST(MetricsRegistry, CounterNamesAndDeterminism) {
  // Every counter has a distinct snake_case name (they key the CI gate's
  // JSON records) and only the ISA-split pair is non-deterministic.
  std::vector<std::string> names;
  for (unsigned c = 0; c < pobs::kNumCounters; ++c) {
    const auto counter = static_cast<pobs::Counter>(c);
    const std::string name = pobs::to_string(counter);
    EXPECT_FALSE(name.empty());
    for (const auto& prev : names) EXPECT_NE(prev, name);
    names.push_back(name);
    const bool isa_split = counter == pobs::Counter::EdgeBlockCallsAvx2 ||
                           counter == pobs::Counter::EdgeBlockCallsScalar;
    EXPECT_EQ(pobs::counter_is_deterministic(counter), !isa_split) << name;
  }
  EXPECT_TRUE(JsonChecker::valid(pobs::CounterTotals{}.to_json()));
}

// ---------------------------------------------------------------------------
// TraceRecorder mechanics and exports.

TEST(TraceRecorder, NestedSpansRecordDepthAndExportValidJson) {
  pobs::TraceRecorder recorder;
  {
    pobs::ScopedSpan root(&recorder, "solve_test");
    {
      pobs::ScopedSpan iter(&recorder, "iteration", 3);
      double sink = 0.0;
      { pobs::ScopedPhase phase(&recorder, "coloring", sink); }
      EXPECT_GE(sink, 0.0);
    }
  }
  const auto& spans = recorder.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_STREQ(spans[0].name, "solve_test");
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_STREQ(spans[1].name, "iteration");
  EXPECT_EQ(spans[1].arg, 3u);
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[2].depth, 2);
  // Parents fully contain children.
  EXPECT_LE(spans[0].start_seconds, spans[1].start_seconds);
  EXPECT_GE(spans[0].duration_seconds, spans[1].duration_seconds);
  EXPECT_EQ(recorder.dropped(), 0u);

  const std::string chrome = pobs::TraceRecorder::chrome_trace_json(spans);
  EXPECT_TRUE(JsonChecker::valid(chrome)) << chrome;
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("solve_test"), std::string::npos);

  const std::string lines = pobs::TraceRecorder::json_lines(spans);
  std::size_t begin = 0, parsed = 0;
  while (begin < lines.size()) {
    std::size_t end = lines.find('\n', begin);
    if (end == std::string::npos) end = lines.size();
    const std::string line = lines.substr(begin, end - begin);
    if (!line.empty()) {
      EXPECT_TRUE(JsonChecker::valid(line)) << line;
      ++parsed;
    }
    begin = end + 1;
  }
  EXPECT_EQ(parsed, spans.size());
}

TEST(TraceRecorder, NullRecorderScopesAreNoOps) {
  double sink = 0.0;
  {
    pobs::ScopedSpan span(nullptr, "nothing");
    pobs::ScopedPhase phase(nullptr, "nothing", sink);
  }
  EXPECT_GE(sink, 0.0);  // the seconds sink still accumulates
}

// ---------------------------------------------------------------------------
// Session telemetry surface.

TEST(SessionTelemetry, OffProducesEmptyTelemetry) {
  const auto set = random_set(64, 10, 5);
  SolveSpec spec;
  spec.level = pobs::TelemetryLevel::Off;
  const auto report = solve_pauli_spec(set, spec);
  EXPECT_FALSE(report.telemetry.enabled());
  EXPECT_TRUE(report.telemetry.counters.all_zero());
  EXPECT_TRUE(report.telemetry.spans.empty());
  EXPECT_EQ(report.telemetry.dropped_spans, 0u);
}

TEST(SessionTelemetry, CountersLevelSkipsSpansButFullMatchesItsTotals) {
  const auto set = random_set(96, 10, 11);
  SolveSpec counters_spec;
  counters_spec.level = pobs::TelemetryLevel::Counters;
  const auto counters_run = solve_pauli_spec(set, counters_spec);
  EXPECT_TRUE(counters_run.telemetry.enabled());
  EXPECT_FALSE(counters_run.telemetry.counters.all_zero());
  EXPECT_TRUE(counters_run.telemetry.spans.empty());

  SolveSpec full_spec;
  full_spec.level = pobs::TelemetryLevel::Full;
  const auto full_run = solve_pauli_spec(set, full_spec);
  EXPECT_FALSE(full_run.telemetry.spans.empty());
  // Tracing must not perturb the counted work.
  EXPECT_EQ(full_run.telemetry.counters.value,
            counters_run.telemetry.counters.value);
  // The root span names the engine; iterations appear beneath it.
  EXPECT_STREQ(full_run.telemetry.spans.front().name, "solve_oracle");
  bool saw_iteration = false;
  for (const auto& span : full_run.telemetry.spans) {
    if (std::string(span.name) == "iteration") saw_iteration = true;
  }
  EXPECT_TRUE(saw_iteration);

  EXPECT_TRUE(JsonChecker::valid(full_run.telemetry.to_json()));
  EXPECT_TRUE(JsonChecker::valid(full_run.telemetry.chrome_trace_json()));
}

TEST(SessionTelemetry, InMemoryPairEvalsMatchClosedForm) {
  // P_l = 1 (palette_percent ~ 0) puts every active vertex in one bucket:
  // each iteration must evaluate exactly C(n_active, 2) pairs, and every
  // conflicted vertex becomes a recolor event.
  const auto set = random_set(72, 8, 3);
  pcore::PicassoParams params;
  params.seed = 7;
  params.palette_percent = 1e-6;
  params.runtime.num_threads = 1;
  const auto report = papi::SessionBuilder()
                          .params(params)
                          .telemetry(pobs::TelemetryLevel::Counters)
                          .strategy(papi::ExecutionStrategy::InMemory)
                          .build()
                          .solve(papi::Problem::pauli(set));
  const auto& counters = report.telemetry.counters;
  EXPECT_EQ(counters[pobs::Counter::OraclePairEvals],
            pairs_closed_form(report.result));
  EXPECT_EQ(counters[pobs::Counter::RecolorEvents],
            sum_uncolored(report.result));
  // P=1 means every signature overlaps — the fast exit can never fire.
  EXPECT_EQ(counters[pobs::Counter::SignatureFastExits], 0u);
}

TEST(SessionTelemetry, EdgelessGraphColorsInOnePassWithExactPairCount) {
  constexpr std::uint32_t kN = 40;
  const auto graph = pg::CsrGraph::from_edges(kN, {});
  pcore::PicassoParams params;
  params.seed = 1;
  params.palette_percent = 1e-6;  // P_l = 1: all pairs are candidates
  params.runtime.num_threads = 1;
  const auto report = papi::SessionBuilder()
                          .params(params)
                          .telemetry(pobs::TelemetryLevel::Counters)
                          .strategy(papi::ExecutionStrategy::InMemory)
                          .build()
                          .solve(papi::Problem::csr(graph));
  ASSERT_EQ(report.result.iterations.size(), 1u);
  EXPECT_EQ(report.result.num_colors, 1u);
  const auto& counters = report.telemetry.counters;
  EXPECT_EQ(counters[pobs::Counter::OraclePairEvals], kN * (kN - 1) / 2);
  EXPECT_EQ(counters[pobs::Counter::RecolorEvents], 0u);
}

TEST(SessionTelemetry, SemiStreamingCountsEveryEdgeOncePerPass) {
  // A replayable edge stream is scanned once per iteration — the defining
  // cost of the semi-streaming model.
  constexpr std::uint32_t kN = 60;
  pu::Xoshiro256 rng(17);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t u = 0; u < kN; ++u) {
    for (std::uint32_t v = u + 1; v < kN; ++v) {
      if (rng.bounded(4) == 0) edges.emplace_back(u, v);
    }
  }
  const pcore::VectorEdgeStream stream(edges);
  pcore::PicassoParams params;
  params.seed = 7;
  params.runtime.num_threads = 1;
  const auto report =
      papi::SessionBuilder()
          .params(params)
          .telemetry(pobs::TelemetryLevel::Counters)
          .strategy(papi::ExecutionStrategy::SemiStreaming)
          .build()
          .solve(papi::Problem::edge_stream(kN, stream));
  const auto& counters = report.telemetry.counters;
  EXPECT_EQ(counters[pobs::Counter::StreamEdgesScanned],
            edges.size() * report.result.iterations.size());
  EXPECT_EQ(counters[pobs::Counter::RecolorEvents],
            sum_uncolored(report.result));
}

TEST(SessionTelemetry, FusedStrikeHitsMatchIterationConflicts) {
  const auto set = random_set(80, 8, 23);
  SolveSpec spec;
  spec.strategy = papi::ExecutionStrategy::Fused;
  const auto report = solve_pauli_spec(set, spec);
  const auto& counters = report.telemetry.counters;
  std::uint64_t struck = 0;
  for (const auto& it : report.result.iterations) struck += it.conflict_edges;
  EXPECT_EQ(counters[pobs::Counter::StrikeHits], struck);
  EXPECT_GT(counters[pobs::Counter::BucketStrikeScans], 0u);
  EXPECT_EQ(counters[pobs::Counter::RecolorEvents],
            sum_uncolored(report.result));
}

TEST(SessionTelemetry, FusedStreamingSurfacesCacheAndSpillCounters) {
  // Satellite (b): the chunk cache's hit/miss/re-read tallies must agree
  // between the counter registry and MemoryReport, and show up in its JSON.
  const auto set = random_set(200, 12, 31);
  SolveSpec spec;
  spec.strategy = papi::ExecutionStrategy::Fused;
  spec.chunk_strings = 50;  // 4 chunks
  const auto report = solve_pauli_spec(set, spec);
  const auto& counters = report.telemetry.counters;
  const auto& memory = report.result.memory;
  EXPECT_TRUE(memory.streamed);
  EXPECT_EQ(memory.num_chunks, 4u);
  EXPECT_GT(counters[pobs::Counter::SpillBytesWritten], 0u);
  EXPECT_GT(counters[pobs::Counter::SpillBytesRead], 0u);
  EXPECT_GT(counters[pobs::Counter::ChunkCacheMisses], 0u);
  EXPECT_EQ(counters[pobs::Counter::ChunkCacheHits], memory.cache_hits);
  EXPECT_EQ(counters[pobs::Counter::ChunkCacheMisses], memory.cache_misses);
  EXPECT_EQ(counters[pobs::Counter::ChunkReReads], memory.chunk_re_reads);
  EXPECT_GE(memory.cache_misses, static_cast<std::uint64_t>(memory.num_chunks));
  const std::string json = memory.to_json();
  EXPECT_NE(json.find("\"cache_hits\""), std::string::npos);
  EXPECT_NE(json.find("\"cache_misses\""), std::string::npos);
  EXPECT_NE(json.find("\"chunk_re_reads\""), std::string::npos);
  EXPECT_TRUE(JsonChecker::valid(json));
}

// ---------------------------------------------------------------------------
// The headline contract: counter totals are bit-identical across thread
// counts for every execution strategy (counters tally logical algorithm
// work at schedule-independent choke points, never per-slab).

namespace {

struct StrategyCase {
  const char* label;
  SolveSpec spec;
};

std::vector<StrategyCase> all_strategies() {
  std::vector<StrategyCase> cases;
  {
    SolveSpec s;
    s.strategy = papi::ExecutionStrategy::InMemory;
    cases.push_back({"in-memory", s});
  }
  {
    SolveSpec s;
    s.strategy = papi::ExecutionStrategy::Fused;
    cases.push_back({"fused", s});
  }
  {
    SolveSpec s;
    s.strategy = papi::ExecutionStrategy::Fused;
    s.chunk_strings = 40;  // spill + strike off chunked records
    cases.push_back({"fused-streaming", s});
  }
  return cases;
}

}  // namespace

TEST(CounterDeterminism, TotalsBitIdenticalAcrossThreadCounts) {
  const auto set = random_set(160, 10, 29);
  for (const auto& c : all_strategies()) {
    SolveSpec base = c.spec;
    base.threads = 1;
    const auto reference = solve_pauli_spec(set, base);
    EXPECT_FALSE(reference.telemetry.counters.all_zero()) << c.label;
    for (unsigned threads : {2u, 4u}) {
      SolveSpec spec = c.spec;
      spec.threads = threads;
      const auto report = solve_pauli_spec(set, spec);
      EXPECT_EQ(report.telemetry.counters.value,
                reference.telemetry.counters.value)
          << c.label << " with " << threads << " threads";
      // The coloring invariant rides along for free.
      EXPECT_EQ(report.result.colors, reference.result.colors) << c.label;
    }
  }
}

TEST(CounterDeterminism, SemiStreamingTotalsStableAcrossThreadCounts) {
  constexpr std::uint32_t kN = 80;
  pu::Xoshiro256 rng(41);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t u = 0; u < kN; ++u) {
    for (std::uint32_t v = u + 1; v < kN; ++v) {
      if (rng.bounded(5) == 0) edges.emplace_back(u, v);
    }
  }
  const pcore::VectorEdgeStream stream(edges);
  pobs::CounterTotals reference;
  for (unsigned threads : {1u, 2u, 4u}) {
    pcore::PicassoParams params;
    params.seed = 7;
    params.runtime.num_threads = threads;
    const auto report =
        papi::SessionBuilder()
            .params(params)
            .telemetry(pobs::TelemetryLevel::Counters)
            .strategy(papi::ExecutionStrategy::SemiStreaming)
            .build()
            .solve(papi::Problem::edge_stream(kN, stream));
    if (threads == 1) {
      reference = report.telemetry.counters;
      EXPECT_FALSE(reference.all_zero());
    } else {
      EXPECT_EQ(report.telemetry.counters.value, reference.value)
          << threads << " threads";
    }
  }
}

// ---------------------------------------------------------------------------
// Satellite (a): fused BucketScanned progress events report the running
// strike-hit count instead of the 0 they used to carry.

TEST(ProgressEvents, FusedBucketScansCarryRunningStrikes) {
  // Needs > detail::kFusedProgressInterval (256) strike scans per iteration
  // for a BucketScanned event to fire; few qubits keep conflicts dense.
  const auto set = random_set(400, 6, 37);
  pcore::PicassoParams params;
  params.seed = 7;
  params.runtime.num_threads = 1;
  std::vector<std::uint64_t> bucket_edges;
  std::uint64_t iteration_total = 0;
  params.progress = [&](const pcore::ProgressEvent& event) {
    if (event.stage == pcore::ProgressStage::BucketScanned) {
      bucket_edges.push_back(event.conflict_edges);
    } else if (event.stage == pcore::ProgressStage::IterationDone) {
      iteration_total += event.conflict_edges;
    }
  };
  const auto report = papi::SessionBuilder()
                          .params(params)
                          .strategy(papi::ExecutionStrategy::Fused)
                          .build()
                          .solve(papi::Problem::pauli(set));
  ASSERT_FALSE(bucket_edges.empty());
  // The running count grows monotonically within an iteration; across the
  // whole run at least one batch must have struck edges (the set is dense).
  std::uint64_t max_seen = 0;
  for (std::uint64_t e : bucket_edges) max_seen = std::max(max_seen, e);
  EXPECT_GT(max_seen, 0u);
  std::uint64_t struck = 0;
  for (const auto& it : report.result.iterations) struck += it.conflict_edges;
  EXPECT_GT(struck, 0u);
  EXPECT_EQ(iteration_total, struck);
}
