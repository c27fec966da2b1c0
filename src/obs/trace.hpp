#pragma once
// Phase-span tracing.
//
// A TraceRecorder captures the nested phase structure of one solve —
// encode → per-iteration {palette assignment → conflict detection →
// coloring} → refine — as flat begin/end span records on the driver
// thread. The
// recorder replaces the ad hoc ScopedAccumulator sinks at phase
// boundaries: ScopedPhase keeps feeding the Fig.-3 seconds fields the
// benches report and *additionally* records a span when a recorder is
// attached (params.trace). Engines always run with a nullable recorder;
// a null recorder costs one pointer test per scope, which is why
// TelemetryLevel::Off and ::Counters have no tracing overhead.
//
// Spans export as Chrome trace JSON (open in chrome://tracing or
// https://ui.perfetto.dev) or as compact JSON-lines for scripting.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/timer.hpp"

namespace picasso::obs {

/// One completed span. `name` points at a static string literal (the
/// recorder never owns or copies names); times are seconds relative to
/// the recorder's construction.
struct SpanRecord {
  const char* name = "";
  std::uint64_t arg = 0;  // span-specific payload (iteration index, pair id)
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
  int depth = 0;  // nesting depth at begin() (0 = root)
};

/// Records nested spans on a single thread (the solve driver). begin()
/// returns a token that end() completes; ScopedSpan/ScopedPhase wrap the
/// pair. Spans past kMaxSpans are dropped (counted, never resized into).
class TraceRecorder {
 public:
  /// Hard cap on retained spans (~48 MB worst case); protects pathological
  /// traces (millions of iterations) from eating the heap.
  static constexpr std::size_t kMaxSpans = 1u << 20;

  struct Token {
    std::size_t index = kDroppedIndex;
  };

  Token begin(const char* name, std::uint64_t arg = 0) {
    Token token;
    if (spans_.size() < kMaxSpans) {
      token.index = spans_.size();
      spans_.push_back(
          {name, arg, epoch_.seconds(), 0.0, depth_});
    } else {
      ++dropped_;
    }
    ++depth_;
    return token;
  }

  void end(Token token) {
    --depth_;
    if (token.index == kDroppedIndex) return;
    SpanRecord& span = spans_[token.index];
    span.duration_seconds = epoch_.seconds() - span.start_seconds;
  }

  const std::vector<SpanRecord>& spans() const noexcept { return spans_; }
  std::vector<SpanRecord> take_spans() noexcept { return std::move(spans_); }
  std::uint64_t dropped() const noexcept { return dropped_; }

  /// Chrome trace-event JSON (`{"traceEvents":[...]}`, complete "X"
  /// events, microsecond timestamps) — load in chrome://tracing/Perfetto.
  static std::string chrome_trace_json(const std::vector<SpanRecord>& spans);

  /// One JSON object per line per span (name/arg/start/dur/depth).
  static std::string json_lines(const std::vector<SpanRecord>& spans);

 private:
  static constexpr std::size_t kDroppedIndex = ~std::size_t{0};

  util::WallTimer epoch_;
  std::vector<SpanRecord> spans_;
  int depth_ = 0;
  std::uint64_t dropped_ = 0;
};

/// RAII span; a null recorder makes the whole scope a no-op.
class ScopedSpan {
 public:
  ScopedSpan(TraceRecorder* recorder, const char* name,
             std::uint64_t arg = 0)
      : recorder_(recorder) {
    if (recorder_ != nullptr) token_ = recorder_->begin(name, arg);
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end(token_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceRecorder* recorder_;
  TraceRecorder::Token token_;
};

/// ScopedAccumulator with an optional span: always adds the elapsed
/// seconds to `sink` on scope exit (the per-phase seconds the paper's
/// Fig. 3 breaks down), and records a span of the same extent when a
/// recorder is attached. Drop-in replacement for util::ScopedAccumulator
/// at the drivers' phase boundaries.
class ScopedPhase {
 public:
  ScopedPhase(TraceRecorder* recorder, const char* name, double& sink,
              std::uint64_t arg = 0) noexcept
      : recorder_(recorder), sink_(&sink) {
    if (recorder_ != nullptr) token_ = recorder_->begin(name, arg);
  }
  ~ScopedPhase() {
    *sink_ += timer_.seconds();
    if (recorder_ != nullptr) recorder_->end(token_);
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  TraceRecorder* recorder_;
  double* sink_;
  TraceRecorder::Token token_;
  util::WallTimer timer_;
};

}  // namespace picasso::obs
