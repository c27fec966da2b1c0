#include "core/picasso.hpp"

#include <cinttypes>
#include <cstdio>

namespace picasso::core {

MemoryReport MemoryReport::capture(const util::MemorySnapshot& snap) {
  MemoryReport report;
  report.budget_bytes = snap.budget_bytes;
  report.peak_tracked_bytes = snap.peak_bytes;
  report.peak_rss_bytes = util::peak_rss_bytes();
  report.over_budget_events = snap.over_budget_events;
  report.subsystem_peak = snap.subsystem_peak;
  return report;
}

std::string MemoryReport::to_json() const {
  char buf[256];
  std::string json = "{";
  auto field = [&](const char* key, std::uint64_t value, bool comma = true) {
    std::snprintf(buf, sizeof(buf), "\"%s\":%" PRIu64 "%s", key, value,
                  comma ? "," : "");
    json += buf;
  };
  field("budget_bytes", budget_bytes);
  field("peak_tracked_bytes", peak_tracked_bytes);
  field("peak_rss_bytes", peak_rss_bytes);
  field("over_budget_events", over_budget_events);
  json += within_budget() ? "\"within_budget\":true," : "\"within_budget\":false,";
  json += streamed ? "\"streamed\":true," : "\"streamed\":false,";
  field("spill_bytes", spill_bytes);
  field("num_chunks", num_chunks);
  field("chunk_loads", chunk_loads);
  field("chunk_evictions", chunk_evictions);
  field("cache_hits", cache_hits);
  field("cache_misses", cache_misses);
  field("chunk_re_reads", chunk_re_reads);
  json += "\"subsystems\":{";
  for (std::size_t i = 0; i < util::kNumMemSubsystems; ++i) {
    std::snprintf(buf, sizeof(buf), "\"%s\":%zu%s",
                  util::to_string(static_cast<util::MemSubsystem>(i)),
                  subsystem_peak[i],
                  i + 1 < util::kNumMemSubsystems ? "," : "");
    json += buf;
  }
  json += "}}";
  return json;
}

PicassoResult solve_pauli(const pauli::PauliSet& set,
                          const PicassoParams& params, ConflictKernel kernel) {
  // The encoded input is the in-memory driver's resident floor; charge it
  // before the run scope rebases the peaks so it is part of the baseline.
  util::ScopedCharge input_charge(util::MemSubsystem::PauliInput,
                                  set.logical_bytes());
  const graph::PackedComplementOracle oracle(set.packed_view());
  return solve_oracle(oracle, params, kernel);
}

// Pin the common instantiations into this translation unit.
template PicassoResult solve_oracle<graph::ComplementOracle>(
    const graph::ComplementOracle&, const PicassoParams&, ConflictKernel);
template PicassoResult solve_oracle<graph::PackedComplementOracle>(
    const graph::PackedComplementOracle&, const PicassoParams&, ConflictKernel);
template PicassoResult solve_oracle<graph::AnticommuteOracle>(
    const graph::AnticommuteOracle&, const PicassoParams&, ConflictKernel);
template PicassoResult solve_oracle<graph::QwcComplementOracle>(
    const graph::QwcComplementOracle&, const PicassoParams&, ConflictKernel);
template PicassoResult solve_oracle<graph::CsrOracle>(
    const graph::CsrOracle&, const PicassoParams&, ConflictKernel);
template PicassoResult solve_oracle<graph::DenseOracle>(
    const graph::DenseOracle&, const PicassoParams&, ConflictKernel);

}  // namespace picasso::core
