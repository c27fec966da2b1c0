#include "obs/metrics.hpp"

#include <cstdio>

namespace picasso::obs {

const char* to_string(TelemetryLevel level) noexcept {
  switch (level) {
    case TelemetryLevel::Off: return "off";
    case TelemetryLevel::Counters: return "counters";
    case TelemetryLevel::Full: return "full";
  }
  return "?";
}

bool parse_telemetry_level(const std::string& text, TelemetryLevel& out) {
  if (text == "off") {
    out = TelemetryLevel::Off;
  } else if (text == "counters") {
    out = TelemetryLevel::Counters;
  } else if (text == "full") {
    out = TelemetryLevel::Full;
  } else {
    return false;
  }
  return true;
}

const char* to_string(Counter c) noexcept {
  switch (c) {
    case Counter::OraclePairEvals: return "oracle_pair_evals";
    case Counter::EdgeBlockCallsAvx2: return "edge_block_calls_avx2";
    case Counter::EdgeBlockCallsScalar: return "edge_block_calls_scalar";
    case Counter::BucketStrikeScans: return "bucket_strike_scans";
    case Counter::StrikeHits: return "strike_hits";
    case Counter::SignatureFastExits: return "signature_fast_exits";
    case Counter::RecolorEvents: return "recolor_events";
    case Counter::ChunkCacheHits: return "chunk_cache_hits";
    case Counter::ChunkCacheMisses: return "chunk_cache_misses";
    case Counter::ChunkCacheEvictions: return "chunk_cache_evictions";
    case Counter::ChunkReReads: return "chunk_re_reads";
    case Counter::SpillBytesWritten: return "spill_bytes_written";
    case Counter::SpillBytesRead: return "spill_bytes_read";
    case Counter::StreamEdgesScanned: return "stream_edges_scanned";
    case Counter::UpdateVerticesInserted: return "update_vertices_inserted";
    case Counter::UpdateBucketProbes: return "update_bucket_probes";
    case Counter::UpdateRecolorMoves: return "update_recolor_moves";
    case Counter::UpdateEscalations: return "update_escalations";
    case Counter::UpdateFreshColors: return "update_fresh_colors";
  }
  return "?";
}

bool counter_is_deterministic(Counter c) noexcept {
  // The AVX2/scalar split resolves from the host ISA (SimdLevel::Auto);
  // only the sum of the two is comparable across machines.
  return c != Counter::EdgeBlockCallsAvx2 && c != Counter::EdgeBlockCallsScalar;
}

std::string CounterTotals::to_json() const {
  std::string out = "{";
  char buf[96];
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%llu", i == 0 ? "" : ",",
                  to_string(static_cast<Counter>(i)),
                  static_cast<unsigned long long>(value[i]));
    out += buf;
  }
  out += "}";
  return out;
}

MetricsRegistry::Shard& MetricsRegistry::shard_for_thread() {
  // One registration lock per (thread, registry); afterwards the shard
  // pointer is served from this thread-local cache. Shards are heap
  // allocations owned by the registry, so the cached pointer stays valid
  // as shards_ grows. Registries are expected to be long-lived (the
  // global singleton): the cache keys on the registry address and would
  // mis-associate if a destroyed registry's address were reused.
  struct Cache {
    const MetricsRegistry* owner = nullptr;
    Shard* shard = nullptr;
  };
  thread_local Cache cache;
  if (cache.owner != this) {
    std::lock_guard<std::mutex> lock(mutex_);
    shards_.push_back(std::make_unique<Shard>());
    cache.owner = this;
    cache.shard = shards_.back().get();
  }
  return *cache.shard;
}

void MetricsRegistry::reset() noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& shard : shards_) shard->value.fill(0);
}

CounterTotals MetricsRegistry::totals() const {
  CounterTotals out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& shard : shards_) {
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      out.value[i] += shard->value[i];
    }
  }
  return out;
}

MetricsRegistry& global_metrics() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace picasso::obs
