#include "core/solve_fused.hpp"

#include <cerrno>
#include <filesystem>
#include <system_error>

#include "graph/oracles.hpp"

namespace picasso::core {

std::size_t projected_conflict_csr_bytes(std::uint32_t n,
                                         double palette_percent,
                                         double alpha) {
  if (n < 2) return 0;
  const IterationPalette palette =
      compute_palette(n, palette_percent, alpha, 0);
  const double p = std::max<std::uint32_t>(1, palette.palette_size);
  const double l = palette.list_size;
  // Expected examined pair slots of the indexed build, ~half surviving as
  // conflict edges on a ~50%-dense complement graph (see header).
  const double pair_slots =
      static_cast<double>(n) * static_cast<double>(n) * l * l / (2.0 * p);
  const double edges = pair_slots / 2.0;
  // csr_from_partitions' live set: counts + offsets (u64) plus one COO copy
  // and the CSR neighbor rows (4 u32 per edge).
  const double bytes = (2.0 * n + 2.0) * sizeof(std::uint64_t) +
                       16.0 * edges;
  constexpr double kMax = 1.0e18;  // well inside size_t on 64-bit
  return static_cast<std::size_t>(std::min(bytes, kMax));
}

std::size_t projected_fused_bytes(std::uint32_t n, double palette_percent,
                                  double alpha) {
  if (n == 0) return 0;
  const IterationPalette palette =
      compute_palette(n, palette_percent, alpha, 0);
  const std::size_t v = n;
  const std::size_t l = palette.list_size;
  const std::size_t entry_bytes =
      palette.palette_size <= ColorLists::kNarrowPaletteLimit ? 2 : 4;
  const std::size_t lists = entry_bytes * v * l;
  const std::size_t index = 4 * v * l + 4 * (palette.palette_size + 1);
  // Strike state: exactly what the bucket scheme's detail::StrikeState
  // holds (packed records, alive flags, the bucket page pool and its page
  // tables). Assignment: at most one 32-bit word per vertex.
  const std::size_t strike =
      detail::StrikeState::bucketed_bytes(n, palette.list_size);
  const std::size_t assigned = 4 * v;
  // The rows are released once the index is built, before the strike state
  // exists: the build phase and the coloring phase peak apart.
  return index + std::max(lists, strike + assigned);
}

PicassoResult solve_pauli_fused(const pauli::PauliSet& set,
                                const PicassoParams& params) {
  // Same resident floor as solve_pauli: the encoded input, charged before
  // the run scope rebases the peaks.
  util::ScopedCharge input_charge(util::MemSubsystem::PauliInput,
                                  set.logical_bytes());
  const graph::PackedComplementOracle oracle(set.packed_view());
  return solve_fused(oracle, params);
}

namespace {

/// Fused tester over a spilled set: the prober reads global ids, so the
/// active-local candidates are mapped to them first.
class SpillTester {
 public:
  SpillTester(const pauli::ChunkedPauliReader& reader,
              pauli::PackedPauliChunkCache& cache,
              std::span<const std::uint32_t> active)
      : prober_(reader, cache), active_(active) {}

  void operator()(std::uint32_t v, std::span<const std::uint32_t> cands,
                  std::uint8_t* hits) {
    global_.resize(cands.size());
    for (std::size_t i = 0; i < cands.size(); ++i) {
      global_[i] = active_[cands[i]];
    }
    prober_.set_u(active_[v]);
    prober_.edges(global_.data(), global_.size(), hits);
  }

  std::size_t scratch_bytes() const noexcept {
    return prober_.scratch_bytes() + global_.capacity() * sizeof(std::uint32_t);
  }

 private:
  pauli::PackedRecordProber prober_;
  std::span<const std::uint32_t> active_;
  std::vector<std::uint32_t> global_;
};

}  // namespace

PicassoResult solve_pauli_chunked_fused(const pauli::ChunkedPauliReader& reader,
                                        const PicassoParams& params) {
  // The cache persists across iterations so the LRU can exploit whatever
  // locality the strike pattern has.
  pauli::PackedPauliChunkCache cache(reader, util::global_memory());

  PicassoResult result = detail::run_algorithm1(
      static_cast<std::uint32_t>(reader.num_strings()), params,
      "solve_fused_streaming", /*signatures=*/false,
      [&](const detail::Iteration& it) {
        return detail::fused_step<SpillTester>(it, params, reader, cache);
      });

  result.memory.streamed = true;
  result.memory.num_chunks = reader.num_chunks();
  result.memory.chunk_loads = reader.chunk_loads();
  result.memory.chunk_evictions = cache.evictions();
  result.memory.cache_hits = cache.hits();
  result.memory.cache_misses = cache.misses();
  result.memory.chunk_re_reads = reader.re_reads();
  std::error_code ec;
  const auto file_bytes = std::filesystem::file_size(reader.path(), ec);
  if (!ec) result.memory.spill_bytes = static_cast<std::size_t>(file_bytes);
  return result;
}

PicassoResult solve_pauli_fused_after_enospc(const pauli::PauliSet& set,
                                            const PicassoParams& params) {
  // Degrade rather than fail the request: same engine, same seed, so the
  // coloring is bit-identical; only the peak memory profile differs, and
  // the caller is told.
  PicassoResult fallback = solve_pauli_fused(set, params);
  fallback.degraded = true;
  fallback.degraded_reason =
      "spill device full (ENOSPC): streamed plan fell back to an "
      "in-memory solve";
  return fallback;
}

PicassoResult solve_pauli_budgeted_fused(const pauli::PauliSet& set,
                                         const PicassoParams& params,
                                         const StreamingOptions& options) {
  const std::size_t budget = params.memory_budget_bytes;
  // Stream when asked to (explicit chunk size) or when holding the whole
  // encoded input would eat more than half the budget.
  const bool stream = options.chunk_strings > 0 ||
                      (budget != 0 && 2 * set.logical_bytes() > budget);
  if (!stream || set.empty()) return solve_pauli_fused(set, params);

  const std::size_t chunk_strings = spill_chunk_strings(
      options.chunk_strings, budget,
      pauli::pset_record_bytes(set.num_qubits()),
      set.size());

  namespace fs = std::filesystem;
  const fs::path spill_path = unique_spill_path(options.spill_dir, "spill");

  std::size_t spill_bytes = 0;
  try {
    spill_bytes = pauli::spill_pauli_set(set, spill_path.string());
  } catch (const std::system_error& e) {
    if (e.code().value() != ENOSPC) throw;
    std::error_code ec;
    fs::remove(spill_path, ec);
    return solve_pauli_fused_after_enospc(set, params);
  }
  PicassoResult result;
  try {
    const pauli::ChunkedPauliReader reader(spill_path.string(),
                                           chunk_strings);
    result = solve_pauli_chunked_fused(reader, params);
  } catch (...) {
    std::error_code ec;
    fs::remove(spill_path, ec);
    throw;
  }
  result.memory.spill_bytes = spill_bytes;
  // Disk-side footprint, reported but never counted against the RAM budget.
  result.memory.subsystem_peak[static_cast<unsigned>(
      util::MemSubsystem::Spill)] = spill_bytes;
  if (!options.keep_spill) {
    std::error_code ec;
    fs::remove(spill_path, ec);
  }
  return result;
}

// Pin the common instantiations into this translation unit.
template PicassoResult solve_fused<graph::ComplementOracle>(
    const graph::ComplementOracle&, const PicassoParams&);
template PicassoResult solve_fused<graph::PackedComplementOracle>(
    const graph::PackedComplementOracle&, const PicassoParams&);
template PicassoResult solve_fused<graph::CsrOracle>(const graph::CsrOracle&,
                                                     const PicassoParams&);
template PicassoResult solve_fused<graph::DenseOracle>(
    const graph::DenseOracle&, const PicassoParams&);

}  // namespace picasso::core
