#include "core/solve_fused.hpp"

#include <filesystem>

#include "graph/oracles.hpp"
#include "pauli/encoding.hpp"

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

PicassoResult solve_pauli_fused(const pauli::PauliSet& set,
                                const PicassoParams& params) {
  // Same resident floor as solve_pauli: the encoded input, charged before
  // the run scope rebases the peaks.
  util::ScopedCharge input_charge(util::MemSubsystem::PauliInput,
                                  set.logical_bytes());
  switch (resolve_backend(params.pauli_backend)) {
    case PauliBackend::Scalar: {
      const graph::ComplementOracle oracle(set);
      return solve_fused(oracle, params);
    }
    case PauliBackend::PackedScalar: {
      const graph::PackedComplementOracle oracle(set.packed_view(),
                                                 pauli::SimdLevel::Scalar);
      return solve_fused(oracle, params);
    }
    default: {
      const graph::PackedComplementOracle oracle(set.packed_view(),
                                                 pauli::SimdLevel::Auto);
      return solve_fused(oracle, params);
    }
  }
}

namespace {

/// Fused candidate tester over spilled chunks, packed backend: v's record
/// is swapped once per scan, candidates are grouped into contiguous
/// same-chunk runs (active ids ascend, so runs are maximal) and answered by
/// the runtime-dispatched block kernel against the pinned chunk. shared_ptr
/// pins keep a chunk alive across an eviction happening mid-scan.
class PackedChunkTester {
 public:
  PackedChunkTester(const pauli::ChunkedPauliReader& reader,
                    pauli::PackedPauliChunkCache& cache,
                    std::span<const std::uint32_t> active,
                    pauli::SimdLevel simd)
      : cache_(&cache),
        active_(active),
        spc_(reader.strings_per_chunk()),
        words_(pauli::packed_words(reader.num_qubits())),
        simd_(pauli::resolve_simd_level(simd)),
        kernel_(pauli::resolve_block_kernel(words_, simd_)) {
    swapped_.resize(2 * words_);
  }

  void operator()(std::uint32_t v, std::span<const std::uint32_t> cands,
                  std::uint8_t* hits) {
    const std::size_t gv = active_[v];
    const std::size_t cv = gv / spc_;
    const auto set_v = cache_->get(cv);
    pauli::make_swapped_record(set_v->record(gv - cv * spc_), words_,
                               swapped_.data());
    std::size_t i = 0;
    while (i < cands.size()) {
      const std::size_t chunk = active_[cands[i]] / spc_;
      const std::size_t begin = chunk * spc_;
      rel_.clear();
      std::size_t j = i;
      while (j < cands.size() && active_[cands[j]] / spc_ == chunk) {
        rel_.push_back(static_cast<std::uint32_t>(active_[cands[j]] - begin));
        ++j;
      }
      const auto set_b = chunk == cv ? set_v : cache_->get(chunk);
      const pauli::PackedView view = set_b->view();
      // One kernel call per same-chunk run — serial driver, so the count
      // is schedule-independent.
      obs::count(simd_ == pauli::SimdLevel::Avx2
                     ? obs::Counter::EdgeBlockCallsAvx2
                     : obs::Counter::EdgeBlockCallsScalar);
      kernel_(swapped_.data(), view.data, words_, rel_.data(), rel_.size(),
              hits + i);
      // Complement-graph edge: the strings do NOT anticommute (v is never
      // among its own candidates, so no self-edge guard is needed).
      for (std::size_t k = i; k < j; ++k) hits[k] = !hits[k];
      i = j;
    }
  }

  std::size_t scratch_bytes() const noexcept {
    return swapped_.capacity() * sizeof(std::uint64_t) +
           rel_.capacity() * sizeof(std::uint32_t);
  }

 private:
  pauli::PackedPauliChunkCache* cache_;
  std::span<const std::uint32_t> active_;
  std::size_t spc_;
  std::size_t words_;
  pauli::SimdLevel simd_;
  pauli::AnticommuteBlockFn kernel_;
  std::vector<std::uint64_t> swapped_;
  std::vector<std::uint32_t> rel_;
};

/// Scalar 3-bit twin: full PauliSet chunks, per-pair inverse-one-hot
/// anticommutation.
class ScalarChunkTester {
 public:
  ScalarChunkTester(const pauli::ChunkedPauliReader& reader,
                    pauli::PauliChunkCache& cache,
                    std::span<const std::uint32_t> active)
      : cache_(&cache), active_(active), spc_(reader.strings_per_chunk()) {}

  void operator()(std::uint32_t v, std::span<const std::uint32_t> cands,
                  std::uint8_t* hits) {
    const std::size_t gv = active_[v];
    const std::size_t cv = gv / spc_;
    const auto set_v = cache_->get(cv);
    const std::size_t words3 = set_v->words_per_string();
    const std::uint64_t* eu = set_v->encoded3(gv - cv * spc_);
    std::size_t i = 0;
    while (i < cands.size()) {
      const std::size_t chunk = active_[cands[i]] / spc_;
      const std::size_t begin = chunk * spc_;
      const auto set_b = chunk == cv ? set_v : cache_->get(chunk);
      for (; i < cands.size() && active_[cands[i]] / spc_ == chunk; ++i) {
        hits[i] = pauli::anticommute3(
                      eu, set_b->encoded3(active_[cands[i]] - begin), words3)
                      ? 0
                      : 1;  // complement graph
      }
    }
  }

  std::size_t scratch_bytes() const noexcept { return 0; }

 private:
  pauli::PauliChunkCache* cache_;
  std::span<const std::uint32_t> active_;
  std::size_t spc_;
};

}  // namespace

PicassoResult solve_pauli_chunked_fused(const pauli::ChunkedPauliReader& reader,
                                        const PicassoParams& params) {
  const PauliBackend backend = resolve_backend(params.pauli_backend);
  const pauli::SimdLevel simd = backend == PauliBackend::PackedScalar
                                    ? pauli::SimdLevel::Scalar
                                    : pauli::SimdLevel::Auto;
  util::MemoryRegistry& memory = util::global_memory();
  // The caches persist across iterations so the LRU can exploit whatever
  // locality the strike pattern has.
  pauli::PauliChunkCache cache(reader, memory);
  pauli::PackedPauliChunkCache packed_cache(reader, memory);

  PicassoResult result = detail::solve_fused_loop(
      static_cast<std::uint32_t>(reader.num_strings()), params,
      "solve_fused_streaming",
      [&](std::span<const std::uint32_t> active, const ColorLists& lists,
          detail::ColorIndex& index, const IterationPalette& palette,
          util::Xoshiro256& rng, int iteration,
          detail::FusedScanStats& scan_stats, std::uint32_t& conflicted,
          std::size_t& scan_scratch) {
        const auto n_active = static_cast<std::uint32_t>(active.size());
        auto run_with = [&](auto& tester) {
          return detail::fused_color_iteration(
              n_active, lists, index, params.conflict_scheme, rng, tester,
              params, iteration, palette.palette_size,
              [&] {
                return detail::fused_conflict_degrees(
                    n_active, lists, index, palette.palette_size, tester);
              },
              scan_stats, conflicted, scan_scratch);
        };
        ListColoringResult colored;
        if (backend == PauliBackend::Scalar) {
          ScalarChunkTester tester(reader, cache, active);
          colored = run_with(tester);
          scan_scratch += tester.scratch_bytes();
        } else {
          PackedChunkTester tester(reader, packed_cache, active, simd);
          colored = run_with(tester);
          scan_scratch += tester.scratch_bytes();
        }
        return colored;
      });

  result.memory.streamed = true;
  result.memory.num_chunks = reader.num_chunks();
  result.memory.chunk_loads = reader.chunk_loads();
  result.memory.chunk_evictions = cache.evictions() + packed_cache.evictions();
  result.memory.cache_hits = cache.hits() + packed_cache.hits();
  result.memory.cache_misses = cache.misses() + packed_cache.misses();
  result.memory.chunk_re_reads = reader.re_reads();
  std::error_code ec;
  const auto file_bytes = std::filesystem::file_size(reader.path(), ec);
  if (!ec) result.memory.spill_bytes = static_cast<std::size_t>(file_bytes);
  return result;
}

PicassoResult solve_pauli_budgeted_fused(const pauli::PauliSet& set,
                                         const PicassoParams& params,
                                         const StreamingOptions& options) {
  return detail::run_budgeted_spill(
      set, params, options,
      [](const pauli::PauliSet& s, const PicassoParams& p) {
        return solve_pauli_fused(s, p);
      },
      [](const pauli::ChunkedPauliReader& r, const PicassoParams& p) {
        return solve_pauli_chunked_fused(r, p);
      });
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
