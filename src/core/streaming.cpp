#include "core/streaming.hpp"

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "pauli/encoding.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/thread_pool.hpp"

namespace picasso::core {

FileEdgeStream::FileEdgeStream(std::string path) : path_(std::move(path)) {
  // Read the header once to expose the dimensions; edges stay on disk.
  std::ifstream in(path_);
  if (!in) throw std::runtime_error("FileEdgeStream: cannot open " + path_);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '%' || line[0] == '#') continue;
    std::istringstream ls(line);
    if (!(ls >> num_vertices_ >> num_edges_)) {
      throw std::runtime_error("FileEdgeStream: bad header in " + path_);
    }
    return;
  }
  throw std::runtime_error("FileEdgeStream: empty file " + path_);
}

void FileEdgeStream::replay(
    const std::function<void(std::uint32_t, std::uint32_t)>& fn) const {
  std::ifstream in(path_);
  if (!in) throw std::runtime_error("FileEdgeStream: cannot reopen " + path_);
  std::string line;
  bool header_seen = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '%' || line[0] == '#') continue;
    std::istringstream ls(line);
    if (!header_seen) {
      header_seen = true;  // skip the "n m" line
      continue;
    }
    std::uint32_t u, v;
    if (!(ls >> u >> v)) {
      throw std::runtime_error("FileEdgeStream: bad edge line: " + line);
    }
    fn(u, v);
  }
}

// ---------------------------------------------------------------------------
// Memory-budgeted Pauli streaming pipeline.

namespace {

/// The chunk-pair/slab skeleton both backends share: walk active chunk
/// pairs (ci <= cj), slab the outer rows over the pool with one COO
/// partition per slab, and fold the partitions' capacity into the COO
/// charge after each pair. `make_row_scan(set_a, set_b, begin_a, begin_b)`
/// is invoked once per slab and must return a callable
/// `(lu, b0, vs, coo)` that scans one row lu against candidates
/// vs[b0..) in ascending order — the order the serial loop uses, which is
/// what keeps every backend's edge stream (and coloring) bit-identical.
template <typename Cache, typename MakeRowScan>
void scan_chunk_pairs(const pauli::ChunkedPauliReader& reader, Cache& cache,
                      const std::vector<std::vector<std::uint32_t>>& active_in,
                      runtime::ThreadPool* pool, unsigned workers,
                      const PicassoParams& params, int iteration,
                      std::vector<std::vector<std::uint32_t>>& parts,
                      util::ScopedCharge& coo_charge,
                      MakeRowScan&& make_row_scan) {
  const std::size_t num_chunks = reader.num_chunks();
  // Chunk-pair count for progress reporting: k active chunks scan
  // k * (k + 1) / 2 pairs.
  std::size_t active_chunks = 0;
  for (const auto& bucket : active_in) {
    if (!bucket.empty()) ++active_chunks;
  }
  const std::size_t pairs_total = active_chunks * (active_chunks + 1) / 2;
  std::size_t pairs_done = 0;
  for (std::size_t ci = 0; ci < num_chunks; ++ci) {
    if (active_in[ci].empty()) continue;
    const auto set_a = cache.get(ci);
    const std::size_t begin_a = reader.chunk_begin(ci);
    for (std::size_t cj = ci; cj < num_chunks; ++cj) {
      if (active_in[cj].empty()) continue;
      // Chunk-boundary checkpoint: a requested stop cancels before the next
      // pair is loaded or scanned; RAII drops the partial COO partitions.
      detail::throw_if_stopped(params.stop);
      obs::ScopedSpan pair_span(params.trace, "chunk_pair",
                                static_cast<std::uint64_t>(pairs_done));
      const auto set_b = cj == ci ? set_a : cache.get(cj);
      const std::size_t begin_b = reader.chunk_begin(cj);
      const auto& us = active_in[ci];
      const auto& vs = active_in[cj];

      const auto slabs = runtime::uniform_chunks(
          0, us.size(), params.runtime.chunk_size, workers);
      const std::size_t part_base = parts.size();
      parts.resize(part_base + slabs.size());
      runtime::run_chunks(pool, slabs, [&](const runtime::ChunkRange& slab) {
        std::vector<std::uint32_t>& coo = parts[part_base + slab.index];
        auto row_scan = make_row_scan(*set_a, *set_b, begin_a, begin_b);
        for (std::size_t a = slab.begin; a < slab.end; ++a) {
          row_scan(us[a], ci == cj ? a + 1 : 0, vs, coo);
        }
      });
      std::size_t coo_bytes = coo_charge.bytes();
      for (std::size_t p = part_base; p < parts.size(); ++p) {
        coo_bytes += parts[p].capacity() * sizeof(std::uint32_t);
      }
      coo_charge.resize(coo_bytes);
      ++pairs_done;
      if (params.progress) {
        ProgressEvent event;
        event.stage = ProgressStage::ChunkPairScanned;
        event.iteration = iteration;
        event.chunk_pair = pairs_done;
        event.chunk_pairs_total = pairs_total;
        params.progress(event);
      }
    }
  }
}

// Scalar 3-bit backend row scan: palette-restricted check first (signature
// fast path inside share_color), per-pair inverse-one-hot anticommutation
// second.
void scan_chunk_pairs_scalar(
    const pauli::ChunkedPauliReader& reader, pauli::PauliChunkCache& cache,
    const std::vector<std::vector<std::uint32_t>>& active_in,
    const std::vector<std::uint32_t>& active, const ColorLists& lists,
    runtime::ThreadPool* pool, unsigned workers, const PicassoParams& params,
    int iteration, std::vector<std::vector<std::uint32_t>>& parts,
    util::ScopedCharge& coo_charge) {
  scan_chunk_pairs(
      reader, cache, active_in, pool, workers, params, iteration, parts,
      coo_charge,
      [&active, &lists](const pauli::PauliSet& set_a,
                        const pauli::PauliSet& set_b, std::size_t begin_a,
                        std::size_t begin_b) {
        const std::size_t words3 = set_a.words_per_string();
        // begin_a/begin_b (and words3) are factory locals: capture by value;
        // the sets are cache-owned and outlive the slab run.
        return [&, words3, begin_a, begin_b](
                   std::uint32_t lu, std::size_t b0,
                   const std::vector<std::uint32_t>& vs,
                   std::vector<std::uint32_t>& coo) {
          const std::uint64_t* eu = set_a.encoded3(active[lu] - begin_a);
          // Row-local tallies flushed once per row: the per-row work is
          // fixed by the candidate order, so totals are slab-schedule-free.
          std::uint64_t evals = 0;
          for (std::size_t b = b0; b < vs.size(); ++b) {
            const std::uint32_t lv = vs[b];
            if (!lists.share_color(lu, lv)) continue;
            ++evals;
            // Complement-graph edge: the strings do NOT anticommute.
            if (!pauli::anticommute3(
                    eu, set_b.encoded3(active[lv] - begin_b), words3)) {
              coo.push_back(lu);
              coo.push_back(lv);
            }
          }
          obs::count(obs::Counter::OraclePairEvals, evals);
        };
      });
}

// Packed backend row scan: chunks reload as bit-packed [x|z] records (half
// the resident bytes) and each row runs the blocked pair-scan — palette
// signatures and list merge first, surviving candidates batched through
// the runtime-dispatched SIMD kernel, answers emitted in candidate order.
void scan_chunk_pairs_packed(
    const pauli::ChunkedPauliReader& reader,
    pauli::PackedPauliChunkCache& cache,
    const std::vector<std::vector<std::uint32_t>>& active_in,
    const std::vector<std::uint32_t>& active, const ColorLists& lists,
    runtime::ThreadPool* pool, unsigned workers, const PicassoParams& params,
    int iteration, pauli::SimdLevel simd,
    std::vector<std::vector<std::uint32_t>>& parts,
    util::ScopedCharge& coo_charge) {
  const std::size_t words = pauli::packed_words(reader.num_qubits());
  const pauli::AnticommuteBlockFn kernel =
      pauli::resolve_block_kernel(words, simd);
  const obs::Counter kernel_counter =
      pauli::resolve_simd_level(simd) == pauli::SimdLevel::Avx2
          ? obs::Counter::EdgeBlockCallsAvx2
          : obs::Counter::EdgeBlockCallsScalar;
  // Per-slab scratch lives in the row-scan closure (one make_row_scan call
  // per slab), so concurrent slabs never share buffers.
  struct Scratch {
    std::vector<std::uint64_t> swapped;
    BlockScanBuffers buf;
  };
  scan_chunk_pairs(
      reader, cache, active_in, pool, workers, params, iteration, parts,
      coo_charge,
      [&active, &lists, words, kernel,
       kernel_counter](const pauli::PackedPauliSet& set_a,
                       const pauli::PackedPauliSet& set_b,
                       std::size_t begin_a, std::size_t begin_b) {
        auto scratch = std::make_shared<Scratch>();
        scratch->swapped.resize(2 * words);
        scratch->buf.reserve(kBlockScanBatch);
        const pauli::PackedView view_b = set_b.view();
        return [&, words, kernel, kernel_counter, view_b, begin_a, begin_b,
                scratch](std::uint32_t lu, std::size_t b0,
                         const std::vector<std::uint32_t>& vs,
                         std::vector<std::uint32_t>& coo) {
          Scratch& s = *scratch;
          pauli::make_swapped_record(set_a.record(active[lu] - begin_a),
                                     words, s.swapped.data());
          const std::uint64_t sig_u = lists.signature(lu);
          // Ids pushed into the batch are record indices within chunk B;
          // a complement-graph edge exists when the kernel reports NO
          // anticommutation, hence the inversion after the kernel call.
          // Batch flush boundaries are fixed by the candidate order within
          // this row, so the per-flush counts are slab-schedule-free.
          auto test = [&s, kernel, kernel_counter, view_b, words](
                          const std::uint32_t* ids, std::size_t count,
                          std::uint8_t* out) {
            obs::count(obs::Counter::OraclePairEvals, count);
            obs::count(kernel_counter);
            kernel(s.swapped.data(), view_b.data, words, ids, count, out);
            for (std::size_t k = 0; k < count; ++k) out[k] = !out[k];
          };
          SurvivorBatch batch(s.buf, test, [&coo, lu](std::uint32_t lv) {
            coo.push_back(lu);
            coo.push_back(lv);
          });
          std::uint64_t sig_exits = 0;
          for (std::size_t b = b0; b < vs.size(); ++b) {
            const std::uint32_t lv = vs[b];
            if ((sig_u & lists.signature(lv)) == 0) {
              ++sig_exits;
              continue;
            }
            if (!lists.share_color(lu, lv)) continue;
            batch.push(lv, static_cast<std::uint32_t>(active[lv] - begin_b));
          }
          batch.flush();
          obs::count(obs::Counter::SignatureFastExits, sig_exits);
        };
      });
}

}  // namespace

PicassoResult solve_pauli_chunked(const pauli::ChunkedPauliReader& reader,
                                  const PicassoParams& params) {
  util::WallTimer total_timer;
  util::MemoryRegistry& memory = util::global_memory();
  util::MemoryRunScope run_scope(params.memory_budget_bytes, memory);
  obs::ScopedSpan solve_span(params.trace, "solve_chunked");

  PicassoResult result;
  const auto n = static_cast<std::uint32_t>(reader.num_strings());
  result.colors.assign(n, 0xffffffffu);

  const std::size_t num_chunks = reader.num_chunks();
  const std::size_t strings_per_chunk = reader.strings_per_chunk();
  // Backend dispatch: the scalar engine caches full PauliSet chunks and
  // tests pairs one at a time; the packed engine caches bit-packed records
  // and runs the blocked SIMD pair-scan. Same edges either way.
  const PauliBackend backend = resolve_backend(params.pauli_backend);
  const pauli::SimdLevel simd = backend == PauliBackend::PackedScalar
                                    ? pauli::SimdLevel::Scalar
                                    : pauli::SimdLevel::Auto;
  pauli::PauliChunkCache cache(reader, memory);
  pauli::PackedPauliChunkCache packed_cache(reader, memory);

  std::vector<std::uint32_t> active(n);
  for (std::uint32_t v = 0; v < n; ++v) active[v] = v;

  util::Xoshiro256 coloring_rng(params.seed ^ 0x5bf03635dd3bb1f0ULL);
  std::uint32_t base_color = 0;
  int iteration = 0;

  while (!active.empty() && iteration < params.max_iterations) {
    detail::throw_if_stopped(params.stop);
    obs::ScopedSpan iter_span(params.trace, "iteration",
                              static_cast<std::uint64_t>(iteration));
    IterationStats stats;
    stats.n_active = static_cast<std::uint32_t>(active.size());
    const IterationPalette palette = compute_palette(
        stats.n_active, params.palette_percent, params.alpha, base_color);
    stats.palette_size = palette.palette_size;
    stats.list_size = palette.list_size;

    ColorLists lists;
    {
      obs::ScopedPhase acc(params.trace, "assign_lists", stats.assign_seconds);
      lists = assign_random_lists(stats.n_active, palette, params.seed,
                                  static_cast<std::uint64_t>(iteration));
    }
    util::ScopedCharge lists_charge(util::MemSubsystem::PaletteLists,
                                    lists.logical_bytes(), memory);

    // Bucket the active vertices (as local indices) by owning chunk; the
    // pair scan below touches only chunks that still hold active vertices.
    std::vector<std::vector<std::uint32_t>> active_in(num_chunks);
    for (std::uint32_t local = 0; local < stats.n_active; ++local) {
      active_in[active[local] / strings_per_chunk].push_back(local);
    }

    // Conflict edges, chunk pair by chunk pair. Each pair's scan is slabbed
    // over the runtime pool with one COO partition per slab; partitions are
    // appended in (pair, slab) order, and the canonical CSR assembly makes
    // the result bit-identical to the oracle driver's regardless of order.
    ConflictBuildResult conflict;
    {
      obs::ScopedPhase acc(params.trace, "conflict_scan",
                           stats.conflict_seconds);
      runtime::ThreadPool* pool =
          runtime::resolve_pool(params.runtime, stats.n_active);
      const unsigned workers = pool != nullptr ? pool->num_workers() : 1;

      std::vector<std::vector<std::uint32_t>> parts;
      util::ScopedCharge coo_charge(util::MemSubsystem::ConflictCsr, 0,
                                    memory);
      if (backend == PauliBackend::Scalar) {
        scan_chunk_pairs_scalar(reader, cache, active_in, active, lists, pool,
                                workers, params, iteration, parts, coo_charge);
      } else {
        scan_chunk_pairs_packed(reader, packed_cache, active_in, active,
                                lists, pool, workers, params, iteration, simd,
                                parts, coo_charge);
      }
      // csr_from_partitions charges its own assembly block (a full COO copy
      // + the CSR rows) and frees the partitions as it folds them in; drop
      // this charge at the hand-off so the folding bytes are not counted
      // twice.
      coo_charge.resize(0);
      conflict.graph =
          detail::csr_from_partitions(stats.n_active, std::move(parts));
      conflict.num_edges = conflict.graph.num_edges();
      conflict.num_conflicted_vertices =
          detail::count_conflicted(conflict.graph);
      conflict.logical_bytes = conflict.graph.logical_bytes();
    }
    stats.conflict_edges = conflict.num_edges;
    stats.conflicted_vertices = conflict.num_conflicted_vertices;
    util::ScopedCharge csr_charge(util::MemSubsystem::ConflictCsr,
                                  conflict.graph.logical_bytes(), memory);

    ListColoringResult colored;
    {
      obs::ScopedPhase acc(params.trace, "coloring", stats.coloring_seconds);
      colored = color_conflict_graph(conflict.graph, lists,
                                     params.conflict_scheme, coloring_rng);
    }
    memory.record_external_peak(util::MemSubsystem::ColoringAux,
                                colored.aux_peak_bytes);

    std::vector<std::uint32_t> next_active;
    next_active.reserve(colored.uncolored.size());
    for (std::uint32_t local = 0; local < stats.n_active; ++local) {
      const std::uint32_t c = colored.assigned[local];
      if (c == ListColoringResult::kNoColorLocal) {
        next_active.push_back(active[local]);
      } else {
        result.colors[active[local]] = palette.base_color + c;
      }
    }
    stats.colored = colored.num_colored;
    stats.uncolored = static_cast<std::uint32_t>(next_active.size());
    obs::count(obs::Counter::RecolorEvents, stats.uncolored);
    stats.logical_bytes = lists.logical_bytes() + conflict.logical_bytes +
                          colored.aux_peak_bytes +
                          active.capacity() * sizeof(std::uint32_t);

    result.iterations.push_back(stats);
    result.assign_seconds += stats.assign_seconds;
    result.conflict_seconds += stats.conflict_seconds;
    result.coloring_seconds += stats.coloring_seconds;
    result.max_conflict_edges =
        std::max(result.max_conflict_edges, stats.conflict_edges);
    result.peak_logical_bytes =
        std::max(result.peak_logical_bytes, stats.logical_bytes);

    detail::report_iteration(params.progress, iteration, stats.n_active,
                             stats.colored, stats.uncolored,
                             stats.conflict_edges);

    base_color += palette.palette_size;
    active = std::move(next_active);
    ++iteration;
  }

  if (!active.empty()) {
    result.converged = false;
    for (std::uint32_t v : active) result.colors[v] = base_color++;
  }
  result.palette_total = base_color;
  result.num_colors =
      detail::count_palette_colors(result.colors, result.palette_total);
  result.total_seconds = total_timer.seconds();

  memory.record_external_peak(util::MemSubsystem::Arena,
                              runtime::thread_arena_peak_total());
  result.memory = MemoryReport::capture(memory.snapshot());
  result.memory.streamed = true;
  result.memory.num_chunks = num_chunks;
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

std::string unique_spill_path(const std::string& dir, const char* tag) {
  namespace fs = std::filesystem;
  fs::path base = dir.empty() ? fs::temp_directory_path() : fs::path(dir);
  fs::create_directories(base);
  // One counter for every spill site in the process: uniqueness must hold
  // across concurrent solves regardless of which engine named the file.
  static std::atomic<std::uint64_t> spill_counter{0};
  char name[96];
  std::snprintf(name, sizeof(name), "picasso_%s_%d_%llu.pset", tag,
                static_cast<int>(::getpid()),
                static_cast<unsigned long long>(
                    spill_counter.fetch_add(1, std::memory_order_relaxed)));
  return (base / name).string();
}

std::size_t sweep_orphan_spills(const std::string& dir) {
  namespace fs = std::filesystem;
  if (dir.empty()) return 0;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return 0;
  std::size_t removed = 0;
  for (const auto& entry : it) {
    const std::string file = entry.path().filename().string();
    // Only files this process family named: picasso_<tag>_<pid>_<counter>
    // with a .pset or .pset.colors suffix. Everything else in the directory
    // is left alone.
    if (file.rfind("picasso_", 0) != 0) continue;
    const bool spill = file.size() > 5 && file.ends_with(".pset");
    const bool sidecar = file.ends_with(".pset.colors");
    if (!spill && !sidecar) continue;
    // pid is the second-to-last '_'-separated field.
    const std::size_t counter_sep = file.rfind('_');
    if (counter_sep == std::string::npos) continue;
    const std::size_t pid_sep = file.rfind('_', counter_sep - 1);
    if (pid_sep == std::string::npos) continue;
    int pid = 0;
    try {
      pid = std::stoi(file.substr(pid_sep + 1, counter_sep - pid_sep - 1));
    } catch (const std::exception&) {
      continue;
    }
    if (pid <= 0 || pid == static_cast<int>(::getpid())) continue;
    // kill(pid, 0): probes existence without signalling. ESRCH = the owner
    // is gone and its spill is an orphan from a crash; EPERM = some live
    // process of another user owns the pid, so leave the file.
    if (::kill(pid, 0) == 0 || errno != ESRCH) continue;
    std::error_code rm;
    if (fs::remove(entry.path(), rm) && !rm) ++removed;
  }
  return removed;
}

PicassoResult detail::run_budgeted_spill(
    const pauli::PauliSet& set, const PicassoParams& params,
    const StreamingOptions& options,
    const std::function<PicassoResult(const pauli::PauliSet&,
                                      const PicassoParams&)>& solve_in_memory,
    const std::function<PicassoResult(const pauli::ChunkedPauliReader&,
                                      const PicassoParams&)>& solve_chunked) {
  const std::size_t budget = params.memory_budget_bytes;
  const std::size_t input_bytes = set.logical_bytes();
  // Stream when asked to (explicit chunk size) or when holding the whole
  // encoded input would eat more than half the budget, leaving too little
  // for lists + conflict CSR.
  const bool stream =
      options.chunk_strings > 0 || (budget != 0 && 2 * input_bytes > budget);
  if (!stream || set.empty()) return solve_in_memory(set, params);

  std::size_t chunk_strings = options.chunk_strings;
  if (chunk_strings == 0) {
    // Two chunks resident at once (the pair scan's working set) should use
    // about half the budget.
    const std::size_t per_chunk_bytes = budget / 4;
    const std::size_t per_string =
        pauli::ChunkedPauliReader::resident_bytes_for(1, set.num_qubits());
    chunk_strings =
        std::max<std::size_t>(1, per_chunk_bytes / std::max<std::size_t>(
                                                       1, per_string));
  }
  chunk_strings = std::min(chunk_strings, set.size());

  namespace fs = std::filesystem;
  const fs::path spill_path = unique_spill_path(options.spill_dir, "spill");

  std::size_t spill_bytes = 0;
  try {
    spill_bytes = pauli::spill_pauli_set(set, spill_path.string());
  } catch (const std::system_error& e) {
    if (e.code().value() != ENOSPC) throw;
    // Spill device full: degrade to an in-memory solve rather than failing
    // the request. The coloring is bit-identical (same engine, same seed);
    // only the peak memory profile differs, and the caller is told.
    std::error_code ec;
    fs::remove(spill_path, ec);
    PicassoResult fallback = solve_in_memory(set, params);
    fallback.degraded = true;
    fallback.degraded_reason =
        "spill device full (ENOSPC): streamed plan fell back to an "
        "in-memory solve";
    return fallback;
  }
  PicassoResult result;
  try {
    const pauli::ChunkedPauliReader reader(spill_path.string(),
                                           chunk_strings);
    result = solve_chunked(reader, params);
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

PicassoResult solve_pauli_budgeted(const pauli::PauliSet& set,
                                   const PicassoParams& params,
                                   const StreamingOptions& options) {
  return detail::run_budgeted_spill(
      set, params, options,
      [](const pauli::PauliSet& s, const PicassoParams& p) {
        return solve_pauli(s, p);
      },
      [](const pauli::ChunkedPauliReader& r, const PicassoParams& p) {
        return solve_pauli_chunked(r, p);
      });
}

}  // namespace picasso::core
