#include "core/incremental.hpp"

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "core/solve_fused.hpp"
#include "obs/metrics.hpp"
#include "util/timer.hpp"

namespace picasso::core {

namespace {

// Most ids one bucket_admits piece sends through edges() at once, and most
// members of one bucket one first-fit round probes, matching the fused
// engine's blocked pair-scan granularity.
constexpr std::size_t kInsertBatch = 256;
// Most signature-surviving buckets one first-fit window probes together.
constexpr std::size_t kProbeWindow = 32;

bool supports_disjoint(const std::uint64_t* a, const std::uint64_t* b,
                       std::size_t words) noexcept {
  std::uint64_t acc = 0;
  for (std::size_t k = 0; k < words; ++k) acc |= a[k] & b[k];
  return acc == 0;
}

/// out[k] = conflict-edge(v, ids[k]) for the vertex v pinned in `prober`,
/// charging the pairs to OraclePairEvals (the prober counts kernel calls).
void probe(pauli::PackedRecordProber& prober, const std::uint32_t* ids,
           std::size_t count, std::uint8_t* out) {
  obs::count(obs::Counter::OraclePairEvals, count);
  prober.edges(ids, count, out);
}

}  // namespace

// ---------------------------------------------------------------------------
// FusedState.

struct FusedState::SpillGuard {
  std::string path;
  explicit SpillGuard(std::string p) : path(std::move(p)) {}
  SpillGuard(const SpillGuard&) = delete;
  SpillGuard& operator=(const SpillGuard&) = delete;
  ~SpillGuard() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
};

FusedState::FusedState(PicassoParams params, UpdateParams update_params)
    : params_(std::move(params)), update_params_(update_params) {}

FusedState::~FusedState() = default;
FusedState::FusedState(FusedState&&) noexcept = default;
FusedState& FusedState::operator=(FusedState&&) noexcept = default;

void FusedState::use_spill(std::string path, std::size_t chunk_strings) {
  if (!colors_.empty()) {
    throw std::logic_error(
        "FusedState::use_spill: must be configured before any ingest");
  }
  if (chunk_strings == 0) {
    throw std::invalid_argument(
        "FusedState::use_spill: chunk_strings must be positive");
  }
  use_spill_ = true;
  spill_path_ = std::move(path);
  chunk_strings_ = chunk_strings;
}

std::size_t FusedState::spill_bytes() const {
  if (!use_spill_ || !spill_guard_) return 0;
  std::error_code ec;
  const auto size = std::filesystem::file_size(spill_path_, ec);
  return ec ? 0 : static_cast<std::size_t>(size);
}

std::uint32_t FusedState::distinct_colors() const {
  std::uint32_t used = 0;
  for (const auto& bucket : buckets_) used += bucket.empty() ? 0 : 1;
  return used;
}

void FusedState::or_signature(std::uint32_t color, const std::uint64_t* sup) {
  std::uint64_t* sig = sigs_.data() + static_cast<std::size_t>(color) *
                                          rec_words_;
  for (std::size_t k = 0; k < rec_words_; ++k) sig[k] |= sup[k];
}

void FusedState::rebuild_from_colors(
    const std::vector<std::uint32_t>& prefix_colors) {
  std::uint32_t max_color = 0;
  for (std::uint32_t c : prefix_colors) max_color = std::max(max_color, c);
  total_colors_ =
      prefix_colors.empty() ? 0 : max_color + 1;  // never compacted
  for (std::size_t i = 0; i < prefix_colors.size(); ++i) {
    colors_[i] = prefix_colors[i];
  }
  buckets_.assign(total_colors_, {});
  for (std::size_t i = 0; i < prefix_colors.size(); ++i) {
    buckets_[prefix_colors[i]].push_back(static_cast<std::uint32_t>(i));
  }
  sigs_.assign(static_cast<std::size_t>(total_colors_) * rec_words_, 0);
}

void FusedState::fold_support(const std::uint64_t* rec,
                              std::uint64_t* out) const {
  for (std::size_t k = 0; k < rec_words_; ++k) {
    out[k] = rec[k] | rec[rec_words_ + k];
  }
}

void FusedState::rebuild_signatures(pauli::PackedRecordProber& prober) {
  std::vector<std::uint64_t> sup(rec_words_);
  for (std::size_t v = 0; v < cursor_; ++v) {
    const std::uint64_t* rec = prober.record(static_cast<std::uint32_t>(v));
    fold_support(rec, sup.data());
    or_signature(colors_[v], sup.data());
  }
}

void FusedState::sync_reader() {
  if (!reader_) {
    reader_ = std::make_unique<pauli::ChunkedPauliReader>(spill_path_,
                                                          chunk_strings_);
    chunk_cache_ = std::make_unique<pauli::PackedPauliChunkCache>(*reader_);
    return;
  }
  // Re-walk and re-verify the grown file in place; the cache keeps every
  // chunk before the appended strings and extends the grown last chunk
  // with those strings alone. A throwing refresh leaves the reader and
  // cache on their previous view.
  chunk_cache_->sync(reader_->refresh());
}

pauli::PackedRecordProber FusedState::make_prober() const {
  if (use_spill_) return pauli::PackedRecordProber(*reader_, *chunk_cache_);
  return pauli::PackedRecordProber(store_.packed_view());
}

PicassoResult FusedState::solve_pauli_baseline(const pauli::PauliSet& set,
                                               const PicassoParams& params) {
  if (kind_ != Kind::Unset || !colors_.empty()) {
    throw std::logic_error(
        "FusedState::solve_pauli_baseline: state already has records");
  }
  PicassoResult result;
  if (!use_spill_ || set.empty()) {
    result = solve_pauli_fused(set, params);
  } else if (!try_spill_base(set)) {
    result = solve_pauli_fused_after_enospc(set, params);
  } else {
    // A copy shares the verified walk but keeps its own chunk-load
    // accounting, so the state's reader starts its first update as cold as
    // a freshly opened one.
    const pauli::ChunkedPauliReader baseline_reader = *reader_;
    result = solve_pauli_chunked_fused(baseline_reader, params);
    result.memory.spill_bytes = set.binary_size();
    // Disk-side footprint, reported but never counted against the budget.
    result.memory.subsystem_peak[static_cast<unsigned>(
        util::MemSubsystem::Spill)] = set.binary_size();
  }
  adopt_pauli_solution(set, result);
  return result;
}

bool FusedState::try_spill_base(const pauli::PauliSet& set) {
  try {
    spill_base(set);
  } catch (const std::system_error& e) {
    if (e.code().value() != ENOSPC) throw;
    spill_guard_.reset();  // removes what was written
    return false;
  }
  return true;
}

void FusedState::spill_base(const pauli::PauliSet& set) {
  // The guard comes first, so a write that fails part-way leaves no file.
  spill_guard_ = std::make_unique<SpillGuard>(spill_path_);
  spill_pauli_set(set, spill_path_);
  sync_reader();
}

void FusedState::adopt_pauli_solution(const pauli::PauliSet& set,
                                      const PicassoResult& result) {
  if (kind_ != Kind::Unset || !colors_.empty()) {
    throw std::logic_error(
        "FusedState::adopt_pauli_solution: state already has records");
  }
  if (result.colors.size() != set.size()) {
    throw std::invalid_argument(
        "FusedState::adopt_pauli_solution: coloring size mismatch");
  }
  kind_ = Kind::Pauli;
  num_qubits_ = set.num_qubits();
  rec_words_ = pauli::packed_words(num_qubits_);
  colors_.assign(set.size(), kUncolored);
  if (!use_spill_) {
    store_ = set;
  } else if (!reader_) {
    spill_base(set);
  }
  cursor_ = set.size();
  rebuild_from_colors(result.colors);
  if (cursor_ > 0) {
    auto prober = make_prober();
    rebuild_signatures(prober);
  }
}

void FusedState::adopt_graph_solution(const std::vector<std::uint32_t>& colors) {
  if (kind_ != Kind::Unset || !colors_.empty()) {
    throw std::logic_error(
        "FusedState::adopt_graph_solution: state already has records");
  }
  kind_ = Kind::Graph;
  colors_ = colors;
  cursor_ = colors.size();
  graph_base_ = colors.size();
  rebuild_from_colors(colors);
}

void FusedState::ingest_pauli(const pauli::PauliSet& delta,
                              obs::TraceRecorder* trace) {
  if (delta.empty()) return;
  if (kind_ == Kind::Graph) {
    throw std::invalid_argument(
        "FusedState: Pauli delta on a graph-backed state");
  }
  kind_ = Kind::Pauli;
  if (num_qubits_ == 0) {
    num_qubits_ = delta.num_qubits();
    rec_words_ = pauli::packed_words(num_qubits_);
  } else if (delta.num_qubits() != num_qubits_) {
    throw std::invalid_argument("FusedState: delta qubit count mismatch");
  }
  if (use_spill_) {
    {
      obs::ScopedSpan span(trace, "append", delta.size());
      if (!spill_guard_) {
        spill_pauli_set(delta, spill_path_);
        spill_guard_ = std::make_unique<SpillGuard>(spill_path_);
      } else {
        append_pauli_set(delta, spill_path_);
      }
    }
    obs::ScopedSpan span(trace, "refresh");
    sync_reader();
  } else {
    obs::ScopedSpan span(trace, "append", delta.size());
    store_.append(delta);
  }
  colors_.resize(colors_.size() + delta.size(), kUncolored);
}

namespace {

/// True when `v` (pinned in `prober`) shares no conflict edge with any
/// bucket member; early-exits on the first edge.
bool bucket_admits(pauli::PackedRecordProber& prober,
                   const std::vector<std::uint32_t>& bucket,
                   std::vector<std::uint8_t>& hits) {
  const std::size_t n = bucket.size();
  for (std::size_t i = 0; i < n; i += kInsertBatch) {
    const std::size_t len = std::min(kInsertBatch, n - i);
    hits.resize(len);
    probe(prober, bucket.data() + i, len, hits.data());
    for (std::size_t k = 0; k < len; ++k) {
      if (hits[k]) return false;
    }
  }
  return true;
}

}  // namespace

void FusedState::open_fresh_color(std::uint32_t v, const std::uint64_t* sup_v,
                                  UpdateStats& stats) {
  colors_[v] = total_colors_;
  buckets_.emplace_back(1, v);
  sigs_.resize((static_cast<std::size_t>(total_colors_) + 1) * rec_words_, 0);
  ++total_colors_;
  if (sup_v != nullptr) or_signature(total_colors_ - 1, sup_v);
  ++fresh_colors_;
  ++stats.fresh_colors;
  obs::count(obs::Counter::UpdateFreshColors);
}

bool FusedState::try_recolor(pauli::PackedRecordProber& prober,
                             std::uint32_t v, const std::uint64_t* sup_v,
                             UpdateStats& stats) {
  ++stats.recolor_attempts;
  // Runs only when every bucket is nonempty and blocked. Full-scan each
  // bucket for its exact blocking set; the relocation candidate is the
  // color with the fewest blockers (ties: lowest color) within the
  // max_recolor cap. One blocker scratch serves every bucket, swapped with
  // the best set when it wins.
  std::vector<std::uint8_t> hits;
  std::uint32_t best_color = kUncolored;
  std::vector<std::uint32_t> best_blockers;
  std::vector<std::uint32_t> blockers;
  const auto better = [&](std::size_t count) {
    return count != 0 && count <= update_params_.max_recolor &&
           (best_color == kUncolored || count < best_blockers.size());
  };
  for (std::uint32_t c = 0; c < total_colors_; ++c) {
    const auto& bucket = buckets_[c];
    ++stats.bucket_probes;
    obs::count(obs::Counter::UpdateBucketProbes);
    if (supports_disjoint(sup_v, sigs_.data() + static_cast<std::size_t>(c) *
                                                    rec_words_,
                          rec_words_)) {
      // Disjoint supports: v commutes with — conflicts with — every member,
      // so the bucket is the blocking set, copied only when it wins.
      if (better(bucket.size())) {
        best_color = c;
        best_blockers.assign(bucket.begin(), bucket.end());
      }
      continue;
    }
    hits.resize(bucket.size());
    probe(prober, bucket.data(), bucket.size(), hits.data());
    blockers.clear();
    for (std::size_t k = 0; k < bucket.size(); ++k) {
      if (hits[k]) blockers.push_back(bucket[k]);
    }
    if (better(blockers.size())) {
      best_color = c;
      best_blockers.swap(blockers);
    }
  }
  if (best_color == kUncolored) return false;

  // Pull the blockers out, then relocate each (in bucket order) to the
  // first other nonempty bucket that admits it — sequentially, so earlier
  // relocations are visible to later feasibility tests.
  const std::vector<std::uint32_t> saved_bucket = buckets_[best_color];
  {
    auto& bucket = buckets_[best_color];
    std::size_t w = 0, bi = 0;
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      if (bi < best_blockers.size() && bucket[i] == best_blockers[bi]) {
        ++bi;
        continue;
      }
      bucket[w++] = bucket[i];
    }
    bucket.resize(w);
  }

  struct Move {
    std::uint32_t vertex;
    std::uint32_t to;
  };
  std::vector<Move> moves;
  std::vector<std::uint64_t> sup_b(rec_words_);
  bool ok = true;
  for (std::uint32_t b : best_blockers) {
    const std::uint64_t* rec = prober.set_u(b);
    fold_support(rec, sup_b.data());
    std::uint32_t target = kUncolored;
    for (std::uint32_t d = 0; d < total_colors_; ++d) {
      if (d == best_color) continue;
      const auto& bucket = buckets_[d];
      if (bucket.empty()) continue;  // relocations reuse existing colors only
      ++stats.bucket_probes;
      obs::count(obs::Counter::UpdateBucketProbes);
      if (supports_disjoint(sup_b.data(),
                            sigs_.data() + static_cast<std::size_t>(d) *
                                               rec_words_,
                            rec_words_)) {
        ++stats.signature_fast_exits;
        obs::count(obs::Counter::SignatureFastExits);
        continue;
      }
      if (bucket_admits(prober, bucket, hits)) {
        target = d;
        break;
      }
    }
    if (target == kUncolored) {
      ok = false;
      break;
    }
    buckets_[target].push_back(b);
    or_signature(target, sup_b.data());
    colors_[b] = target;
    moves.push_back({b, target});
  }

  if (!ok) {
    // Roll back in reverse: every relocation appended to its target's
    // back, so LIFO pops restore the exact pre-attempt bucket contents.
    // Target signatures stay as (sound) supersets.
    for (auto it = moves.rbegin(); it != moves.rend(); ++it) {
      buckets_[it->to].pop_back();
      colors_[it->vertex] = best_color;
    }
    buckets_[best_color] = saved_bucket;
    return false;
  }

  stats.recolor_moves += static_cast<std::uint32_t>(moves.size());
  obs::count(obs::Counter::UpdateRecolorMoves, moves.size());
  colors_[v] = best_color;
  buckets_[best_color].push_back(v);
  if (sup_v != nullptr) or_signature(best_color, sup_v);
  return true;
}

void FusedState::escalate(const StopToken& stop, const ProgressFn& progress,
                          obs::TraceRecorder* trace, UpdateStats& stats) {
  ++stats.escalations;
  obs::count(obs::Counter::UpdateEscalations);
  PicassoParams params = params_;
  params.stop = stop;
  params.progress = progress;
  params.trace = trace;
  PicassoResult result;
  if (use_spill_) {
    // Re-solve exactly the ingested prefix of the still-growing spill.
    pauli::ChunkedPauliReader prefix(spill_path_, chunk_strings_, cursor_);
    result = solve_pauli_chunked_fused(prefix, params);
  } else {
    result = solve_pauli_fused(store_.prefix(cursor_), params);
  }
  rebuild_from_colors(result.colors);
  auto prober = make_prober();
  rebuild_signatures(prober);
  fresh_colors_ = 0;
}

std::uint32_t FusedState::first_fit(pauli::PackedRecordProber& prober,
                                    const std::uint64_t* sup_v,
                                    Sweep& sweep, UpdateStats& stats) {
  // Buckets are probed a window at a time: up to kProbeWindow consecutive
  // buckets that survive the signature test, ending early at an empty
  // bucket, which wins when nothing before it admits. The lowest bucket
  // that admits wins — the color a bucket-at-a-time walk would pick, at a
  // fraction of its probes (probe_window).
  std::uint32_t chosen = kUncolored;
  std::uint32_t c = 0;
  while (chosen == kUncolored && c < total_colors_) {
    sweep.window.clear();
    std::uint32_t end = c;  // first color past this window
    for (; end < total_colors_ && sweep.window.size() < kProbeWindow; ++end) {
      const auto& bucket = buckets_[end];
      if (bucket.empty()) break;
      if (supports_disjoint(sup_v,
                            sigs_.data() + static_cast<std::size_t>(end) *
                                               rec_words_,
                            rec_words_)) {
        continue;  // disjoint supports: commutes with every member
      }
      sweep.window.push_back(
          {bucket.data(), end, static_cast<std::uint32_t>(bucket.size()), 0,
           0});
    }

    // Window buckets that block, below the one that admits (all of them
    // when none does).
    const std::size_t probed = probe_window(prober, sweep);
    if (probed < sweep.window.size()) chosen = sweep.window[probed].color;
    const bool took_empty = chosen == kUncolored && end < total_colors_ &&
                            buckets_[end].empty();
    if (took_empty) chosen = end;

    // Charge the probe counters for the buckets up to the chosen one only,
    // exactly as the bucket-at-a-time walk counted them.
    const std::uint32_t limit = chosen != kUncolored ? chosen + 1 : end;
    const std::uint64_t examined = limit - c;
    const std::uint64_t nonempty = examined - (took_empty ? 1 : 0);
    const bool chose_probed = chosen != kUncolored && !took_empty;
    const std::uint64_t fast_exits =
        nonempty - probed - (chose_probed ? 1 : 0);
    stats.bucket_probes += examined;
    obs::count(obs::Counter::UpdateBucketProbes, examined);
    stats.signature_fast_exits += fast_exits;
    obs::count(obs::Counter::SignatureFastExits, fast_exits);
    c = end;
  }
  return chosen;
}

std::size_t FusedState::probe_window(pauli::PackedRecordProber& prober,
                                     Sweep& sweep) {
  // Round r sends the next 2^r members (at most kInsertBatch) of every
  // bucket still in the running through one edges() call. A bucket drops
  // at its first hit; one whose members are all probed without a hit
  // admits, and buckets above it stop being probed. The window is decided
  // once no bucket below the one that admits is still alive. `live` holds
  // the window indices of the alive buckets below `admits`, ascending; the
  // pass that reads a round's hits rewrites it.
  auto& window = sweep.window;
  auto& live = sweep.live;
  live.resize(window.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    live[i] = static_cast<std::uint32_t>(i);
  }
  std::size_t admits = window.size();  // lowest bucket known to admit
  std::size_t step = 1;
  while (!live.empty()) {
    const std::size_t most = live.size() * step;
    if (sweep.ids.size() < most) {
      sweep.ids.resize(most);
      sweep.hits.resize(most);
    }
    std::uint32_t* out = sweep.ids.data();
    std::uint32_t end = 0;
    for (const std::uint32_t i : live) {
      Sweep::Candidate& cand = window[i];
      const std::uint32_t take =
          std::min(static_cast<std::uint32_t>(step), cand.size - cand.probed);
      const std::uint32_t* from = cand.members + cand.probed;
      for (std::uint32_t k = 0; k < take; ++k) out[end + k] = from[k];
      end += take;
      cand.probed += take;
      cand.end = end;
    }
    probe(prober, out, end, sweep.hits.data());
    // About half the buckets drop per round, so keeping one is a
    // branch-free write; only the rare admitting bucket branches.
    std::size_t kept = 0;
    std::uint32_t from = 0;
    for (std::size_t j = 0; j < live.size(); ++j) {
      const Sweep::Candidate& cand = window[live[j]];
      std::uint32_t hit = 0;
      for (std::uint32_t k = from; k < cand.end; ++k) hit |= sweep.hits[k];
      from = cand.end;
      if ((hit | (cand.size - cand.probed)) == 0) {
        admits = live[j];
        break;
      }
      live[kept] = live[j];
      kept += hit == 0 ? 1 : 0;
    }
    live.resize(kept);
    step = std::min(2 * step, kInsertBatch);
  }
  return admits;
}

void FusedState::color_pauli_backlog(const StopToken& stop,
                                     const ProgressFn& progress,
                                     obs::TraceRecorder* trace,
                                     UpdateStats& stats) {
  const std::size_t total = colors_.size();
  if (cursor_ >= total) return;
  obs::ScopedSpan span(trace, "color_backlog", total - cursor_);
  auto prober = make_prober();
  Sweep sweep;
  std::vector<std::uint64_t> sup(rec_words_);
  while (cursor_ < total) {
    detail::throw_if_stopped(stop);
    const auto v = static_cast<std::uint32_t>(cursor_);
    const std::uint64_t* rec = prober.set_u(v);
    fold_support(rec, sup.data());

    // Phase 1: lowest feasible color wins. An empty bucket (an unused
    // palette slot) is immediately feasible, so fresh colors only open
    // once the whole allocated range is blocked.
    const std::uint32_t chosen = first_fit(prober, sup.data(), sweep, stats);
    if (chosen != kUncolored) {
      colors_[v] = chosen;
      buckets_[chosen].push_back(v);
      or_signature(chosen, sup.data());
    } else if (update_params_.max_recolor == 0 ||
               !try_recolor(prober, v, sup.data(), stats)) {
      open_fresh_color(v, sup.data(), stats);
    }
    ++cursor_;
    ++stats.vertices_inserted;
    obs::count(obs::Counter::UpdateVerticesInserted);

    if (update_params_.max_new_colors > 0 &&
        fresh_colors_ > update_params_.max_new_colors) {
      escalate(stop, progress, trace, stats);
      prober = make_prober();
    }

    if (progress) {
      ProgressEvent event;
      event.stage = ProgressStage::VertexInserted;
      event.colored = static_cast<std::uint32_t>(cursor_);
      event.n_active = static_cast<std::uint32_t>(total - cursor_);
      event.conflict_edges = stats.recolor_moves;
      event.bucket_scans = stats.bucket_probes;
      progress(event);
    }
  }
}

UpdateStats FusedState::update_pauli(const pauli::PauliSet& delta,
                                     const StopToken& stop,
                                     const ProgressFn& progress,
                                     obs::TraceRecorder* trace) {
  util::WallTimer timer;
  UpdateStats stats;
  ingest_pauli(delta, trace);
  color_pauli_backlog(stop, progress, trace, stats);
  stats.num_vertices = static_cast<std::uint32_t>(cursor_);
  stats.num_colors = distinct_colors();
  stats.seconds = timer.seconds();
  return stats;
}

UpdateStats FusedState::update_graph(const std::vector<GraphVertexDelta>& delta,
                                     const StopToken& stop,
                                     const ProgressFn& progress) {
  util::WallTimer timer;
  UpdateStats stats;
  if (kind_ == Kind::Pauli) {
    throw std::invalid_argument(
        "FusedState: graph delta on a Pauli-backed state");
  }
  kind_ = Kind::Graph;

  // Ingest first (cancel-consistency, matching the Pauli path).
  for (const GraphVertexDelta& dv : delta) {
    const auto id = static_cast<std::uint32_t>(colors_.size());
    for (std::uint32_t nbr : dv.conflicts) {
      if (nbr >= id) {
        throw std::invalid_argument(
            "FusedState: graph delta conflicts must reference strictly "
            "earlier vertices");
      }
    }
    graph_adj_.push_back(dv.conflicts);
    colors_.push_back(kUncolored);
  }

  const std::size_t total = colors_.size();
  std::vector<std::uint8_t> forbidden;
  while (cursor_ < total) {
    detail::throw_if_stopped(stop);
    const auto v = static_cast<std::uint32_t>(cursor_);
    const auto& conflicts = graph_adj_[v - graph_base_];
    forbidden.assign(total_colors_, 0);
    for (std::uint32_t nbr : conflicts) {
      const std::uint32_t c = colors_[nbr];
      if (c != kUncolored && c < total_colors_) forbidden[c] = 1;
    }
    std::uint32_t chosen = kUncolored;
    for (std::uint32_t c = 0; c < total_colors_; ++c) {
      ++stats.bucket_probes;
      obs::count(obs::Counter::UpdateBucketProbes);
      if (!forbidden[c]) {
        chosen = c;
        break;
      }
    }
    if (chosen != kUncolored) {
      colors_[v] = chosen;
      buckets_[chosen].push_back(v);
    } else {
      open_fresh_color(v, nullptr, stats);
    }
    ++cursor_;
    ++stats.vertices_inserted;
    obs::count(obs::Counter::UpdateVerticesInserted);
    if (progress) {
      ProgressEvent event;
      event.stage = ProgressStage::VertexInserted;
      event.colored = static_cast<std::uint32_t>(cursor_);
      event.n_active = static_cast<std::uint32_t>(total - cursor_);
      event.bucket_scans = stats.bucket_probes;
      progress(event);
    }
  }

  stats.num_vertices = static_cast<std::uint32_t>(cursor_);
  stats.num_colors = distinct_colors();
  stats.seconds = timer.seconds();
  return stats;
}

}  // namespace picasso::core
