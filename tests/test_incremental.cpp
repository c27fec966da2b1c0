// Incremental online coloring: Session::update() / core::FusedState edge
// cases — empty deltas, bootstrap-before-solve, duplicate records, cancel
// mid-update (state stays consistent and re-updatable), budgeted sessions
// whose spill grows across updates, shape errors, escalation — plus the
// append-segment regression tests for ChunkedPauliReader (a reader
// re-opened on an appended .pset must re-derive the string count and the
// segment offsets instead of trusting the base header), the checks a
// spilled update keeps while its reader refreshes in place (checksums on
// every refresh, torn appends, chunk caches that survive appends, grow the
// grown chunk by its appended records alone and release the charge of a
// throwing load), an update's disk writes being its append segment alone,
// the phase spans of a traced update, first fit against a class-by-class
// reference, the probe schedule's pinned counters, the one-pass spill scan
// across 64 KiB block boundaries, and the record prober both stores probe
// through (spilled answers equal resident ones and a per-pair reference at
// every chunk size, one kernel call per chunk a batch touches, one cache
// lookup per chunk switch).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "coloring/verify.hpp"
#include "graph/graph_gen.hpp"
#include "graph/oracles.hpp"
#include "obs/metrics.hpp"
#include "pauli/pauli_stream.hpp"
#include "util/failpoint.hpp"
#include "util/memory.hpp"
#include "util/rng.hpp"
#include "util/word_hash.hpp"

namespace papi = picasso::api;
namespace pcore = picasso::core;
namespace pg = picasso::graph;
namespace pp = picasso::pauli;
namespace fs = std::filesystem;

namespace {

std::vector<pp::PauliString> random_strings(std::size_t count,
                                            std::size_t qubits,
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
  return strings;
}

pp::PauliSet slice(const std::vector<pp::PauliString>& strings,
                   std::size_t begin, std::size_t end) {
  return pp::PauliSet(std::vector<pp::PauliString>(strings.begin() + begin,
                                                   strings.begin() + end));
}

/// Scratch file that cleans up after itself.
struct TempFile {
  fs::path path;
  explicit TempFile(const std::string& name)
      : path(fs::temp_directory_path() / name) {
    fs::remove(path);
  }
  ~TempFile() {
    std::error_code ec;
    fs::remove(path, ec);
  }
};

/// XORs one byte of `path` in place.
void corrupt_byte(const std::string& path, std::size_t offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open());
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
}

/// A session whose incremental store lives in a spill of `chunk`-string
/// chunks in `spill_dir` ("" = the system temp directory), with a budget
/// large enough for the chunk cache to hold them all.
papi::Session spilled_session(std::uint64_t seed, std::size_t chunk,
                              std::string spill_dir = "") {
  return papi::SessionBuilder()
      .seed(seed)
      .memory_budget(std::size_t{64} << 20)
      .streaming({.chunk_strings = chunk})
      .spill_dir(std::move(spill_dir))
      .telemetry(picasso::obs::TelemetryLevel::Counters)
      .build();
}

/// Disarms every failpoint when the test leaves scope, pass or fail.
struct FailpointGuard {
  ~FailpointGuard() { picasso::util::failpoints::disarm_all(); }
};

/// Every chunk of `reader` equals `all` at the same ids (packed form).
void expect_packed_chunks(const pp::ChunkedPauliReader& reader,
                          const pp::PauliSet& all) {
  ASSERT_EQ(reader.num_strings(), all.size());
  for (std::size_t chunk = 0; chunk < reader.num_chunks(); ++chunk) {
    const pp::PackedPauliSet packed = reader.load_chunk_packed(chunk);
    const std::size_t begin = reader.chunk_begin(chunk);
    for (std::size_t i = 0; i < packed.size(); ++i) {
      EXPECT_EQ(std::memcmp(packed.record(i),
                            all.packed_view().record(begin + i),
                            2 * packed.words() * 8),
                0);
    }
  }
}

/// 2q + 1 pairwise anticommuting strings on q qubits: the Jordan-Wigner
/// Majoranas Z..Z X_k and Z..Z Y_k, then Z on every qubit. No color class
/// can hold more strings than this.
std::vector<pp::PauliString> anticommuting_family(std::size_t qubits) {
  std::vector<pp::PauliString> family;
  for (std::size_t k = 0; k < qubits; ++k) {
    for (const pp::PauliOp op : {pp::PauliOp::X, pp::PauliOp::Y}) {
      pp::PauliString s(qubits);
      for (std::size_t q = 0; q < k; ++q) s.set_op(q, pp::PauliOp::Z);
      s.set_op(k, op);
      family.push_back(s);
    }
  }
  pp::PauliString all_z(qubits);
  for (std::size_t q = 0; q < qubits; ++q) all_z.set_op(q, pp::PauliOp::Z);
  family.push_back(all_z);
  return family;
}

/// Lowest color whose class has no member commuting with `s` (an empty
/// class admits anything); a fresh color past the last class otherwise.
std::uint32_t first_fit_reference(
    const std::vector<std::vector<pp::PauliString>>& classes,
    const pp::PauliString& s) {
  for (std::size_t c = 0; c < classes.size(); ++c) {
    if (std::all_of(classes[c].begin(), classes[c].end(),
                    [&s](const pp::PauliString& member) {
                      return member.anticommutes_with(s);
                    })) {
      return static_cast<std::uint32_t>(c);
    }
  }
  return static_cast<std::uint32_t>(classes.size());
}

}  // namespace

// --- Session::update basics --------------------------------------------------

TEST(IncrementalUpdate, EmptyDeltaIsANoOp) {
  auto session = papi::SessionBuilder().seed(7).build();
  const auto strings = random_strings(40, 8, 11);

  auto first = session.update(papi::UpdateDelta::pauli(slice(strings, 0, 40)));
  ASSERT_TRUE(first.update.has_value());
  EXPECT_EQ(first.update->vertices_inserted, 40u);

  auto empty = session.update(papi::UpdateDelta::pauli(pp::PauliSet()));
  ASSERT_TRUE(empty.update.has_value());
  EXPECT_EQ(empty.update->vertices_inserted, 0u);
  EXPECT_EQ(empty.update->fresh_colors, 0u);
  EXPECT_EQ(empty.result.colors, first.result.colors);
}

TEST(IncrementalUpdate, DeltaBeforeAnySolveBootstrapsAValidColoring) {
  auto session = papi::SessionBuilder().seed(3).build();
  const auto strings = random_strings(64, 10, 23);
  const pp::PauliSet set = slice(strings, 0, 64);

  auto report = session.update(papi::UpdateDelta::pauli(set));
  ASSERT_EQ(report.result.colors.size(), set.size());
  const pg::ComplementOracle oracle(set);
  EXPECT_TRUE(picasso::coloring::is_valid_coloring_oracle(
      oracle, report.result.colors));
  EXPECT_TRUE(session.has_incremental_state());
  EXPECT_EQ(report.plan.strategy, papi::ExecutionStrategy::Fused);
}

TEST(IncrementalUpdate, DuplicateRecordsGetDistinctColors) {
  // Identical strings commute, so in the anticommutation-complement graph
  // they conflict: every duplicate must land in its own color class.
  auto session = papi::SessionBuilder().seed(5).build();
  const auto strings = random_strings(1, 6, 99);
  std::vector<pp::PauliString> dupes(4, strings[0]);

  auto report = session.update(papi::UpdateDelta::pauli(pp::PauliSet(dupes)));
  ASSERT_EQ(report.result.colors.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = i + 1; j < 4; ++j) {
      EXPECT_NE(report.result.colors[i], report.result.colors[j]);
    }
  }
  EXPECT_EQ(report.update->num_colors, 4u);
}

TEST(IncrementalUpdate, SplitUpdatesMatchOneShot) {
  const auto strings = random_strings(90, 10, 41);

  auto one_shot = papi::SessionBuilder().seed(9).build();
  auto whole = one_shot.update(papi::UpdateDelta::pauli(slice(strings, 0, 90)));

  auto split = papi::SessionBuilder().seed(9).build();
  split.update(papi::UpdateDelta::pauli(slice(strings, 0, 30)));
  split.update(papi::UpdateDelta::pauli(slice(strings, 30, 31)));
  auto last = split.update(papi::UpdateDelta::pauli(slice(strings, 31, 90)));

  EXPECT_EQ(last.result.colors, whole.result.colors);
}

TEST(IncrementalUpdate, ExtendsASolveIncrementalBaseline) {
  const auto strings = random_strings(80, 10, 57);
  const pp::PauliSet base = slice(strings, 0, 50);

  // Recoloring relocates old vertices by design, so prefix stability only
  // holds with relocation disabled (and escalation off, its default).
  auto session = papi::SessionBuilder()
                     .seed(2)
                     .update_params({.max_recolor = 0, .max_new_colors = 0})
                     .build();
  auto baseline = session.solve_incremental(papi::Problem::pauli(base));
  EXPECT_EQ(baseline.result.colors.size(), 50u);
  EXPECT_TRUE(session.has_incremental_state());

  auto updated = session.update(papi::UpdateDelta::pauli(slice(strings, 50, 80)));
  ASSERT_EQ(updated.result.colors.size(), 80u);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(updated.result.colors[i], baseline.result.colors[i]);
  }
  const pp::PauliSet all = slice(strings, 0, 80);
  const pg::ComplementOracle oracle(all);
  EXPECT_TRUE(picasso::coloring::is_valid_coloring_oracle(
      oracle, updated.result.colors));
}

// --- Cancellation ------------------------------------------------------------

TEST(IncrementalUpdate, CancelledUpdateStaysConsistentAndReUpdatable) {
  const auto strings = random_strings(120, 10, 77);

  // Reference: the same sequence, uninterrupted.
  auto reference = papi::SessionBuilder().seed(4).build();
  auto expected =
      reference.update(papi::UpdateDelta::pauli(slice(strings, 0, 120)));

  auto session = papi::SessionBuilder().seed(4).build();
  session.update(papi::UpdateDelta::pauli(slice(strings, 0, 40)));

  pcore::StopSource stop;
  std::atomic<int> insertions{0};
  papi::SolveOptions options;
  options.stop = stop.token();
  options.progress = [&](const pcore::ProgressEvent& event) {
    if (event.stage == pcore::ProgressStage::VertexInserted &&
        ++insertions == 25) {
      stop.request_stop();
    }
  };
  EXPECT_THROW(
      session.update(papi::UpdateDelta::pauli(slice(strings, 40, 120)),
                     options),
      pcore::SolveCancelled);

  // The delta was ingested before coloring began: the state holds all 120
  // records, with the uncolored backlog marked kUncolored.
  const pcore::FusedState* state = session.incremental_state();
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->num_vertices(), 120u);
  EXPECT_EQ(state->colored_vertices(), 65u);  // 40 + 25 before the stop won
  EXPECT_EQ(state->colors()[70], pcore::FusedState::kUncolored);

  // An empty follow-up update colors the backlog; the outcome matches the
  // uninterrupted run bit for bit.
  auto resumed = session.update(papi::UpdateDelta::pauli(pp::PauliSet()));
  EXPECT_EQ(resumed.update->vertices_inserted, 55u);
  EXPECT_EQ(resumed.result.colors, expected.result.colors);
}

// --- Budgeted (spilled) states ----------------------------------------------

TEST(IncrementalUpdate, BudgetedSpillGrowsAcrossUpdatesAndMatchesInMemory) {
  const auto strings = random_strings(100, 12, 131);

  auto plain = papi::SessionBuilder().seed(6).build();
  plain.update(papi::UpdateDelta::pauli(slice(strings, 0, 60)));
  auto plain_report =
      plain.update(papi::UpdateDelta::pauli(slice(strings, 60, 100)));

  auto budgeted =
      papi::SessionBuilder().seed(6).memory_budget(64u << 20).build();
  auto first = budgeted.update(papi::UpdateDelta::pauli(slice(strings, 0, 60)));
  const pcore::FusedState* state = budgeted.incremental_state();
  ASSERT_NE(state, nullptr);
  EXPECT_TRUE(state->spilled());
  const std::size_t bytes_after_first = state->spill_bytes();
  EXPECT_GT(bytes_after_first, 0u);
  EXPECT_TRUE(first.result.memory.streamed);

  auto second =
      budgeted.update(papi::UpdateDelta::pauli(slice(strings, 60, 100)));
  EXPECT_GT(state->spill_bytes(), bytes_after_first);
  EXPECT_EQ(second.result.memory.spill_bytes, state->spill_bytes());

  // Storage must not affect the coloring.
  EXPECT_EQ(second.result.colors, plain_report.result.colors);

  // reset_incremental removes the spill file.
  const std::string spill = state->spill_path();
  EXPECT_TRUE(fs::exists(spill));
  budgeted.reset_incremental();
  EXPECT_FALSE(fs::exists(spill));
}

// --- First fit against a class-by-class reference --------------------------

TEST(IncrementalUpdate, FirstFitMatchesClassByClassReference) {
  // Without recoloring and escalation, each inserted vertex must take the
  // lowest color whose class has no member commuting with it, whether the
  // first fit probes a class whole or stops at its first conflict.
  constexpr std::size_t kQubits = 150;
  const auto family = anticommuting_family(kQubits);  // 301 strings
  const auto randoms = random_strings(700, kQubits, 1201);

  // Color 0: 260 family members, a class larger than one probe round
  // (kInsertBatch = 256 ids).
  std::vector<pp::PauliString> base(family.begin(), family.begin() + 260);
  std::vector<std::uint32_t> colors(base.size(), 0);
  // 400 random strings, greedy-colored into classes 1..K, with two empty
  // palette slots after the 34th class: a run of nonempty classes longer
  // than one 32-bucket probe window, then a gap.
  std::vector<std::vector<pp::PauliString>> greedy;
  std::vector<std::size_t> greedy_class;
  for (std::size_t i = 0; i < 400; ++i) {
    const std::uint32_t g = first_fit_reference(greedy, randoms[i]);
    if (g == greedy.size()) greedy.emplace_back();
    greedy[g].push_back(randoms[i]);
    greedy_class.push_back(g);
  }
  ASSERT_GT(greedy.size(), 36u);
  const auto slot = [](std::size_t g) {
    return static_cast<std::uint32_t>(1 + g + (g >= 34 ? 2 : 0));
  };
  for (std::size_t i = 0; i < 400; ++i) {
    base.push_back(randoms[i]);
    colors.push_back(slot(greedy_class[i]));
  }
  // One more empty slot, then the other 41 family members: a class larger
  // than the probe window.
  const std::uint32_t family_slot = slot(greedy.size() - 1) + 2;
  for (std::size_t i = 260; i < family.size(); ++i) {
    base.push_back(family[i]);
    colors.push_back(family_slot);
  }

  // Inserted: the other 300 random strings with family members mixed in.
  // family[259] is blocked by color 0 only at that class's last member;
  // family[300] anticommutes with all of color 0, so color 0 admits it
  // after a full probe; a duplicate then commutes with its twin.
  std::vector<pp::PauliString> inserted(randoms.begin() + 400, randoms.end());
  inserted.insert(inserted.begin() + 10, family[259]);
  inserted.insert(inserted.begin() + 50, family[300]);
  inserted.insert(inserted.begin() + 90, family[300]);
  inserted.insert(inserted.begin() + 130, family[3]);

  std::vector<std::vector<pp::PauliString>> classes(family_slot + 1);
  for (std::size_t i = 0; i < base.size(); ++i) {
    classes[colors[i]].push_back(base[i]);
  }
  std::vector<std::uint32_t> want;
  for (const pp::PauliString& s : inserted) {
    const std::uint32_t c = first_fit_reference(classes, s);
    if (c == classes.size()) classes.emplace_back();
    classes[c].push_back(s);
    want.push_back(c);
  }
  // The inputs reach both rare winners: color 0 and an empty slot.
  EXPECT_NE(std::find(want.begin(), want.end(), 0u), want.end());
  EXPECT_NE(std::find(want.begin(), want.end(), slot(33) + 1), want.end());

  constexpr std::size_t kChunk = 128;  // the spill holds 8 chunks
  ASSERT_GE((base.size() + inserted.size()) / kChunk, 3u);
  for (const bool spilled : {false, true}) {
    SCOPED_TRACE(spilled ? "spilled store" : "resident store");
    TempFile file("picasso_test_first_fit_reference.pset");
    pcore::FusedState state(pcore::PicassoParams{},
                            {.max_recolor = 0, .max_new_colors = 0});
    if (spilled) state.use_spill(file.path.string(), kChunk);
    pcore::PicassoResult solved;
    solved.colors = colors;
    state.adopt_pauli_solution(pp::PauliSet(base), solved);
    for (std::size_t begin = 0; begin < inserted.size(); begin += 37) {
      state.update_pauli(slice(inserted, begin,
                               std::min(inserted.size(), begin + 37)));
    }
    ASSERT_EQ(state.num_vertices(), base.size() + inserted.size());
    for (std::size_t i = 0; i < inserted.size(); ++i) {
      ASSERT_EQ(state.colors()[base.size() + i], want[i]) << "insert " << i;
    }
  }
}

// --- The probe schedule ------------------------------------------------------

namespace {

/// `count` strings on `qubits` qubits with `ops` random non-identity ops
/// each: sparse supports, so bucket signatures often prove disjointness.
std::vector<pp::PauliString> sparse_strings(std::size_t count,
                                            std::size_t qubits, std::size_t ops,
                                            std::uint64_t seed) {
  picasso::util::Xoshiro256 rng(seed);
  std::vector<pp::PauliString> strings;
  for (std::size_t i = 0; i < count; ++i) {
    pp::PauliString s(qubits);
    for (std::size_t k = 0; k < ops; ++k) {
      s.set_op(rng.bounded(qubits),
               static_cast<pp::PauliOp>(1 + rng.bounded(3)));
    }
    strings.push_back(s);
  }
  return strings;
}

}  // namespace

TEST(IncrementalUpdate, ProbeScheduleCountersArePinned) {
  // Which ids go through which edges() call is the probe schedule; the
  // counters below are a function of it alone. A rewrite of first fit or of
  // the prober that sends other ids, or the same ids in other batches,
  // moves them, even when the coloring stays the same.
  constexpr std::size_t kQubits = 48;
  const auto family = anticommuting_family(kQubits);  // 97 strings
  const auto randoms = sparse_strings(800, kQubits, 5, 1301);

  // Color 0: the family, a class probed over seven doubling rounds; then
  // 500 sparse strings greedy-colored into classes 1..K.
  std::vector<pp::PauliString> base(family.begin(), family.end());
  std::vector<std::uint32_t> colors(base.size(), 0);
  std::vector<std::vector<pp::PauliString>> greedy;
  for (std::size_t i = 0; i < 500; ++i) {
    const std::uint32_t g = first_fit_reference(greedy, randoms[i]);
    if (g == greedy.size()) greedy.emplace_back();
    greedy[g].push_back(randoms[i]);
    base.push_back(randoms[i]);
    colors.push_back(1 + g);
  }
  ASSERT_GT(greedy.size(), 64u);  // more buckets than two probe windows

  // Inserted: the other 300 sparse strings, with family members mixed in.
  std::vector<pp::PauliString> inserted(randoms.begin() + 500, randoms.end());
  inserted.insert(inserted.begin() + 20, family[96]);
  inserted.insert(inserted.begin() + 120, family[7]);

  constexpr std::size_t kChunk = 113;  // the spill holds 8 chunks
  ASSERT_EQ((base.size() + inserted.size() + kChunk - 1) / kChunk, 8u);
  using picasso::obs::Counter;
  for (const bool spilled : {false, true}) {
    SCOPED_TRACE(spilled ? "spilled store" : "resident store");
    TempFile file("picasso_test_probe_schedule.pset");
    pcore::FusedState state(pcore::PicassoParams{},
                            {.max_recolor = 8, .max_new_colors = 0});
    if (spilled) state.use_spill(file.path.string(), kChunk);
    pcore::PicassoResult solved;
    solved.colors = colors;
    state.adopt_pauli_solution(pp::PauliSet(base), solved);

    picasso::obs::CounterTotals totals;
    {
      const picasso::obs::MetricsRunScope scope(true);
      for (std::size_t begin = 0; begin < inserted.size(); begin += 29) {
        state.update_pauli(slice(inserted, begin,
                                 std::min(inserted.size(), begin + 29)));
      }
      totals = picasso::obs::global_metrics().totals();
    }
    ASSERT_EQ(state.num_vertices(), base.size() + inserted.size());
    const std::vector<std::uint32_t> got = state.colors().to_vector();
    const std::vector<std::uint64_t> wide(got.begin(), got.end());

    // Both stores send the same ids in the same edges() calls; the spill
    // makes one kernel call per chunk a batch touches.
    EXPECT_EQ(totals[Counter::OraclePairEvals], 180849u);
    EXPECT_EQ(totals[Counter::EdgeBlockCallsAvx2] +
                  totals[Counter::EdgeBlockCallsScalar],
              spilled ? 66068u : 24814u);
    EXPECT_EQ(totals[Counter::UpdateBucketProbes], 60033u);
    EXPECT_EQ(totals[Counter::SignatureFastExits], 6465u);
    EXPECT_EQ(state.distinct_colors(), 157u);
    EXPECT_EQ(picasso::util::hash_words(wide.data(), wide.size()),
              14431706528595393802u);
  }
}

// --- Spilled updates: kept checks, caches that survive appends -------------

TEST(SpilledUpdate, CorruptionBetweenUpdatesFailsTheNextUpdate) {
  const auto strings = random_strings(90, 12, 801);
  auto session = spilled_session(4, 32);
  session.update(papi::UpdateDelta::pauli(slice(strings, 0, 50)));
  session.update(papi::UpdateDelta::pauli(slice(strings, 50, 70)));
  const pcore::FusedState* state = session.incremental_state();
  ASSERT_NE(state, nullptr);
  ASSERT_TRUE(state->spilled());

  // One byte of the base block's records: the layout is unchanged and
  // the base chunks sit in the cache, so only re-verifying the base
  // trailer on refresh can notice.
  corrupt_byte(state->spill_path(), 24 + 8);
  try {
    session.update(papi::UpdateDelta::pauli(slice(strings, 70, 90)));
    FAIL() << "update served a corrupted spill";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("checksum"), std::string::npos)
        << error.what();
  }
}

TEST(SpilledUpdate, CorruptionInAnAppendSegmentFailsTheNextUpdate) {
  const auto strings = random_strings(90, 12, 802);
  auto session = spilled_session(4, 32);
  session.update(papi::UpdateDelta::pauli(slice(strings, 0, 50)));
  const pcore::FusedState* state = session.incremental_state();
  ASSERT_NE(state, nullptr);
  ASSERT_TRUE(state->spilled());
  const std::size_t base_bytes = state->spill_bytes();
  session.update(papi::UpdateDelta::pauli(slice(strings, 50, 70)));
  session.update(papi::UpdateDelta::pauli(slice(strings, 70, 80)));

  // One byte of the first append segment's records, past its 16-byte
  // header: the layout is unchanged and a later segment follows, so only
  // re-verifying that segment's trailer can notice.
  corrupt_byte(state->spill_path(), base_bytes + 16 + 8);
  try {
    session.update(papi::UpdateDelta::pauli(slice(strings, 80, 90)));
    FAIL() << "update served a corrupted append segment";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("checksum"), std::string::npos)
        << error.what();
  }
}

TEST(SpilledUpdate, TornAppendFailsTheUpdateAndResetRemovesTheSpill) {
  const auto strings = random_strings(80, 12, 811);
  auto session = spilled_session(5, 16);
  session.update(papi::UpdateDelta::pauli(slice(strings, 0, 40)));
  session.update(papi::UpdateDelta::pauli(slice(strings, 40, 60)));
  const std::string spill = session.incremental_state()->spill_path();
  ASSERT_TRUE(fs::exists(spill));

  {
    const FailpointGuard guard;
    picasso::util::failpoints::arm(
        "spill.append", {picasso::util::failpoints::Mode::ShortIo, 32, 1});
    EXPECT_THROW(
        session.update(papi::UpdateDelta::pauli(slice(strings, 60, 80))),
        std::runtime_error);
  }
  session.reset_incremental();
  EXPECT_FALSE(fs::exists(spill));
}

TEST(SpilledUpdate, UpdateWritesOnlyItsAppendSegment) {
  constexpr std::uint64_t kTrailerBytes = 16;  // PSETSUM2 magic + checksum
  const auto strings = random_strings(100, 12, 831);
  const fs::path dir =
      fs::temp_directory_path() / "picasso_test_delta_only_spill";
  fs::remove_all(dir);
  struct DirGuard {
    fs::path path;
    ~DirGuard() {
      std::error_code ec;
      fs::remove_all(path, ec);
    }
  } guard{dir};

  auto session = spilled_session(9, 16, dir.string());
  session.update(papi::UpdateDelta::pauli(slice(strings, 0, 40)));
  const pcore::FusedState* state = session.incremental_state();
  ASSERT_NE(state, nullptr);
  ASSERT_TRUE(state->spilled());
  const fs::path spill = state->spill_path();

  for (std::size_t begin = 40; begin < 100; begin += 15) {
    const std::uint64_t before = fs::file_size(spill);
    const auto report =
        session.update(papi::UpdateDelta::pauli(slice(strings, begin,
                                                      begin + 15)));
    // The spill directory holds the spill and nothing else ...
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(dir)) {
      files.push_back(entry.path());
    }
    ASSERT_EQ(files, std::vector<fs::path>{spill}) << "update at " << begin;
    // ... and the spill grew by exactly the one segment the update counted.
    const std::uint64_t written = report.telemetry.counters
        [picasso::obs::Counter::SpillBytesWritten];
    EXPECT_GT(written, 0u);
    EXPECT_EQ(fs::file_size(spill), before + written + kTrailerBytes)
        << "update at " << begin;
  }
}

TEST(SpilledUpdate, SpilledBaselineWritesItsBaseOnce) {
  constexpr std::uint64_t kTrailerBytes = 16;  // PSETSUM2 magic + checksum
  const auto strings = random_strings(64, 12, 841);
  const pp::PauliSet base = slice(strings, 0, 64);
  auto plain = papi::SessionBuilder().seed(8).build();
  const auto want = plain.solve_incremental(papi::Problem::pauli(base));

  auto session = spilled_session(8, 16);
  const auto report = session.solve_incremental(papi::Problem::pauli(base));
  // The baseline streams from the state's own spill: one base block
  // reaches the disk, and the spill holds that block and its trailer.
  EXPECT_EQ(report.telemetry.counters[picasso::obs::Counter::SpillBytesWritten],
            base.binary_size());
  EXPECT_TRUE(report.result.memory.streamed);
  EXPECT_EQ(report.result.memory.spill_bytes, base.binary_size());
  EXPECT_FALSE(report.result.degraded);
  EXPECT_EQ(report.result.colors, want.result.colors);
  const pcore::FusedState* state = session.incremental_state();
  ASSERT_NE(state, nullptr);
  ASSERT_TRUE(state->spilled());
  EXPECT_EQ(fs::file_size(state->spill_path()),
            base.binary_size() + kTrailerBytes);
}

TEST(SpilledUpdate, FullDeviceAtTheBaselineDegradesAndAdoptionRetriesTheSpill) {
  FailpointGuard failpoints;
  const auto strings = random_strings(80, 12, 843);
  const pp::PauliSet base = slice(strings, 0, 64);
  auto plain = papi::SessionBuilder().seed(8).build();
  const auto want = plain.solve_incremental(papi::Problem::pauli(base));
  const auto want_next =
      plain.update(papi::UpdateDelta::pauli(slice(strings, 64, 80)));

  auto session = spilled_session(8, 16);
  picasso::util::failpoints::arm(
      "spill.write", {picasso::util::failpoints::Mode::Enospc, 0, 1});
  const auto report = session.solve_incremental(papi::Problem::pauli(base));
  EXPECT_TRUE(report.result.degraded);
  EXPECT_FALSE(report.result.memory.streamed);
  EXPECT_EQ(report.result.colors, want.result.colors);
  // The second write went through: the state is spilled and updates.
  const pcore::FusedState* state = session.incremental_state();
  ASSERT_NE(state, nullptr);
  ASSERT_TRUE(state->spilled());
  EXPECT_TRUE(fs::exists(state->spill_path()));
  const auto next =
      session.update(papi::UpdateDelta::pauli(slice(strings, 64, 80)));
  EXPECT_EQ(next.result.colors, want_next.result.colors);
}

TEST(SpilledUpdate, SecondUpdateExtendsTheGrownChunkWithItsAppendedRecords) {
  constexpr std::size_t kChunk = 32;
  constexpr std::size_t kQubits = 12;
  const auto strings = random_strings(84, kQubits, 821);
  auto plain = papi::SessionBuilder().seed(8).build();
  plain.solve_incremental(papi::Problem::pauli(slice(strings, 0, 64)));
  plain.update(papi::UpdateDelta::pauli(slice(strings, 64, 74)));
  const auto want =
      plain.update(papi::UpdateDelta::pauli(slice(strings, 74, 84)));

  auto session = spilled_session(8, kChunk);
  // The baseline fills chunks 0 and 1 exactly; its signature rebuild
  // loads both into the cache. The first update's strings start chunk 2,
  // which its probes load.
  session.solve_incremental(papi::Problem::pauli(slice(strings, 0, 64)));
  session.update(papi::UpdateDelta::pauli(slice(strings, 64, 74)));
  const auto second =
      session.update(papi::UpdateDelta::pauli(slice(strings, 74, 84)));

  // The second append grows chunk 2: its one miss extends it in place with
  // the 10 appended records, read once, and every other chunk is served
  // from memory.
  const auto& counters = second.telemetry.counters;
  EXPECT_EQ(counters[picasso::obs::Counter::ChunkCacheMisses], 1u);
  EXPECT_EQ(counters[picasso::obs::Counter::SpillBytesRead],
            10 * pp::pset_record_bytes(kQubits));
  EXPECT_EQ(counters[picasso::obs::Counter::ChunkReReads], 0u);
  EXPECT_EQ(second.result.colors, want.result.colors);
}

// --- Escalation --------------------------------------------------------------

TEST(IncrementalUpdate, FreshColorPressureTriggersEscalation) {
  // Copies of one string pairwise commute => pairwise conflict: every
  // insertion needs a fresh color, recoloring can never help, and the
  // fresh-color budget trips an escalation (a full fused re-solve of the
  // prefix). The result must still be a proper coloring: all distinct.
  const auto strings = random_strings(1, 6, 7);
  std::vector<pp::PauliString> dupes(6, strings[0]);

  pcore::UpdateParams update_params;
  update_params.max_recolor = 2;
  update_params.max_new_colors = 2;
  auto session =
      papi::SessionBuilder().seed(8).update_params(update_params).build();

  session.solve_incremental(
      papi::Problem::pauli(pp::PauliSet({strings[0], strings[0]})));
  auto report = session.update(papi::UpdateDelta::pauli(pp::PauliSet(dupes)));

  ASSERT_TRUE(report.update.has_value());
  EXPECT_GE(report.update->escalations, 1u);
  ASSERT_EQ(report.result.colors.size(), 8u);
  std::vector<std::uint32_t> sorted = report.result.colors;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
}

// --- Shape errors ------------------------------------------------------------

TEST(IncrementalUpdate, QubitMismatchIsAnApiError) {
  auto session = papi::SessionBuilder().build();
  session.update(papi::UpdateDelta::pauli(slice(random_strings(4, 8, 1), 0, 4)));
  try {
    session.update(papi::UpdateDelta::pauli(slice(random_strings(4, 9, 2), 0, 4)));
    FAIL() << "expected ApiError";
  } catch (const papi::ApiError& e) {
    EXPECT_EQ(e.code(), papi::ErrorCode::InvalidArgument);
    EXPECT_EQ(e.field(), "delta");
  }
}

TEST(IncrementalUpdate, GraphDeltaWithoutABaselineIsAnError) {
  auto session = papi::SessionBuilder().build();
  try {
    session.update(papi::UpdateDelta::graph({pcore::GraphVertexDelta{}}));
    FAIL() << "expected ApiError";
  } catch (const papi::ApiError& e) {
    EXPECT_EQ(e.code(), papi::ErrorCode::InvalidConfiguration);
  }
}

TEST(IncrementalUpdate, MixingDeltaKindsIsAnError) {
  auto session = papi::SessionBuilder().build();
  session.update(papi::UpdateDelta::pauli(slice(random_strings(4, 8, 3), 0, 4)));
  EXPECT_THROW(
      session.update(papi::UpdateDelta::graph({pcore::GraphVertexDelta{}})),
      papi::ApiError);
}

// --- Graph-backed increments -------------------------------------------------

TEST(IncrementalUpdate, GraphDeltasExtendAnExplicitGraphBaseline) {
  const pg::CsrGraph g = pg::erdos_renyi(40, 0.2, 17);
  auto session = papi::SessionBuilder().seed(12).build();
  auto baseline = session.solve_incremental(papi::Problem::csr(g));
  ASSERT_EQ(baseline.result.colors.size(), 40u);

  // Two new vertices: one conflicting with a handful of old ones, one
  // conflicting with its immediate predecessor (the first new vertex).
  std::vector<pcore::GraphVertexDelta> delta(2);
  delta[0].conflicts = {0, 3, 7, 21};
  delta[1].conflicts = {5, 40};
  auto report = session.update(papi::UpdateDelta::graph(delta));

  ASSERT_EQ(report.result.colors.size(), 42u);
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(report.result.colors[i], baseline.result.colors[i]);
  }
  for (std::size_t v = 40; v < 42; ++v) {
    for (std::uint32_t nbr : delta[v - 40].conflicts) {
      EXPECT_NE(report.result.colors[v], report.result.colors[nbr]);
    }
  }
}

TEST(IncrementalUpdate, GraphDeltaConflictsMustReferenceEarlierVertices) {
  auto session = papi::SessionBuilder().build();
  session.solve_incremental(papi::Problem::csr(pg::erdos_renyi(10, 0.3, 5)));
  std::vector<pcore::GraphVertexDelta> delta(1);
  delta[0].conflicts = {10};  // the new vertex's own id
  EXPECT_THROW(session.update(papi::UpdateDelta::graph(delta)),
               papi::ApiError);
}

// --- Telemetry ---------------------------------------------------------------

TEST(IncrementalUpdate, UpdateCountersFlowIntoTelemetry) {
  auto session = papi::SessionBuilder()
                     .seed(14)
                     .telemetry(picasso::obs::TelemetryLevel::Counters)
                     .build();
  const auto strings = random_strings(50, 8, 201);
  auto report = session.update(papi::UpdateDelta::pauli(slice(strings, 0, 50)));

  ASSERT_TRUE(report.telemetry.enabled());
  const auto& counters = report.telemetry.counters;
  EXPECT_EQ(counters[picasso::obs::Counter::UpdateVerticesInserted], 50u);
  EXPECT_GT(counters[picasso::obs::Counter::UpdateBucketProbes], 0u);
  EXPECT_EQ(counters[picasso::obs::Counter::UpdateVerticesInserted],
            report.update->vertices_inserted);
  EXPECT_EQ(counters[picasso::obs::Counter::UpdateBucketProbes],
            report.update->bucket_probes);
  EXPECT_EQ(counters[picasso::obs::Counter::UpdateFreshColors],
            report.update->fresh_colors);
}

TEST(SpilledUpdate, FullTelemetryUpdateRecordsItsPhasesUnderOneRoot) {
  const auto strings = random_strings(60, 12, 841);
  const auto session_at = [](picasso::obs::TelemetryLevel level) {
    return papi::SessionBuilder()
        .seed(4)
        .memory_budget(std::size_t{64} << 20)
        .streaming({.chunk_strings = 16})
        .telemetry(level)
        .build();
  };
  auto traced = session_at(picasso::obs::TelemetryLevel::Full);
  traced.update(papi::UpdateDelta::pauli(slice(strings, 0, 40)));
  ASSERT_TRUE(traced.incremental_state()->spilled());
  const auto report =
      traced.update(papi::UpdateDelta::pauli(slice(strings, 40, 60)));

  const auto& spans = report.telemetry.spans;
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_STREQ(spans[0].name, "update");
  EXPECT_EQ(spans[0].depth, 0);
  const char* phases[] = {"append", "refresh", "color_backlog"};
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_STREQ(spans[i].name, phases[i - 1]);
    EXPECT_EQ(spans[i].depth, 1);
    EXPECT_GE(spans[i].start_seconds, spans[0].start_seconds);
    EXPECT_LE(spans[i].start_seconds + spans[i].duration_seconds,
              spans[0].start_seconds + spans[0].duration_seconds);
  }
  EXPECT_EQ(spans[1].arg, 20u);  // records appended
  EXPECT_EQ(spans[3].arg, 20u);  // vertices colored

  auto quiet = session_at(picasso::obs::TelemetryLevel::Off);
  quiet.update(papi::UpdateDelta::pauli(slice(strings, 0, 40)));
  const auto silent =
      quiet.update(papi::UpdateDelta::pauli(slice(strings, 40, 60)));
  EXPECT_TRUE(silent.telemetry.spans.empty());
  EXPECT_EQ(silent.result.colors, report.result.colors);
}

// --- ChunkedPauliReader append-segment regressions ---------------------------

TEST(ReaderAppend, ReopenedReaderSeesAppendedStrings) {
  const auto strings = random_strings(70, 9, 301);
  const pp::PauliSet base = slice(strings, 0, 40);
  const pp::PauliSet delta = slice(strings, 40, 70);
  const pp::PauliSet all = slice(strings, 0, 70);

  TempFile file("picasso_test_append_a.pset");
  pp::spill_pauli_set(base, file.path.string());
  pp::append_pauli_set(delta, file.path.string());

  // The regression: the base header still says 40 strings. A reader must
  // walk the segment chain instead of trusting it.
  pp::ChunkedPauliReader reader(file.path.string(), 16);
  ASSERT_EQ(reader.num_strings(), 70u);

  for (std::size_t chunk = 0; chunk < reader.num_chunks(); ++chunk) {
    const pp::PauliSet loaded = reader.load_chunk(chunk);
    const pp::PackedPauliSet packed = reader.load_chunk_packed(chunk);
    const std::size_t begin = reader.chunk_begin(chunk);
    for (std::size_t i = 0; i < loaded.size(); ++i) {
      // Strings, coefficients and packed records all line up with the
      // concatenated set, including the chunk that spans the segment seam.
      EXPECT_EQ(loaded.string(i), all.string(begin + i));
      EXPECT_EQ(loaded.coefficients()[i], all.coefficients()[begin + i]);
      const auto* got = packed.record(i);
      const auto* want = all.packed_view().record(begin + i);
      for (std::size_t w = 0; w < 2 * packed.words(); ++w) {
        EXPECT_EQ(got[w], want[w]);
      }
    }
  }
}

TEST(ReaderAppend, ChainedAppendsAndMaxStringsClamp) {
  const auto strings = random_strings(50, 8, 501);
  TempFile file("picasso_test_append_chain.pset");
  pp::spill_pauli_set(slice(strings, 0, 20), file.path.string());
  pp::append_pauli_set(slice(strings, 20, 35), file.path.string());
  pp::append_pauli_set(slice(strings, 35, 50), file.path.string());

  pp::ChunkedPauliReader full(file.path.string(), 64);
  EXPECT_EQ(full.num_strings(), 50u);

  // max_strings clamps to the escalation prefix, mid-segment included.
  pp::ChunkedPauliReader prefix(file.path.string(), 64, 27);
  ASSERT_EQ(prefix.num_strings(), 27u);
  const pp::PauliSet loaded = prefix.load_chunk(0);
  const pp::PauliSet want = slice(strings, 0, 27);
  ASSERT_EQ(loaded.size(), 27u);
  for (std::size_t i = 0; i < 27; ++i) {
    EXPECT_EQ(loaded.string(i), want.string(i));
  }
}

TEST(ReaderAppend, TrailingGarbageIsRejected) {
  const auto strings = random_strings(10, 6, 601);
  TempFile file("picasso_test_append_garbage.pset");
  pp::spill_pauli_set(slice(strings, 0, 10), file.path.string());
  {
    std::ofstream out(file.path, std::ios::binary | std::ios::app);
    const char junk[] = "not-a-segment";
    out.write(junk, sizeof(junk));
  }
  EXPECT_THROW(pp::ChunkedPauliReader(file.path.string(), 4),
               std::runtime_error);
}

TEST(ReaderAppend, AppendToMissingOrForeignFileThrows) {
  const auto strings = random_strings(4, 6, 701);
  EXPECT_THROW(pp::append_pauli_set(slice(strings, 0, 4),
                                    "/nonexistent/picasso_nope.pset"),
               std::runtime_error);

  TempFile file("picasso_test_append_foreign.pset");
  {
    std::ofstream out(file.path, std::ios::binary);
    const char junk[] = "PAULINOT";
    out.write(junk, sizeof(junk));
  }
  EXPECT_THROW(pp::append_pauli_set(slice(strings, 0, 4), file.path.string()),
               std::runtime_error);
}

TEST(ReaderAppend, RefreshReportsTheUnchangedStringsAndKeepsItsViewOnFailure) {
  const auto strings = random_strings(40, 9, 901);
  TempFile file("picasso_test_refresh.pset");
  pp::spill_pauli_set(slice(strings, 0, 20), file.path.string());
  pp::ChunkedPauliReader reader(file.path.string(), 8);
  ASSERT_EQ(reader.num_strings(), 20u);

  // 20 -> 30 strings: the first 20 are unchanged.
  pp::append_pauli_set(slice(strings, 20, 30), file.path.string());
  EXPECT_EQ(reader.refresh(), 20u);
  expect_packed_chunks(reader, slice(strings, 0, 30));

  // 30 -> 32.
  pp::append_pauli_set(slice(strings, 30, 32), file.path.string());
  EXPECT_EQ(reader.refresh(), 30u);
  // Nothing appended: every string is unchanged.
  EXPECT_EQ(reader.refresh(), reader.num_strings());

  // A rewritten file changes from its first segment on.
  pp::spill_pauli_set(slice(strings, 8, 40), file.path.string());
  EXPECT_EQ(reader.refresh(), 0u);
  expect_packed_chunks(reader, slice(strings, 8, 40));
  pp::spill_pauli_set(slice(strings, 0, 32), file.path.string());
  EXPECT_EQ(reader.refresh(), 0u);

  // A torn append makes refresh throw; the reader keeps serving its view.
  {
    const FailpointGuard guard;
    picasso::util::failpoints::arm(
        "spill.append", {picasso::util::failpoints::Mode::ShortIo, 16, 1});
    pp::append_pauli_set(slice(strings, 32, 40), file.path.string());
  }
  EXPECT_THROW(reader.refresh(), std::runtime_error);
  expect_packed_chunks(reader, slice(strings, 0, 32));
}

TEST(ReaderAppend, OnePassScanAcrossBlockBoundaries) {
  // The scan reads a spill in 64 KiB blocks and parses headers and
  // trailers out of the same bytes it hashes. This spill is over three
  // blocks long, with 120 append segments whose sizes vary, so segment
  // headers and trailers straddle block boundaries (asserted below).
  constexpr std::uint64_t kBlock = std::uint64_t{1} << 16;
  constexpr std::size_t kQubits = 16;  // 12-byte records
  constexpr std::size_t kBase = 10167;
  constexpr std::size_t kSegments = 120;
  std::vector<std::size_t> counts;
  std::size_t total = kBase;
  for (std::size_t i = 0; i < kSegments; ++i) {
    counts.push_back(40 + (i * 7) % 23);
    total += counts.back();
  }
  const auto strings = random_strings(total, kQubits, 921);
  TempFile file("picasso_test_scan_blocks.pset");
  const std::string path = file.path.string();
  pp::spill_pauli_set(slice(strings, 0, kBase), path);
  pp::ChunkedPauliReader reader(path, 64);

  // Where each segment header and each trailer starts.
  const std::uint64_t record = pp::pset_record_bytes(kQubits);
  std::vector<std::uint64_t> headers;
  std::vector<std::uint64_t> trailers{24 + kBase * record};
  std::size_t have = kBase;
  for (const std::size_t count : counts) {
    headers.push_back(trailers.back() + 16);
    trailers.push_back(headers.back() + 16 + count * record);
    pp::append_pauli_set(slice(strings, have, have + count), path);
    EXPECT_EQ(reader.refresh(), have);
    have += count;
  }
  expect_packed_chunks(reader, slice(strings, 0, total));
  const std::uint64_t file_bytes = fs::file_size(file.path);
  ASSERT_EQ(file_bytes, trailers.back() + 16);
  ASSERT_GE(file_bytes, 3 * kBlock);

  const auto straddling = [&](const std::vector<std::uint64_t>& fields) {
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (fields[i] / kBlock != (fields[i] + 15) / kBlock) return i;
    }
    return fields.size();
  };
  const std::size_t seg = straddling(headers);
  const std::size_t closed = straddling(trailers);
  ASSERT_LT(seg, headers.size());
  ASSERT_LT(closed, trailers.size());
  // The boundary splits the header's count and the trailer's magic from
  // its digest.
  ASSERT_EQ(kBlock - headers[seg] % kBlock, 12u);
  ASSERT_EQ(kBlock - trailers[closed] % kBlock, 8u);

  // The message of what `fails` throws, or "" when it throws nothing.
  const auto error_of = [](const auto& fails) -> std::string {
    try {
      fails();
    } catch (const std::runtime_error& error) {
      return error.what();
    }
    return "";
  };
  const auto reopen = [&] { pp::ChunkedPauliReader reopened(path, 64); };
  const auto refresh = [&] { reader.refresh(); };
  const auto mentions = [](const std::string& message, const char* what) {
    return message.find(what) != std::string::npos;
  };

  // A flipped record byte in the straddling segment: refresh and a fresh
  // open both fail. Flipping it back restores the file.
  const std::uint64_t in_records = headers[seg] + 16 + 3 * record + 2;
  corrupt_byte(path, in_records);
  EXPECT_TRUE(mentions(error_of(refresh), "checksum"));
  EXPECT_TRUE(mentions(error_of(reopen), "checksum"));
  corrupt_byte(path, in_records);
  EXPECT_EQ(reader.refresh(), total);

  // A flipped digest byte of the straddling trailer.
  corrupt_byte(path, trailers[closed] + 8 + 3);
  EXPECT_TRUE(mentions(error_of(reopen), "checksum mismatch"));
  corrupt_byte(path, trailers[closed] + 8 + 3);

  // A cut inside the straddling segment header, at the block boundary:
  // the reader keeps its view.
  fs::resize_file(file.path, headers[seg] + 12);
  EXPECT_TRUE(mentions(error_of(reopen), "unrecognized trailing bytes"));
  EXPECT_TRUE(mentions(error_of(refresh), "unrecognized trailing bytes"));
  EXPECT_EQ(reader.num_strings(), total);
}

TEST(ReaderAppend, ChunkCacheSyncKeepsEarlierChunksAndExtendsTheGrownOne) {
  constexpr std::size_t kQubits = 8;
  const auto strings = random_strings(40, kQubits, 911);
  TempFile file("picasso_test_cache_sync.pset");
  pp::spill_pauli_set(slice(strings, 0, 20), file.path.string());
  pp::ChunkedPauliReader reader(file.path.string(), 8);
  picasso::util::MemoryRegistry registry;
  pp::PackedPauliChunkCache cache(reader, registry);
  for (std::size_t chunk = 0; chunk < 3; ++chunk) cache.get(chunk);
  ASSERT_EQ(cache.misses(), 3u);  // chunk 2 holds strings 16..19

  // 20 -> 30: chunks 0 and 1 stay, chunk 2's next get is a miss that
  // grows it by the 4 appended records read alone, chunk 3 is new.
  pp::append_pauli_set(slice(strings, 20, 30), file.path.string());
  cache.sync(reader.refresh());
  cache.get(0);
  cache.get(1);
  EXPECT_EQ(cache.hits(), 2u);
  {
    const picasso::obs::MetricsRunScope scope(true);
    EXPECT_EQ(cache.get(2)->size(), 8u);
    EXPECT_EQ(picasso::obs::global_metrics()
                  .totals()[picasso::obs::Counter::SpillBytesRead],
              4 * pp::pset_record_bytes(kQubits));
  }
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.get(2)->size(), 8u);
  EXPECT_EQ(cache.hits(), 3u);
  cache.get(3);
  EXPECT_EQ(cache.misses(), 5u);
  EXPECT_EQ(cache.evictions(), 0u);
  // Every cached chunk is charged once, at its full size.
  EXPECT_EQ(registry.current_bytes(), 30 * 2 * pp::packed_words(kQubits) * 8);
  const pp::PauliSet all = slice(strings, 0, 30);
  for (std::size_t chunk = 0; chunk < 4; ++chunk) {
    const auto cached = cache.get(chunk);
    for (std::size_t i = 0; i < cached->size(); ++i) {
      ASSERT_EQ(cached->string(i), all.string(reader.chunk_begin(chunk) + i));
    }
  }

  // A pinned chunk cannot grow under its pin: the next get reloads it
  // whole, and the pin keeps its records and its charge.
  const auto pin = cache.get(3);
  const std::uint64_t* pinned = pin->record(0);
  pp::append_pauli_set(slice(strings, 30, 40), file.path.string());
  cache.sync(reader.refresh());
  const std::uint64_t misses = cache.misses();
  const auto reloaded = cache.get(3);
  EXPECT_EQ(reloaded->size(), 8u);
  EXPECT_NE(reloaded.get(), pin.get());
  EXPECT_EQ(cache.misses(), misses + 1);
  EXPECT_EQ(pin->size(), 6u);
  EXPECT_EQ(pin->record(0), pinned);
}

TEST(ReaderAppend, ChunkCacheReleasesTheChargeOfALoadThatThrows) {
  const auto strings = random_strings(64, 12, 915);
  TempFile file("picasso_test_cache_throw.pset");
  pp::spill_pauli_set(slice(strings, 0, 64), file.path.string());
  pp::ChunkedPauliReader reader(file.path.string(), 16);
  picasso::util::MemoryRegistry registry;
  pp::PackedPauliChunkCache cache(reader, registry);
  {
    const FailpointGuard guard;
    picasso::util::failpoints::arm(
        "spill.read", {picasso::util::failpoints::Mode::Error, 0, 1});
    EXPECT_THROW(cache.get(1), picasso::util::InjectedFault);
  }
  EXPECT_EQ(registry.current_bytes(), 0u);
  {
    const auto pin = cache.get(1);
    EXPECT_EQ(registry.current_bytes(),
              reader.chunk_packed_resident_bytes(1));
  }
  cache.clear();
  EXPECT_EQ(registry.current_bytes(), 0u);
}

// --- PackedRecordProber ------------------------------------------------------

/// Block-kernel calls so far; the ISA split is host-dependent, the sum not.
std::uint64_t edge_block_calls() {
  const auto totals = picasso::obs::global_metrics().totals();
  return totals[picasso::obs::Counter::EdgeBlockCallsAvx2] +
         totals[picasso::obs::Counter::EdgeBlockCallsScalar];
}

TEST(RecordProber, SpilledAnswersEqualResidentAndPerPairReference) {
  constexpr std::size_t kStrings = 61;
  constexpr std::size_t kChunk = 8;
  const auto strings = random_strings(kStrings, 10, 951);
  const pp::PauliSet set = slice(strings, 0, kStrings);
  TempFile file("picasso_test_record_prober.pset");
  pp::spill_pauli_set(set, file.path.string());
  pp::ChunkedPauliReader reader(file.path.string(), kChunk);
  ASSERT_GE(reader.num_chunks(), 3u);
  pp::PackedPauliChunkCache cache(reader);
  pp::PackedRecordProber spilled(reader, cache);
  pp::PackedRecordProber resident(set.packed_view());
  const std::size_t record_words = 2 * pp::packed_words(10);

  const picasso::obs::MetricsRunScope scope(true);
  picasso::util::Xoshiro256 rng(952);
  for (int round = 0; round < 300; ++round) {
    const auto u = static_cast<std::uint32_t>(rng.bounded(kStrings));
    // u itself plus random ids, in random order across chunks.
    std::vector<std::uint32_t> ids{u};
    const std::size_t extra = 1 + rng.bounded(30);
    for (std::size_t k = 0; k < extra; ++k) {
      ids.push_back(static_cast<std::uint32_t>(rng.bounded(kStrings)));
    }
    for (std::size_t k = ids.size() - 1; k > 0; --k) {
      std::swap(ids[k], ids[rng.bounded(k + 1)]);
    }
    std::set<std::size_t> chunks;
    for (std::uint32_t id : ids) chunks.insert(id / kChunk);

    const std::uint64_t* spilled_u = spilled.set_u(u);
    const std::uint64_t* resident_u = resident.set_u(u);
    ASSERT_TRUE(std::equal(spilled_u, spilled_u + record_words, resident_u));
    std::vector<std::uint8_t> from_spill(ids.size());
    std::vector<std::uint8_t> from_view(ids.size());
    const std::uint64_t before = edge_block_calls();
    spilled.edges(ids.data(), ids.size(), from_spill.data());
    EXPECT_EQ(edge_block_calls() - before, chunks.size());
    resident.edges(ids.data(), ids.size(), from_view.data());
    EXPECT_EQ(edge_block_calls() - before, chunks.size() + 1);

    for (std::size_t k = 0; k < ids.size(); ++k) {
      const bool want =
          ids[k] != u && !strings[u].anticommutes_with(strings[ids[k]]);
      EXPECT_EQ(from_spill[k] != 0, want) << "u " << u << " id " << ids[k];
      EXPECT_EQ(from_view[k] != 0, want) << "u " << u << " id " << ids[k];
    }
    const std::uint32_t id = ids[rng.bounded(ids.size())];
    const std::uint64_t* spilled_rec = spilled.record(id);
    EXPECT_TRUE(std::equal(spilled_rec, spilled_rec + record_words,
                           resident.record(id)));
  }
}

TEST(RecordProber, UnsortedBatchesGroupExactlyAtEveryChunkSize) {
  // One-string chunks (the id is the chunk), odd sizes and a power of two;
  // even rounds span two neighbouring chunks (grouped from both ends), odd
  // rounds any number (counting-sorted).
  constexpr std::size_t kStrings = 70;
  const auto strings = random_strings(kStrings, 9, 961);
  const pp::PauliSet set = slice(strings, 0, kStrings);
  TempFile file("picasso_test_prober_grouping.pset");
  pp::spill_pauli_set(set, file.path.string());
  const picasso::obs::MetricsRunScope scope(true);
  for (const std::size_t chunk : {1, 3, 8, 13}) {
    SCOPED_TRACE("chunk " + std::to_string(chunk));
    pp::ChunkedPauliReader reader(file.path.string(), chunk);
    pp::PackedPauliChunkCache cache(reader);
    pp::PackedRecordProber prober(reader, cache);
    picasso::util::Xoshiro256 rng(962 + chunk);
    for (int round = 0; round < 200; ++round) {
      const auto u = static_cast<std::uint32_t>(rng.bounded(kStrings));
      std::size_t lo = 0, span = kStrings;
      if (round % 2 == 0) {
        lo = rng.bounded(reader.num_chunks() - 1) * chunk;
        span = std::min(kStrings - lo, 2 * chunk);
      }
      std::vector<std::uint32_t> ids;
      if (round % 3 == 0) ids.push_back(u);
      const std::size_t count = 1 + rng.bounded(40);
      for (std::size_t k = 0; k < count; ++k) {
        ids.push_back(static_cast<std::uint32_t>(lo + rng.bounded(span)));
      }
      for (std::size_t k = ids.size() - 1; k > 0; --k) {
        std::swap(ids[k], ids[rng.bounded(k + 1)]);
      }
      std::set<std::size_t> chunks;
      for (std::uint32_t id : ids) chunks.insert(id / chunk);

      prober.set_u(u);
      std::vector<std::uint8_t> out(ids.size());
      const std::uint64_t before = edge_block_calls();
      prober.edges(ids.data(), ids.size(), out.data());
      EXPECT_EQ(edge_block_calls() - before, chunks.size());
      for (std::size_t k = 0; k < ids.size(); ++k) {
        const bool want =
            ids[k] != u && !strings[u].anticommutes_with(strings[ids[k]]);
        ASSERT_EQ(out[k] != 0, want) << "u " << u << " id " << ids[k];
      }
    }
  }
}

// --- Word hash ---------------------------------------------------------------

TEST(WordHash, StreamedOverRandomSplitsEqualsOneShot) {
  picasso::util::Xoshiro256 rng(931);
  for (std::size_t n = 0; n < 80; ++n) {
    std::vector<std::uint64_t> words(n);
    for (auto& w : words) w = rng();
    const auto* bytes = reinterpret_cast<const unsigned char*>(words.data());
    const std::size_t len = n * sizeof(std::uint64_t);
    for (int trial = 0; trial < 4; ++trial) {
      picasso::util::WordHasher hasher;
      std::size_t at = 0;
      while (at < len) {
        const std::size_t take =
            std::min<std::size_t>(rng.bounded(70), len - at);
        hasher.update(bytes + at, take);
        at += take;
      }
      EXPECT_EQ(hasher.digest(), picasso::util::hash_words(words.data(), n))
          << n << " words";
    }
    // Byte lengths that are not whole words: any split, same digest.
    if (len == 0) continue;
    const std::size_t cut =
        len - 1 - rng.bounded(std::min<std::size_t>(7, len));
    picasso::util::WordHasher whole;
    whole.update(bytes, cut);
    picasso::util::WordHasher split;
    const std::size_t mid = rng.bounded(cut + 1);
    split.update(bytes, mid);
    split.update(bytes + mid, cut - mid);
    EXPECT_EQ(split.digest(), whole.digest()) << cut << " bytes";
  }
  // A zero-padded tail does not collide with the padded input.
  const unsigned char three[4] = {1, 0, 0, 0};
  picasso::util::WordHasher a, b;
  a.update(three, 3);
  b.update(three, 4);
  EXPECT_NE(a.digest(), b.digest());
}

TEST(RecordProber, ReadsOfThePinnedChunkSkipTheCacheLookup) {
  constexpr std::size_t kChunk = 8;
  const auto strings = random_strings(32, 9, 971);
  const pp::PauliSet set = slice(strings, 0, 32);
  TempFile file("picasso_test_prober_pin.pset");
  pp::spill_pauli_set(set, file.path.string());
  pp::ChunkedPauliReader reader(file.path.string(), kChunk);
  pp::PackedPauliChunkCache cache(reader);
  pp::PackedRecordProber prober(reader, cache);
  const auto lookups = [&cache] { return cache.hits() + cache.misses(); };

  prober.set_u(3);  // pins chunk 0
  EXPECT_EQ(lookups(), 1u);
  std::vector<std::uint8_t> out(2);
  const std::uint32_t first[] = {8, 9};
  prober.edges(first, 2, out.data());  // pins chunk 1
  EXPECT_EQ(lookups(), 2u);
  const std::uint32_t again[] = {10, 15};
  prober.edges(again, 2, out.data());  // chunk 1 is pinned already
  prober.record(12);
  const std::uint32_t own[] = {1, 2};
  prober.edges(own, 2, out.data());  // u's chunk
  EXPECT_EQ(lookups(), 2u);
  const std::uint32_t other[] = {16, 17};
  prober.edges(other, 2, out.data());  // chunk 2 replaces the pin
  const std::uint32_t back[] = {11};
  prober.edges(back, 1, out.data());  // chunk 1 again: asked anew
  EXPECT_EQ(lookups(), 4u);
  prober.set_u(20);  // u moves: both pins drop, so chunk 1 is asked anew
  prober.edges(first, 2, out.data());
  EXPECT_EQ(lookups(), 6u);
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(out[k] != 0, !strings[20].anticommutes_with(strings[first[k]]));
  }
}
