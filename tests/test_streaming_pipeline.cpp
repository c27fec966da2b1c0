// The memory-budgeted streaming pipeline: chunked spill-file ingestion,
// budget-admission chunk caching, and — the contract the whole design rests
// on — bit-identical colorings between the budgeted multi-pass engine and
// the in-memory oracle driver, across chunk sizes, budgets, and thread
// counts. Also covers the edge cases: budget smaller than one chunk, empty
// Pauli set, and single-pass vs multi-pass equality.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "api/session.hpp"
#include "coloring/verify.hpp"
#include "core/picasso.hpp"
#include "core/streaming.hpp"
#include "graph/oracles.hpp"
#include "pauli/pauli_stream.hpp"
#include "util/rng.hpp"

namespace pcore = picasso::core;
namespace papi = picasso::api;
namespace pp = picasso::pauli;
namespace pg = picasso::graph;
namespace pc = picasso::coloring;
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

std::filesystem::path temp_spill_dir() {
  return std::filesystem::temp_directory_path() / "picasso_stream_test";
}

}  // namespace

// --------------------------------------------------------------------------
// Chunked reader round trip.

TEST(ChunkedPauliReader, ChunksReassembleTheSet) {
  const auto set = random_set(257, 12, 42);
  const auto dir = temp_spill_dir();
  std::filesystem::create_directories(dir);
  const auto path = (dir / "roundtrip.pset").string();
  pp::spill_pauli_set(set, path);

  const pp::ChunkedPauliReader reader(path, 100);
  EXPECT_EQ(reader.num_strings(), set.size());
  EXPECT_EQ(reader.num_qubits(), set.num_qubits());
  EXPECT_EQ(reader.num_chunks(), 3u);
  EXPECT_EQ(reader.chunk_size(0), 100u);
  EXPECT_EQ(reader.chunk_size(2), 57u);

  for (std::size_t c = 0; c < reader.num_chunks(); ++c) {
    const pp::PauliSet chunk = reader.load_chunk(c);
    ASSERT_EQ(chunk.size(), reader.chunk_size(c));
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      const std::size_t global = reader.chunk_begin(c) + i;
      EXPECT_EQ(chunk.string(i), set.string(global));
      EXPECT_EQ(chunk.coefficient(i), set.coefficient(global));
    }
  }
  std::filesystem::remove(path);
}

TEST(ChunkedPauliReader, RejectsZeroChunkSize) {
  // Regression: a chunk size of 0 used to be silently clamped while
  // chunk indexing divides by it — it must be rejected up front instead.
  const auto set = random_set(16, 6, 3);
  const auto dir = temp_spill_dir();
  std::filesystem::create_directories(dir);
  const auto path = (dir / "zero_chunk.pset").string();
  pp::spill_pauli_set(set, path);
  EXPECT_THROW(pp::ChunkedPauliReader(path, 0), std::invalid_argument);
  std::filesystem::remove(path);
}

TEST(ChunkedPauliReader, PackedChunksMatchScalarChunks) {
  // A packed chunk reload must hold exactly the records of the full
  // PauliSet chunk (coefficients included) read from the same bytes, at a
  // width (67 qubits) past the one-word fast path.
  const auto set = random_set(200, 67, 21);
  const auto dir = temp_spill_dir();
  std::filesystem::create_directories(dir);
  const auto path = (dir / "packed_tail.pset").string();
  pp::spill_pauli_set(set, path);

  const pp::ChunkedPauliReader reader(path, 64);
  for (std::size_t c = 0; c < reader.num_chunks(); ++c) {
    const pp::PauliSet scalar_chunk = reader.load_chunk(c);
    const pp::PackedPauliSet packed_chunk = reader.load_chunk_packed(c);
    ASSERT_EQ(packed_chunk.size(), scalar_chunk.size());
    const pp::PackedView expect = scalar_chunk.packed_view();
    const pp::PackedView got = packed_chunk.view();
    ASSERT_EQ(got.words, expect.words);
    for (std::size_t i = 0; i < packed_chunk.size(); ++i) {
      for (std::size_t k = 0; k < 2 * got.words; ++k) {
        ASSERT_EQ(got.record(i)[k], expect.record(i)[k])
            << "chunk=" << c << " i=" << i << " k=" << k;
      }
    }
  }
  std::filesystem::remove(path);
}

TEST(ChunkedPauliReader, SaveBinaryBytesWithoutATrailerAreATornSpill) {
  // PauliSet::save_binary writes a base block but no checksum trailer:
  // exactly what a write torn before its trailer leaves, so it does not
  // open; spill_pauli_set writes the same block and its trailer.
  const auto set = random_set(50, 10, 33);
  const auto dir = temp_spill_dir();
  std::filesystem::create_directories(dir);
  const auto path = (dir / "untrailed.pset").string();
  {
    std::ofstream out(path, std::ios::binary);
    set.save_binary(out);
  }
  try {
    const pp::ChunkedPauliReader reader(path, 20);
    ADD_FAILURE() << "a block without a trailer opened";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("no checksum trailer"),
              std::string::npos)
        << error.what();
  }
  EXPECT_EQ(pp::spill_pauli_set(set, path), set.binary_size());
  const pp::ChunkedPauliReader reader(path, 20);
  const pp::PackedPauliSet packed = reader.load_chunk_packed(1);
  ASSERT_EQ(packed.size(), 20u);
  for (std::size_t i = 0; i < packed.size(); ++i) {
    EXPECT_EQ(packed.string(i), set.string(reader.chunk_begin(1) + i));
  }
  std::filesystem::remove(path);
}

TEST(ChunkedPauliReader, ResidentBytesMatchLoadedSet) {
  const auto set = random_set(64, 9, 7);
  const auto dir = temp_spill_dir();
  std::filesystem::create_directories(dir);
  const auto path = (dir / "resident.pset").string();
  pp::spill_pauli_set(set, path);
  const pp::ChunkedPauliReader reader(path, 64);
  EXPECT_EQ(reader.chunk_packed_resident_bytes(0),
            reader.load_chunk_packed(0).logical_bytes());
  std::filesystem::remove(path);
}

// --------------------------------------------------------------------------
// Equivalence suite: budgeted / chunked runs == the in-memory driver.

class StreamingEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StreamingEquivalence, ChunkSizeDoesNotChangeTheColoring) {
  const std::size_t chunk_strings = GetParam();
  const auto set = random_set(300, 10, 5);
  pcore::PicassoParams params;
  params.seed = 11;

  // The materialized in-memory engine, the paper reference.
  const auto reference = papi::SessionBuilder()
                             .params(params)
                             .strategy(papi::ExecutionStrategy::InMemory)
                             .build()
                             .solve(papi::Problem::pauli(set))
                             .result;

  pcore::StreamingOptions options;
  options.chunk_strings = chunk_strings;  // forces the streaming engine
  options.spill_dir = temp_spill_dir().string();
  const auto streamed =
      papi::SessionBuilder().params(params).streaming(options).build().solve(papi::Problem::pauli(set)).result;

  EXPECT_TRUE(streamed.memory.streamed);
  EXPECT_EQ(streamed.colors, reference.colors);
  EXPECT_EQ(streamed.num_colors, reference.num_colors);
  EXPECT_EQ(streamed.palette_total, reference.palette_total);
  // Per-iteration conflict_edges are not compared: the fused engine counts
  // list removals, a lower bound on |Ec|.
  EXPECT_EQ(streamed.iterations.size(), reference.iterations.size());
  const pg::ComplementOracle oracle(set);
  EXPECT_TRUE(pc::is_valid_coloring_oracle(oracle, streamed.colors));
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, StreamingEquivalence,
                         ::testing::Values(1u, 7u, 64u, 300u, 1000u));

TEST(StreamingPipeline, SinglePassAndMultiPassAreBitIdentical) {
  const auto set = random_set(400, 11, 23);
  pcore::PicassoParams params;
  params.seed = 3;

  // Single pass: one chunk, everything resident, unlimited budget.
  pcore::StreamingOptions one_chunk;
  one_chunk.chunk_strings = set.size();
  one_chunk.spill_dir = temp_spill_dir().string();
  const auto single = papi::SessionBuilder().params(params).streaming(one_chunk).build().solve(papi::Problem::pauli(set)).result;
  EXPECT_EQ(single.memory.num_chunks, 1u);

  // Multi pass: tiny chunks under a budget that cannot hold them all next
  // to the color index and strike state (the single-pass solve peaks near
  // 23 KiB), so chunks are evicted and re-read as the strikes come back to
  // them.
  params.memory_budget_bytes = 12 << 10;
  pcore::StreamingOptions small_chunks;
  small_chunks.chunk_strings = 32;
  small_chunks.spill_dir = temp_spill_dir().string();
  const auto multi = papi::SessionBuilder()
                         .params(params)
                         .streaming(small_chunks)
                         .strategy(papi::ExecutionStrategy::Fused)
                         .build()
                         .solve(papi::Problem::pauli(set))
                         .result;
  EXPECT_GT(multi.memory.num_chunks, 4u);
  EXPECT_GT(multi.memory.chunk_loads, multi.memory.num_chunks)
      << "a budget this small must force at least one re-scan";
  EXPECT_GT(multi.memory.chunk_evictions, 0u);

  EXPECT_EQ(single.colors, multi.colors);
  EXPECT_EQ(single.num_colors, multi.num_colors);
}

TEST(StreamingPipeline, ParallelChunkScanMatchesSerial) {
  const auto set = random_set(500, 10, 17);
  pcore::PicassoParams params;
  params.seed = 29;
  params.runtime.serial_cutoff = 0;  // engage the pool even at this size

  pcore::StreamingOptions options;
  options.chunk_strings = 100;
  options.spill_dir = temp_spill_dir().string();

  params.runtime.num_threads = 1;
  const auto serial = papi::SessionBuilder().params(params).streaming(options).build().solve(papi::Problem::pauli(set)).result;
  params.runtime.num_threads = 4;
  const auto parallel = papi::SessionBuilder().params(params).streaming(options).build().solve(papi::Problem::pauli(set)).result;

  EXPECT_EQ(serial.colors, parallel.colors);
  EXPECT_EQ(serial.num_colors, parallel.num_colors);
}

// --------------------------------------------------------------------------
// Edge cases.

TEST(StreamingPipeline, EmptyPauliSet) {
  const pp::PauliSet empty;
  pcore::PicassoParams params;
  params.memory_budget_bytes = 1 << 20;
  const auto r = papi::Session::from_params(params).solve(papi::Problem::pauli(empty)).result;
  EXPECT_TRUE(r.colors.empty());
  EXPECT_EQ(r.num_colors, 0u);
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.memory.within_budget());
}

TEST(StreamingPipeline, BudgetSmallerThanOneChunkStillColors) {
  const auto set = random_set(200, 10, 31);
  pcore::PicassoParams params;
  params.seed = 13;
  const auto reference = papi::Session::from_params(params).solve(papi::Problem::pauli(set)).result;

  // A 1-byte budget cannot admit any chunk: the cache must degrade to
  // load-scan-evict (recording over-budget events) instead of failing.
  params.memory_budget_bytes = 1;
  pcore::StreamingOptions options;
  options.spill_dir = temp_spill_dir().string();
  const auto r = papi::SessionBuilder()
                     .params(params)
                     .streaming(options)
                     .strategy(papi::ExecutionStrategy::Fused)
                     .build()
                     .solve(papi::Problem::pauli(set))
                     .result;
  EXPECT_TRUE(r.memory.streamed);
  EXPECT_EQ(r.colors, reference.colors);
  EXPECT_FALSE(r.memory.within_budget());
  EXPECT_GT(r.memory.over_budget_events, 0u);
}

TEST(StreamingPipeline, UnbudgetedRunDelegatesToInMemoryDriver) {
  const auto set = random_set(150, 9, 41);
  pcore::PicassoParams params;
  params.seed = 19;
  const auto r = papi::Session::from_params(params).solve(papi::Problem::pauli(set)).result;
  EXPECT_FALSE(r.memory.streamed);
  EXPECT_EQ(r.memory.spill_bytes, 0u);
  EXPECT_EQ(r.colors, papi::Session::from_params(params).solve(papi::Problem::pauli(set)).result.colors);
}

TEST(StreamingPipeline, GenerousBudgetStaysWithinItAndKeepsInputResident) {
  const auto set = random_set(300, 10, 47);
  pcore::PicassoParams params;
  params.seed = 53;
  params.memory_budget_bytes = 64 << 20;
  const auto r = papi::Session::from_params(params).solve(papi::Problem::pauli(set)).result;
  EXPECT_TRUE(r.memory.within_budget());
  EXPECT_GT(r.memory.peak_tracked_bytes, 0u);
  EXPECT_EQ(r.memory.over_budget_events, 0u);
}

TEST(StreamingPipeline, SpillFileIsRemovedByDefaultAndKeptOnRequest) {
  const auto set = random_set(64, 8, 59);
  pcore::PicassoParams params;
  pcore::StreamingOptions options;
  options.chunk_strings = 16;
  options.spill_dir = (temp_spill_dir() / "spill_keep").string();
  papi::SessionBuilder().params(params).streaming(options).build().solve(papi::Problem::pauli(set)).result;
  // Default: directory holds no leftover spill files.
  std::size_t pset_files = 0;
  for (const auto& e :
       std::filesystem::directory_iterator(options.spill_dir)) {
    pset_files += e.path().extension() == ".pset" ? 1 : 0;
  }
  EXPECT_EQ(pset_files, 0u);

  options.keep_spill = true;
  papi::SessionBuilder().params(params).streaming(options).build().solve(papi::Problem::pauli(set)).result;
  pset_files = 0;
  for (const auto& e :
       std::filesystem::directory_iterator(options.spill_dir)) {
    pset_files += e.path().extension() == ".pset" ? 1 : 0;
  }
  EXPECT_EQ(pset_files, 1u);
  std::filesystem::remove_all(options.spill_dir);
}

TEST(StreamingPipeline, ReportCountsChunksAndSpillBytes) {
  const auto set = random_set(256, 10, 61);
  pcore::PicassoParams params;
  pcore::StreamingOptions options;
  options.chunk_strings = 64;
  options.spill_dir = temp_spill_dir().string();
  const auto r = papi::SessionBuilder().params(params).streaming(options).build().solve(papi::Problem::pauli(set)).result;
  EXPECT_EQ(r.memory.num_chunks, 4u);
  EXPECT_GE(r.memory.chunk_loads, 4u);
  EXPECT_GT(r.memory.spill_bytes, 0u);
  const auto json = r.memory.to_json();
  EXPECT_NE(json.find("\"streamed\":true"), std::string::npos);
  EXPECT_NE(json.find("\"num_chunks\":4"), std::string::npos);
  EXPECT_NE(json.find("\"chunk_cache\""), std::string::npos);
}
