// Concurrent sessions sharing one injected ThreadPool and one
// MemoryRegistry — the resource model the service daemon runs on — plus the
// spill-name collision regression: every spill site derives names from ONE
// process-wide counter + pid, so concurrent spilling solves can never race
// to the same file.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "core/streaming.hpp"
#include "pauli/pauli_set.hpp"
#include "runtime/thread_pool.hpp"
#include "util/memory.hpp"
#include "util/rng.hpp"

namespace papi = picasso::api;
namespace pcore = picasso::core;
namespace pp = picasso::pauli;
namespace fs = std::filesystem;

using picasso::runtime::RuntimeConfig;
using picasso::runtime::ThreadPool;

namespace {

pp::PauliSet random_set(std::size_t count, std::size_t qubits,
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
  return pp::PauliSet(strings);
}

/// A temp dir that must be empty of spill files when the test ends.
struct SpillDir {
  fs::path dir;
  explicit SpillDir(const char* tag) {
    dir = fs::temp_directory_path() /
          (std::string("picasso_test_") + tag + "_" +
           std::to_string(::getpid()));
    fs::create_directories(dir);
  }
  ~SpillDir() { fs::remove_all(dir); }
  std::size_t pset_files() const {
    std::size_t count = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.path().extension() == ".pset") ++count;
    }
    return count;
  }
};

}  // namespace

// --- unique_spill_path -------------------------------------------------------

TEST(UniqueSpillPath, DistinctAcrossThreads) {
  SpillDir spill("unique");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100;
  std::mutex mu;
  std::set<std::string> names;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::vector<std::string> local;
      local.reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        local.push_back(
            pcore::unique_spill_path(spill.dir.string(), "test"));
      }
      std::lock_guard<std::mutex> lock(mu);
      names.insert(local.begin(), local.end());
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(names.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  // Names embed the pid (cross-process uniqueness in a shared dir).
  const std::string pid = std::to_string(::getpid());
  for (const auto& name : names) {
    EXPECT_NE(name.find(pid), std::string::npos) << name;
  }
}

TEST(UniqueSpillPath, SharedCounterAcrossTags) {
  // Different tags (budgeted engine vs incremental store) draw from the
  // same counter — no two names can collide even across spill sites.
  const std::string a = pcore::unique_spill_path("", "spill");
  const std::string b = pcore::unique_spill_path("", "incr");
  EXPECT_NE(a, b);
}

// --- Concurrent budgeted (spilling) sessions --------------------------------

TEST(ConcurrentSessions, ConcurrentSpillingSolvesAreIsolated) {
  SpillDir spill("concurrent_spill");
  const pp::PauliSet set_a = random_set(500, 20, 11);
  const pp::PauliSet set_b = random_set(500, 20, 22);

  auto session_for = [&](const pp::PauliSet& set) {
    pcore::StreamingOptions streaming;
    streaming.spill_dir = spill.dir.string();
    return papi::SessionBuilder()
        .seed(3)
        // Budget under 2x the encoded input forces the spill + chunked
        // engine; both sessions spill into the same directory at once.
        .memory_budget(set.logical_bytes())
        .streaming(streaming)
        .build();
  };

  // Serial references.
  const std::vector<std::uint32_t> ref_a =
      session_for(set_a).solve(papi::Problem::pauli(set_a)).result.colors;
  const std::vector<std::uint32_t> ref_b =
      session_for(set_b).solve(papi::Problem::pauli(set_b)).result.colors;
  ASSERT_EQ(spill.pset_files(), 0u);

  // Concurrent runs: bit-identical to serial, no leaked spill files.
  auto async_a =
      session_for(set_a).solve_async(papi::Problem::pauli(set_a));
  auto async_b =
      session_for(set_b).solve_async(papi::Problem::pauli(set_b));
  const std::vector<std::uint32_t> got_a = async_a.get().result.colors;
  const std::vector<std::uint32_t> got_b = async_b.get().result.colors;
  EXPECT_EQ(got_a, ref_a);
  EXPECT_EQ(got_b, ref_b);
  EXPECT_EQ(spill.pset_files(), 0u) << "spill files leaked";
}

// --- Shared pool + shared registry -------------------------------------------

TEST(ConcurrentSessions, SharedPoolSolvesBitIdenticalToSerial) {
  ThreadPool pool(2);
  constexpr int kSolves = 4;
  std::vector<pp::PauliSet> sets;
  for (int i = 0; i < kSolves; ++i) {
    sets.push_back(random_set(300 + 50 * i, 16, 100 + i));
  }

  // Serial references (independent sessions, default runtime).
  std::vector<std::vector<std::uint32_t>> refs;
  for (const auto& set : sets) {
    refs.push_back(papi::SessionBuilder()
                       .seed(7)
                       .build()
                       .solve(papi::Problem::pauli(set))
                       .result.colors);
  }

  // The server resource model: one outer run scope owning the budget and
  // peaks, every concurrent solve on ONE injected pool and the process
  // registry (their nested run scopes are no-ops). Fused solves run on the
  // calling thread, so the concurrent solves take the materialized engine,
  // whose conflict build is what runs on a pool; its colorings equal the
  // fused references.
  const std::uint64_t executed_before = pool.tasks_executed();
  picasso::util::MemoryRunScope server_scope(0, picasso::util::global_memory());
  RuntimeConfig shared;
  shared.num_threads = 2;
  shared.pool = &pool;
  shared.serial_cutoff = 16;  // sets here are below the default cutoff
  std::vector<papi::AsyncSolve> handles;
  for (const auto& set : sets) {
    handles.push_back(papi::SessionBuilder()
                          .seed(7)
                          .strategy(papi::ExecutionStrategy::InMemory)
                          .runtime(shared)
                          .build()
                          .solve_async(papi::Problem::pauli(set)));
  }
  std::size_t max_input_bytes = 0;
  for (const auto& set : sets) {
    max_input_bytes = std::max(max_input_bytes, set.logical_bytes());
  }
  for (int i = 0; i < kSolves; ++i) {
    EXPECT_EQ(handles[i].get().result.colors, refs[i]) << "solve " << i;
  }

  // The injected pool actually ran the parallel phases.
  EXPECT_GT(pool.tasks_executed(), executed_before);

  // Per-subsystem high-water marks accumulated across the concurrent
  // solves: the Pauli-input peak must cover at least the largest resident
  // set, and the total peak everything a single largest solve holds.
  const auto snapshot = picasso::util::global_memory().snapshot();
  const auto input_slot =
      static_cast<std::size_t>(picasso::util::MemSubsystem::PauliInput);
  EXPECT_GE(snapshot.subsystem_peak[input_slot], max_input_bytes);
  EXPECT_GE(snapshot.peak_bytes, max_input_bytes);
}

TEST(ConcurrentSessions, InjectedPoolIgnoredOnSerialConfig) {
  // num_threads = 1 is the inline reference path; an injected pool must not
  // hijack it (determinism suites compare against it).
  ThreadPool pool(2);
  RuntimeConfig config;
  config.num_threads = 1;
  config.pool = &pool;
  EXPECT_EQ(picasso::runtime::resolve_pool(config), nullptr);
  config.num_threads = 2;
  EXPECT_EQ(picasso::runtime::resolve_pool(config), &pool);
}
