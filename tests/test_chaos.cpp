// Chaos harness for the fault-tolerant solve pipeline: every entry in the
// failpoint matrix must end in a structured error or a bit-identical
// recovered solve — never a hang, crash, leak, or wrong coloring.
//
//   * failpoint framework semantics (spec grammar, counts, typed throws)
//   * ENOSPC during spill -> in-memory fallback, degraded + bit-identical
//   * torn/garbled spill files rejected on reopen
//   * delay injection changes nothing but wall-clock
//   * injected admission failure (memory.charge) behaves like a full budget
//   * wire send/recv faults surface as WireError, never partial frames
//   * service level: idle-timeout reaping of stalled clients, deadlines
//     (queued and mid-solve), the Degrade admission ladder, retry hitting
//     the result cache, and the startup spill janitor

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "core/solve_fused.hpp"
#include "core/streaming.hpp"
#include "pauli/pauli_set.hpp"
#include "pauli/pauli_stream.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "util/failpoint.hpp"
#include "util/fnv.hpp"
#include "util/memory.hpp"
#include "util/rng.hpp"

namespace papi = picasso::api;
namespace pp = picasso::pauli;
namespace psvc = picasso::service;
namespace pfp = picasso::util::failpoints;
namespace fs = std::filesystem;

using picasso::util::InjectedFault;

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

/// Forks a child that exits immediately and reaps it: a pid guaranteed
/// dead, for janitor tests.
pid_t dead_pid() {
  const pid_t pid = ::fork();
  if (pid == 0) ::_exit(0);
  int status = 0;
  ::waitpid(pid, &status, 0);
  return pid;
}

void corrupt_byte(const fs::path& path, std::size_t offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open());
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  byte ^= 0x5a;
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
}

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pfp::disarm_all();
    root_ = fs::temp_directory_path() /
            ("picasso_chaos_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(root_);
  }

  void TearDown() override {
    // An armed failpoint must never outlive its test.
    pfp::disarm_all();
    fs::remove_all(root_);
  }

  std::size_t spill_files(const fs::path& dir) const {
    std::size_t count = 0;
    if (!fs::exists(dir)) return 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.path().extension() == ".pset") ++count;
    }
    return count;
  }

  fs::path root_;
};

}  // namespace

// --- Failpoint framework ----------------------------------------------------

TEST_F(ChaosTest, SpecGrammarParsesAndMalformedArmsNothing) {
  EXPECT_FALSE(pfp::any_armed());
  ASSERT_TRUE(pfp::arm_from_spec(
      "a.site=error;b.site=delay:5@2;c.site=short:3;d.site=enospc;"
      "e.site=hold"));
  EXPECT_EQ(pfp::armed_count(), 5u);
  EXPECT_TRUE(pfp::any_armed());
  pfp::disarm_all();
  EXPECT_FALSE(pfp::any_armed());

  // Malformed specs arm nothing at all (no partial activation).
  EXPECT_FALSE(pfp::arm_from_spec("a.site=error;b.site=wat"));
  EXPECT_EQ(pfp::armed_count(), 0u);
  EXPECT_FALSE(pfp::any_armed());
  // A hold ends only at disarm, so a trigger count is malformed.
  EXPECT_FALSE(pfp::arm_from_spec("a.site=error;e.site=hold@1"));
  EXPECT_EQ(pfp::armed_count(), 0u);
}

TEST_F(ChaosTest, ErrorAndEnospcThrowTypedAndCountsDisarm) {
  pfp::arm("chaos.err", {pfp::Mode::Error, 0, 2});
  for (int i = 0; i < 2; ++i) {
    try {
      PICASSO_FAILPOINT("chaos.err");
      FAIL() << "failpoint did not fire";
    } catch (const InjectedFault& fault) {
      EXPECT_EQ(fault.site(), "chaos.err");
    }
  }
  // Count exhausted: the site is disarmed and the fast path is restored.
  PICASSO_FAILPOINT("chaos.err");
  EXPECT_FALSE(pfp::any_armed());

  pfp::arm("chaos.enospc", {pfp::Mode::Enospc, 0, -1});
  try {
    PICASSO_FAILPOINT("chaos.enospc");
    FAIL() << "failpoint did not fire";
  } catch (const std::system_error& error) {
    EXPECT_EQ(error.code().value(), ENOSPC);
  }
}

TEST_F(ChaosTest, HoldBlocksUntilDisarmed) {
  // A count armed programmatically does not end a hold early either.
  for (const std::int64_t count : {std::int64_t{-1}, std::int64_t{1}}) {
    pfp::arm("chaos.hold", {pfp::Mode::Hold, 0, count});
    std::atomic<bool> passed{false};
    std::thread held([&] {
      PICASSO_FAILPOINT("chaos.hold");
      passed = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(passed.load()) << "count " << count;
    pfp::disarm("chaos.hold");
    held.join();
    EXPECT_TRUE(passed.load());
  }
}

TEST_F(ChaosTest, ShortIoClampsOnlyItsSite) {
  pfp::arm("chaos.io", {pfp::Mode::ShortIo, 10, -1});
  EXPECT_EQ(PICASSO_FAILPOINT_CLAMP("chaos.io", std::size_t{100}), 10u);
  EXPECT_EQ(PICASSO_FAILPOINT_CLAMP("chaos.io", std::size_t{4}), 4u);
  EXPECT_EQ(PICASSO_FAILPOINT_CLAMP("chaos.other", std::size_t{100}), 100u);
}

TEST_F(ChaosTest, MemoryChargeFailpointActsLikeFullBudget) {
  picasso::util::MemoryRegistry registry;
  EXPECT_TRUE(
      registry.try_charge(picasso::util::MemSubsystem::ChunkCache, 64));
  registry.release(picasso::util::MemSubsystem::ChunkCache, 64);

  pfp::arm("memory.charge", {pfp::Mode::Error, 0, 1});
  EXPECT_FALSE(
      registry.try_charge(picasso::util::MemSubsystem::ChunkCache, 64));
  // Count 1 consumed: charges work again and nothing was leaked onto the
  // ledger by the refused charge.
  EXPECT_TRUE(
      registry.try_charge(picasso::util::MemSubsystem::ChunkCache, 64));
  registry.release(picasso::util::MemSubsystem::ChunkCache, 64);
  EXPECT_EQ(registry.current_bytes(), 0u);
}

// --- Crash-safe spill I/O ---------------------------------------------------

TEST_F(ChaosTest, EnospcSpillFallsBackToInMemoryBitIdentical) {
  const pp::PauliSet set = random_set(600, 16, 11);
  const fs::path spill_dir = root_ / "spill";
  fs::create_directories(spill_dir);

  const auto reference = papi::SessionBuilder().seed(7).build().solve(
      papi::Problem::pauli(set));

  auto budgeted_session = [&] {
    return papi::SessionBuilder()
        .seed(7)
        .strategy(papi::ExecutionStrategy::Fused)
        .memory_budget(set.logical_bytes())
        .spill_dir(spill_dir.string())
        .build();
  };

  // Healthy spill path first: streamed solve matches in-memory, undegraded.
  const auto streamed =
      budgeted_session().solve(papi::Problem::pauli(set));
  EXPECT_FALSE(streamed.result.degraded);
  EXPECT_EQ(streamed.result.colors, reference.result.colors);

  // Device full at spill time: the solve must complete in memory, flagged
  // degraded, still bit-identical, and leave no partial spill behind.
  pfp::arm("spill.write", {pfp::Mode::Enospc, 0, -1});
  const auto recovered =
      budgeted_session().solve(papi::Problem::pauli(set));
  pfp::disarm_all();
  EXPECT_TRUE(recovered.result.degraded);
  EXPECT_NE(recovered.result.degraded_reason.find("ENOSPC"),
            std::string::npos)
      << recovered.result.degraded_reason;
  EXPECT_EQ(recovered.result.colors, reference.result.colors);
  EXPECT_EQ(spill_files(spill_dir), 0u) << "partial spill leaked";
}

TEST_F(ChaosTest, GarbledSpillIsRejectedOnReopen) {
  const pp::PauliSet set = random_set(200, 12, 12);
  const fs::path path = root_ / "garbled.pset";
  const std::size_t bytes = pp::spill_pauli_set(set, path.string());

  // Intact file round-trips.
  {
    pp::ChunkedPauliReader reader(path.string(), 64);
    EXPECT_EQ(reader.num_strings(), set.size());
  }

  // Flip one byte in the middle of the payload: the checksum trailer must
  // reject the file instead of serving corrupt strings.
  corrupt_byte(path, bytes / 2);
  try {
    pp::ChunkedPauliReader reader(path.string(), 64);
    FAIL() << "garbled spill accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("checksum"), std::string::npos)
        << error.what();
  }
}

TEST_F(ChaosTest, TornSpillTailIsRejectedOnReopen) {
  const pp::PauliSet set = random_set(200, 12, 13);
  const fs::path path = root_ / "torn.pset";

  // A short-write failpoint leaves exactly the torn state a crash
  // mid-spill would: truncated records, no trailer.
  pfp::arm("spill.write", {pfp::Mode::ShortIo, 64, 1});
  pp::spill_pauli_set(set, path.string());
  pfp::disarm_all();
  EXPECT_THROW(pp::ChunkedPauliReader(path.string(), 64),
               std::runtime_error);
}

TEST_F(ChaosTest, TornAppendSegmentIsRejectedOnReopen) {
  const pp::PauliSet base = random_set(150, 12, 14);
  const pp::PauliSet delta = random_set(70, 12, 15);
  const fs::path path = root_ / "append.pset";
  pp::spill_pauli_set(base, path.string());

  // Healthy append chains and reopens.
  pp::append_pauli_set(delta, path.string());
  {
    pp::ChunkedPauliReader reader(path.string(), 64);
    EXPECT_EQ(reader.num_strings(), base.size() + delta.size());
  }

  // Torn append segment on a fresh file: reopen must reject.
  const fs::path torn = root_ / "append_torn.pset";
  pp::spill_pauli_set(base, torn.string());
  pfp::arm("spill.append", {pfp::Mode::ShortIo, 32, 1});
  pp::append_pauli_set(delta, torn.string());
  pfp::disarm_all();
  EXPECT_THROW(pp::ChunkedPauliReader(torn.string(), 64),
               std::runtime_error);
}

TEST_F(ChaosTest, DelayFailpointOnlyDelays) {
  const pp::PauliSet set = random_set(300, 14, 16);
  const fs::path spill_dir = root_ / "spill";
  fs::create_directories(spill_dir);

  const auto reference = papi::SessionBuilder().seed(3).build().solve(
      papi::Problem::pauli(set));

  pfp::arm("spill.read", {pfp::Mode::Delay, 5, 3});
  const auto delayed = papi::SessionBuilder()
                           .seed(3)
                           .strategy(papi::ExecutionStrategy::Fused)
                           .memory_budget(set.logical_bytes())
                           .spill_dir(spill_dir.string())
                           .build()
                           .solve(papi::Problem::pauli(set));
  EXPECT_FALSE(delayed.result.degraded);
  EXPECT_EQ(delayed.result.colors, reference.result.colors);
}

// --- Spill janitor ----------------------------------------------------------

TEST_F(ChaosTest, JanitorSweepsDeadPidSpillsAndKeepsLiveOnes) {
  const fs::path dir = root_ / "janitor";
  fs::create_directories(dir);
  const pid_t dead = dead_pid();
  const pid_t live = ::getpid();

  auto touch = [&](const std::string& name) {
    std::ofstream(dir / name) << "x";
  };
  touch("picasso_chaos_" + std::to_string(dead) + "_1.pset");
  touch("picasso_chaos_" + std::to_string(dead) + "_1.pset.colors");
  touch("picasso_chaos_" + std::to_string(live) + "_2.pset");
  touch("unrelated.pset");  // not ours: no pid field, left alone

  const std::size_t swept = picasso::core::sweep_orphan_spills(dir.string());
  EXPECT_EQ(swept, 2u);
  EXPECT_FALSE(
      fs::exists(dir / ("picasso_chaos_" + std::to_string(dead) + "_1.pset")));
  EXPECT_FALSE(fs::exists(
      dir / ("picasso_chaos_" + std::to_string(dead) + "_1.pset.colors")));
  EXPECT_TRUE(
      fs::exists(dir / ("picasso_chaos_" + std::to_string(live) + "_2.pset")));
  EXPECT_TRUE(fs::exists(dir / "unrelated.pset"));
}

// --- Service-level chaos ----------------------------------------------------

namespace {

class ChaosServiceTest : public ChaosTest {
 protected:
  void SetUp() override {
    ChaosTest::SetUp();
    fs::create_directories(root_ / "spill");
    config_.listen = "unix:" + (root_ / "sock").string();
    config_.spill_dir = (root_ / "spill").string();
    config_.num_threads = 2;
  }

  void TearDown() override {
    server_.stop();
    ChaosTest::TearDown();
  }

  void start_server() {
    server_.start(config_);
    ASSERT_TRUE(server_.running());
  }

  template <typename Pred>
  bool wait_for_stats(Pred pred, std::chrono::milliseconds deadline =
                                     std::chrono::seconds(30)) {
    auto probe = psvc::Client::connect(server_.address());
    const auto until = std::chrono::steady_clock::now() + deadline;
    while (std::chrono::steady_clock::now() < until) {
      if (pred(probe.stats())) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  }

  psvc::ServerConfig config_;
  psvc::Server server_;
};

}  // namespace

TEST_F(ChaosServiceTest, StalledClientIsReapedAndServiceStaysLive) {
  config_.idle_timeout_ms = 150;
  start_server();

  // A client that connects and then says nothing: reaped by the idle
  // timeout instead of pinning a reader thread forever.
  auto stalled = psvc::Connection::connect(server_.address());

  // Meanwhile real work flows normally.
  auto client = psvc::Client::connect(server_.address());
  const pp::PauliSet set = random_set(80, 10, 20);
  const psvc::RemoteResult outcome = client.solve(set, psvc::RemoteParams{});
  ASSERT_TRUE(outcome.ok) << outcome.error_message;

  ASSERT_TRUE(wait_for_stats(
      [](const psvc::StatsMsg& s) { return s.idle_disconnects >= 1; }));

  // The server closed its side: the stalled socket sees EOF (or a reset),
  // never a hang.
  psvc::Frame frame;
  try {
    EXPECT_FALSE(stalled.read_frame(frame));
  } catch (const psvc::WireError&) {
    // ECONNRESET is an equally acceptable goodbye.
  }
}

TEST_F(ChaosServiceTest, DeadlineExceededMidSolveIsStructured) {
  start_server();

  const pp::PauliSet set = random_set(2000, 24, 21);
  psvc::RemoteParams params;
  params.max_iterations = 5000;
  params.palette_percent = 0.5;  // slow convergence: many iterations
  params.alpha = 1.05;
  params.deadline_ms = 50;
  // The materialized engine: its per-iteration CSR builds are the slow
  // solve the deadline has to interrupt.
  params.strategy =
      static_cast<std::uint8_t>(papi::ExecutionStrategy::InMemory);

  auto client = psvc::Client::connect(server_.address());
  const psvc::RemoteResult outcome = client.solve(set, params);
  ASSERT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error_code, psvc::ServiceErrorCode::DeadlineExceeded);
  EXPECT_NE(outcome.error_message.find("deadline"), std::string::npos)
      << outcome.error_message;

  ASSERT_TRUE(wait_for_stats([](const psvc::StatsMsg& s) {
    return s.deadline_exceeded == 1 && s.active == 0;
  }));
  // The aborted budgeted solve may not leave spill files behind.
  EXPECT_EQ(spill_files(root_ / "spill"), 0u);
}

TEST_F(ChaosServiceTest, DeadlineSpentInQueueAnswersWithoutSolving) {
  config_.max_active_solves = 1;
  start_server();

  // Occupy the only slot with a long solve, then queue a request whose
  // deadline expires while it waits.
  const pp::PauliSet blocker_set = random_set(2000, 24, 22);
  psvc::RemoteParams blocker_params;
  blocker_params.want_progress = true;
  blocker_params.max_iterations = 5000;
  blocker_params.palette_percent = 0.5;
  blocker_params.alpha = 1.05;
  blocker_params.strategy =
      static_cast<std::uint8_t>(papi::ExecutionStrategy::InMemory);

  std::atomic<bool> release{false};
  auto blocker_client = psvc::Client::connect(server_.address());
  std::thread blocker([&] {
    blocker_client.solve(blocker_set, blocker_params, "a", 0,
                         [&](const psvc::ProgressMsg&) {
                           if (release.load(std::memory_order_acquire)) {
                             blocker_client.request_cancel();
                           }
                         });
  });
  ASSERT_TRUE(wait_for_stats(
      [](const psvc::StatsMsg& s) { return s.active == 1; }));

  psvc::RemoteParams doomed;
  doomed.deadline_ms = 30;
  std::thread waiter([&] {
    auto client = psvc::Client::connect(server_.address());
    const pp::PauliSet set = random_set(80, 10, 23);
    const psvc::RemoteResult outcome = client.solve(set, doomed);
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.error_code, psvc::ServiceErrorCode::DeadlineExceeded);
    EXPECT_NE(outcome.error_message.find("queued"), std::string::npos)
        << outcome.error_message;
  });
  ASSERT_TRUE(wait_for_stats(
      [](const psvc::StatsMsg& s) { return s.queued >= 1; }));

  // Hold the slot comfortably past the queued request's deadline.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  release.store(true, std::memory_order_release);
  blocker.join();
  waiter.join();
}

TEST_F(ChaosServiceTest, DegradeAdmissionWalksLadderAndReportsIt) {
  const pp::PauliSet set = random_set(3000, 24, 24);
  const std::size_t input = set.logical_bytes();
  // A materializing request, so the ladder has a cheaper rung to walk to.
  psvc::RemoteParams params;
  params.strategy =
      static_cast<std::uint8_t>(papi::ExecutionStrategy::InMemory);
  const auto n = static_cast<std::uint32_t>(set.size());
  const std::size_t fused_projection =
      input + picasso::core::projected_fused_bytes(n, params.palette_percent,
                                                   params.alpha);
  const std::size_t csr_projection =
      input + picasso::core::projected_conflict_csr_bytes(
                  n, params.palette_percent, params.alpha);
  // Premise: the budget admits a fused plan but not a materializing one.
  config_.memory_budget_bytes = fused_projection + 4096;
  ASSERT_GT(csr_projection, config_.memory_budget_bytes);
  config_.admission = psvc::AdmissionPolicy::Degrade;
  start_server();

  const auto reference = papi::SessionBuilder()
                             .palette(params.palette_percent, params.alpha)
                             .seed(params.seed)
                             .max_iterations(params.max_iterations)
                             .build()
                             .solve(papi::Problem::pauli(set));

  auto client = psvc::Client::connect(server_.address());
  const psvc::RemoteResult outcome = client.solve(set, params);
  ASSERT_TRUE(outcome.ok) << outcome.error_message;
  EXPECT_TRUE(outcome.result.degraded);
  EXPECT_NE(outcome.result.degraded_reason.find("degraded"),
            std::string::npos)
      << outcome.result.degraded_reason;
  // The downgraded plan still returns the bit-identical coloring.
  EXPECT_EQ(outcome.result.colors, reference.result.colors);
  EXPECT_EQ(outcome.result.coloring_hash,
            picasso::util::coloring_fingerprint(reference.result.colors));

  const psvc::StatsMsg stats = client.stats();
  EXPECT_EQ(stats.degraded, 1u);
  EXPECT_EQ(stats.rejected_over_budget, 0u);
}

TEST_F(ChaosServiceTest, RetryAfterTransportFaultHitsCacheIdenticalHash) {
  start_server();
  const pp::PauliSet set = random_set(200, 14, 25);
  const psvc::RemoteParams params;

  // Prime the cache with a clean solve.
  std::uint64_t first_hash = 0;
  {
    auto client = psvc::Client::connect(server_.address());
    const psvc::RemoteResult first = client.solve(set, params);
    ASSERT_TRUE(first.ok) << first.error_message;
    first_hash = first.result.coloring_hash;
  }

  // One injected send fault: the first attempt's request frame dies on the
  // wire; the retry reconnects and is answered from the result cache with
  // the identical coloring hash — the idempotency contract.
  psvc::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 1;
  policy.max_backoff_ms = 5;
  pfp::arm("wire.send", {pfp::Mode::Error, 0, 1});
  const psvc::RemoteResult retried =
      psvc::solve_with_retry(server_.address(), set, params, policy);
  pfp::disarm_all();
  ASSERT_TRUE(retried.ok) << retried.error_message;
  EXPECT_EQ(retried.attempts, 2u);
  EXPECT_TRUE(retried.result.cache_hit);
  EXPECT_EQ(retried.result.coloring_hash, first_hash);
}

TEST_F(ChaosServiceTest, ServerStartupSweepsOrphanSpills) {
  const pid_t dead = dead_pid();
  auto touch = [&](const std::string& name) {
    std::ofstream((root_ / "spill") / name) << "x";
  };
  touch("picasso_boot_" + std::to_string(dead) + "_1.pset");
  touch("picasso_boot_" + std::to_string(dead) + "_1.pset.colors");
  start_server();

  auto client = psvc::Client::connect(server_.address());
  const psvc::StatsMsg stats = client.stats();
  EXPECT_EQ(stats.orphan_spills_swept, 2u);
  EXPECT_EQ(stats.spill_files_live, 0u);
}
