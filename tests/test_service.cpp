// End-to-end coverage of the multi-tenant coloring service: wire-protocol
// round-trips, then a real Server on a unix socket exercised by concurrent
// clients — bit-identity vs local Session::solve, counter-verified cache
// hits, structured over-budget rejection, mid-solve cancellation that frees
// the queue slot and its spill file, priority + tenant fair-share ordering,
// and clean shutdown with no leaked spill files.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "core/solve_fused.hpp"
#include "pauli/pauli_set.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"

namespace papi = picasso::api;
namespace pp = picasso::pauli;
namespace psvc = picasso::service;
namespace fs = std::filesystem;

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

/// The local single-shot reference the service must be bit-identical to.
papi::SolveReport local_solve(const pp::PauliSet& set,
                              const psvc::RemoteParams& params) {
  return papi::SessionBuilder()
      .palette(params.palette_percent, params.alpha)
      .seed(params.seed)
      .max_iterations(params.max_iterations)
      .build()
      .solve(papi::Problem::pauli(set));
}

}  // namespace

// --- Wire protocol ----------------------------------------------------------

TEST(ServiceWire, SolveRequestRoundTrip) {
  psvc::SolveRequestMsg msg;
  msg.id = 42;
  msg.tenant = "vqe-h4";
  msg.priority = 7;
  msg.params.palette_percent = 9.5;
  msg.params.alpha = 1.75;
  msg.params.seed = 1234;
  msg.params.max_iterations = 17;
  msg.params.strategy = 6;
  msg.params.memory_budget_bytes = 1u << 20;
  msg.params.want_progress = true;
  msg.params.deadline_ms = 2500;
  msg.records = random_set(37, 12, 5);

  const auto decoded = psvc::decode_solve_request(psvc::encode_solve_request(msg));
  EXPECT_EQ(decoded.id, msg.id);
  EXPECT_EQ(decoded.tenant, msg.tenant);
  EXPECT_EQ(decoded.priority, msg.priority);
  EXPECT_EQ(decoded.params.palette_percent, msg.params.palette_percent);
  EXPECT_EQ(decoded.params.alpha, msg.params.alpha);
  EXPECT_EQ(decoded.params.seed, msg.params.seed);
  EXPECT_EQ(decoded.params.max_iterations, msg.params.max_iterations);
  EXPECT_EQ(decoded.params.strategy, msg.params.strategy);
  EXPECT_EQ(decoded.params.memory_budget_bytes, msg.params.memory_budget_bytes);
  EXPECT_EQ(decoded.params.want_progress, msg.params.want_progress);
  EXPECT_EQ(decoded.params.deadline_ms, msg.params.deadline_ms);
  ASSERT_EQ(decoded.records.size(), msg.records.size());
  EXPECT_EQ(decoded.records.num_qubits(), msg.records.num_qubits());
  const picasso::core::PicassoParams fp_params;
  EXPECT_EQ(papi::problem_fingerprint(decoded.records, fp_params),
            papi::problem_fingerprint(msg.records, fp_params));
}

TEST(ServiceWire, ResultAndErrorRoundTrip) {
  psvc::ResultMsg result;
  result.id = 9;
  result.cache_hit = true;
  result.problem_hash = 0xdeadbeefcafef00dull;
  result.coloring_hash = 0x0123456789abcdefull;
  result.num_colors = 201;
  result.palette_total = 256;
  result.iterations = 6;
  result.seconds = 0.125;
  result.degraded = true;
  result.degraded_reason = "admission degraded plan to strategy=fused";
  result.colors = {0, 1, 2, 200, 7};
  const auto r = psvc::decode_result(psvc::encode_result(result));
  EXPECT_EQ(r.id, result.id);
  EXPECT_EQ(r.cache_hit, result.cache_hit);
  EXPECT_EQ(r.problem_hash, result.problem_hash);
  EXPECT_EQ(r.coloring_hash, result.coloring_hash);
  EXPECT_EQ(r.num_colors, result.num_colors);
  EXPECT_EQ(r.palette_total, result.palette_total);
  EXPECT_EQ(r.iterations, result.iterations);
  EXPECT_EQ(r.seconds, result.seconds);
  EXPECT_EQ(r.degraded, result.degraded);
  EXPECT_EQ(r.degraded_reason, result.degraded_reason);
  EXPECT_EQ(r.colors, result.colors);

  psvc::StatsMsg stats;
  stats.received = 10;
  stats.completed = 8;
  stats.client_disconnects = 3;
  stats.idle_disconnects = 2;
  stats.deadline_exceeded = 1;
  stats.degraded = 4;
  stats.orphan_spills_swept = 5;
  const auto s = psvc::decode_stats(psvc::encode_stats(stats));
  EXPECT_EQ(s.received, stats.received);
  EXPECT_EQ(s.completed, stats.completed);
  EXPECT_EQ(s.client_disconnects, stats.client_disconnects);
  EXPECT_EQ(s.idle_disconnects, stats.idle_disconnects);
  EXPECT_EQ(s.deadline_exceeded, stats.deadline_exceeded);
  EXPECT_EQ(s.degraded, stats.degraded);
  EXPECT_EQ(s.orphan_spills_swept, stats.orphan_spills_swept);

  psvc::ErrorMsg error;
  error.id = 3;
  error.code = psvc::ServiceErrorCode::OverBudget;
  error.message = "projected peak 123 bytes exceeds server budget 45 bytes";
  const auto e = psvc::decode_error(psvc::encode_error(error));
  EXPECT_EQ(e.id, error.id);
  EXPECT_EQ(e.code, error.code);
  EXPECT_EQ(e.message, error.message);
}

// The frame bytes of a Result, written out field by field: every integer
// little-endian, the colors' u32s back to back after their count. Pins
// the bulk copy of the colors to the byte-wise layout it replaced.
TEST(ServiceWire, ResultFrameBytesAreGolden) {
  psvc::ResultMsg result;
  result.id = 0x0102030405060708ull;
  result.cache_hit = true;
  result.problem_hash = 0x1112131415161718ull;
  result.coloring_hash = 0x2122232425262728ull;
  result.num_colors = 0x31323334;
  result.palette_total = 0x41424344;
  result.iterations = 0x51525354;
  result.seconds = 0.5;  // IEEE-754 bits 0x3fe0000000000000
  result.degraded = true;
  result.degraded_reason = "ab";
  result.colors = {0x61626364, 0x71727374, 5};
  const std::vector<std::uint8_t> golden = {
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // id
      0x01,                                            // cache_hit
      0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11,  // problem_hash
      0x28, 0x27, 0x26, 0x25, 0x24, 0x23, 0x22, 0x21,  // coloring_hash
      0x34, 0x33, 0x32, 0x31,                          // num_colors
      0x44, 0x43, 0x42, 0x41,                          // palette_total
      0x54, 0x53, 0x52, 0x51,                          // iterations
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f,  // seconds
      0x01,                                            // degraded
      0x02, 0x00, 0x00, 0x00, 'a',  'b',               // degraded_reason
      0x03, 0x00, 0x00, 0x00,                          // color count
      0x64, 0x63, 0x62, 0x61,                          // colors
      0x74, 0x73, 0x72, 0x71,
      0x05, 0x00, 0x00, 0x00};
  EXPECT_EQ(psvc::encode_result(result), golden);
  const psvc::ResultMsg decoded = psvc::decode_result(golden);
  EXPECT_EQ(decoded.colors, result.colors);
  EXPECT_EQ(decoded.id, result.id);
  EXPECT_EQ(decoded.degraded_reason, result.degraded_reason);
  // No colors: the count alone.
  result.colors.clear();
  const std::vector<std::uint8_t> empty = psvc::encode_result(result);
  ASSERT_EQ(empty.size(), golden.size() - 12);
  EXPECT_TRUE(std::equal(empty.begin(), empty.end() - 4, golden.begin()));
  EXPECT_TRUE(psvc::decode_result(empty).colors.empty());
}

TEST(ServiceWire, TruncatedPayloadThrows) {
  psvc::ResultMsg result;
  result.colors = {1, 2, 3};
  auto payload = psvc::encode_result(result);
  payload.resize(payload.size() / 2);
  EXPECT_THROW(psvc::decode_result(payload), psvc::WireError);

  // A declared string length past the end of the payload must not read OOB.
  std::vector<std::uint8_t> bogus = {0xff, 0xff, 0xff, 0x7f};
  psvc::WireReader reader(bogus);
  EXPECT_THROW(reader.str(), psvc::WireError);
}

// --- End-to-end server ------------------------------------------------------

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("picasso_svc_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(root_ / "spill");
    config_.listen = "unix:" + (root_ / "sock").string();
    config_.spill_dir = (root_ / "spill").string();
    config_.num_threads = 2;
  }

  void TearDown() override {
    server_.stop();
    EXPECT_EQ(spill_files(), 0u) << "spill files leaked past shutdown";
    EXPECT_FALSE(fs::exists(root_ / "sock")) << "socket file not unlinked";
    fs::remove_all(root_);
  }

  void start_server() {
    server_.start(config_);
    ASSERT_TRUE(server_.running());
  }

  std::size_t spill_files() const {
    std::size_t count = 0;
    if (!fs::exists(root_ / "spill")) return 0;
    for (const auto& entry : fs::directory_iterator(root_ / "spill")) {
      if (entry.path().extension() == ".pset") ++count;
    }
    return count;
  }

  /// Polls server stats through a dedicated connection until `pred` holds.
  template <typename Pred>
  bool wait_for_stats(Pred pred,
                      std::chrono::milliseconds deadline =
                          std::chrono::seconds(30)) {
    auto probe = psvc::Client::connect(server_.address());
    const auto until = std::chrono::steady_clock::now() + deadline;
    while (std::chrono::steady_clock::now() < until) {
      if (pred(probe.stats())) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  }

  fs::path root_;
  psvc::ServerConfig config_;
  psvc::Server server_;
};

TEST_F(ServiceTest, EightConcurrentClientsBitIdenticalToLocalSolve) {
  start_server();
  const psvc::RemoteParams params;
  const pp::PauliSet set_a = random_set(400, 16, 1);
  const pp::PauliSet set_b = random_set(350, 18, 2);
  const auto ref_a = local_solve(set_a, params);
  const auto ref_b = local_solve(set_b, params);

  constexpr int kClients = 8;
  std::vector<psvc::RemoteResult> outcomes(kClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      auto client = psvc::Client::connect(server_.address());
      outcomes[i] = client.solve(i % 2 == 0 ? set_a : set_b, params,
                                 "tenant" + std::to_string(i % 3));
    });
  }
  for (auto& thread : threads) thread.join();

  for (int i = 0; i < kClients; ++i) {
    const auto& ref = i % 2 == 0 ? ref_a : ref_b;
    ASSERT_TRUE(outcomes[i].ok) << outcomes[i].error_message;
    EXPECT_EQ(outcomes[i].result.colors, ref.result.colors) << "client " << i;
    EXPECT_EQ(outcomes[i].result.problem_hash, ref.problem_hash);
    EXPECT_EQ(outcomes[i].result.num_colors, ref.result.num_colors);
  }

  // Identical problems across the 8 requests: at most 2 real solves, the
  // rest answered from cache (or coalesced on the queued re-check).
  // active_ is trimmed just after the reply is sent, so poll briefly.
  ASSERT_TRUE(wait_for_stats([](const psvc::StatsMsg& s) {
    return s.received == kClients &&
           s.completed + s.cache_hits == kClients && s.active == 0 &&
           s.queued == 0;
  }));
}

TEST_F(ServiceTest, CacheHitIsCounterVerifiedAndBitIdentical) {
  start_server();
  const psvc::RemoteParams params;
  const pp::PauliSet set = random_set(300, 16, 3);

  auto client = psvc::Client::connect(server_.address());
  const psvc::RemoteResult first = client.solve(set, params);
  ASSERT_TRUE(first.ok) << first.error_message;
  EXPECT_FALSE(first.result.cache_hit);

  const psvc::RemoteResult second = client.solve(set, params);
  ASSERT_TRUE(second.ok) << second.error_message;
  EXPECT_TRUE(second.result.cache_hit);
  EXPECT_EQ(second.result.coloring_hash, first.result.coloring_hash);
  EXPECT_EQ(second.result.colors, first.result.colors);
  EXPECT_EQ(second.result.problem_hash, first.result.problem_hash);

  const psvc::StatsMsg stats = client.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);

  // Same molecule, different solve-relevant params -> different problem,
  // no (false) cache hit.
  psvc::RemoteParams reseeded = params;
  reseeded.seed = params.seed + 1;
  const psvc::RemoteResult third = client.solve(set, reseeded);
  ASSERT_TRUE(third.ok) << third.error_message;
  EXPECT_FALSE(third.result.cache_hit);
  EXPECT_NE(third.result.problem_hash, first.result.problem_hash);
}

TEST_F(ServiceTest, OverBudgetRequestIsRejectedStructurally) {
  config_.memory_budget_bytes = 64 * 1024;  // far below any real solve
  start_server();
  const pp::PauliSet set = random_set(4000, 24, 4);

  auto client = psvc::Client::connect(server_.address());
  const psvc::RemoteResult outcome = client.solve(set, psvc::RemoteParams{});
  ASSERT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error_code, psvc::ServiceErrorCode::OverBudget);
  // Structured message names both numbers and the chosen plan.
  EXPECT_NE(outcome.error_message.find("65536"), std::string::npos)
      << outcome.error_message;
  EXPECT_NE(outcome.error_message.find("projected"), std::string::npos)
      << outcome.error_message;
  EXPECT_NE(outcome.error_message.find("strategy="), std::string::npos)
      << outcome.error_message;

  const psvc::StatsMsg stats = client.stats();
  EXPECT_EQ(stats.rejected_over_budget, 1u);
  EXPECT_EQ(stats.completed, 0u);

  // A small problem still fits under the same budget.
  const pp::PauliSet small = random_set(40, 8, 5);
  const psvc::RemoteResult ok = client.solve(small, psvc::RemoteParams{});
  EXPECT_TRUE(ok.ok) << ok.error_message;
}

// Admission projects with the request's own palette, not the server's base
// params: the same materializing request is rejected at a narrow palette
// whose projected conflict CSR overflows the budget, and admitted at the
// base palette.
TEST_F(ServiceTest, AdmissionProjectsUnderTheRequestPalette) {
  const pp::PauliSet set = random_set(2000, 24, 8);
  const auto n = static_cast<std::uint32_t>(set.size());
  psvc::RemoteParams narrow;
  narrow.strategy =
      static_cast<std::uint8_t>(papi::ExecutionStrategy::InMemory);
  narrow.palette_percent = 1.0;
  psvc::RemoteParams base = narrow;
  base.palette_percent = config_.base_params.palette_percent;
  base.alpha = config_.base_params.alpha;
  const std::size_t narrow_projected =
      set.logical_bytes() + picasso::core::projected_conflict_csr_bytes(
                                n, narrow.palette_percent, narrow.alpha);
  const std::size_t base_projected =
      set.logical_bytes() + picasso::core::projected_conflict_csr_bytes(
                                n, base.palette_percent, base.alpha);
  config_.memory_budget_bytes = (base_projected + narrow_projected) / 2;
  ASSERT_LT(base_projected, config_.memory_budget_bytes);
  ASSERT_GT(narrow_projected, config_.memory_budget_bytes);
  start_server();

  auto client = psvc::Client::connect(server_.address());
  const psvc::RemoteResult rejected = client.solve(set, narrow);
  ASSERT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.error_code, psvc::ServiceErrorCode::OverBudget);
  EXPECT_NE(rejected.error_message.find(
                "projected peak " + std::to_string(narrow_projected) +
                " bytes"),
            std::string::npos)
      << rejected.error_message;

  const psvc::RemoteResult admitted = client.solve(set, base);
  EXPECT_TRUE(admitted.ok) << admitted.error_message;
}

TEST_F(ServiceTest, CancelMidSolveFreesSlotAndRemovesSpillFile) {
  config_.max_active_solves = 1;
  // The solve must not finish before its Cancel lands, however fast it
  // runs: a "service.progress" hold keeps it on the solver thread right
  // after its first progress frame, and the client releases the hold only
  // once the request's stop token (handed over by the dispatch hook) has
  // fired.
  std::mutex stop_mu;
  std::optional<picasso::core::StopToken> solve_stop;
  config_.on_dispatch = [&](const psvc::SolveRequestMsg&,
                            const picasso::core::StopToken& stop) {
    std::lock_guard<std::mutex> lock(stop_mu);
    solve_stop = stop;
  };
  const auto cancel_landed = [&] {
    std::lock_guard<std::mutex> lock(stop_mu);
    return solve_stop && solve_stop->stop_requested();
  };
  start_server();

  // A budgeted request: the tiny per-request budget forces the spilling
  // streaming engine, so cancellation must also clean up the spill file.
  const pp::PauliSet set = random_set(1500, 24, 6);
  psvc::RemoteParams params;
  params.memory_budget_bytes = set.logical_bytes();
  params.want_progress = true;
  params.max_iterations = 1000;
  params.palette_percent = 1.0;  // slow convergence: many iterations
  params.alpha = 1.1;

  namespace pfp = picasso::util::failpoints;
  pfp::arm("service.progress", {pfp::Mode::Hold});
  // Released on every exit path, so a failed solve cannot leave the
  // server's solver thread parked for the fixture teardown.
  struct ReleaseHold {
    ~ReleaseHold() { pfp::disarm("service.progress"); }
  } release_hold;
  auto client = psvc::Client::connect(server_.address());
  std::atomic<int> frames{0};
  const psvc::RemoteResult outcome =
      client.solve(set, params, "", 0, [&](const psvc::ProgressMsg&) {
        if (frames.fetch_add(1) != 0) return;
        // Held mid-solve: the request streams from its spill file.
        EXPECT_EQ(spill_files(), 1u);
        client.request_cancel();
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (!cancel_landed() && std::chrono::steady_clock::now() < give_up) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        pfp::disarm("service.progress");
      });
  ASSERT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error_code, psvc::ServiceErrorCode::Cancelled);
  EXPECT_GE(frames.load(), 1);

  // The slot is free again and the cancelled solve left no spill file.
  ASSERT_TRUE(wait_for_stats([](const psvc::StatsMsg& s) {
    return s.active == 0 && s.queued == 0 && s.cancelled == 1;
  }));
  EXPECT_EQ(spill_files(), 0u);

  // The freed slot accepts new work immediately.
  const pp::PauliSet small = random_set(60, 10, 7);
  const psvc::RemoteResult next = client.solve(small, psvc::RemoteParams{});
  EXPECT_TRUE(next.ok) << next.error_message;
}

TEST_F(ServiceTest, PriorityThenTenantFairShareOrdersTheQueue) {
  config_.max_active_solves = 1;
  // The server's own dispatch order is the observable: a client-side
  // completion order can interleave under load. The hook also holds the
  // blocker on the solver thread until its Cancel has landed, so the three
  // requests queue behind it however fast a solve runs.
  const pp::PauliSet blocker_set = random_set(200, 24, 8);
  std::mutex log_mu;
  std::vector<std::string> dispatch_order;
  config_.on_dispatch = [&](const psvc::SolveRequestMsg& msg,
                            const picasso::core::StopToken& stop) {
    const bool is_blocker = msg.records.size() == blocker_set.size();
    {
      std::lock_guard<std::mutex> lock(log_mu);
      dispatch_order.emplace_back(is_blocker         ? "blocker"
                                  : msg.priority > 0 ? "D"
                                  : msg.tenant == "b" ? "C"
                                                      : "B");
    }
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (is_blocker && !stop.stop_requested() &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  start_server();

  // Occupy the single solver slot with tenant "a"'s blocker, queue three
  // more behind it, then cancel the blocker and check the drain order.
  auto blocker_client = psvc::Client::connect(server_.address());
  psvc::RemoteResult blocker_outcome;
  std::thread blocker([&] {
    blocker_outcome =
        blocker_client.solve(blocker_set, psvc::RemoteParams{}, "a", 0);
  });
  ASSERT_TRUE(wait_for_stats(
      [](const psvc::StatsMsg& s) { return s.active == 1; }));

  const psvc::RemoteParams params;
  auto submit = [&](const char* name, const char* tenant,
                    std::uint32_t priority, std::uint64_t seed) {
    return std::thread([&, name, tenant, priority, seed] {
      auto client = psvc::Client::connect(server_.address());
      const pp::PauliSet set = random_set(80, 10, seed);
      const psvc::RemoteResult outcome =
          client.solve(set, params, tenant, priority);
      EXPECT_TRUE(outcome.ok) << name << ": " << outcome.error_message;
    });
  };

  // Queued in seq order B, C, D while the blocker holds the slot. Expected
  // dispatch: D first (highest priority), then C (tenant "b" has fewer
  // dispatched solves than "a"), then B.
  std::thread b = submit("B", "a", 0, 20);
  ASSERT_TRUE(wait_for_stats(
      [](const psvc::StatsMsg& s) { return s.queued >= 1; }));
  std::thread c = submit("C", "b", 0, 21);
  ASSERT_TRUE(wait_for_stats(
      [](const psvc::StatsMsg& s) { return s.queued >= 2; }));
  std::thread d = submit("D", "a", 5, 22);
  ASSERT_TRUE(wait_for_stats(
      [](const psvc::StatsMsg& s) { return s.queued >= 3; }));

  blocker_client.request_cancel();
  blocker.join();
  b.join();
  c.join();
  d.join();

  EXPECT_FALSE(blocker_outcome.ok);
  EXPECT_EQ(blocker_outcome.error_code, psvc::ServiceErrorCode::Cancelled);
  const std::vector<std::string> expected = {"blocker", "D", "C", "B"};
  std::lock_guard<std::mutex> lock(log_mu);
  EXPECT_EQ(dispatch_order, expected);
}

TEST_F(ServiceTest, MalformedRequestGetsBadRequestNotDisconnect) {
  start_server();
  auto conn = psvc::Connection::connect(server_.address());
  conn.write_frame(psvc::FrameType::SolveRequest, {0x01, 0x02, 0x03});
  psvc::Frame frame;
  ASSERT_TRUE(conn.read_frame(frame));
  ASSERT_EQ(frame.type, psvc::FrameType::Error);
  const psvc::ErrorMsg error = psvc::decode_error(frame.payload);
  EXPECT_EQ(error.code, psvc::ServiceErrorCode::BadRequest);

  // The connection survives the bad frame: a well-formed request still works.
  psvc::SolveRequestMsg msg;
  msg.id = 1;
  msg.records = random_set(30, 8, 9);
  conn.write_frame(psvc::FrameType::SolveRequest,
                   psvc::encode_solve_request(msg));
  ASSERT_TRUE(conn.read_frame(frame));
  EXPECT_EQ(frame.type, psvc::FrameType::Result);
}

// Strategy byte 2 belonged to the chunk-pair streaming strategy removed in
// API 2.0. The frame keeps the byte (protocol v3): the server answers it with
// BadRequest naming it as retired, rejects bytes past the last strategy as
// unknown, and keeps serving every surviving strategy on the same
// connection.
TEST_F(ServiceTest, RetiredStrategyByteGetsBadRequestNamingIt) {
  start_server();
  auto client = psvc::Client::connect(server_.address());
  const pp::PauliSet set = random_set(40, 8, 10);

  psvc::RemoteParams params;
  params.strategy = 2;
  const psvc::RemoteResult retired = client.solve(set, params);
  ASSERT_FALSE(retired.ok);
  EXPECT_EQ(retired.error_code, psvc::ServiceErrorCode::BadRequest);
  EXPECT_NE(retired.error_message.find("budgeted-streaming"),
            std::string::npos)
      << retired.error_message;
  EXPECT_NE(retired.error_message.find("removed"), std::string::npos)
      << retired.error_message;

  params.strategy = 6;
  const psvc::RemoteResult retired_tier = client.solve(set, params);
  ASSERT_FALSE(retired_tier.ok);
  EXPECT_EQ(retired_tier.error_code, psvc::ServiceErrorCode::BadRequest);
  EXPECT_NE(retired_tier.error_message.find(
                "strategy value 6 (probabilistic prefilter tier) was "
                "removed in API 3.0"),
            std::string::npos)
      << retired_tier.error_message;

  params.strategy = 4;
  const psvc::RemoteResult retired_shards = client.solve(set, params);
  ASSERT_FALSE(retired_shards.ok);
  EXPECT_EQ(retired_shards.error_code, psvc::ServiceErrorCode::BadRequest);
  EXPECT_NE(retired_shards.error_message.find(
                "strategy value 4 (multi-device sharding) was removed in "
                "API 5.0"),
            std::string::npos)
      << retired_shards.error_message;

  params.strategy = 7;
  const psvc::RemoteResult unknown = client.solve(set, params);
  ASSERT_FALSE(unknown.ok);
  EXPECT_EQ(unknown.error_code, psvc::ServiceErrorCode::BadRequest);
  EXPECT_NE(unknown.error_message.find("unknown strategy value 7"),
            std::string::npos)
      << unknown.error_message;

  const auto reference =
      papi::Session().solve(papi::Problem::pauli(set)).result.colors;
  for (const auto strategy :
       {papi::ExecutionStrategy::Auto, papi::ExecutionStrategy::InMemory,
        papi::ExecutionStrategy::Fused}) {
    params.strategy = static_cast<std::uint8_t>(strategy);
    const psvc::RemoteResult ok = client.solve(set, params);
    ASSERT_TRUE(ok.ok) << papi::to_string(strategy) << ": "
                       << ok.error_message;
    EXPECT_EQ(ok.result.colors, reference) << papi::to_string(strategy);
  }
}

// The backend byte belonged to the Pauli backend selector removed in API
// 4.0. The frame keeps it (protocol v3): encoders write 0, and a request
// carrying anything else gets BadRequest naming the removal, on a
// connection that keeps serving.
TEST_F(ServiceTest, RetiredBackendByteGetsBadRequestNamingIt) {
  start_server();
  psvc::SolveRequestMsg msg;
  msg.id = 7;
  msg.tenant = "t";
  msg.records = random_set(30, 8, 11);
  const std::vector<std::uint8_t> valid = psvc::encode_solve_request(msg);
  // version, id, tenant, priority, palette_percent, alpha, seed,
  // max_iterations, then the backend byte.
  const std::size_t backend_at = 4 + 8 + 4 + msg.tenant.size() + 4 + 8 + 8 +
                                 8 + 4;
  ASSERT_EQ(valid[backend_at], 0u);
  std::vector<std::uint8_t> retired = valid;
  retired[backend_at] = 1;

  auto conn = psvc::Connection::connect(server_.address());
  conn.write_frame(psvc::FrameType::SolveRequest, retired);
  psvc::Frame frame;
  ASSERT_TRUE(conn.read_frame(frame));
  ASSERT_EQ(frame.type, psvc::FrameType::Error);
  const psvc::ErrorMsg error = psvc::decode_error(frame.payload);
  EXPECT_EQ(error.code, psvc::ServiceErrorCode::BadRequest);
  EXPECT_EQ(error.id, msg.id);  // a per-request answer, not a bad frame
  EXPECT_NE(error.message.find("backend value 1"), std::string::npos)
      << error.message;
  EXPECT_NE(error.message.find("removed in API 4.0"), std::string::npos)
      << error.message;

  conn.write_frame(psvc::FrameType::SolveRequest, valid);
  ASSERT_TRUE(conn.read_frame(frame));
  EXPECT_EQ(frame.type, psvc::FrameType::Result);
}

// Protocol 3 carries Pauli strings as trimmed-plane records; a version-2
// frame's blob holds 3-bit words, so the server refuses it, naming the
// range it speaks, on a connection that keeps serving.
TEST_F(ServiceTest, VersionTwoRequestGetsBadRequestNamingTheRange) {
  start_server();
  psvc::SolveRequestMsg msg;
  msg.id = 8;
  msg.records = random_set(30, 8, 12);
  const std::vector<std::uint8_t> valid = psvc::encode_solve_request(msg);
  ASSERT_EQ(valid[0], psvc::kProtocolVersion);
  std::vector<std::uint8_t> old = valid;
  old[0] = 2;

  auto conn = psvc::Connection::connect(server_.address());
  conn.write_frame(psvc::FrameType::SolveRequest, old);
  psvc::Frame frame;
  ASSERT_TRUE(conn.read_frame(frame));
  ASSERT_EQ(frame.type, psvc::FrameType::Error);
  const psvc::ErrorMsg error = psvc::decode_error(frame.payload);
  EXPECT_EQ(error.code, psvc::ServiceErrorCode::BadRequest);
  EXPECT_NE(error.message.find("protocol version 2 outside supported range "
                               "[3, 3]"),
            std::string::npos)
      << error.message;

  conn.write_frame(psvc::FrameType::SolveRequest, valid);
  ASSERT_TRUE(conn.read_frame(frame));
  EXPECT_EQ(frame.type, psvc::FrameType::Result);
}

TEST_F(ServiceTest, ShutdownAnswersQueuedRequestsAndDrainsCleanly) {
  config_.max_active_solves = 1;
  const pp::PauliSet blocker_set = random_set(2000, 24, 10);
  // The blocker holds the only solver slot until shutdown cancels it, so
  // the second request is still queued when stop() runs however fast a
  // solve is.
  config_.on_dispatch = [&](const psvc::SolveRequestMsg& msg,
                            const picasso::core::StopToken& stop) {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (msg.records.size() == blocker_set.size() &&
           !stop.stop_requested() &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  start_server();

  psvc::RemoteParams blocker_params;
  blocker_params.max_iterations = 5000;
  blocker_params.palette_percent = 0.5;
  blocker_params.alpha = 1.05;

  auto blocker_client = psvc::Client::connect(server_.address());
  std::thread blocker([&] {
    // Outcome unchecked: shutdown may cancel it or let it finish.
    try {
      blocker_client.solve(blocker_set, blocker_params, "a");
    } catch (const psvc::WireError&) {
      // Connection torn down during stop — acceptable during shutdown.
    }
  });
  ASSERT_TRUE(wait_for_stats(
      [](const psvc::StatsMsg& s) { return s.active == 1; }));

  std::atomic<bool> queued_rejected{false};
  std::thread queued([&] {
    auto client = psvc::Client::connect(server_.address());
    try {
      const psvc::RemoteResult outcome =
          client.solve(random_set(60, 10, 11), psvc::RemoteParams{}, "b");
      queued_rejected = !outcome.ok &&
                        outcome.error_code ==
                            psvc::ServiceErrorCode::ShuttingDown;
    } catch (const psvc::WireError&) {
      queued_rejected = true;  // torn connection also counts as rejected
    }
  });
  ASSERT_TRUE(wait_for_stats(
      [](const psvc::StatsMsg& s) { return s.queued >= 1; }));

  server_.stop();
  blocker.join();
  queued.join();
  EXPECT_TRUE(queued_rejected);
  EXPECT_FALSE(server_.running());
}
