#include "service/server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <limits>
#include <system_error>

#include "core/solve_fused.hpp"
#include "core/streaming.hpp"
#include "util/failpoint.hpp"
#include "util/fnv.hpp"

namespace picasso::service {

namespace {

/// Wire values of strategies removed from the API: what each one was and
/// the API version that removed it.
struct RetiredStrategy {
  std::uint8_t value;
  const char* name;
  const char* removed_in;
};
constexpr RetiredStrategy kRetiredStrategies[] = {
    {2, "budgeted-streaming", "2.0"},
    {4, "multi-device sharding", "5.0"},
    {6, "probabilistic prefilter tier", "3.0"},
};

/// Peak bytes a request is projected to need under its plan's strategy and
/// the palette params of the session that will run it. InMemory is the one
/// materializing plan a wire request can reach (SemiStreaming needs an edge
/// stream, which a request does not carry), so it is charged the
/// conflict-CSR model; every other plan is charged the fused frontier.
std::size_t projected_peak_bytes(const api::SolvePlan& plan,
                                 const core::PicassoParams& params,
                                 const pauli::PauliSet& set) {
  const std::size_t input = set.logical_bytes();
  const auto n = static_cast<std::uint32_t>(set.size());
  if (plan.strategy == api::ExecutionStrategy::InMemory) {
    return input + core::projected_conflict_csr_bytes(
                       n, params.palette_percent, params.alpha);
  }
  return input +
         core::projected_fused_bytes(n, params.palette_percent, params.alpha);
}

}  // namespace

void Server::ClientConn::send(FrameType type,
                              const std::vector<std::uint8_t>& payload) {
  std::lock_guard<std::mutex> lock(write_mu);
  if (!open.load(std::memory_order_relaxed)) return;
  try {
    conn.write_frame(type, payload);
  } catch (const WireDisconnect&) {
    // Benign client-gone (EPIPE/ECONNRESET): the peer lost interest in its
    // reply. Count it and move on; the reader loop tears the rest down.
    if (disconnect_counter) {
      disconnect_counter->fetch_add(1, std::memory_order_relaxed);
    }
    open.store(false, std::memory_order_relaxed);
    conn.shutdown();
  } catch (const WireError&) {
    // A reply we could not deliver. Further sends become no-ops, and the
    // socket is shut down so a peer still blocked on its reply sees EOF
    // (and can retry against the result cache) instead of waiting forever;
    // the EOF also wakes our own reader loop to tear the connection down.
    open.store(false, std::memory_order_relaxed);
    conn.shutdown();
  }
}

Server::~Server() { stop(); }

void Server::start(const ServerConfig& config) {
  config_ = config;
  listener_ = Listener::listen(config.listen);
  address_ = listener_.address();

  namespace fs = std::filesystem;
  spill_dir_ = config.spill_dir.empty()
                   ? (fs::temp_directory_path() / "picasso_serve").string()
                   : config.spill_dir;
  fs::create_directories(spill_dir_);
  // Crash recovery: spill files left behind by dead processes (ours or a
  // previous incarnation of this server) are swept before any solve runs.
  stat_orphans_swept_.store(core::sweep_orphan_spills(spill_dir_),
                            std::memory_order_relaxed);

  if (config.num_threads != 1) {
    const std::uint32_t workers =
        config.num_threads == 0 ? std::thread::hardware_concurrency()
                                : config.num_threads;
    pool_ = std::make_unique<runtime::ThreadPool>(std::max(1u, workers));
  }
  // The server-lifetime run scope: installs the global budget on the
  // process registry and makes every per-solve scope a nested no-op, so
  // concurrent solves accumulate against ONE budget and ONE set of peaks.
  run_scope_ = std::make_unique<util::MemoryRunScope>(
      config.memory_budget_bytes, util::global_memory());

  started_ = true;
  stopping_.store(false, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
  const std::uint32_t solvers = std::max(1u, config.max_active_solves);
  solver_threads_.reserve(solvers);
  for (std::uint32_t i = 0; i < solvers; ++i) {
    solver_threads_.emplace_back([this] { solver_loop(); });
  }
}

void Server::request_stop() noexcept {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  listener_.shutdown();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& conn : conns_) {
      conn->open.store(false, std::memory_order_relaxed);
      conn->conn.shutdown();
    }
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    for (const auto& request : active_) request->stop.request_stop();
  }
  queue_cv_.notify_all();
  // Touch stop_mu_ between setting stopping_ and notifying, so a waiter
  // mid-predicate-check cannot miss the wakeup.
  { std::lock_guard<std::mutex> lock(stop_mu_); }
  stop_cv_.notify_all();
}

void Server::wait_until_stop_requested() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  stop_cv_.wait(lock,
                [this] { return stopping_.load(std::memory_order_acquire); });
}

void Server::stop() {
  if (!started_) return;
  request_stop();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& thread : solver_threads_) {
    if (thread.joinable()) thread.join();
  }
  // Readers unblock via the shutdown() issued in request_stop().
  {
    std::vector<std::thread> readers;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      readers.swap(reader_threads_);
    }
    for (auto& thread : readers) {
      if (thread.joinable()) thread.join();
    }
  }
  // Queued requests that never reached a solver get a structured goodbye.
  std::vector<std::shared_ptr<Request>> leftovers;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    leftovers.swap(pending_);
  }
  for (const auto& request : leftovers) {
    send_error(request->conn, request->msg.id, ServiceErrorCode::ShuttingDown,
               "server shutting down");
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.clear();
  }
  listener_.close();
  run_scope_.reset();
  pool_.reset();
  started_ = false;
}

StatsMsg Server::stats() const {
  StatsMsg msg;
  msg.received = stat_received_.load(std::memory_order_relaxed);
  msg.completed = stat_completed_.load(std::memory_order_relaxed);
  msg.cache_hits = stat_cache_hits_.load(std::memory_order_relaxed);
  msg.cache_misses = stat_cache_misses_.load(std::memory_order_relaxed);
  msg.rejected_over_budget =
      stat_rejected_over_budget_.load(std::memory_order_relaxed);
  msg.rejected_queue_full =
      stat_rejected_queue_full_.load(std::memory_order_relaxed);
  msg.cancelled = stat_cancelled_.load(std::memory_order_relaxed);
  msg.client_disconnects =
      stat_client_disconnects_.load(std::memory_order_relaxed);
  msg.idle_disconnects = stat_idle_disconnects_.load(std::memory_order_relaxed);
  msg.deadline_exceeded =
      stat_deadline_exceeded_.load(std::memory_order_relaxed);
  msg.degraded = stat_degraded_.load(std::memory_order_relaxed);
  msg.orphan_spills_swept = stat_orphans_swept_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    msg.active = active_.size();
    msg.queued = pending_.size();
  }
  msg.spill_files_live = live_spill_files();
  return msg;
}

std::size_t Server::live_spill_files() const {
  namespace fs = std::filesystem;
  std::size_t count = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(spill_dir_, ec)) {
    if (entry.path().extension() == ".pset") ++count;
  }
  return count;
}

// ---------------------------------------------------------------------------
// Accept / read.

void Server::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    Connection conn = listener_.accept();
    if (!conn.valid()) break;  // listener shut down
    auto client = std::make_shared<ClientConn>();
    client->conn = std::move(conn);
    // A stalled or half-dead peer is reaped by the idle/io timeouts instead
    // of pinning this connection's reader thread forever.
    client->conn.set_timeouts(config_.idle_timeout_ms, config_.io_timeout_ms);
    client->disconnect_counter = &stat_client_disconnects_;
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (stopping_.load(std::memory_order_acquire)) break;
    conns_.push_back(client);
    reader_threads_.emplace_back(
        [this, client] { reader_loop(std::move(client)); });
  }
}

void Server::reader_loop(std::shared_ptr<ClientConn> conn) {
  Frame frame;
  while (conn->open.load(std::memory_order_relaxed)) {
    try {
      if (!conn->conn.read_frame(frame)) break;  // clean EOF
    } catch (const WireTimeout&) {
      // A client waiting on its own solve is legitimately silent — keep it.
      if (conn_busy(conn)) continue;
      // Otherwise the peer is stalled with nothing in flight: reap the
      // connection so the reader thread frees up.
      stat_idle_disconnects_.fetch_add(1, std::memory_order_relaxed);
      break;
    } catch (const WireDisconnect&) {
      stat_client_disconnects_.fetch_add(1, std::memory_order_relaxed);
      break;
    } catch (const WireError&) {
      break;  // torn frame / reset — nothing sane to reply to
    }
    switch (frame.type) {
      case FrameType::SolveRequest:
        handle_solve_request(conn, frame.payload);
        break;
      case FrameType::Cancel:
        try {
          handle_cancel(conn, decode_cancel(frame.payload));
        } catch (const WireError&) {
          send_error(conn, 0, ServiceErrorCode::BadRequest,
                     "malformed cancel frame");
        }
        break;
      case FrameType::Stats:
        conn->send(FrameType::StatsReply, encode_stats(stats()));
        break;
      case FrameType::Shutdown:
        request_stop();  // signal-only; the owner joins
        break;
      default:
        send_error(conn, 0, ServiceErrorCode::BadRequest,
                   "unexpected frame type " +
                       std::to_string(static_cast<unsigned>(frame.type)));
        break;
    }
  }
  conn->open.store(false, std::memory_order_relaxed);
  conn->conn.shutdown();
}

bool Server::conn_busy(const std::shared_ptr<ClientConn>& conn) const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  for (const auto& request : pending_) {
    if (request->conn == conn) return true;
  }
  for (const auto& request : active_) {
    if (request->conn == conn) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Admission.

api::Session Server::session_for(const RemoteParams& params) const {
  core::PicassoParams p = config_.base_params;
  p.palette_percent = params.palette_percent;
  p.alpha = params.alpha;
  p.seed = params.seed;
  p.max_iterations = params.max_iterations;
  p.memory_budget_bytes = params.memory_budget_bytes;
  auto builder = api::SessionBuilder()
                     .params(p)
                     .strategy(static_cast<api::ExecutionStrategy>(
                         params.strategy))
                     .spill_dir(spill_dir_);
  if (pool_) {
    // Every tenant's solve runs on the one server pool.
    builder.shared_pool(pool_.get());
  } else {
    runtime::RuntimeConfig serial;
    serial.num_threads = 1;
    builder.runtime(serial);
  }
  return builder.build();
}

void Server::handle_solve_request(const std::shared_ptr<ClientConn>& conn,
                                  const std::vector<std::uint8_t>& payload) {
  stat_received_.fetch_add(1, std::memory_order_relaxed);

  SolveRequestMsg msg;
  try {
    msg = decode_solve_request(payload);
  } catch (const RetiredRequestField& error) {
    send_error(conn, error.id, ServiceErrorCode::BadRequest, error.what());
    return;
  } catch (const WireError& error) {
    send_error(conn, 0, ServiceErrorCode::BadRequest, error.what());
    return;
  }

  if (stopping_.load(std::memory_order_acquire)) {
    send_error(conn, msg.id, ServiceErrorCode::ShuttingDown,
               "server shutting down");
    return;
  }

  // Validate eagerly — a bad enum value or palette must answer BadRequest,
  // not explode in a solver thread. The SessionBuilder's own validation is
  // reused wholesale.
  api::Session session;
  api::SolvePlan plan;
  try {
    for (const RetiredStrategy& retired : kRetiredStrategies) {
      if (msg.params.strategy != retired.value) continue;
      throw std::invalid_argument(
          "strategy value " + std::to_string(retired.value) + " (" +
          retired.name + ") was removed in API " + retired.removed_in +
          "; send fused (5) or auto (0)");
    }
    if (msg.params.strategy >
        static_cast<std::uint8_t>(api::ExecutionStrategy::Fused)) {
      throw std::invalid_argument("unknown strategy value " +
                                  std::to_string(msg.params.strategy));
    }
    session = session_for(msg.params);
    plan = session.plan(api::Problem::pauli(msg.records));
  } catch (const std::exception& error) {
    send_error(conn, msg.id, ServiceErrorCode::BadRequest, error.what());
    return;
  }

  const std::uint64_t problem_hash =
      api::problem_fingerprint(msg.records, session.params());

  // Cache first: a hit costs no queue slot and no admission check.
  if (const auto cached = cache_lookup(problem_hash, msg.records)) {
    stat_cache_hits_.fetch_add(1, std::memory_order_relaxed);
    send_result(conn, msg.id, *cached, /*cache_hit=*/true, /*seconds=*/0.0);
    return;
  }

  // Admission: projected peak vs the server-wide budget, under the
  // request's own palette. A forced InMemory plan is charged the planner's
  // CSR model; plans that never build a CSR (fused, what Auto picks) the
  // fused engine's, so a client can shrink an over-budget request into
  // an admissible one by dropping a forced InMemory strategy.
  bool admission_degraded = false;
  std::string admission_degraded_reason;
  if (config_.memory_budget_bytes > 0) {
    std::size_t projected =
        projected_peak_bytes(plan, session.params(), msg.records);
    if (projected > config_.memory_budget_bytes &&
        config_.admission == AdmissionPolicy::Degrade &&
        plan.strategy == api::ExecutionStrategy::InMemory) {
      // Degradation: re-plan as Fused. Only a forced InMemory plan is
      // charged more than the fused frontier, so that is the one plan a
      // downgrade can bring under the budget. Determinism makes the
      // downgraded coloring identical, so the client loses only speed —
      // the downgrade is reported, not hidden.
      RemoteParams downgraded = msg.params;
      downgraded.strategy =
          static_cast<std::uint8_t>(api::ExecutionStrategy::Fused);
      const api::Session fused_session = session_for(downgraded);
      const api::SolvePlan fused_plan =
          fused_session.plan(api::Problem::pauli(msg.records));
      const std::size_t fused_projected = projected_peak_bytes(
          fused_plan, fused_session.params(), msg.records);
      if (fused_projected <= config_.memory_budget_bytes) {
        admission_degraded = true;
        admission_degraded_reason =
            "admission degraded plan (" + plan.summary() + ", projected " +
            std::to_string(projected) + " bytes over budget " +
            std::to_string(config_.memory_budget_bytes) + ") to " +
            fused_plan.summary();
        msg.params = downgraded;
        plan = fused_plan;
        projected = fused_projected;
      }
    }
    if (projected > config_.memory_budget_bytes) {
      stat_rejected_over_budget_.fetch_add(1, std::memory_order_relaxed);
      send_error(conn, msg.id, ServiceErrorCode::OverBudget,
                 "projected peak " + std::to_string(projected) +
                     " bytes exceeds server budget " +
                     std::to_string(config_.memory_budget_bytes) +
                     " bytes (plan: " + plan.summary() + ")");
      return;
    }
  }

  auto request = std::make_shared<Request>();
  request->msg = std::move(msg);
  request->problem_hash = problem_hash;
  request->conn = conn;
  request->degraded = admission_degraded;
  request->degraded_reason = std::move(admission_degraded_reason);
  if (request->msg.params.deadline_ms > 0) {
    request->has_deadline = true;
    request->deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(request->msg.params.deadline_ms);
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (pending_.size() >= config_.max_queue) {
      stat_rejected_queue_full_.fetch_add(1, std::memory_order_relaxed);
      send_error(conn, request->msg.id, ServiceErrorCode::QueueFull,
                 "pending queue full (" + std::to_string(config_.max_queue) +
                     " requests)");
      return;
    }
    request->seq = next_seq_++;
    pending_.push_back(std::move(request));
  }
  queue_cv_.notify_one();
}

void Server::handle_cancel(const std::shared_ptr<ClientConn>& conn,
                           std::uint64_t id) {
  std::shared_ptr<Request> queued;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    const auto it = std::find_if(
        pending_.begin(), pending_.end(), [&](const auto& request) {
          return request->conn == conn && request->msg.id == id;
        });
    if (it != pending_.end()) {
      queued = *it;
      pending_.erase(it);  // frees the queue slot immediately
    } else {
      for (const auto& request : active_) {
        if (request->conn == conn && request->msg.id == id) {
          request->cancelled.store(true, std::memory_order_relaxed);
          request->stop.request_stop();
          // The solver thread answers when SolveCancelled unwinds.
          return;
        }
      }
    }
  }
  if (queued) {
    stat_cancelled_.fetch_add(1, std::memory_order_relaxed);
    send_error(conn, id, ServiceErrorCode::Cancelled,
               "cancelled while queued");
  }
  // Unknown id: the solve already completed — the result frame wins the
  // race, which is the documented client contract.
}

// ---------------------------------------------------------------------------
// Solve.

std::size_t Server::pick_next_locked() const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < pending_.size(); ++i) {
    const auto& a = *pending_[i];
    const auto& b = *pending_[best];
    if (a.msg.priority != b.msg.priority) {
      if (a.msg.priority > b.msg.priority) best = i;
      continue;
    }
    const auto dispatched = [this](const std::string& tenant) {
      const auto it = tenant_dispatched_.find(tenant);
      return it == tenant_dispatched_.end() ? std::uint64_t{0} : it->second;
    };
    const std::uint64_t da = dispatched(a.msg.tenant);
    const std::uint64_t db = dispatched(b.msg.tenant);
    if (da != db) {
      if (da < db) best = i;
      continue;
    }
    if (a.seq < b.seq) best = i;
  }
  return best;
}

void Server::solver_loop() {
  while (true) {
    std::shared_ptr<Request> request;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_acquire) || !pending_.empty();
      });
      if (stopping_.load(std::memory_order_acquire)) return;
      const std::size_t index = pick_next_locked();
      request = pending_[index];
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(index));
      ++tenant_dispatched_[request->msg.tenant];
      active_.push_back(request);
    }
    if (config_.on_dispatch) {
      config_.on_dispatch(request->msg, request->stop.token());
    }
    execute(request);
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      active_.erase(std::remove(active_.begin(), active_.end(), request),
                    active_.end());
    }
  }
}

void Server::execute(const std::shared_ptr<Request>& request) {
  const auto& conn = request->conn;
  if (!conn->open.load(std::memory_order_relaxed)) return;  // client gone

  // A hit that materialized while this request sat in the queue: serve it
  // without re-solving (two identical cold requests race; the loser rides
  // the winner's entry).
  if (const auto cached =
          cache_lookup(request->problem_hash, request->msg.records)) {
    stat_cache_hits_.fetch_add(1, std::memory_order_relaxed);
    send_result(conn, request->msg.id, *cached, /*cache_hit=*/true, 0.0);
    return;
  }

  // A request that spent its whole deadline in the queue never starts.
  if (request->has_deadline &&
      std::chrono::steady_clock::now() >= request->deadline) {
    stat_deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    send_error(conn, request->msg.id, ServiceErrorCode::DeadlineExceeded,
               "deadline of " +
                   std::to_string(request->msg.params.deadline_ms) +
                   "ms expired while queued");
    return;
  }

  api::SolveOptions options;
  options.stop = request->stop.token();
  const bool forward_progress = request->msg.params.want_progress;
  if (forward_progress || request->has_deadline) {
    const std::uint64_t id = request->msg.id;
    auto conn_weak = std::weak_ptr<ClientConn>(conn);
    options.progress = [request, id, conn_weak,
                        forward_progress](const core::ProgressEvent& event) {
      // Deadline check rides the progress stream: every stage boundary
      // compares against the armed deadline and trips the StopSource, which
      // the solve's existing cancellation points honor.
      if (request->has_deadline &&
          !request->deadline_hit.load(std::memory_order_relaxed) &&
          std::chrono::steady_clock::now() >= request->deadline) {
        request->deadline_hit.store(true, std::memory_order_relaxed);
        request->stop.request_stop();
      }
      if (!forward_progress) return;
      // Iteration granularity only — chunk/bucket events would flood the
      // socket on large problems.
      if (event.stage != core::ProgressStage::IterationDone) return;
      const auto client = conn_weak.lock();
      if (!client) return;
      ProgressMsg msg;
      msg.id = id;
      msg.stage = static_cast<std::uint8_t>(event.stage);
      msg.iteration = event.iteration;
      msg.n_active = event.n_active;
      msg.colored = event.colored;
      msg.uncolored = event.uncolored;
      msg.conflict_edges = event.conflict_edges;
      client->send(FrameType::Progress, encode_progress(msg));
      // Failpoint "service.progress": a hold here keeps the solve between
      // two iterations, its progress frame already sent.
      PICASSO_FAILPOINT("service.progress");
    };
  }

  const auto start = std::chrono::steady_clock::now();
  try {
    api::Session session = session_for(request->msg.params);
    const api::SolveReport report =
        session.solve(api::Problem::pauli(request->msg.records), options);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;

    auto entry = std::make_shared<CacheEntry>();
    entry->problem_hash = report.problem_hash;
    entry->num_vertices = request->msg.records.size();
    entry->num_qubits = request->msg.records.num_qubits();
    entry->colors = report.result.colors;
    entry->coloring_hash = util::coloring_fingerprint(entry->colors);
    entry->num_colors = report.result.num_colors;
    entry->palette_total = report.result.palette_total;
    entry->iterations =
        static_cast<std::uint32_t>(report.result.iterations.size());
    stat_cache_misses_.fetch_add(1, std::memory_order_relaxed);
    stat_completed_.fetch_add(1, std::memory_order_relaxed);

    // Degradation from either layer — Degrade admission or a mid-solve
    // fallback (e.g. ENOSPC spill → in-memory) — is reported to the client.
    const bool degraded = request->degraded || report.result.degraded;
    std::string degraded_reason = request->degraded_reason;
    if (report.result.degraded && !report.result.degraded_reason.empty()) {
      if (!degraded_reason.empty()) degraded_reason += "; ";
      degraded_reason += report.result.degraded_reason;
    }
    if (degraded) stat_degraded_.fetch_add(1, std::memory_order_relaxed);

    // Insert BEFORE replying: a client that resubmits the moment it sees
    // the result must hit the cache, not race past it.
    cache_insert(entry);
    send_result(conn, request->msg.id, *entry, /*cache_hit=*/false,
                elapsed.count(), degraded, degraded_reason);
  } catch (const core::SolveCancelled&) {
    if (request->deadline_hit.load(std::memory_order_relaxed) &&
        !request->cancelled.load(std::memory_order_relaxed)) {
      stat_deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      send_error(conn, request->msg.id, ServiceErrorCode::DeadlineExceeded,
                 "deadline of " +
                     std::to_string(request->msg.params.deadline_ms) +
                     "ms exceeded mid-solve");
      return;
    }
    stat_cancelled_.fetch_add(1, std::memory_order_relaxed);
    send_error(conn, request->msg.id, ServiceErrorCode::Cancelled,
               stopping_.load(std::memory_order_acquire)
                   ? "server shutting down"
                   : "cancelled mid-solve");
  } catch (const api::ApiError& error) {
    send_error(conn, request->msg.id, ServiceErrorCode::BadRequest,
               error.what());
  } catch (const std::system_error& error) {
    if (error.code().value() == ENOSPC) {
      // Unrecoverable storage exhaustion (the in-memory fallback only
      // covers the budgeted-spill path): structured and retryable.
      send_error(conn, request->msg.id, ServiceErrorCode::StorageFull,
                 std::string("spill storage full: ") + error.what());
    } else {
      send_error(conn, request->msg.id, ServiceErrorCode::Internal,
                 error.what());
    }
  } catch (const std::exception& error) {
    send_error(conn, request->msg.id, ServiceErrorCode::Internal,
               error.what());
  }
}

// ---------------------------------------------------------------------------
// Cache.

std::shared_ptr<const Server::CacheEntry> Server::cache_lookup(
    std::uint64_t problem_hash, const pauli::PauliSet& records) {
  if (config_.cache_capacity == 0) return nullptr;
  std::lock_guard<std::mutex> lock(cache_mu_);
  const auto it = cache_index_.find(problem_hash);
  if (it == cache_index_.end()) return nullptr;
  const CacheEntry& entry = **it->second;
  if (entry.num_vertices != records.size() ||
      entry.num_qubits != records.num_qubits()) {
    return nullptr;  // a fingerprint collision, not this problem's result
  }
  cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
  return *it->second;
}

void Server::cache_insert(std::shared_ptr<const CacheEntry> entry) {
  if (config_.cache_capacity == 0) return;
  std::lock_guard<std::mutex> lock(cache_mu_);
  const auto it = cache_index_.find(entry->problem_hash);
  if (it != cache_index_.end()) {
    // Determinism makes both results identical; keep the incumbent hot. (A
    // colliding problem of another shape is not cached and keeps missing.)
    cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
    return;
  }
  while (cache_lru_.size() >= config_.cache_capacity) {
    cache_index_.erase(cache_lru_.back()->problem_hash);
    cache_lru_.pop_back();
  }
  cache_lru_.push_front(std::move(entry));
  cache_index_[cache_lru_.front()->problem_hash] = cache_lru_.begin();
}

// ---------------------------------------------------------------------------
// Replies.

void Server::send_error(const std::shared_ptr<ClientConn>& conn,
                        std::uint64_t id, ServiceErrorCode code,
                        const std::string& message) {
  ErrorMsg msg;
  msg.id = id;
  msg.code = code;
  msg.message = message;
  conn->send(FrameType::Error, encode_error(msg));
}

void Server::send_result(const std::shared_ptr<ClientConn>& conn,
                         std::uint64_t id, const CacheEntry& entry,
                         bool cache_hit, double seconds, bool degraded,
                         const std::string& degraded_reason) {
  ResultMsg msg;
  msg.id = id;
  msg.cache_hit = cache_hit;
  msg.degraded = degraded;
  msg.degraded_reason = degraded_reason;
  msg.problem_hash = entry.problem_hash;
  msg.coloring_hash = entry.coloring_hash;
  msg.num_colors = entry.num_colors;
  msg.palette_total = entry.palette_total;
  msg.iterations = entry.iterations;
  msg.seconds = seconds;
  conn->send(FrameType::Result, encode_result(msg, entry.colors));
}

}  // namespace picasso::service
