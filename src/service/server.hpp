#pragma once
// Multi-tenant coloring server.
//
// The paper's workload is VQE-shaped: the same molecules are re-grouped over
// and over by iterative quantum pipelines issuing many small, repeated,
// latency-sensitive requests. A Server owns, once per process, the resources
// the library otherwise creates per-solve — ONE runtime::ThreadPool, ONE
// util::MemoryRegistry budget (the process-global registry under a
// server-lifetime MemoryRunScope, so per-solve scopes nest as no-ops), and
// ONE managed spill directory — and feeds a bounded request queue through
// them:
//
//   * Admission control: each decoded request is planned (api::Session::plan)
//     and its projected peak — encoded input plus either the conflict-CSR
//     projection (materializing plans, core::projected_conflict_csr_bytes)
//     or the fused engine's (core::projected_fused_bytes), both under the
//     request's palette — is weighed against the server's global budget. A
//     request that could never fit is rejected with a structured
//     Error(OverBudget) naming both numbers instead of OOMing the server;
//     a full queue rejects with Error(QueueFull).
//   * Fair-share scheduling: solver threads pick the highest priority first,
//     then the tenant with the fewest dispatched solves (round-robin across
//     tenants under equal priority), then FIFO.
//   * Result cache: an LRU keyed by the canonical problem fingerprint
//     (api::problem_fingerprint — packed symplectic planes + solve-relevant
//     params). A repeated molecule is answered immediately with the cached
//     coloring, bit-identical to a fresh solve by the library's determinism
//     contract (the service tests pin it).
//   * Cancellation: a Cancel frame removes a queued request (freeing its
//     slot) or trips the running solve's StopSource; either way the client
//     gets Error(Cancelled) and a cancelled budgeted solve removes its
//     spill file on unwind.
//
// Threading: one accept thread, one reader thread per connection, and
// config.max_active_solves solver threads. request_stop() is safe from any
// thread (including a reader handling a Shutdown frame) — it only signals;
// stop() joins.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/session.hpp"
#include "runtime/thread_pool.hpp"
#include "service/wire.hpp"
#include "util/memory.hpp"

namespace picasso::service {

/// What admission does with a request whose projected peak exceeds the
/// server budget.
enum class AdmissionPolicy : std::uint8_t {
  /// Answer Error(OverBudget) naming both numbers (the default).
  Reject = 0,
  /// Re-plan a forced InMemory request as Fused and admit it if the fused
  /// frontier fits, reporting the downgrade in the result's `degraded`
  /// fields. Rejects when even the fused frontier cannot fit.
  Degrade = 1,
};

struct ServerConfig {
  /// "unix:/path/to.sock" or "tcp:host:port" (port 0 = ephemeral; read the
  /// actual one back from Server::address()).
  std::string listen = "tcp:127.0.0.1:0";
  /// Global budget over every concurrent solve (0 = unlimited). Installed
  /// on util::global_memory() for the server's lifetime and enforced at
  /// admission via the planner's projections.
  std::size_t memory_budget_bytes = 0;
  /// Workers in the one shared pool (0 = hardware concurrency, 1 = serial
  /// sessions with no pool).
  std::uint32_t num_threads = 0;
  /// Solver threads — concurrent solves in flight.
  std::uint32_t max_active_solves = 2;
  /// Bounded pending queue; requests beyond it get Error(QueueFull).
  std::size_t max_queue = 64;
  /// Result-cache capacity in entries (0 disables caching).
  std::size_t cache_capacity = 128;
  /// Spill directory every session is pointed at ("" = system temp).
  std::string spill_dir;
  /// Base solve parameters; per-request RemoteParams overlay onto a copy.
  core::PicassoParams base_params;
  /// Over-budget handling: hard reject (default) or degrade the plan.
  AdmissionPolicy admission = AdmissionPolicy::Reject;
  /// Reader-side idle timeout: a connection with no request in flight that
  /// starts no frame within this window is reaped (counted in
  /// stats.idle_disconnects), so a stalled peer can never pin a reader
  /// thread. A client quietly waiting on its own queued/active solve is
  /// never reaped. -1 = wait forever.
  int idle_timeout_ms = -1;
  /// Per-syscall send/recv timeout on accepted connections (-1 = blocking
  /// forever). Bounds how long a mid-frame stall can hold a reader.
  int io_timeout_ms = -1;
  /// Called on the solver thread each time a request leaves the queue, in
  /// dispatch order, before it runs; `stop` is the request's cancellation
  /// token (a Cancel for it is already honoured while the hook runs). For
  /// dispatch logging and tests; must not throw. Empty = no hook.
  std::function<void(const SolveRequestMsg& request,
                     const core::StopToken& stop)>
      on_dispatch;
};

class Server {
 public:
  Server() = default;
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listener and spawns the accept + solver threads. Throws
  /// WireError when the address cannot be bound.
  void start(const ServerConfig& config);

  /// The bound address (with the kernel-assigned port for tcp port 0).
  const std::string& address() const noexcept { return address_; }

  /// Signal-only shutdown: closes the listener, wakes every blocked thread,
  /// stops active solves and answers queued requests with ShuttingDown.
  /// Safe from any thread — never joins (a reader thread handling a
  /// Shutdown frame calls this on itself).
  void request_stop() noexcept;

  /// Blocks until request_stop() has been called (daemon main loop).
  void wait_until_stop_requested();

  /// request_stop() + join every thread + close every connection. Idempotent.
  void stop();

  bool running() const noexcept {
    return started_ && !stopping_.load(std::memory_order_acquire);
  }

  StatsMsg stats() const;

 private:
  struct ClientConn {
    Connection conn;
    std::mutex write_mu;
    std::atomic<bool> open{true};
    /// Server counter bumped when a reply write finds the peer gone
    /// (EPIPE/ECONNRESET) — benign, not an error.
    std::atomic<std::uint64_t>* disconnect_counter = nullptr;

    /// Serialized frame write; marks the connection closed on failure
    /// (peer hung up) instead of throwing into the solver.
    void send(FrameType type, const std::vector<std::uint8_t>& payload);
  };

  struct Request {
    std::uint64_t seq = 0;  // FIFO tiebreaker
    SolveRequestMsg msg;
    std::uint64_t problem_hash = 0;
    std::shared_ptr<ClientConn> conn;
    core::StopSource stop;  // armed at admission: Cancel reaches queued
                            // and running requests the same way
    std::atomic<bool> cancelled{false};
    /// Absolute deadline armed at admission when deadline_ms > 0; checked
    /// before dispatch and at every progress event during the solve.
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
    std::atomic<bool> deadline_hit{false};
    /// Set when Degrade admission re-planned this request as Fused.
    bool degraded = false;
    std::string degraded_reason;
  };

  struct CacheEntry {
    std::uint64_t problem_hash = 0;
    /// The problem's shape, checked on lookup: a request whose hash
    /// collides with a differently shaped problem counts as a miss.
    std::size_t num_vertices = 0;
    std::size_t num_qubits = 0;
    std::uint64_t coloring_hash = 0;
    std::uint32_t num_colors = 0;
    std::uint32_t palette_total = 0;
    std::uint32_t iterations = 0;
    std::vector<std::uint32_t> colors;
  };

  void accept_loop();
  void reader_loop(std::shared_ptr<ClientConn> conn);
  void solver_loop();

  /// True when `conn` has a queued or active request — such a connection is
  /// legitimately quiet (waiting on its solve) and exempt from the idle
  /// timeout.
  bool conn_busy(const std::shared_ptr<ClientConn>& conn) const;

  void handle_solve_request(const std::shared_ptr<ClientConn>& conn,
                            const std::vector<std::uint8_t>& payload);
  void handle_cancel(const std::shared_ptr<ClientConn>& conn,
                     std::uint64_t id);

  /// Fair-share pick from pending_ (caller holds queue_mu_): highest
  /// priority, then fewest dispatched solves for the tenant, then seq.
  std::size_t pick_next_locked() const;

  void execute(const std::shared_ptr<Request>& request);

  api::Session session_for(const RemoteParams& params) const;

  /// The entry cached for `problem_hash` when its shape matches `records`
  /// (and bumps it to most recent), else null. Entries are immutable and
  /// shared, so a reply encodes from one without copying it and a
  /// concurrent eviction cannot free it mid-reply.
  std::shared_ptr<const CacheEntry> cache_lookup(
      std::uint64_t problem_hash, const pauli::PauliSet& records);
  void cache_insert(std::shared_ptr<const CacheEntry> entry);

  void send_error(const std::shared_ptr<ClientConn>& conn, std::uint64_t id,
                  ServiceErrorCode code, const std::string& message);
  void send_result(const std::shared_ptr<ClientConn>& conn, std::uint64_t id,
                   const CacheEntry& entry, bool cache_hit, double seconds,
                   bool degraded = false,
                   const std::string& degraded_reason = std::string());

  std::size_t live_spill_files() const;

  ServerConfig config_;
  std::string address_;
  bool started_ = false;

  Listener listener_;
  std::unique_ptr<runtime::ThreadPool> pool_;
  /// Holds the global budget + rebased peaks for the server's lifetime;
  /// per-solve MemoryRunScopes nest inside it as no-ops.
  std::unique_ptr<util::MemoryRunScope> run_scope_;
  std::string spill_dir_;  // resolved (never empty once started)

  std::thread accept_thread_;
  std::vector<std::thread> solver_threads_;
  std::mutex conns_mu_;
  std::vector<std::shared_ptr<ClientConn>> conns_;
  std::vector<std::thread> reader_threads_;

  std::atomic<bool> stopping_{false};
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::vector<std::shared_ptr<Request>> pending_;
  std::vector<std::shared_ptr<Request>> active_;
  std::uint64_t next_seq_ = 0;
  /// Solves dispatched per tenant — the fair-share denominator.
  std::map<std::string, std::uint64_t> tenant_dispatched_;

  mutable std::mutex cache_mu_;
  using CacheList = std::list<std::shared_ptr<const CacheEntry>>;
  CacheList cache_lru_;  // front = most recent
  std::unordered_map<std::uint64_t, CacheList::iterator> cache_index_;

  // Stats counters (relaxed atomics; snapshot() assembles a StatsMsg).
  std::atomic<std::uint64_t> stat_received_{0};
  std::atomic<std::uint64_t> stat_completed_{0};
  std::atomic<std::uint64_t> stat_cache_hits_{0};
  std::atomic<std::uint64_t> stat_cache_misses_{0};
  std::atomic<std::uint64_t> stat_rejected_over_budget_{0};
  std::atomic<std::uint64_t> stat_rejected_queue_full_{0};
  std::atomic<std::uint64_t> stat_cancelled_{0};
  std::atomic<std::uint64_t> stat_client_disconnects_{0};
  std::atomic<std::uint64_t> stat_idle_disconnects_{0};
  std::atomic<std::uint64_t> stat_deadline_exceeded_{0};
  std::atomic<std::uint64_t> stat_degraded_{0};
  std::atomic<std::uint64_t> stat_orphans_swept_{0};
};

}  // namespace picasso::service
