#include "service/client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

namespace picasso::service {

Client Client::connect(const std::string& address) {
  return Client(Connection::connect(address));
}

RemoteResult Client::solve(const pauli::PauliSet& records,
                           const RemoteParams& params,
                           const std::string& tenant, std::uint32_t priority,
                           const ProgressHandler& on_progress) {
  SolveRequestMsg msg;
  msg.id = next_id_++;
  msg.tenant = tenant;
  msg.priority = priority;
  msg.params = params;
  msg.params.want_progress = on_progress != nullptr;

  inflight_id_.store(msg.id, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    conn_.write_frame(FrameType::SolveRequest,
                      encode_solve_request(msg, records));
  }

  RemoteResult outcome;
  Frame frame;
  while (true) {
    if (!conn_.read_frame(frame)) {
      inflight_id_.store(0, std::memory_order_release);
      throw WireError("server closed the connection before replying");
    }
    switch (frame.type) {
      case FrameType::Progress: {
        const ProgressMsg progress = decode_progress(frame.payload);
        if (progress.id == msg.id && on_progress) on_progress(progress);
        break;
      }
      case FrameType::Result: {
        ResultMsg result = decode_result(frame.payload);
        if (result.id != msg.id) break;  // stale frame from a past request
        outcome.ok = true;
        outcome.result = std::move(result);
        inflight_id_.store(0, std::memory_order_release);
        return outcome;
      }
      case FrameType::Error: {
        const ErrorMsg error = decode_error(frame.payload);
        if (error.id != msg.id && error.id != 0) break;
        outcome.ok = false;
        outcome.error_code = error.code;
        outcome.error_message = error.message;
        inflight_id_.store(0, std::memory_order_release);
        return outcome;
      }
      default:
        break;  // StatsReply for an interleaved stats() is impossible here
                // (one request in flight per client), ignore defensively
    }
  }
}

void Client::request_cancel() {
  const std::uint64_t id = inflight_id_.load(std::memory_order_acquire);
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(write_mu_);
  conn_.write_frame(FrameType::Cancel, encode_cancel(id));
}

StatsMsg Client::stats() {
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    conn_.write_frame(FrameType::Stats, {});
  }
  Frame frame;
  while (true) {
    if (!conn_.read_frame(frame)) {
      throw WireError("server closed the connection before stats reply");
    }
    if (frame.type == FrameType::StatsReply) {
      return decode_stats(frame.payload);
    }
    // Skip any stale progress frames from a cancelled request.
  }
}

void Client::shutdown_server() {
  std::lock_guard<std::mutex> lock(write_mu_);
  conn_.write_frame(FrameType::Shutdown, {});
}

namespace {

/// splitmix64 — a tiny, seedable mixer; good enough to decorrelate backoff
/// sleeps without dragging in <random> state.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t backoff_ms_for(const RetryPolicy& policy,
                             std::uint32_t attempt) {
  double backoff = static_cast<double>(policy.initial_backoff_ms);
  for (std::uint32_t i = 1; i < attempt; ++i) backoff *= policy.multiplier;
  backoff = std::min(backoff, static_cast<double>(policy.max_backoff_ms));
  if (policy.jitter_pct > 0) {
    const std::uint64_t r = mix64(policy.jitter_seed ^ attempt);
    const std::uint64_t span = 2ull * policy.jitter_pct + 1;
    const double pct =
        static_cast<double>(100 - policy.jitter_pct + (r % span)) / 100.0;
    backoff *= pct;
  }
  return static_cast<std::uint64_t>(backoff);
}

}  // namespace

RemoteResult solve_with_retry(const std::string& address,
                              const pauli::PauliSet& records,
                              const RemoteParams& params,
                              const RetryPolicy& policy,
                              const std::string& tenant,
                              std::uint32_t priority,
                              const ProgressHandler& on_progress) {
  const std::uint32_t attempts = std::max(1u, policy.max_attempts);
  for (std::uint32_t attempt = 1;; ++attempt) {
    try {
      Client client = Client::connect(address);
      RemoteResult outcome =
          client.solve(records, params, tenant, priority, on_progress);
      outcome.attempts = attempt;
      if (outcome.ok || !is_retryable(outcome.error_code) ||
          attempt >= attempts) {
        return outcome;
      }
    } catch (const WireError&) {
      // Transport failure: connect refused, torn mid-frame, timed out.
      // The request is idempotent (result-cache contract), so retry.
      if (attempt >= attempts) throw;
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(backoff_ms_for(policy, attempt)));
  }
}

}  // namespace picasso::service
