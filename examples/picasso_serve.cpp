// picasso_serve — the long-running multi-tenant coloring daemon.
//
// Owns one thread pool, one global memory budget and one spill directory
// for the whole process and serves solve requests over a Unix or TCP
// socket (see src/service/wire.hpp for the frame spec). Repeated problems
// are answered from the result cache; requests whose projected peak would
// blow the budget are rejected with a structured over-budget error.
//
//   picasso_serve --listen unix:/tmp/picasso.sock --budget 268435456
//
// Flags:
//   --listen ADDR      unix:/path or tcp:host:port (default tcp:127.0.0.1:0,
//                      an ephemeral port printed on startup)
//   --budget BYTES     global memory budget across all solves (0 = unlimited)
//   --threads N        workers in the shared pool (0 = hardware, 1 = serial)
//   --max-active N     concurrent solves (default 2)
//   --queue N          bounded pending-queue depth (default 64)
//   --cache N          result-cache capacity in entries (default 128)
//   --spill-dir PATH   spill directory (default <tmp>/picasso_serve)
//   --admission MODE   reject (default) or degrade: re-plan an over-budget
//                      in-memory request as fused and report the downgrade
//                      instead of rejecting
//   --idle-timeout MS  reap connections with nothing in flight that start
//                      no frame within MS (-1 = never, the default)
//   --io-timeout MS    per-send/recv stall bound on connections (-1 = none)
//
// Prints exactly one "listening on ADDR" line to stdout once ready (how
// scripts learn the ephemeral port), then serves until SIGINT/SIGTERM or a
// client Shutdown frame; exits 0 after a clean drain with a stats summary
// on stderr.

#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#include "service/server.hpp"

namespace {

using picasso::service::Server;
using picasso::service::ServerConfig;

const char* kUsage =
    "usage: picasso_serve [--listen ADDR] [--budget BYTES] [--threads N] "
    "[--max-active N] [--queue N] [--cache N] [--spill-dir PATH] "
    "[--admission reject|degrade] [--idle-timeout MS] [--io-timeout MS]";

std::uint64_t parse_u64(const char* flag, const char* text) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') {
    throw std::invalid_argument(std::string(flag) +
                                " expects an integer, got '" + text + "'");
  }
  return value;
}

int parse_timeout_ms(const char* flag, const char* text) {
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || value < -1) {
    throw std::invalid_argument(std::string(flag) +
                                " expects milliseconds or -1, got '" + text +
                                "'");
  }
  return static_cast<int>(value);
}

}  // namespace

int main(int argc, char** argv) {
  ServerConfig config;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&](const char* flag) -> const char* {
        if (i + 1 >= argc) {
          throw std::invalid_argument(std::string("missing value for ") +
                                      flag);
        }
        return argv[++i];
      };
      if (arg == "--listen") {
        config.listen = next("--listen");
      } else if (arg == "--budget") {
        config.memory_budget_bytes =
            static_cast<std::size_t>(parse_u64("--budget", next("--budget")));
      } else if (arg == "--threads") {
        config.num_threads = static_cast<std::uint32_t>(
            parse_u64("--threads", next("--threads")));
      } else if (arg == "--max-active") {
        config.max_active_solves = static_cast<std::uint32_t>(
            parse_u64("--max-active", next("--max-active")));
      } else if (arg == "--queue") {
        config.max_queue =
            static_cast<std::size_t>(parse_u64("--queue", next("--queue")));
      } else if (arg == "--cache") {
        config.cache_capacity =
            static_cast<std::size_t>(parse_u64("--cache", next("--cache")));
      } else if (arg == "--spill-dir") {
        config.spill_dir = next("--spill-dir");
      } else if (arg == "--admission") {
        const std::string mode = next("--admission");
        if (mode == "reject") {
          config.admission = picasso::service::AdmissionPolicy::Reject;
        } else if (mode == "degrade") {
          config.admission = picasso::service::AdmissionPolicy::Degrade;
        } else {
          throw std::invalid_argument(
              "--admission expects 'reject' or 'degrade', got '" + mode +
              "'");
        }
      } else if (arg == "--idle-timeout") {
        config.idle_timeout_ms =
            parse_timeout_ms("--idle-timeout", next("--idle-timeout"));
      } else if (arg == "--io-timeout") {
        config.io_timeout_ms =
            parse_timeout_ms("--io-timeout", next("--io-timeout"));
      } else {
        throw std::invalid_argument("unknown argument '" + arg + "'");
      }
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "picasso_serve: %s\n%s\n", e.what(), kUsage);
    return 2;
  }

  // Field SIGINT/SIGTERM on a dedicated sigwait thread — signal-handler
  // safety without restricting request_stop to async-signal-safe calls.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  Server server;
  try {
    server.start(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "picasso_serve: error: %s\n", e.what());
    return 1;
  }

  std::thread signal_thread([&signals, &server] {
    int sig = 0;
    sigwait(&signals, &sig);
    std::fprintf(stderr, "picasso_serve: signal %d, draining\n", sig);
    server.request_stop();
  });

  std::printf("picasso_serve: listening on %s\n", server.address().c_str());
  std::fflush(stdout);

  server.wait_until_stop_requested();
  const picasso::service::StatsMsg stats = server.stats();
  server.stop();
  // Unblock the sigwait thread if the stop came from a Shutdown frame.
  pthread_kill(signal_thread.native_handle(), SIGTERM);
  signal_thread.join();

  std::fprintf(stderr,
               "picasso_serve: served %llu requests (%llu solved, %llu cache "
               "hits, %llu over-budget, %llu queue-full, %llu cancelled, "
               "%llu deadline-exceeded, %llu degraded, %llu client-gone, "
               "%llu idle-reaped, %llu orphan-spills-swept)\n",
               static_cast<unsigned long long>(stats.received),
               static_cast<unsigned long long>(stats.completed),
               static_cast<unsigned long long>(stats.cache_hits),
               static_cast<unsigned long long>(stats.rejected_over_budget),
               static_cast<unsigned long long>(stats.rejected_queue_full),
               static_cast<unsigned long long>(stats.cancelled),
               static_cast<unsigned long long>(stats.deadline_exceeded),
               static_cast<unsigned long long>(stats.degraded),
               static_cast<unsigned long long>(stats.client_disconnects),
               static_cast<unsigned long long>(stats.idle_disconnects),
               static_cast<unsigned long long>(stats.orphan_spills_swept));
  return 0;
}
