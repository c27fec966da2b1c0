#pragma once
// Wire protocol of the coloring service.
//
// Length-prefixed binary frames over a stream socket (Unix or TCP):
//
//     [u32 LE payload_len][u8 frame_type][payload_len bytes]
//
// All integers are little-endian; doubles travel as their IEEE-754 bit
// pattern in a u64. Strings and blobs are u32-length-prefixed byte runs.
// The protocol is deliberately version-gated: every SolveRequest leads with
// kProtocolVersion and the server rejects mismatches with BadRequest
// instead of guessing.
//
// Frame flow: a client sends SolveRequest and then reads frames until it
// sees Result or Error for its request id — Progress frames may interleave
// (only when the request asked for them). Cancel may be written at any
// time; the server answers the cancelled request with Error(Cancelled).
// One connection may carry many requests; ids are client-chosen and echoed
// back, so responses are attributable even when they interleave.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/solve_control.hpp"
#include "pauli/pauli_set.hpp"

namespace picasso::service {

/// Version 2 added deadline_ms to SolveRequest, degradation info to Result,
/// and the fault-tolerance counters to StatsReply. Version 3 (API 8.0)
/// carries a request's Pauli strings in the trimmed-plane record layout
/// (pauli_set.hpp) instead of 3-bit words; no earlier version is accepted.
inline constexpr std::uint32_t kProtocolVersion = 3;
inline constexpr std::uint32_t kMinProtocolVersion = 3;

/// Hard cap on one frame's payload — a malformed or hostile length prefix
/// must not become a multi-gigabyte allocation.
inline constexpr std::uint32_t kMaxFrameBytes = 256u << 20;

enum class FrameType : std::uint8_t {
  // client -> server
  SolveRequest = 1,
  Cancel = 2,
  Stats = 3,
  Shutdown = 4,
  // server -> client
  Progress = 10,
  Result = 11,
  Error = 12,
  StatsReply = 13,
};

/// Structured rejection codes — the machine-readable half of an Error
/// frame (the message half is for humans).
enum class ServiceErrorCode : std::uint8_t {
  BadRequest = 1,     // malformed frame / protocol mismatch / bad params
  OverBudget = 2,     // projected peak exceeds the server's global budget
  QueueFull = 3,      // bounded queue at capacity
  Cancelled = 4,         // client-initiated cancellation won
  ShuttingDown = 5,      // server is draining; request not accepted
  Internal = 6,          // solve threw something unexpected
  DeadlineExceeded = 7,  // the request's deadline_ms elapsed first
  StorageFull = 8,       // spill device full and no fallback was possible
};

/// Which codes a client may safely resubmit: the failure was about server
/// state at one moment, not about the request itself, and the
/// fingerprint-keyed result cache makes the retry idempotent.
inline bool is_retryable(ServiceErrorCode code) noexcept {
  return code == ServiceErrorCode::QueueFull ||
         code == ServiceErrorCode::StorageFull;
}

const char* to_string(ServiceErrorCode code) noexcept;

/// Malformed input while decoding a frame (truncated payload, bad string
/// length, protocol mismatch). The server maps it to Error(BadRequest);
/// the client surfaces it.
struct WireError : std::runtime_error {
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// A configured idle/io timeout elapsed. Subclassed so the server can tell
/// "stalled peer — drop it quietly" from "malformed or torn frame".
struct WireTimeout : WireError {
  explicit WireTimeout(const std::string& what) : WireError(what) {}
};

/// The peer vanished (EPIPE/ECONNRESET). A normal fact of life for a
/// server — clients crash or lose interest mid-reply — so it is counted in
/// stats, never treated as an error worth logging.
struct WireDisconnect : WireError {
  explicit WireDisconnect(const std::string& what) : WireError(what) {}
};

/// A well-formed request frame asking for something the API no longer
/// has. Carries the request id so the server's BadRequest answers that
/// request rather than a malformed frame.
struct RetiredRequestField : WireError {
  RetiredRequestField(std::uint64_t request_id, const std::string& what)
      : WireError(what), id(request_id) {}
  std::uint64_t id;
};

struct Frame {
  FrameType type = FrameType::Error;
  std::vector<std::uint8_t> payload;
};

// --------------------------------------------------------------------------
// Payload encoding.

class WireWriter {
 public:
  void reserve(std::size_t bytes) { buf_.reserve(bytes); }
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  /// Consecutive u32s with no length prefix, in one bulk copy on a
  /// little-endian host.
  void u32s(std::span<const std::uint32_t> values);
  void str(const std::string& s);
  /// Writes a u32 length prefix and returns the `len` bytes after it for
  /// the caller to fill (valid until the next write).
  std::span<std::uint8_t> bytes(std::size_t len);

  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  template <typename T>
  void put_le(T v) {
    std::uint8_t le[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      le[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    buf_.insert(buf_.end(), le, le + sizeof(T));
  }

  std::vector<std::uint8_t> buf_;
};

/// Reads a payload in place; views it returns borrow the payload.
class WireReader {
 public:
  explicit WireReader(const std::vector<std::uint8_t>& payload)
      : data_(payload.data()), size_(payload.size()) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  /// `out.size()` consecutive u32s after one bounds check.
  void u32s(std::span<std::uint32_t> out);
  std::string str();
  /// A u32-length-prefixed blob, viewed in the payload without a copy.
  std::span<const std::uint8_t> bytes();

  std::size_t remaining() const noexcept { return size_ - pos_; }

 private:
  void need(std::size_t n) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// --------------------------------------------------------------------------
// Messages.

/// Solve-relevant parameters a request carries. Deliberately the subset of
/// core::PicassoParams that travels well: hooks, the runtime config and
/// tracing stay server-side concerns.
struct RemoteParams {
  double palette_percent = 12.5;
  double alpha = 2.0;
  std::uint64_t seed = 1;
  std::int32_t max_iterations = 64;
  std::uint8_t strategy = 0;      // api::ExecutionStrategy numeric value
                                  // (2, 4 and 6 are retired:
                                  // answered BadRequest)
  std::uint64_t memory_budget_bytes = 0;
  bool want_progress = false;
  /// Wall-clock budget for the whole request measured from admission; the
  /// server answers Error(DeadlineExceeded) once it elapses (checked at
  /// iteration/bucket boundaries through the solve's stop token). 0 = none.
  std::uint64_t deadline_ms = 0;
};

struct SolveRequestMsg {
  std::uint64_t id = 0;
  std::string tenant;
  std::uint32_t priority = 0;  // higher runs first
  RemoteParams params;
  pauli::PauliSet records;
};

struct ProgressMsg {
  std::uint64_t id = 0;
  std::uint8_t stage = 0;  // core::ProgressStage numeric value
  std::int32_t iteration = 0;
  std::uint32_t n_active = 0;
  std::uint32_t colored = 0;
  std::uint32_t uncolored = 0;
  std::uint64_t conflict_edges = 0;
};

struct ResultMsg {
  std::uint64_t id = 0;
  bool cache_hit = false;
  std::uint64_t problem_hash = 0;
  std::uint64_t coloring_hash = 0;
  std::uint32_t num_colors = 0;
  std::uint32_t palette_total = 0;
  std::uint32_t iterations = 0;
  double seconds = 0.0;
  /// Graceful degradation report: the solve completed, but by a cheaper
  /// route than requested/planned (admission downgraded the strategy, or
  /// a spill ENOSPC forced an in-memory fallback).
  bool degraded = false;
  std::string degraded_reason;
  std::vector<std::uint32_t> colors;
};

struct ErrorMsg {
  std::uint64_t id = 0;  // 0 = not attributable to a request
  ServiceErrorCode code = ServiceErrorCode::Internal;
  std::string message;
};

struct StatsMsg {
  std::uint64_t received = 0;
  std::uint64_t completed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t rejected_over_budget = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t active = 0;
  std::uint64_t queued = 0;
  std::uint64_t spill_files_live = 0;
  // Fault-tolerance counters (since protocol v2).
  std::uint64_t client_disconnects = 0;   // EPIPE/ECONNRESET on replies
  std::uint64_t idle_disconnects = 0;     // stalled peers reaped by timeout
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t degraded = 0;             // solves that completed degraded
  std::uint64_t orphan_spills_swept = 0;  // janitor removals at startup
};

std::vector<std::uint8_t> encode_solve_request(const SolveRequestMsg& msg);
/// Encodes `msg` with `records` in place of msg.records, so a client can
/// send records it does not own without copying them into the message.
std::vector<std::uint8_t> encode_solve_request(const SolveRequestMsg& msg,
                                               const pauli::PauliSet& records);
/// Throws WireError on a malformed payload, and RetiredRequestField on an
/// otherwise valid frame with a nonzero backend byte: the frame keeps that
/// byte, but the Pauli backend selector it carried was removed in API 4.0,
/// so the server answers such a request BadRequest.
SolveRequestMsg decode_solve_request(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_cancel(std::uint64_t id);
std::uint64_t decode_cancel(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_progress(const ProgressMsg& msg);
ProgressMsg decode_progress(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_result(const ResultMsg& msg);
/// Encodes `msg` with `colors` in place of msg.colors, so a reply can be
/// written from colors held elsewhere (the server's result cache) without
/// copying them into the message first.
std::vector<std::uint8_t> encode_result(const ResultMsg& msg,
                                        std::span<const std::uint32_t> colors);
ResultMsg decode_result(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_error(const ErrorMsg& msg);
ErrorMsg decode_error(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_stats(const StatsMsg& msg);
StatsMsg decode_stats(const std::vector<std::uint8_t>& payload);

// --------------------------------------------------------------------------
// Stream sockets. Address syntax: "unix:/path/to.sock" or "tcp:host:port"
// (tcp port 0 binds an ephemeral port; Listener::address() reports the
// actual one — how tests avoid port races).

/// Owning fd wrapper for one connected stream socket. Reads and writes are
/// whole-frame and retry EINTR/short transfers. Thread contract: one reader
/// thread; concurrent writers must serialize externally (Client and the
/// server's per-connection write mutex both do).
class Connection {
 public:
  Connection() = default;
  explicit Connection(int fd) : fd_(fd) {}
  ~Connection();
  Connection(Connection&& other) noexcept;
  Connection& operator=(Connection&& other) noexcept;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  static Connection connect(const std::string& address);

  bool valid() const noexcept { return fd_ >= 0; }

  /// Millisecond timeouts so a stalled peer can never pin a thread:
  /// `idle_ms` bounds the wait for the NEXT frame to start (poll before the
  /// length prefix), `io_ms` bounds every subsequent send/recv making
  /// progress mid-frame (SO_RCVTIMEO/SO_SNDTIMEO). Expiry throws
  /// WireTimeout. -1 (the default) blocks forever — the client-side
  /// behavior, where a solve legitimately takes as long as it takes.
  void set_timeouts(int idle_ms, int io_ms) noexcept;

  /// False on clean EOF at a frame boundary; throws WireError on a torn
  /// frame or socket error, WireTimeout when a configured timeout elapses.
  bool read_frame(Frame& frame);
  void write_frame(FrameType type, const std::vector<std::uint8_t>& payload);

  /// Shuts down both directions — unblocks a reader stuck in read_frame on
  /// another thread (used for server-initiated close).
  void shutdown() noexcept;
  void close() noexcept;

 private:
  int fd_ = -1;
  int idle_timeout_ms_ = -1;
};

class Listener {
 public:
  Listener() = default;
  ~Listener();
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  static Listener listen(const std::string& address);

  /// Blocks for the next client; invalid Connection when the listener was
  /// closed under it (the accept loop's shutdown signal).
  Connection accept();

  /// The bound address in the same syntax listen() takes — for tcp with
  /// port 0 this carries the kernel-assigned port.
  const std::string& address() const noexcept { return address_; }

  /// Wakes a thread blocked in accept() (it returns an invalid Connection)
  /// WITHOUT releasing the fd — the owner joins the accept thread first and
  /// close()s after, so the fd number cannot be recycled under the racer.
  void shutdown() noexcept;

  void close() noexcept;
  bool valid() const noexcept { return fd_ >= 0; }

 private:
  int fd_ = -1;
  std::string address_;
  std::string unix_path_;  // unlinked on close
};

}  // namespace picasso::service
