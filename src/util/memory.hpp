#pragma once
// Memory accounting.
//
// The paper's Table IV compares "maximum resident set size" across tools that
// each run as their own process. Inside a single benchmark process RSS is a
// high-water mark that never decreases, so comparing algorithms run
// back-to-back through RSS alone would charge later algorithms for earlier
// ones. We therefore track *logical* bytes: the process-wide MemoryRegistry
// keeps per-subsystem high-water marks (Pauli input, chunk cache, color
// lists, conflict CSR, coloring auxiliaries, ML features, fused frontier,
// spill files) plus an optional hard budget, and a run scope rebases them so
// each run reports its own peaks. The budgeted streaming pipeline sizes its
// chunk cache against the registry's headroom, and every bench can snapshot
// it into a machine-readable MemoryReport. peak_rss_bytes() is still exposed
// for whole-process context.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace picasso::util {

/// The subsystems whose dominant allocations are charged to the registry.
/// Keep to_string() and kNumMemSubsystems in sync when extending.
enum class MemSubsystem : unsigned {
  PauliInput,    // encoded Pauli strings resident in full
  ChunkCache,    // streamed Pauli chunks resident under a budget
  PaletteLists,  // one iteration's color lists
  ConflictCsr,   // conflict-graph COO staging + CSR arrays
  ColoringAux,   // list-coloring buckets / heaps / marks
  MlFeatures,    // ML predictor feature/label matrices
  FusedFrontier, // fused engine: color index + working lists + bucket queue
  Spill,         // bytes written to spill files on disk
};
inline constexpr std::size_t kNumMemSubsystems = 8;

const char* to_string(MemSubsystem s) noexcept;

/// Point-in-time view of a MemoryRegistry (plain values, safe to copy).
struct MemorySnapshot {
  std::size_t budget_bytes = 0;  // 0 = unlimited
  std::size_t current_bytes = 0;
  std::size_t peak_bytes = 0;    // peak of the tracked total
  std::uint64_t over_budget_events = 0;
  std::array<std::size_t, kNumMemSubsystems> subsystem_current{};
  std::array<std::size_t, kNumMemSubsystems> subsystem_peak{};
};

/// Process-wide, thread-safe high-water-mark accounting per subsystem, with
/// an optional hard budget. charge()/release() are relaxed atomics cheap
/// enough for per-allocation use on hot paths; peaks are maintained with CAS
/// maxima. The budget is advisory for charge() (an over-budget charge is
/// counted, not blocked — the caller already owns the memory) and binding
/// for try_charge() (cache admission).
class MemoryRegistry {
 public:
  void charge(MemSubsystem sub, std::size_t bytes) noexcept;
  void release(MemSubsystem sub, std::size_t bytes) noexcept;

  /// Charges only if a budget is set and current + bytes stays within it
  /// (always charges when no budget is set). Returns whether it charged.
  bool try_charge(MemSubsystem sub, std::size_t bytes) noexcept;

  /// Folds an externally tracked peak (e.g. a list colorer's auxiliary
  /// high-water mark) into the subsystem and total peaks without changing
  /// current levels.
  void record_external_peak(MemSubsystem sub, std::size_t peak) noexcept;

  void set_budget(std::size_t bytes) noexcept {
    budget_.store(bytes, std::memory_order_relaxed);
  }
  std::size_t budget_bytes() const noexcept {
    return budget_.load(std::memory_order_relaxed);
  }
  /// Bytes left under the budget (saturating at 0); SIZE_MAX when unlimited.
  std::size_t headroom_bytes() const noexcept;

  std::size_t current_bytes() const noexcept {
    return total_current_.load(std::memory_order_relaxed);
  }
  std::size_t peak_bytes() const noexcept {
    return total_peak_.load(std::memory_order_relaxed);
  }

  /// Rebase every peak to the current level (start of an algorithm run).
  void reset_peaks() noexcept;

  MemorySnapshot snapshot() const noexcept;

  /// Run-scope nesting depth (see MemoryRunScope). Kept on the registry,
  /// not per thread, so concurrent runs sharing one registry cannot both
  /// believe they are outermost and clobber each other's budget and peaks.
  int enter_run() noexcept {
    return run_depth_.fetch_add(1, std::memory_order_relaxed);
  }
  void exit_run() noexcept {
    run_depth_.fetch_sub(1, std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::atomic<std::size_t> current{0};
    std::atomic<std::size_t> peak{0};
  };
  static void raise_peak(std::atomic<std::size_t>& peak,
                         std::size_t value) noexcept;

  std::array<Slot, kNumMemSubsystems> slots_{};
  std::atomic<std::size_t> total_current_{0};
  std::atomic<std::size_t> total_peak_{0};
  std::atomic<std::size_t> budget_{0};
  std::atomic<std::uint64_t> over_budget_events_{0};
  std::atomic<int> run_depth_{0};
};

/// The process-wide registry every subsystem charges by default.
MemoryRegistry& global_memory();

/// RAII charge against a registry; resize() re-charges the delta (for
/// structures that grow while registered).
class ScopedCharge {
 public:
  ScopedCharge() = default;
  ScopedCharge(MemSubsystem sub, std::size_t bytes,
               MemoryRegistry& registry = global_memory()) noexcept
      : registry_(&registry), sub_(sub), bytes_(bytes) {
    registry_->charge(sub_, bytes_);
  }
  ~ScopedCharge() {
    if (registry_ != nullptr) registry_->release(sub_, bytes_);
  }
  ScopedCharge(const ScopedCharge&) = delete;
  ScopedCharge& operator=(const ScopedCharge&) = delete;
  ScopedCharge(ScopedCharge&& other) noexcept { *this = std::move(other); }
  ScopedCharge& operator=(ScopedCharge&& other) noexcept {
    if (this != &other) {
      if (registry_ != nullptr) registry_->release(sub_, bytes_);
      registry_ = other.registry_;
      sub_ = other.sub_;
      bytes_ = other.bytes_;
      other.registry_ = nullptr;
    }
    return *this;
  }

  void resize(std::size_t bytes) noexcept {
    if (registry_ == nullptr) return;
    if (bytes > bytes_) {
      registry_->charge(sub_, bytes - bytes_);
    } else {
      registry_->release(sub_, bytes_ - bytes);
    }
    bytes_ = bytes;
  }

  std::size_t bytes() const noexcept { return bytes_; }

 private:
  MemoryRegistry* registry_ = nullptr;
  MemSubsystem sub_ = MemSubsystem::PauliInput;
  std::size_t bytes_ = 0;
};

/// Guard for one algorithm run: the registry's outermost scope rebases its
/// peaks and installs `budget_bytes` (restoring the previous budget on
/// exit); nested scopes — an engine layered under another's scope, or a
/// concurrent run on another thread — are no-ops, so the outermost run's
/// budget and accumulated peaks are never clobbered.
/// Snapshot the registry before the scope dies to read the run's peaks.
class MemoryRunScope {
 public:
  explicit MemoryRunScope(std::size_t budget_bytes,
                          MemoryRegistry& registry = global_memory()) noexcept;
  ~MemoryRunScope();
  MemoryRunScope(const MemoryRunScope&) = delete;
  MemoryRunScope& operator=(const MemoryRunScope&) = delete;

  bool outermost() const noexcept { return outermost_; }

 private:
  MemoryRegistry* registry_;
  std::size_t saved_budget_ = 0;
  bool outermost_ = false;
};

/// Peak resident set size of the calling process, in bytes (getrusage).
std::size_t peak_rss_bytes() noexcept;

/// Pretty-prints a byte count ("1.24 GB", "87.1 MB", ...).
const char* format_bytes(std::size_t bytes, char* buf, std::size_t buflen);

}  // namespace picasso::util
