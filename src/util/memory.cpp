#include "util/memory.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <limits>

#include "util/failpoint.hpp"

namespace picasso::util {

const char* to_string(MemSubsystem s) noexcept {
  switch (s) {
    case MemSubsystem::PauliInput: return "pauli_input";
    case MemSubsystem::ChunkCache: return "chunk_cache";
    case MemSubsystem::PaletteLists: return "palette_lists";
    case MemSubsystem::ConflictCsr: return "conflict_csr";
    case MemSubsystem::ColoringAux: return "coloring_aux";
    case MemSubsystem::MlFeatures: return "ml_features";
    case MemSubsystem::FusedFrontier: return "fused_frontier";
    case MemSubsystem::Spill: return "spill";
  }
  return "?";
}

void MemoryRegistry::raise_peak(std::atomic<std::size_t>& peak,
                                std::size_t value) noexcept {
  std::size_t seen = peak.load(std::memory_order_relaxed);
  while (seen < value &&
         !peak.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

void MemoryRegistry::charge(MemSubsystem sub, std::size_t bytes) noexcept {
  Slot& slot = slots_[static_cast<unsigned>(sub)];
  const std::size_t sub_now =
      slot.current.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  raise_peak(slot.peak, sub_now);
  const std::size_t total_now =
      total_current_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  raise_peak(total_peak_, total_now);
  const std::size_t budget = budget_.load(std::memory_order_relaxed);
  if (budget != 0 && total_now > budget) {
    over_budget_events_.fetch_add(1, std::memory_order_relaxed);
  }
}

void MemoryRegistry::release(MemSubsystem sub, std::size_t bytes) noexcept {
  Slot& slot = slots_[static_cast<unsigned>(sub)];
  slot.current.fetch_sub(bytes, std::memory_order_relaxed);
  total_current_.fetch_sub(bytes, std::memory_order_relaxed);
}

bool MemoryRegistry::try_charge(MemSubsystem sub, std::size_t bytes) noexcept {
  if (failpoints::any_armed() && failpoints::triggered("memory.charge")) {
    // Injected admission failure: behaves exactly like a full budget, so
    // every caller's denial path (cache fallback, degradation) is exercised.
    return false;
  }
  const std::size_t budget = budget_.load(std::memory_order_relaxed);
  if (budget == 0) {
    charge(sub, bytes);
    return true;
  }
  // Reserve optimistically and KEEP the reservation on success — releasing
  // and re-charging would open a window for concurrent admitters to squeeze
  // past the cap together.
  const std::size_t total_now =
      total_current_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (total_now > budget) {
    total_current_.fetch_sub(bytes, std::memory_order_relaxed);
    return false;
  }
  Slot& slot = slots_[static_cast<unsigned>(sub)];
  const std::size_t sub_now =
      slot.current.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  raise_peak(slot.peak, sub_now);
  raise_peak(total_peak_, total_now);
  return true;
}

void MemoryRegistry::record_external_peak(MemSubsystem sub,
                                          std::size_t peak) noexcept {
  Slot& slot = slots_[static_cast<unsigned>(sub)];
  raise_peak(slot.peak, peak);
  raise_peak(total_peak_,
             total_current_.load(std::memory_order_relaxed) + peak);
}

std::size_t MemoryRegistry::headroom_bytes() const noexcept {
  const std::size_t budget = budget_.load(std::memory_order_relaxed);
  if (budget == 0) return std::numeric_limits<std::size_t>::max();
  const std::size_t current = total_current_.load(std::memory_order_relaxed);
  return current >= budget ? 0 : budget - current;
}

void MemoryRegistry::reset_peaks() noexcept {
  for (Slot& slot : slots_) {
    slot.peak.store(slot.current.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  }
  total_peak_.store(total_current_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  over_budget_events_.store(0, std::memory_order_relaxed);
}

MemorySnapshot MemoryRegistry::snapshot() const noexcept {
  MemorySnapshot snap;
  snap.budget_bytes = budget_.load(std::memory_order_relaxed);
  snap.current_bytes = total_current_.load(std::memory_order_relaxed);
  snap.peak_bytes = total_peak_.load(std::memory_order_relaxed);
  snap.over_budget_events =
      over_budget_events_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kNumMemSubsystems; ++i) {
    snap.subsystem_current[i] =
        slots_[i].current.load(std::memory_order_relaxed);
    snap.subsystem_peak[i] = slots_[i].peak.load(std::memory_order_relaxed);
  }
  return snap;
}

MemoryRegistry& global_memory() {
  static MemoryRegistry registry;
  return registry;
}

MemoryRunScope::MemoryRunScope(std::size_t budget_bytes,
                               MemoryRegistry& registry) noexcept
    : registry_(&registry), outermost_(registry.enter_run() == 0) {
  if (!outermost_) return;
  saved_budget_ = registry_->budget_bytes();
  registry_->set_budget(budget_bytes);
  registry_->reset_peaks();
}

MemoryRunScope::~MemoryRunScope() {
  registry_->exit_run();
  if (outermost_) registry_->set_budget(saved_budget_);
}

std::size_t peak_rss_bytes() noexcept {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // ru_maxrss is reported in kilobytes on Linux.
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;
}

const char* format_bytes(std::size_t bytes, char* buf, std::size_t buflen) {
  const double b = static_cast<double>(bytes);
  if (bytes >= (1ULL << 30)) {
    std::snprintf(buf, buflen, "%.2f GB", b / static_cast<double>(1ULL << 30));
  } else if (bytes >= (1ULL << 20)) {
    std::snprintf(buf, buflen, "%.2f MB", b / static_cast<double>(1ULL << 20));
  } else if (bytes >= (1ULL << 10)) {
    std::snprintf(buf, buflen, "%.2f KB", b / static_cast<double>(1ULL << 10));
  } else {
    std::snprintf(buf, buflen, "%zu B", bytes);
  }
  return buf;
}

}  // namespace picasso::util
