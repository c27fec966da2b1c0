#pragma once
// Simulated limited-memory accelerator.
//
// The paper's GPU contribution (§V, Algorithm 3) is a memory-budget-aware
// conflict-graph construction pipeline for a 40 GB A100. No GPU exists in
// this environment, so we simulate the part that matters for the paper's
// claims: a device memory arena with a hard capacity, an allocation ledger,
// and out-of-memory signalling. Buffers live in host RAM but every byte is
// charged against the configured device budget, so Algorithm 3's
// "CSR-on-device vs host fallback" branch and Fig. 2's memory frontier are
// exercised exactly as on real hardware. See DESIGN.md §1.

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace picasso::device {

/// Thrown when an allocation would exceed the device capacity — the event
/// that, in the paper, prevents the largest dataset from being processed.
class DeviceOutOfMemory : public std::runtime_error {
 public:
  DeviceOutOfMemory(std::size_t requested, std::size_t available)
      : std::runtime_error("device out of memory: requested " +
                           std::to_string(requested) + " bytes, " +
                           std::to_string(available) + " available"),
        requested_(requested),
        available_(available) {}

  std::size_t requested() const noexcept { return requested_; }
  std::size_t available() const noexcept { return available_; }

 private:
  std::size_t requested_;
  std::size_t available_;
};

class DeviceContext;

/// RAII handle for device-charged bytes.
class DeviceAllocation {
 public:
  /// Charges `bytes` against `ctx`; throws DeviceOutOfMemory on overflow.
  DeviceAllocation(DeviceContext& ctx, std::size_t bytes);
  ~DeviceAllocation();
  DeviceAllocation(DeviceAllocation&& other) noexcept;
  DeviceAllocation(const DeviceAllocation&) = delete;
  DeviceAllocation& operator=(const DeviceAllocation&) = delete;

  std::size_t bytes() const noexcept { return bytes_; }
  void release();

 private:
  DeviceContext* ctx_ = nullptr;
  std::size_t bytes_ = 0;
};

/// The simulated device: capacity, live/peak usage, allocation statistics.
class DeviceContext {
 public:
  /// Default capacity mirrors the A100's 40 GB scaled to container size;
  /// benches configure it explicitly.
  explicit DeviceContext(std::size_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  std::size_t capacity_bytes() const noexcept { return capacity_; }
  std::size_t used_bytes() const noexcept { return used_; }
  std::size_t peak_bytes() const noexcept { return peak_; }
  std::size_t available_bytes() const noexcept { return capacity_ - used_; }
  std::size_t allocation_count() const noexcept { return allocations_; }
  std::size_t oom_count() const noexcept { return oom_events_; }

  /// Records an out-of-memory event detected outside a DeviceAllocation —
  /// e.g. a kernel overflowing a preallocated buffer — and throws.
  [[noreturn]] void signal_oom(std::size_t requested) {
    ++oom_events_;
    throw DeviceOutOfMemory(requested, available_bytes());
  }

  void reset_peak() noexcept { peak_ = used_; }

 private:
  friend class DeviceAllocation;

  void charge(std::size_t bytes) {
    if (bytes > available_bytes()) {
      ++oom_events_;
      throw DeviceOutOfMemory(bytes, available_bytes());
    }
    used_ += bytes;
    ++allocations_;
    if (used_ > peak_) peak_ = used_;
  }

  void refund(std::size_t bytes) noexcept {
    used_ = bytes > used_ ? 0 : used_ - bytes;
  }

  std::size_t capacity_;
  std::size_t used_ = 0;
  std::size_t peak_ = 0;
  std::size_t allocations_ = 0;
  std::size_t oom_events_ = 0;
};

/// A typed buffer whose storage is charged to a device context.
template <typename T>
class DeviceBuffer {
 public:
  DeviceBuffer(DeviceContext& ctx, std::size_t count)
      : allocation_(ctx, count * sizeof(T)), data_(count) {}

  std::size_t size() const noexcept { return data_.size(); }
  T* data() noexcept { return data_.data(); }
  const T* data() const noexcept { return data_.data(); }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

  /// Frees the device charge and returns the host storage.
  std::vector<T> take() {
    allocation_.release();
    return std::move(data_);
  }

 private:
  DeviceAllocation allocation_;
  std::vector<T> data_;
};

}  // namespace picasso::device
