#include "device/device_context.hpp"

namespace picasso::device {

DeviceAllocation::DeviceAllocation(DeviceContext& ctx, std::size_t bytes)
    : ctx_(&ctx), bytes_(bytes) {
  ctx_->charge(bytes_);
}

DeviceAllocation::~DeviceAllocation() { release(); }

DeviceAllocation::DeviceAllocation(DeviceAllocation&& other) noexcept
    : ctx_(other.ctx_), bytes_(other.bytes_) {
  other.ctx_ = nullptr;
  other.bytes_ = 0;
}

void DeviceAllocation::release() {
  if (ctx_ != nullptr) {
    ctx_->refund(bytes_);
    ctx_ = nullptr;
    bytes_ = 0;
  }
}

}  // namespace picasso::device
