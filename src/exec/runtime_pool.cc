#include "exec/runtime_pool.h"

namespace dblrep::exec {

RuntimePool::Lease::~Lease() {
  if (pool_ != nullptr && runtime_ != nullptr) pool_->release(runtime_);
}

RuntimePool::Lease RuntimePool::acquire() const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_.empty()) {
      Runtime* runtime = free_.back();
      free_.pop_back();
      return Lease(this, runtime);
    }
  }
  // Construct outside the lock: codec setup touches the scheme's immutable
  // tables only.
  auto fresh = std::make_unique<Runtime>(*code_);
  Runtime* runtime = fresh.get();
  std::lock_guard<std::mutex> lock(mu_);
  all_.push_back(std::move(fresh));
  return Lease(this, runtime);
}

std::size_t RuntimePool::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return all_.size();
}

void RuntimePool::release(Runtime* runtime) const {
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(runtime);
}

}  // namespace dblrep::exec
