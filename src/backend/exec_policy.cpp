#include "backend/exec_policy.hpp"

#include <algorithm>
#include <thread>

namespace cofhee::backend {

namespace {

std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

}  // namespace

Executor::Executor(ExecPolicy policy) : policy_(policy) {
  if (policy_.is_pooled())
    pool_ = std::make_shared<ThreadPool>(resolve_threads(policy_.threads));
}

void Executor::for_each(std::size_t count,
                        const std::function<void(std::size_t)>& fn) const {
  if (pool_ && count > 1) {
    pool_->parallel_for(count, fn);
    return;
  }
  for (std::size_t i = 0; i < count; ++i) fn(i);
}

void Executor::for_ranges(
    std::size_t count, const std::function<void(std::size_t, std::size_t)>& fn) const {
  if (count == 0) return;
  const std::size_t grain = std::max<std::size_t>(policy_.grain, 1);
  if (!pool_ || count <= grain) {
    fn(0, count);
    return;
  }
  pool_->parallel_for_ranges(count, grain, fn);
}

}  // namespace cofhee::backend
