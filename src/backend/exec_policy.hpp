// Execution policy for the RNS-tower hot paths.
//
// The RNS towers of a BFV ciphertext are independent lanes (the premise of
// CoFHEE's hardware design), so every per-tower loop in the software stack
// can go wide.  ExecPolicy is the knob callers hand to BfvContext /
// CpuTensorKernel to pick between the serial reference path and a pooled
// path without any API breakage; Executor binds a policy to a ThreadPool
// and exposes the two loop shapes the kernels need:
//
//  * for_each(count, fn)      -- one task per index (tower-granular work:
//                                NTTs, Hadamard products, key-switch digits);
//  * for_ranges(count, fn)    -- contiguous [lo, hi) index ranges of
//                                policy.grain indices each (coefficient-
//                                granular work: CRT lifts, digit decompose),
//                                letting each task hoist its scratch buffers
//                                and own contiguous data with no shared
//                                mutable state.
//
// Both shapes run bit-identically to a plain serial loop: tasks write
// disjoint outputs and perform the same arithmetic per index, so the pooled
// and serial paths produce byte-for-byte equal ciphertexts (asserted by
// tests/bfv/test_parallel_vs_serial_bfv.cpp).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "backend/thread_pool.hpp"

namespace cofhee::backend {

struct ExecPolicy {
  enum class Mode { kSerial, kPooled };

  Mode mode = Mode::kSerial;
  std::size_t threads = 0;  // kPooled: 0 means std::thread::hardware_concurrency
  std::size_t grain = 64;   // indices per task in for_ranges (0 acts as 1)

  [[nodiscard]] static ExecPolicy serial() noexcept { return {}; }
  [[nodiscard]] static ExecPolicy pooled(std::size_t threads = 0,
                                         std::size_t grain = 64) noexcept {
    return {Mode::kPooled, threads, grain};
  }

  [[nodiscard]] bool is_pooled() const noexcept { return mode == Mode::kPooled; }
};

/// Binds an ExecPolicy to a ThreadPool.  Copyable: copies share the pool, so
/// a context can be handed around by value while all its loops drain into
/// one set of workers.  A serial Executor owns no pool and runs plain loops.
class Executor {
 public:
  /// Serial reference executor.
  Executor() : Executor(ExecPolicy::serial()) {}

  /// Owns a fresh pool when the policy is pooled.
  explicit Executor(ExecPolicy policy);

  [[nodiscard]] const ExecPolicy& policy() const noexcept { return policy_; }
  /// Worker count the loops fan out over (1 for the serial path).
  [[nodiscard]] std::size_t concurrency() const noexcept {
    return pool_ ? pool_->size() : 1;
  }

  /// fn(i) for i in [0, count); one pooled task per index.
  void for_each(std::size_t count, const std::function<void(std::size_t)>& fn) const;

  /// fn(lo, hi) over a partition of [0, count) into ranges of policy().grain
  /// indices; the serial path makes a single fn(0, count) call.
  void for_ranges(std::size_t count,
                  const std::function<void(std::size_t, std::size_t)>& fn) const;

 private:
  ExecPolicy policy_;
  std::shared_ptr<ThreadPool> pool_;  // null when serial
};

}  // namespace cofhee::backend
