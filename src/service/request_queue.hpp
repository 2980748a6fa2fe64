// Scheduler v2 request queue: priority classes + per-tenant weighted
// deficit round-robin, replacing the plain FIFO of the original service.
//
// Requests enter tagged with SubmitOptions{priority, tenant, weight}.  The
// queue maintains one tenant ring per priority class; pop_round() drains up
// to max_batch requests by repeatedly (1) picking the highest non-empty
// class -- unless a lower class has been skipped `starvation_bound` times
// in a row, in which case the most-starved class is force-picked -- and
// (2) serving the class's tenants in weighted deficit round-robin order
// (each tenant's turn grants `weight` picks, so backlogged tenants converge
// to throughput shares proportional to their weights).  Within one tenant
// the order is strict FIFO, so a single-tenant single-class workload
// degenerates to exactly the legacy FIFO schedule.
//
// The queue is not thread-safe; EvalService serializes access under its
// own mutex.  Determinism: pop order depends only on the push order and
// the SubmitOptions carried by each request -- never on wall-clock time --
// which is what tests/service/test_scheduler.cpp's scripted arrival traces
// rely on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <unordered_map>
#include <vector>

#include "bfv/bfv.hpp"

namespace cofhee::service {

/// What a request asks the farm to compute.
enum class RequestKind : std::uint8_t {
  /// Eq. 4 tensor + t/q rounding; 2-element inputs, 3-element result
  /// ("without relinearization", the Fig. 6 operation).
  kEvalMult = 0,
  /// Algorithm-2 key switching of a 3-element ciphertext (field `a`; `b` is
  /// ignored) back to 2 elements.  Requires ServiceOptions::relin_keys.
  kRelinearize = 1,
  /// The paper's complete EvalMult: tensor then key switching, chained
  /// inside one round.  Requires ServiceOptions::relin_keys.
  kMultRelin = 2,
};

/// One evaluation request.  Field use depends on `kind` (see RequestKind).
struct EvalRequest {
  /// First operand: 2-element for kEvalMult/kMultRelin, 3-element for
  /// kRelinearize.
  bfv::Ciphertext a;
  /// Second operand (kEvalMult/kMultRelin); ignored for kRelinearize.
  bfv::Ciphertext b;
  /// Operation to perform; defaults to the tensor-only EvalMult.
  RequestKind kind = RequestKind::kEvalMult;
  /// Squaring hint for kEvalMult/kMultRelin: the second operand IS `a`
  /// (`b` is ignored and may stay empty).  The service then base-extends
  /// one ciphertext instead of two and the chip synthesizes the B operand
  /// banks from A's by on-chip DMA instead of re-uploading them over the
  /// serial link (ChipBfvEvaluator::prepare_square).  Bit-exact vs
  /// submitting {a, a}.  Rejected for kRelinearize.
  bool square = false;
};

/// Backward-compatible name from when the service only knew EvalMult.
using EvalMultRequest = EvalRequest;

/// Scheduling class of a request; lower value = served first.
enum class Priority : std::uint8_t {
  kHigh = 0,    ///< latency-sensitive traffic, always picked first
  kNormal = 1,  ///< the default class
  kLow = 2,     ///< batch / best-effort traffic
};

/// Number of priority classes (the Priority enumerators are 0..kNumPriorities-1).
inline constexpr std::size_t kNumPriorities = 3;

/// Per-submit scheduling tags; defaults reproduce the legacy single-queue
/// behavior (everyone is tenant 0 at kNormal with weight 1).
struct SubmitOptions {
  /// Scheduling class; classes are served strictly in priority order up to
  /// the starvation bound (ServiceOptions::starvation_bound).
  Priority priority = Priority::kNormal;
  /// Fairness domain: requests from different tenants inside one class
  /// share the farm in weighted deficit round-robin.
  std::uint64_t tenant = 0;
  /// DRR weight of this tenant (throughput share vs its class peers).
  /// Clamped to >= 1; the latest submit's weight wins for the tenant.
  std::uint32_t weight = 1;
};

/// How the dispatcher orders queued requests.
enum class SchedPolicy : std::uint8_t {
  /// Strict arrival order, ignoring SubmitOptions.  Test oracle: the v1
  /// reference schedule the scheduler tests differentiate against.
  kFifo = 0,
  /// Priority classes + per-tenant weighted deficit round-robin with a
  /// starvation bound (scheduler v2, the default).
  kPriorityFair = 1,
};

/// One queued request with its promise and scheduling tags.
struct Pending {
  /// The work to perform.
  EvalRequest req;
  /// Fulfilled by the dispatcher with the result ciphertext or an error.
  std::promise<bfv::Ciphertext> promise;
  /// Scheduling tags the request was submitted with.
  SubmitOptions so;
  /// Clock value at admission, in the caller's time base (EvalService uses
  /// wall seconds since construction; the scheduler tests use a mock clock).
  double enqueued = 0;
  /// Clock value when pop_round() handed the request to a round.
  double dequeued = 0;
  /// True when the starvation bound forced this pick out of priority order.
  bool forced = false;
  /// Rounds this request has already faulted out of (the healing layer's
  /// requeue counter); the dispatcher gives up once it exceeds
  /// ServiceOptions::request_retries and fulfills the promise with the
  /// originating fault instead.
  std::uint32_t attempts = 0;
  /// Service-assigned id (1-based, submit order), carried through requeues.
  /// Correlates the trace's async "request" span with its rounds/stages.
  std::uint64_t id = 0;
};

/// Priority + fairness request queue (see file comment).  Not thread-safe.
class RequestQueue {
 public:
  /// `starvation_bound` is the most consecutive picks a non-empty class can
  /// lose to other classes before it is force-served (0 means unbounded,
  /// i.e. strict priority).  Ignored under SchedPolicy::kFifo.
  explicit RequestQueue(SchedPolicy policy = SchedPolicy::kPriorityFair,
                        std::size_t starvation_bound = 64);

  /// Admit one request (reads p.so for its class/tenant/weight).
  void push(Pending p);

  /// True when no request is queued.
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Requests currently queued.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Requests currently queued in priority class `cls` (tracked under both
  /// policies; under kFifo the class tags still arrive with each push).
  [[nodiscard]] std::size_t class_depth(std::size_t cls) const noexcept {
    return cls < kNumPriorities ? class_size_[cls] : 0;
  }

  /// Dequeue up to `max_batch` requests in scheduling order, stamping each
  /// Pending::dequeued with `now` and Pending::forced where the starvation
  /// bound overrode priority order.
  std::vector<Pending> pop_round(std::size_t max_batch, double now);

  /// Total picks the starvation bound forced out of priority order.
  [[nodiscard]] std::uint64_t forced_picks() const noexcept { return forced_picks_; }

  /// Largest consecutive-skip count any non-empty class ever reached.
  /// With a bound B a lone starved class is served the moment it has lost
  /// B picks; when several classes starve at once only one can be
  /// force-served per pick, so the invariant the scheduler tests assert is
  /// max_skip_observed() <= B + kNumPriorities - 2.
  [[nodiscard]] std::uint64_t max_skip_observed() const noexcept {
    return max_skip_observed_;
  }

 private:
  /// One tenant's FIFO backlog + DRR bookkeeping inside a class.
  struct TenantQueue {
    std::deque<Pending> q;
    std::uint32_t weight = 1;   // latest submitted weight, >= 1
    std::uint32_t deficit = 0;  // picks left in the tenant's current turn
  };
  /// One priority class: tenant queues in DRR rotation order.
  struct ClassState {
    std::unordered_map<std::uint64_t, TenantQueue> tenants;
    std::deque<std::uint64_t> rotation;  // backlogged tenants, turn order
    std::size_t size = 0;                // requests queued in this class
    std::uint64_t skipped = 0;  // consecutive picks lost to other classes
  };

  Pending pop_one(double now);
  std::size_t pick_class(bool* forced);

  SchedPolicy policy_;
  std::size_t bound_;
  std::deque<Pending> fifo_;  // SchedPolicy::kFifo storage
  ClassState classes_[kNumPriorities];
  std::size_t class_size_[kNumPriorities] = {};  // queued per class, any policy
  std::size_t size_ = 0;
  std::uint64_t forced_picks_ = 0;
  std::uint64_t max_skip_observed_ = 0;
};

}  // namespace cofhee::service
