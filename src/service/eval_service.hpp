// Async multi-chip evaluation service: the scheduler layer above
// driver::ChipBfvEvaluator.
//
// ChipBfv.IoDominatesAtSmallRings shows the serial link, not the PE,
// bounding EvalMult at bring-up ring sizes; the levers against that are
// (a) amortizing per-tower ring reconfiguration over many requests in one
// chip session, (b) spreading one request's independent towers across
// several chips, and (c) hiding host-side base conversion / rounding under
// earlier rounds' chip phases (pipelined rounds, the HEAAN-demystified
// overlap).  EvalService implements all three behind one async API:
//
//   ChipFarm farm(4);
//   EvalService svc(scheme, farm, {Strategy::kShardTowers});
//   std::future<bfv::Ciphertext> f = svc.submit({ca, cb});
//   bfv::Ciphertext product = f.get();     // == scheme.multiply(ca, cb)
//
// Three request kinds flow through the same farm: kEvalMult (the Eq. 4
// tensor), kRelinearize (Algorithm-2 key switching of a 3-element
// ciphertext), and kMultRelin (the paper's complete EvalMult -- tensor,
// then key switching, chained inside one round).
//
// Scheduler v2 (this layer's second generation) adds:
//
//  * a priority + fairness request queue (service/request_queue.hpp):
//    submits carry SubmitOptions{priority, tenant, weight}; classes are
//    served in priority order with a starvation bound, tenants inside a
//    class in weighted deficit round-robin (SchedPolicy::kFifo restores
//    the v1 arrival-order reference schedule);
//  * heterogeneous farms: ChipFarm slots may differ in ChipConfig, mode
//    and link, and a Placer (service/placer.hpp) scores each round's work
//    onto chips by projected finish time under the deterministic cost
//    model instead of striding round-robin -- a chip whose config cannot
//    serve the ring is skipped; if no chip can, requests fail with
//    FarmCapacityError;
//  * a K-slot session ring (ServiceOptions::pipeline_depth): up to K-1
//    rounds ride the pipeline with their chip stages chained while the
//    dispatcher prepares ahead and defers finishes, generalizing the v1
//    two-slot double buffer (depth 1 = fully serial reference);
//  * batch-aware relin-key caching: one driver::RelinKeyCache per chip
//    skips re-uploading key towers shared by consecutive key-switch
//    products in a session (counted in ServiceStats::key_cache_hits,
//    invalidated whenever tensor traffic clobbers SP1 or keys change).
//
// The healing layer (this PR's generation) makes the farm survivable: chip
// and link faults (chip/fault.hpp -- corrupt frames, stalled links, dead
// chips) surface as typed errors, a faulted chip's share of a stage is
// retried on the remaining chips (sessions are pure functions of
// host-resident operands, so re-running is idempotent), whole requests that
// still fault are requeued for a fresh round, chips faulting repeatedly are
// quarantined behind health probes and re-admitted when they answer again,
// and a per-chip EWMA of measured unit costs feeds placement so a degraded
// (stalling) chip sheds load before it ever trips quarantine.  See the
// ServiceOptions healing knobs and ServiceStats::{faults_injected, retries,
// requeues, quarantines, readmissions}.
//
// All paths produce ciphertexts byte-identical to the serial single-chip
// software path (tests/service/: test_eval_service.cpp, test_scheduler.cpp,
// test_heterogeneous_farm.cpp, test_service_pipeline_fuzz.cpp).
//
// Shutdown is graceful: shutdown() (and the destructor) stop intake,
// drain every queued request and the pipelined sessions, and join the
// dispatcher.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "backend/exec_policy.hpp"
#include "bfv/bfv.hpp"
#include "driver/chip_bfv.hpp"
#include "service/chip_farm.hpp"
#include "service/errors.hpp"
#include "service/placer.hpp"
#include "service/request_queue.hpp"
#include "service/service_stats.hpp"
#include "service/tenancy.hpp"

namespace cofhee::obs {
class Histogram;
class MetricsRegistry;
class TraceRecorder;
}  // namespace cofhee::obs

namespace cofhee::service {

/// How a round's chip work is split across the farm.
enum class Strategy : std::uint8_t {
  /// Whole requests placed onto chips; each chip runs its share of a round
  /// as one session, ring-configuring every tower once for the group.
  kBatchPerChip = 0,
  /// One round's towers placed across the farm (every chip serves its
  /// towers for every request) and reassembled on the host.  Cuts
  /// single-request latency by ~|towers|/C.
  kShardTowers = 1,
};

/// Runtime configuration of an EvalService.
struct ServiceOptions {
  /// Chip-work split for every round.
  Strategy strategy = Strategy::kBatchPerChip;
  /// Most requests one dispatcher round coalesces into chip sessions.
  /// 1 reproduces the one-request-per-session serial behavior.
  std::size_t max_batch = 16;
  /// Fan sessions out over a pooled Executor sized to the farm; false runs
  /// the whole scheduler single-threaded.  Test oracle: the bit-exact
  /// reference shape EvalService.SerialDispatchMatchesPooled compares
  /// against.
  bool pooled_dispatch = true;
  /// Key material for kRelinearize / kMultRelin requests; the caller keeps
  /// it alive for the service's lifetime.  Validated against the scheme at
  /// construction (std::invalid_argument on a level/ring mismatch).
  /// Submitting a relin request while this is null throws.
  const bfv::RelinKeys* relin_keys = nullptr;
  /// Pending-request capacity, counting queued requests AND requests
  /// already drained into in-flight rounds (so a deep pipeline cannot hold
  /// ~pipeline_depth x the bound); 0 means unbounded.  submit_batch()
  /// throws BatchTooLargeError for a batch that could never fit even from
  /// empty and QueueFullError when admission would exceed the bound right
  /// now (both ServiceErrors; the latter is retryable back-pressure).
  std::size_t max_queue = 0;
  /// Deterministic host cost model: coefficient operations per second the
  /// virtual host resource processes (base extension, digit decompose, t/q
  /// rounding).  Feeds the sim_host_* / *_span_seconds stats; never affects
  /// results or wall-clock behavior.
  double host_coeff_ops_per_sec = 250e6;
  /// Queue ordering: priority classes + per-tenant weighted deficit
  /// round-robin (the default), or strict arrival order (SchedPolicy::kFifo,
  /// a test oracle).
  SchedPolicy sched = SchedPolicy::kPriorityFair;
  /// Most consecutive picks a backlogged priority class may lose to other
  /// classes before it is force-served (0 = strict priority, unbounded
  /// starvation).  Only meaningful under SchedPolicy::kPriorityFair.
  std::size_t starvation_bound = 64;
  /// Work-onto-chip mapping: load-aware scoring over the per-chip cost
  /// model (the default) or the round-robin stride (Placement::kRoundRobin,
  /// a test oracle).
  Placement placement = Placement::kLoadAware;
  /// Session-ring depth K: up to K-1 rounds keep their chip stages in
  /// flight while the dispatcher prepares round k host-side and defers
  /// finishes.  1 executes every phase back-to-back (the fully serial
  /// reference schedule; results are bit-identical at every depth), 2 is
  /// the classic two-slot double buffer.  Normalized to >= 1.
  std::size_t pipeline_depth = 2;
  /// Most distinct tenant ids tracked individually in
  /// ServiceStats::per_tenant; later ids aggregate under
  /// kOverflowTenantId, keeping per-tenant memory bounded for services
  /// fronting open-ended id spaces.  Normalized to >= 1.  Scheduling
  /// fairness is unaffected -- only the stats breakdown is capped.
  std::size_t max_tracked_tenants = 256;
  /// Healing, layer 1 -- intra-stage retries: when a chip's share of a
  /// stage faults (chip::FaultError), its items are re-placed onto the
  /// remaining eligible chips and the stage re-run, up to this many times
  /// per stage before the fault is surfaced to the round.  Sessions are
  /// pure functions of host-resident operands, so re-running is safe.
  std::size_t max_stage_retries = 2;
  /// Healing, layer 2 -- round requeues: a request whose round still
  /// faulted after stage retries goes back into the queue for a fresh
  /// round, at most this many times, before its future gets the
  /// originating fault.
  std::size_t request_retries = 2;
  /// Consecutive faults (without an intervening success) after which a chip
  /// is quarantined: it receives health probes instead of sessions until a
  /// probe passes.  0 disables quarantine.
  std::size_t quarantine_after = 2;
  /// Dispatcher rounds between health probes of a quarantined chip.
  /// Normalized to >= 1.
  std::size_t probe_interval_rounds = 1;
  /// Modeled per-chip stage budget: a chip whose share of a stage takes
  /// longer than this in simulated seconds is treated as faulted (counted
  /// in ServiceStats::stage_timeouts) and its items retried elsewhere.
  /// 0 disables the check.  Seconds (simulated).
  double stage_timeout_seconds = 0;
  /// Optional trace recorder (obs/trace.hpp, caller-owned, must outlive the
  /// service): the service then emits hierarchical spans -- async "request"
  /// spans from submit to settle, wall spans for every round phase and
  /// per-chip stage, simulated-axis spans for driver phases / link
  /// transactions / the pipeline model, and "heal" instants for retries,
  /// requeues, quarantines and probes.  Tracing never changes results or
  /// scheduling; when the recorder is null every call site reduces to a
  /// pointer check.  Export the trace only after drain() or shutdown() --
  /// the recorder requires quiescence.
  obs::TraceRecorder* trace = nullptr;
  /// Optional metrics registry (obs/metrics.hpp, caller-owned): the service
  /// records per-class request-latency histograms
  /// (cofhee_request_latency_seconds{class=...}) as requests settle.  For
  /// the counter exposition, render obs::export_service_stats(stats(), reg)
  /// into the same registry.
  obs::MetricsRegistry* metrics = nullptr;
  /// Per-tenant admission limits (service/tenancy.hpp): token-bucket rate
  /// limits (submit throws RateLimitedError with a retry-after hint) and
  /// pending quotas over queued + in-flight requests (TenantQuotaError).
  /// Enforcement keys on the real tenant id even past max_tracked_tenants.
  /// The default enforces nothing and costs nothing at admission.
  TenancyOptions tenancy{};
};

/// Async multi-chip evaluation front end over a ChipFarm.
class EvalService {
 public:
  /// `scheme` supplies host-side RNS plumbing and must outlive the service;
  /// its const evaluation entry points are used concurrently.  Throws
  /// FarmCapacityError (a std::invalid_argument) when the scheme's ring
  /// fits none of the farm's chips, and std::invalid_argument when
  /// opts.relin_keys mismatches the scheme's level.
  EvalService(const bfv::Bfv& scheme, ChipFarm& farm, ServiceOptions opts = {});
  ~EvalService();

  EvalService(const EvalService&) = delete;
  EvalService& operator=(const EvalService&) = delete;

  /// Enqueue one request; the future carries the result ciphertext or the
  /// exception that defeated it (for chip/link faults, the originating
  /// chip::FaultError once every retry and requeue is exhausted).  `so`
  /// tags the request with its priority class, tenant and fairness weight.
  /// Throws std::invalid_argument on malformed operands (wrong element
  /// count for the kind, relin kinds without keys); admission failures are
  /// typed ServiceErrors (std::runtime_errors): ServiceStoppedError after
  /// shutdown(), QueueFullError when queued + in-flight work is at
  /// ServiceOptions::max_queue, BatchTooLargeError for a batch that could
  /// never fit, and -- with ServiceOptions::tenancy configured --
  /// RateLimitedError / TenantQuotaError when the tenant is over its rate
  /// or pending limit.  Rejected requests are counted in
  /// ServiceStats::rejected_* and per tenant, and consume nothing.
  std::future<bfv::Ciphertext> submit(EvalRequest req, SubmitOptions so = {});

  /// Enqueue a group atomically, so one dispatcher round can coalesce it
  /// into batched chip sessions (subject to max_batch).  Kinds may be
  /// mixed freely within a batch; every request carries the same `so`.
  std::vector<std::future<bfv::Ciphertext>> submit_batch(
      std::vector<EvalRequest> reqs, SubmitOptions so = {});

  /// Block until every request accepted so far has completed.
  void drain();

  /// Stop intake, drain the queue and the pipelined sessions, join the
  /// dispatcher.  Idempotent.
  void shutdown();

  /// Consistent snapshot (including live queue depth and wall clock).
  [[nodiscard]] ServiceStats stats() const;

  /// The options this service was built with (max_batch / pipeline_depth
  /// normalized to >= 1).
  [[nodiscard]] const ServiceOptions& options() const noexcept { return opts_; }
  /// The farm this service schedules onto.
  [[nodiscard]] ChipFarm& farm() noexcept { return farm_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// Per-request working state inside a round.
  struct RoundSlot {
    driver::EvalMultOperands mult;               // kEvalMult / kMultRelin
    driver::RelinOperands relin;                 // kRelinearize / kMultRelin
    std::vector<driver::TowerTensor> tensors;    // tensor-stage outputs
    std::vector<driver::RelinTowerAcc> relin_accs;  // key-switch outputs
    bfv::Ciphertext result;                      // assembled; settled in retire()
  };

  /// One dispatcher round flowing through the K-slot session ring.
  struct Session {
    std::vector<Pending> round;
    std::vector<RoundSlot> slots;
    std::vector<std::exception_ptr> errs;
    std::shared_future<void> chip;  // chip stage (deferred at pipeline_depth 1)
    double sim_prep = 0;      // modeled host seconds, pre-chip
    double sim_chip = 0;      // round chip-stage span (simulated)
    double sim_finish = 0;    // modeled host seconds, post-chip
    double model_ready = 0;   // virtual host clock when the chip stage could start
    double model_chip_end = 0;  // virtual chip clock at this round's chip end
  };

  /// Per-tenant accumulator behind ServiceStats::per_tenant.
  struct TenantAgg {
    TenantStats counts;
    LatencyWindow latency;
  };

  /// The tracked accumulator for `tenant`, or the kOverflowTenantId bucket
  /// once max_tracked_tenants distinct ids exist.  Caller holds mu_.
  TenantAgg& tenant_agg(std::uint64_t tenant);

  /// Per-tenant enforcement state, keyed by the *real* tenant id (tenancy
  /// must not fold into the stats overflow bucket).  Entries are dropped
  /// once idle (nothing pending, bucket refilled), so the table tracks
  /// active tenants only.
  struct TenantState {
    TokenBucket bucket;        ///< rate-limit bucket (when rate-limited)
    std::size_t pending = 0;   ///< this tenant's queued + in-flight requests
  };

  /// Count `n` admission-rejected requests for `tenant` into the service
  /// and per-tenant stats.  Caller holds mu_.
  void note_rejected_locked(std::uint64_t tenant, std::uint64_t n,
                            std::uint64_t* service_counter);
  /// Release one settled request's tenancy pending slot (and garbage-collect
  /// the tenant's state once idle).  Caller holds mu_.
  void tenancy_release_locked(std::uint64_t tenant, double now);

  void dispatcher_loop();
  /// Host phase 1: base extension / digit decomposition per request.
  void host_prepare(Session& s);
  /// Chip stage: tensor sessions, mult-relin mid-round host work, then
  /// key-switch sessions.  Fills s.sim_chip.
  void run_chip_stage(Session& s);
  /// Host phase 2: reassembly / rounding into each slot's result.
  void host_finish(Session& s);
  /// Final stats + in-flight accounting for a finished session, then the
  /// one settlement of every promise it did not requeue.
  void retire(Session& s);
  /// Model + stats bookkeeping once a session's chip stage has completed
  /// (in ring order), then host_finish + retire.
  void finish_session(Session& s, bool overlapped_finish);

  /// Placement inputs for one stage: per-chip eligibility (config fit AND
  /// not quarantined AND not in `exclude`) and the measured (EWMA) unit
  /// cost, starting from idle chips (stages are barrier-synchronized).
  [[nodiscard]] std::vector<ChipScore> chip_scores(
      const std::vector<bool>* exclude) const;
  /// Place `items` uniform work items onto chips; returns the item indices
  /// grouped per chip (empty for chips that sat the stage out) and counts
  /// the placements into ServiceStats.  `exclude` (optional) blacklists
  /// chips that already faulted this stage; if the blacklist would leave no
  /// chip, it is ignored (a lone chip's transient fault must stay
  /// retryable).  If quarantine alone leaves no chip, every quarantined
  /// chip is force-probed once and passing chips re-admitted; only if the
  /// farm is still empty does this throw FarmCapacityError.
  std::vector<std::vector<std::size_t>> place_items(
      std::size_t items, const std::vector<bool>* exclude = nullptr);

  /// The one stage driver behind both chip sub-stages.  The strategy only
  /// decides which (tower, request) cells each chip gets: its placed
  /// requests at every one of `towers` towers under kBatchPerChip, every
  /// `live` request at its placed towers under kShardTowers.  Each chip
  /// runs its cells tower-outer, request-inner, calling
  /// `tower_body(chip, tower, requests, report)` once per tower, as one
  /// session whose report lands in ServiceStats::per_chip.  A chip whose
  /// share faults (chip::FaultError, or a modeled stage timeout) has its
  /// items re-placed onto the other eligible chips and re-run, up to
  /// ServiceOptions::max_stage_retries times -- the bodies are pure
  /// functions of host-resident operands, so re-running is idempotent.
  /// Only when retries are exhausted (or the failure is not a fault) is
  /// the error folded into s.errs: onto the chip's own requests under
  /// kBatchPerChip, onto every live request under kShardTowers (a lost
  /// shard starves the whole round).  Adds each chip's simulated session
  /// time to `chip_sim`.  Defined in eval_service.cpp (only used there).
  template <typename TowerBody>
  void run_stage(Session& s, const std::vector<std::size_t>& live, std::size_t towers,
                 std::vector<double>& chip_sim, TowerBody&& tower_body);

  /// Modeled host seconds for `ops` coefficient operations.
  [[nodiscard]] double host_seconds(double ops) const noexcept;

  /// Healing bookkeeping for one chip fault: bump the fault counters and
  /// quarantine the chip once ServiceOptions::quarantine_after consecutive
  /// faults accumulate.  Caller holds mu_.
  void note_chip_fault_locked(std::size_t chip);
  /// Healing bookkeeping for a successful session: reset the chip's
  /// consecutive-fault count and fold `unit_cost_sample` (modeled seconds
  /// per placed item; <= 0 skips the update) into its placement EWMA
  /// (smoothing factor kCostEwmaAlpha).
  /// Caller holds mu_.
  void note_chip_ok_locked(std::size_t chip, double unit_cost_sample);
  /// Probe quarantined chips (HostDriver::probe) and re-admit the ones that
  /// answer.  Respects ServiceOptions::probe_interval_rounds unless
  /// `force`.  Called from the dispatcher with no session holding the
  /// probed chips (quarantined chips receive no placements).  Takes mu_.
  void probe_quarantined(bool force);

  /// Smoothing factor of the measured per-chip unit-cost EWMA that feeds
  /// placement: cost := (1 - a) * cost + a * sample.
  static constexpr double kCostEwmaAlpha = 0.3;

  /// Per-chip healing state (guarded by mu_).
  struct ChipHealth {
    std::size_t consecutive_faults = 0;  ///< Faults since the last success.
    bool quarantined = false;            ///< Receiving probes, not sessions.
    std::uint64_t last_probe_round = 0;  ///< stats_.rounds at the last probe.
  };

  const bfv::Bfv& scheme_;
  ChipFarm& farm_;
  ServiceOptions opts_;
  backend::Executor exec_;
  std::vector<bool> chip_eligible_;     // can chip c serve the ring at all?
  std::vector<double> chip_unit_cost_;  // measured EWMA seconds per work item
  std::vector<ChipHealth> health_;      // quarantine state (guarded by mu_)
  std::vector<driver::RelinKeyCache> key_caches_;  // one per chip

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // dispatcher: queue non-empty or stopping
  std::condition_variable idle_cv_;  // drain(): queue empty and nothing in flight
  RequestQueue queue_;
  std::size_t in_flight_ = 0;
  std::uint64_t next_req_id_ = 0;  // async-trace request ids (guarded by mu_)
  bool stopping_ = false;
  ServiceStats stats_;  // per_chip sized to the farm; queue_depth/wall filled on read
  std::vector<LatencyWindow> class_latency_;           // kNumPriorities windows
  // Per-class request-latency histograms, resolved once at construction
  // (instrument lookup locks the registry; observe() is lock-free).  Null
  // without ServiceOptions::metrics.
  std::array<obs::Histogram*, kNumPriorities> latency_hist_{};
  std::unordered_map<std::uint64_t, TenantAgg> tenants_;
  std::unordered_map<std::uint64_t, TenantState> tenancy_;  // guarded by mu_
  bool tenancy_enabled_ = false;  // cached opts_.tenancy.enabled()
  double model_host_ = 0;  // pipeline model: virtual host resource clock
  double model_chip_ = 0;  // pipeline model: virtual chip-farm resource clock
  bool any_accepted_ = false;
  Clock::time_point first_accept_{};
  Clock::time_point last_done_{};
  Clock::time_point start_;
  std::thread dispatcher_;
};

}  // namespace cofhee::service
