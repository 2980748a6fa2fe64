#include "service/eval_service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "chip/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/errors.hpp"

namespace cofhee::service {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double sim_seconds(const driver::ChipMulReport& rep) {
  return rep.io_seconds + rep.chip_ms * 1e-3;
}

// Retryable failures are exactly the chip/link fault family: a session is a
// pure function of host-resident operands, so a faulted one can be re-run
// elsewhere.  Anything else (bad operands, logic bugs) must surface as-is.
bool is_fault(const std::exception_ptr& e) {
  if (e == nullptr) return false;
  try {
    std::rethrow_exception(e);
  } catch (const chip::FaultError&) {
    return true;
  } catch (...) {
    return false;
  }
}

}  // namespace

EvalService::EvalService(const bfv::Bfv& scheme, ChipFarm& farm, ServiceOptions opts)
    : scheme_(scheme),
      farm_(farm),
      opts_(opts),
      exec_(opts.pooled_dispatch && farm.size() > 1
                ? backend::ExecPolicy::pooled(farm.size())
                : backend::ExecPolicy::serial()),
      queue_(opts.sched, opts.starvation_bound),
      start_(Clock::now()) {
  // Per-chip eligibility: the farm may be heterogeneous, so the ring only
  // has to fit somewhere; chips it does not fit are skipped by placement.
  const std::size_t n = scheme_.context().n();
  chip_eligible_.resize(farm_.size());
  chip_unit_cost_.resize(farm_.size());
  key_caches_.resize(farm_.size());
  bool any_eligible = false;
  for (std::size_t c = 0; c < farm_.size(); ++c) {
    chip_eligible_[c] = 2 * n <= farm_.config(c).bank_words;
    any_eligible = any_eligible || chip_eligible_[c];
  }
  if (!any_eligible)
    throw FarmCapacityError("EvalService: ring too large for every chip in the farm");
  // Modeled simulated seconds one tower run costs per chip (link transport
  // of the 7 tower polynomials + an NTT-dominated cycle estimate).  Only
  // the ranking across chips matters: it seeds the Placer before any
  // measured per-chip load exists.
  for (std::size_t c = 0; c < farm_.size(); ++c) {
    auto& soc = farm_.chip(c);
    const auto& cfg = soc.config();
    const double bps = farm_.driver(c).link() == driver::Link::kUart
                           ? soc.uart().bytes_per_second()
                           : soc.spi().bytes_per_second();
    const double dn = static_cast<double>(n);
    const double lg = std::log2(dn);
    const double io = (7.0 * dn * 16.0 + 7.0 * 9.0) / bps;
    const double cycles =
        7.0 * (dn / 2.0 * lg + cfg.stage_overhead * lg + cfg.pointwise_fill + 1.0);
    chip_unit_cost_[c] = io + cycles * cfg.cycle_ns() * 1e-9;
  }
  // Reject mismatched key material up front (wrong level / ring) instead of
  // letting every relin request fail at dispatch.
  if (opts_.relin_keys != nullptr) scheme_.validate_relin_keys(*opts_.relin_keys);
  if (opts_.max_batch == 0) opts_.max_batch = 1;
  if (opts_.pipeline_depth == 0) opts_.pipeline_depth = 1;
  if (opts_.max_tracked_tenants == 0) opts_.max_tracked_tenants = 1;
  if (opts_.host_coeff_ops_per_sec <= 0) opts_.host_coeff_ops_per_sec = 250e6;
  if (opts_.probe_interval_rounds == 0) opts_.probe_interval_rounds = 1;
  health_.resize(farm_.size());
  tenancy_enabled_ = opts_.tenancy.enabled();
  stats_.per_chip.resize(farm_.size());
  stats_.per_class.resize(kNumPriorities);
  class_latency_.resize(kNumPriorities);
  // Observability wiring, before any traffic: hand the recorder to every
  // chip's driver and fault injector (they emit link/phase/fault events on
  // their chip's sim tracks), and resolve the latency histograms once so
  // the retire path only observe()s.
  if (opts_.trace != nullptr) {
    for (std::size_t c = 0; c < farm_.size(); ++c) {
      farm_.driver(c).set_tracer(opts_.trace, static_cast<std::uint32_t>(c));
      if (chip::FaultInjector* inj = farm_.fault_injector(c))
        inj->set_tracer(opts_.trace, static_cast<std::uint32_t>(c));
    }
  }
  if (opts_.metrics != nullptr) {
    const std::vector<double> bounds = {0.0001, 0.00025, 0.0005, 0.001, 0.0025,
                                        0.005,  0.01,    0.025,  0.05,  0.1,
                                        0.25,   0.5,     1,      2.5,   5,
                                        10};
    static constexpr const char* kClassNames[kNumPriorities] = {"high", "normal",
                                                                "low"};
    for (std::size_t i = 0; i < kNumPriorities; ++i)
      latency_hist_[i] = &opts_.metrics->histogram(
          "cofhee_request_latency_seconds",
          "Submit-to-completion request latency (wall seconds).", bounds,
          {{"class", kClassNames[i]}});
  }
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

EvalService::~EvalService() { shutdown(); }

std::future<bfv::Ciphertext> EvalService::submit(EvalRequest req, SubmitOptions so) {
  std::vector<EvalRequest> one;
  one.push_back(std::move(req));
  auto futures = submit_batch(std::move(one), so);
  return std::move(futures.front());
}

std::vector<std::future<bfv::Ciphertext>> EvalService::submit_batch(
    std::vector<EvalRequest> reqs, SubmitOptions so) {
  if (reqs.empty()) return {};  // nothing accepted: leave the active window alone
  if (static_cast<std::size_t>(so.priority) >= kNumPriorities)
    throw std::invalid_argument("EvalService: unknown priority class");
  for (const auto& r : reqs) {
    switch (r.kind) {
      case RequestKind::kEvalMult:
      case RequestKind::kMultRelin:
        // Under the squaring hint b is ignored entirely (B == A).
        if (r.a.size() != 2 || (!r.square && r.b.size() != 2))
          throw std::invalid_argument("EvalService: 2-element ciphertexts expected");
        break;
      case RequestKind::kRelinearize:
        if (r.square)
          throw std::invalid_argument(
              "EvalService: the squaring hint applies to multiplication kinds only");
        if (r.a.size() != 3)
          throw std::invalid_argument(
              "EvalService: relinearize expects a 3-element ciphertext");
        break;
      default:
        throw std::invalid_argument("EvalService: unknown request kind");
    }
    if (r.kind != RequestKind::kEvalMult && opts_.relin_keys == nullptr)
      throw std::invalid_argument(
          "EvalService: relinearization request but no relin_keys configured");
  }
  so.weight = std::max<std::uint32_t>(1, so.weight);
  std::vector<std::future<bfv::Ciphertext>> futures;
  futures.reserve(reqs.size());
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) throw ServiceStoppedError("EvalService: submit after shutdown");
    const double now = seconds_since(start_);
    // Admission control.  Every check runs before anything is consumed, so
    // a rejection leaves no partial state (no tokens burned, no pending
    // slots held) and the caller can retry cleanly.
    if (opts_.max_queue != 0 && reqs.size() > opts_.max_queue) {
      note_rejected_locked(so.tenant, reqs.size(),
                           &stats_.rejected_batch_too_large);
      throw BatchTooLargeError(
          "EvalService: batch larger than the queue capacity can ever admit");
    }
    TenantState* ts = nullptr;
    const TenantLimits* lim = nullptr;
    const double need = static_cast<double>(reqs.size());
    if (tenancy_enabled_) {
      lim = &opts_.tenancy.limits_for(so.tenant);
      if (lim->any()) {
        ts = &tenancy_.try_emplace(so.tenant).first->second;
        if (lim->rate_per_sec > 0) {
          // Lazily (re)arm the bucket: a fresh entry starts full, and a
          // GC'd idle tenant re-enters in the same state it left.
          if (ts->pending == 0 && ts->bucket.full())
            ts->bucket = TokenBucket(lim->rate_per_sec, lim->effective_burst(), now);
          ts->bucket.refill(now);
          if (!ts->bucket.can_take(need)) {
            const double after = ts->bucket.retry_after(need);
            note_rejected_locked(so.tenant, reqs.size(),
                                 &stats_.rejected_rate_limited);
            throw RateLimitedError(
                "EvalService: tenant " + std::to_string(so.tenant) +
                    " over its rate limit; retry after " +
                    std::to_string(after) + "s",
                after);
          }
        }
        if (lim->max_pending > 0 && ts->pending + reqs.size() > lim->max_pending) {
          note_rejected_locked(so.tenant, reqs.size(), &stats_.rejected_quota);
          throw TenantQuotaError(
              "EvalService: tenant " + std::to_string(so.tenant) + " holds " +
              std::to_string(ts->pending) + " pending requests (quota " +
              std::to_string(lim->max_pending) + ")");
        }
      }
    }
    // The bound covers queued AND in-flight requests: rounds drained into
    // the pipeline ring still hold capacity until they retire, so a deep
    // pipeline cannot stack ~pipeline_depth x max_queue of work.
    if (opts_.max_queue != 0 &&
        queue_.size() + in_flight_ + reqs.size() > opts_.max_queue) {
      note_rejected_locked(so.tenant, reqs.size(), &stats_.rejected_queue_full);
      throw QueueFullError("EvalService: queue full");
    }
    // Admitted: commit the tenancy charges.
    if (ts != nullptr) {
      if (lim->rate_per_sec > 0) ts->bucket.take(need);
      ts->pending += reqs.size();
    }
    for (auto& r : reqs) {
      Pending p;
      p.req = std::move(r);
      p.so = so;
      p.enqueued = now;
      p.id = ++next_req_id_;
      if (opts_.trace != nullptr)
        opts_.trace->async_begin(p.id, "request", "request",
                                 {{"kind", static_cast<double>(p.req.kind)},
                                  {"priority", static_cast<double>(so.priority)},
                                  {"tenant", static_cast<double>(so.tenant)}});
      futures.push_back(p.promise.get_future());
      queue_.push(std::move(p));
    }
    stats_.submitted += reqs.size();
    stats_.per_class[static_cast<std::size_t>(so.priority)].submitted += reqs.size();
    TenantAgg& ten = tenant_agg(so.tenant);
    // The overflow bucket mixes tenants of different weights; a single
    // reported weight would be meaningless, so it stays at the 0 marker.
    if (ten.counts.tenant != kOverflowTenantId) ten.counts.weight = so.weight;
    ten.counts.submitted += reqs.size();
    stats_.peak_queue_depth =
        std::max(stats_.peak_queue_depth, queue_.size() + in_flight_);
    if (!any_accepted_) {
      any_accepted_ = true;
      first_accept_ = Clock::now();
    }
  }
  work_cv_.notify_one();
  return futures;
}

void EvalService::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [this] { return queue_.empty() && in_flight_ == 0; });
}

void EvalService::shutdown() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

ServiceStats EvalService::stats() const {
  ServiceStats s;
  std::vector<LatencyWindow> cls_windows;
  std::vector<LatencyWindow> ten_windows;
  {
    // Under the mutex: plain copies only.  The percentile snapshots sort
    // up to 4096 samples per window, so they run after the lock is
    // released -- a monitoring poll must not stall submit/dispatch.
    std::lock_guard<std::mutex> lk(mu_);
    s = stats_;
    for (std::size_t c = 0; c < farm_.size(); ++c) {
      s.per_chip[c].ewma_unit_cost = chip_unit_cost_[c];
      s.per_chip[c].quarantined = health_[c].quarantined;
      s += s.per_chip[c];  // the farm-wide counter rows are per-chip sums
    }
    s.max_class_skip = std::max(s.max_class_skip, queue_.max_skip_observed());
    for (std::size_t c = 0; c < kNumPriorities; ++c)
      s.per_class[c].queued = queue_.class_depth(c);
    cls_windows = class_latency_;
    s.per_tenant.reserve(tenants_.size());
    ten_windows.reserve(tenants_.size());
    for (const auto& [id, agg] : tenants_) {
      s.per_tenant.push_back(agg.counts);
      ten_windows.push_back(agg.latency);
    }
    s.queue_depth = queue_.size() + in_flight_;
    s.wall_seconds = seconds_since(start_);
    if (any_accepted_) {
      const auto end =
          (queue_.empty() && in_flight_ == 0) ? last_done_ : Clock::now();
      s.active_seconds =
          std::max(0.0, std::chrono::duration<double>(end - first_accept_).count());
    }
  }
  // Injector counters are atomics (the chips' stage threads bump them);
  // no lock needed, and farms without injectors contribute nothing.
  for (std::size_t c = 0; c < farm_.size(); ++c)
    if (const chip::FaultInjector* inj = farm_.fault_injector(c))
      s.faults_injected += inj->faults_fired();
  for (std::size_t c = 0; c < cls_windows.size(); ++c)
    s.per_class[c].latency = cls_windows[c].snapshot();
  for (std::size_t t = 0; t < s.per_tenant.size(); ++t)
    s.per_tenant[t].latency = ten_windows[t].snapshot();
  std::sort(s.per_tenant.begin(), s.per_tenant.end(),
            [](const TenantStats& a, const TenantStats& b) { return a.tenant < b.tenant; });
  return s;
}

double EvalService::host_seconds(double ops) const noexcept {
  return ops / opts_.host_coeff_ops_per_sec;
}

void EvalService::note_rejected_locked(std::uint64_t tenant, std::uint64_t n,
                                       std::uint64_t* service_counter) {
  *service_counter += n;
  tenant_agg(tenant).counts.rejected += n;
}

void EvalService::tenancy_release_locked(std::uint64_t tenant, double now) {
  const auto it = tenancy_.find(tenant);
  if (it == tenancy_.end()) return;
  TenantState& ts = it->second;
  if (ts.pending > 0) --ts.pending;
  // Garbage-collect idle state: once nothing is pending and the bucket has
  // refilled to its cap, the entry carries no information (a fresh entry
  // reproduces it exactly), so the table stays bounded by *active* tenants
  // rather than every id ever seen.
  if (ts.pending == 0) {
    ts.bucket.refill(now);
    if (ts.bucket.full()) tenancy_.erase(it);
  }
}

EvalService::TenantAgg& EvalService::tenant_agg(std::uint64_t tenant) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    // Bound the table: once max_tracked_tenants distinct ids exist, later
    // ids share the overflow bucket (fairness itself is unaffected -- the
    // queue keys on the real tenant id, only the stats breakdown folds).
    if (tenant != kOverflowTenantId && tenants_.size() >= opts_.max_tracked_tenants)
      return tenant_agg(kOverflowTenantId);
    it = tenants_.try_emplace(tenant).first;
    it->second.counts.tenant = tenant;
    // The overflow bucket aggregates mixed-weight tenants: weight 0 marks
    // "not a single tenant's weight" (see TenantStats::weight).
    if (tenant == kOverflowTenantId) it->second.counts.weight = 0;
  }
  return it->second;
}

void EvalService::dispatcher_loop() {
  // K-slot session ring: up to K - 1 sessions keep their chip stages in
  // flight (chained back-to-back, since the chips are an exclusive
  // resource) while this thread prepares new rounds ahead of them and
  // defers their finishes.  K == 2 is the classic two-slot double buffer;
  // K == 1 runs every phase back-to-back: its chip stage is deferred and
  // runs on this thread when retire_oldest waits for it.
  const std::size_t depth = opts_.pipeline_depth;
  const auto launch = depth > 1 ? std::launch::async : std::launch::deferred;
  std::deque<std::unique_ptr<Session>> ring;
  std::shared_future<void> chip_tail;  // most recently launched chip stage
  auto chip_stage_guarded = [this](Session& s) {
    try {
      run_chip_stage(s);
    } catch (...) {
      const auto e = std::current_exception();
      for (auto& err : s.errs)
        if (err == nullptr) err = e;
    }
  };
  // Join, model and finish the ring's oldest session (ring order == chip
  // order, so the pipeline model advances exactly as executed).
  auto retire_oldest = [&] {
    std::unique_ptr<Session> s = std::move(ring.front());
    ring.pop_front();
    s->chip.wait();  // never throws; errors were folded into s->errs
    {
      std::lock_guard<std::mutex> lk(mu_);
      const double start = std::max(s->model_ready, model_chip_);
      if (opts_.trace != nullptr && s->sim_chip > 0)
        opts_.trace->span_sim_at(obs::TraceRecorder::kSimTrackChipModel,
                                 "model.chip", "model", start, s->sim_chip);
      s->model_chip_end = start + s->sim_chip;
      model_chip_ = s->model_chip_end;
      stats_.sim_chip_round_seconds += s->sim_chip;
    }
    finish_session(*s, /*overlapped_finish=*/!ring.empty());
  };

  for (;;) {
    std::unique_ptr<Session> cur;
    {
      std::unique_lock<std::mutex> lk(mu_);
      if (ring.empty())
        work_cv_.wait(lk, [this] { return !queue_.empty() || stopping_; });
      if (queue_.empty() && ring.empty()) break;  // stopping and drained
      if (!queue_.empty()) {
        cur = std::make_unique<Session>();
        cur->round = queue_.pop_round(opts_.max_batch, seconds_since(start_));
        in_flight_ += cur->round.size();
        ++stats_.rounds;
        for (const Pending& p : cur->round) {
          auto& cls = stats_.per_class[static_cast<std::size_t>(p.so.priority)];
          ++cls.dispatched;
          if (p.forced) {
            ++cls.forced_picks;
            ++stats_.forced_picks;
          }
        }
        stats_.max_class_skip =
            std::max(stats_.max_class_skip, queue_.max_skip_observed());
      }
    }

    if (cur != nullptr) {
      // Host phase 1 of round k -- with chip stages in flight this is the
      // pipelining overlap (base extension hidden under chip time).
      const bool overlapped = !ring.empty();
      const auto t0 = Clock::now();
      host_prepare(*cur);
      const double prep_wall = seconds_since(t0);
      {
        std::lock_guard<std::mutex> lk(mu_);
        stats_.sim_host_prep_seconds += cur->sim_prep;
        if (opts_.trace != nullptr && cur->sim_prep > 0)
          opts_.trace->span_sim_at(obs::TraceRecorder::kSimTrackHostModel,
                                   "model.prep", "model", model_host_,
                                   cur->sim_prep);
        model_host_ += cur->sim_prep;
        cur->model_ready = model_host_;
        if (overlapped) {
          ++stats_.overlapped_rounds;
          stats_.overlap_wall_seconds += prep_wall;
        }
      }
      // Chain this round's chip stage behind the previous one (chips are
      // exclusive) and slot the session into the ring.
      Session* raw = cur.get();
      std::shared_future<void> prev = chip_tail;
      cur->chip = std::async(launch,
                             [chip_stage_guarded, raw, prev] {
                               if (prev.valid()) prev.wait();
                               chip_stage_guarded(*raw);
                             })
                      .share();
      chip_tail = cur->chip;
      ring.push_back(std::move(cur));
      while (ring.size() > depth - 1) retire_oldest();
    } else {
      // Queue ran dry (or shutdown): drain one pipelined session, then
      // re-check for new arrivals.
      retire_oldest();
    }
  }
  // Unblock any drain() racing a shutdown with an empty queue.
  idle_cv_.notify_all();
}

void EvalService::finish_session(Session& s, bool overlapped_finish) {
  const auto t0 = Clock::now();
  host_finish(s);
  const double fin_wall = seconds_since(t0);
  {
    std::lock_guard<std::mutex> lk(mu_);
    const double fstart = std::max(model_host_, s.model_chip_end);
    if (opts_.trace != nullptr && s.sim_finish > 0)
      opts_.trace->span_sim_at(obs::TraceRecorder::kSimTrackHostModel,
                               "model.finish", "model", fstart, s.sim_finish);
    model_host_ = fstart + s.sim_finish;
    stats_.sim_host_finish_seconds += s.sim_finish;
    stats_.serial_span_seconds += s.sim_prep + s.sim_chip + s.sim_finish;
    stats_.pipeline_span_seconds = std::max(model_host_, model_chip_);
    if (overlapped_finish) stats_.overlap_wall_seconds += fin_wall;
  }
  retire(s);
}

void EvalService::host_prepare(Session& s) {
  using driver::ChipBfvEvaluator;
  const auto span =
      opts_.trace != nullptr
          ? opts_.trace->span_wall(
                "round.prepare", "round",
                {{"requests", static_cast<double>(s.round.size())}})
          : obs::TraceRecorder::WallSpan();
  const std::size_t count = s.round.size();
  const auto& ctx = scheme_.context();
  const double n = static_cast<double>(ctx.n());
  const double qt = static_cast<double>(ctx.q_basis().size());
  const double et = static_cast<double>(ctx.ext_basis().size());
  const double nd =
      opts_.relin_keys != nullptr ? static_cast<double>(opts_.relin_keys->keys.size()) : 0;
  s.slots.resize(count);
  s.errs.assign(count, nullptr);

  double ops = 0;  // host cost model: coefficient operations this phase
  for (const auto& p : s.round)
    ops += p.req.kind == RequestKind::kRelinearize
               ? n * qt * (1.0 + nd)  // CRT lift + digit residue writes
               : (p.req.square ? 2.0 : 4.0) * n * (qt + et);  // base extension

  exec_.for_each(count, [&](std::size_t r) {
    auto& req = s.round[r].req;
    auto& slot = s.slots[r];
    try {
      if (req.kind == RequestKind::kRelinearize) {
        slot.relin = ChipBfvEvaluator::prepare_relin(scheme_, req.a, *opts_.relin_keys);
      } else {
        slot.mult = req.square ? ChipBfvEvaluator::prepare_square(scheme_, req.a)
                               : ChipBfvEvaluator::prepare(scheme_, req.a, req.b);
        slot.tensors.resize(ctx.ext_basis().size());
      }
    } catch (...) {
      s.errs[r] = std::current_exception();
    }
  });
  s.sim_prep = host_seconds(ops);
}

void EvalService::run_chip_stage(Session& s) {
  using driver::ChipBfvEvaluator;
  const auto span =
      opts_.trace != nullptr
          ? opts_.trace->span_wall(
                "round.chip_stage", "round",
                {{"requests", static_cast<double>(s.round.size())}})
          : obs::TraceRecorder::WallSpan();
  // Chip stages are chained (the chips are an exclusive resource), so this
  // is the one spot where probing a quarantined chip cannot race a session:
  // quarantined chips receive no placements, and no other stage is running.
  probe_quarantined(/*force=*/false);
  const std::size_t count = s.round.size();
  const auto& ctx = scheme_.context();
  const double n = static_cast<double>(ctx.n());
  const double qt = static_cast<double>(ctx.q_basis().size());
  const double et = static_cast<double>(ctx.ext_basis().size());
  const double nd =
      opts_.relin_keys != nullptr ? static_cast<double>(opts_.relin_keys->keys.size()) : 0;
  // The two sub-stages are barrier-serialized (the key switch consumes the
  // mid-round host output), so each gets its own per-chip span and the
  // round's span is busiest(A) + mid-host + busiest(B).
  std::vector<double> chip_sim_a(farm_.size(), 0.0);
  std::vector<double> chip_sim_b(farm_.size(), 0.0);

  // Sub-stage A: Eq. 4 tensor sessions over the extended basis.
  std::vector<std::size_t> mult_live;
  mult_live.reserve(count);
  for (std::size_t r = 0; r < count; ++r)
    if (s.errs[r] == nullptr && s.round[r].req.kind != RequestKind::kRelinearize)
      mult_live.push_back(r);
  if (!mult_live.empty())
    run_stage(s, mult_live, ctx.ext_basis().size(), chip_sim_a,
              [&](std::size_t c, std::size_t tw, const std::vector<std::size_t>& reqs,
                  driver::ChipMulReport& rep) {
                auto& drv = farm_.driver(c);
                key_caches_[c].invalidate();  // tensor uploads clobber SP1
                ChipBfvEvaluator::configure_tower(drv, scheme_, tw, &rep);
                for (std::size_t r : reqs) {
                  ChipBfvEvaluator::load_tower(drv, s.slots[r].mult, tw, &rep);
                  ChipBfvEvaluator::execute_tower(drv, &rep);
                  s.slots[r].tensors[tw] = ChipBfvEvaluator::read_tower(drv, &rep);
                  ++rep.tower_runs;
                }
              });

  // Mid-round host work (kMultRelin): reassemble the tensor, t/q-round it
  // to a 3-element ciphertext, digit-decompose c2 for the key switch.
  double stage_host_ops = 0;
  std::vector<std::size_t> mid;
  mid.reserve(count);
  for (std::size_t r = 0; r < count; ++r)
    if (s.errs[r] == nullptr && s.round[r].req.kind == RequestKind::kMultRelin)
      mid.push_back(r);
  if (!mid.empty()) {
    exec_.for_each(mid.size(), [&](std::size_t i) {
      const std::size_t r = mid[i];
      auto& slot = s.slots[r];
      try {
        const bfv::Ciphertext tensor = ChipBfvEvaluator::assemble(scheme_, slot.tensors);
        slot.relin = ChipBfvEvaluator::prepare_relin(scheme_, tensor, *opts_.relin_keys);
        slot.tensors.clear();
        slot.tensors.shrink_to_fit();
      } catch (...) {
        s.errs[r] = std::current_exception();
      }
    });
    stage_host_ops +=
        static_cast<double>(mid.size()) * (3.0 * n * (et + qt) + n * qt * (1.0 + nd));
  }

  // Sub-stage B: Algorithm-2 key-switch sessions over the Q basis.
  std::vector<std::size_t> relin_live;
  relin_live.reserve(count);
  for (std::size_t r = 0; r < count; ++r)
    if (s.errs[r] == nullptr && s.round[r].req.kind != RequestKind::kEvalMult)
      relin_live.push_back(r);
  if (!relin_live.empty()) {
    for (std::size_t r : relin_live) s.slots[r].relin_accs.resize(ctx.q_basis().size());
    run_stage(s, relin_live, ctx.q_basis().size(), chip_sim_b,
              [&](std::size_t c, std::size_t tw, const std::vector<std::size_t>& reqs,
                  driver::ChipMulReport& rep) {
                auto& drv = farm_.driver(c);
                // One key-switch group per tower: the batched key switch
                // shares key uploads across it (SP1 key cache).
                std::vector<const driver::RelinOperands*> group;
                group.reserve(reqs.size());
                for (std::size_t r : reqs) group.push_back(&s.slots[r].relin);
                ChipBfvEvaluator::configure_relin_tower(drv, scheme_, tw, &rep);
                auto accs = ChipBfvEvaluator::relin_tower_batch(
                    drv, scheme_, group, *opts_.relin_keys, tw, &key_caches_[c], &rep);
                for (std::size_t j = 0; j < reqs.size(); ++j)
                  s.slots[reqs[j]].relin_accs[tw] = std::move(accs[j]);
                rep.relin_tower_runs += reqs.size();
              });
    // Host-side accumulation of the read-back key-switch products runs
    // inside the sessions (pointwise adds per digit, component, tower).
    stage_host_ops += static_cast<double>(relin_live.size()) * 2.0 * n * qt * nd;
  }

  // The round's chip-stage span: the busiest chip of each serialized
  // sub-stage plus the host work that executed inside the stage.
  double busiest_a = 0, busiest_b = 0;
  for (double cs : chip_sim_a) busiest_a = std::max(busiest_a, cs);
  for (double cs : chip_sim_b) busiest_b = std::max(busiest_b, cs);
  s.sim_chip = busiest_a + busiest_b + host_seconds(stage_host_ops);
}

void EvalService::host_finish(Session& s) {
  using driver::ChipBfvEvaluator;
  const auto span =
      opts_.trace != nullptr
          ? opts_.trace->span_wall(
                "round.finish", "round",
                {{"requests", static_cast<double>(s.round.size())}})
          : obs::TraceRecorder::WallSpan();
  const std::size_t count = s.round.size();
  const auto& ctx = scheme_.context();
  const double n = static_cast<double>(ctx.n());
  const double qt = static_cast<double>(ctx.q_basis().size());
  const double et = static_cast<double>(ctx.ext_basis().size());

  double ops = 0;
  for (std::size_t r = 0; r < count; ++r)
    if (s.errs[r] == nullptr)
      ops += s.round[r].req.kind == RequestKind::kEvalMult
                 ? 3.0 * n * (et + qt)  // tensor reassembly + t/q rounding
                 : 2.0 * n * qt;        // stacking the relinearized towers

  // Poison faulted slots: a faulted request's intermediates (partial
  // tensors, relin accumulators) are dropped wholesale and deterministically
  // here, so nothing downstream can observe a half-written artifact -- the
  // dependent promise gets the originating exception (first error wins, set
  // in retire()) or a fresh round via requeue, never follow-on garbage.
  for (std::size_t r = 0; r < count; ++r)
    if (s.errs[r] != nullptr) s.slots[r] = RoundSlot{};

  exec_.for_each(count, [&](std::size_t r) {
    if (s.errs[r] != nullptr) return;  // settled (or requeued) in retire()
    try {
      auto& slot = s.slots[r];
      slot.result = s.round[r].req.kind == RequestKind::kEvalMult
                        ? ChipBfvEvaluator::assemble(scheme_, slot.tensors)
                        : ChipBfvEvaluator::assemble_relin(slot.relin_accs);
    } catch (...) {
      s.errs[r] = std::current_exception();
    }
  });
  s.sim_finish = host_seconds(ops);
}

void EvalService::retire(Session& s) {
  const double now = seconds_since(start_);
  bool requeued = false;
  std::vector<std::size_t> settle;  // round indices not requeued
  settle.reserve(s.round.size());
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (std::size_t i = 0; i < s.round.size(); ++i) {
      Pending& p = s.round[i];
      if (s.errs[i] != nullptr && is_fault(s.errs[i]) &&
          p.attempts < opts_.request_retries) {
        // Healing layer 2: the round lost this request to a chip/link fault
        // even after intra-stage retries -- give it a fresh round (fresh
        // placement, quarantine may have kicked in by then) instead of its
        // future the error.  Bounded by request_retries, so a drain
        // terminates even on an all-dead farm.  Requeues run during
        // shutdown too: stop() promises to drain accepted work, and a
        // retryable fault is not yet an answer.
        ++p.attempts;
        ++stats_.requeues;
        if (opts_.trace != nullptr)
          opts_.trace->instant_wall(
              "requeue", "heal",
              {{"request", static_cast<double>(p.id)},
               {"attempts", static_cast<double>(p.attempts)}});
        queue_.push(std::move(p));
        requeued = true;
        continue;
      }
      const std::size_t cls_idx = static_cast<std::size_t>(p.so.priority);
      auto& cls = stats_.per_class[cls_idx];
      TenantAgg& ten = tenant_agg(p.so.tenant);
      // Settled either way: release the tenancy pending slot here, not at
      // requeue -- a requeued request still occupies its tenant's quota.
      if (tenancy_enabled_) tenancy_release_locked(p.so.tenant, now);
      settle.push_back(i);
      if (s.errs[i] != nullptr) {
        ++stats_.failed;
        ++cls.failed;
        ++ten.counts.failed;
      } else {
        ++stats_.completed;
        ++cls.completed;
        ++ten.counts.completed;
      }
      if (opts_.trace != nullptr)
        opts_.trace->async_end(
            p.id, "request", "request",
            {{"ok", s.errs[i] == nullptr ? 1.0 : 0.0},
             {"attempts", static_cast<double>(p.attempts)}});
      const double lat = std::max(0.0, now - p.enqueued);
      class_latency_[cls_idx].record(lat);
      ten.latency.record(lat);
      if (latency_hist_[cls_idx] != nullptr) latency_hist_[cls_idx]->observe(lat);
    }
    in_flight_ -= s.round.size();
    last_done_ = Clock::now();
    if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
  }
  if (requeued) work_cv_.notify_one();
  // The one settlement site, after the books count each request (so a
  // client whose get() returned reads stats() that include it) and outside
  // mu_.  Settling was deferred past host_finish so the requeue branch above
  // could reclaim a faulted request's promise.
  for (std::size_t i : settle) {
    if (s.errs[i] != nullptr)
      s.round[i].promise.set_exception(s.errs[i]);
    else
      s.round[i].promise.set_value(std::move(s.slots[i].result));
  }
}

std::vector<ChipScore> EvalService::chip_scores(
    const std::vector<bool>* exclude) const {
  // Caller holds mu_: the unit costs are a live EWMA and the quarantine
  // flags flip under the same lock.  Chip stages are barrier-synchronized,
  // so every placement starts from idle chips; heterogeneity and measured
  // degradation both enter through the per-chip unit costs.
  std::vector<ChipScore> scores(chip_eligible_.size());
  for (std::size_t c = 0; c < scores.size(); ++c) {
    scores[c].eligible = chip_eligible_[c] && !health_[c].quarantined &&
                         (exclude == nullptr || !(*exclude)[c]);
    scores[c].load = 0;
    scores[c].unit_cost = chip_unit_cost_[c];
  }
  return scores;
}

std::vector<std::vector<std::size_t>> EvalService::place_items(
    std::size_t items, const std::vector<bool>* exclude) {
  const auto span =
      opts_.trace != nullptr
          ? opts_.trace->span_wall("placement", "round",
                                   {{"items", static_cast<double>(items)}})
          : obs::TraceRecorder::WallSpan();
  const auto any_eligible = [](const std::vector<ChipScore>& sc) {
    for (const ChipScore& x : sc)
      if (x.eligible) return true;
    return false;
  };
  std::vector<ChipScore> scores;
  {
    std::lock_guard<std::mutex> lk(mu_);
    scores = chip_scores(exclude);
    // A same-stage blacklist that would empty the farm is dropped: a lone
    // eligible chip's transient fault must stay retryable on that chip.
    if (exclude != nullptr && !any_eligible(scores)) scores = chip_scores(nullptr);
  }
  if (!any_eligible(scores)) {
    // Quarantine emptied the farm.  Force-probe every quarantined chip
    // right now (we are serialized with all chip activity -- see
    // run_chip_stage) and re-score; only a farm that still answers nothing
    // is a hard capacity error.
    probe_quarantined(/*force=*/true);
    std::lock_guard<std::mutex> lk(mu_);
    scores = chip_scores(exclude);
    if (exclude != nullptr && !any_eligible(scores)) scores = chip_scores(nullptr);
    if (!any_eligible(scores))
      throw FarmCapacityError(
          "EvalService: every eligible chip is quarantined and failing probes");
  }
  const auto assign = Placer::assign(scores, items, opts_.placement);
  std::vector<std::vector<std::size_t>> mine(farm_.size());
  for (std::size_t i = 0; i < items; ++i) mine[assign[i]].push_back(i);
  std::lock_guard<std::mutex> lk(mu_);
  for (std::size_t c = 0; c < mine.size(); ++c)
    stats_.per_chip[c].placements += mine[c].size();
  return mine;
}

template <typename TowerBody>
void EvalService::run_stage(Session& s, const std::vector<std::size_t>& live,
                            std::size_t towers, std::vector<double>& chip_sim,
                            TowerBody&& tower_body) {
  // Stage-local item ids still waiting for a successful chip share: towers
  // under kShardTowers, indices into `live` under kBatchPerChip.
  const bool shard = opts_.strategy == Strategy::kShardTowers;
  std::vector<std::size_t> todo(shard ? towers : live.size());
  std::iota(todo.begin(), todo.end(), std::size_t{0});
  std::vector<std::size_t> all_towers(towers);
  std::iota(all_towers.begin(), all_towers.end(), std::size_t{0});
  // Chips that faulted during this stage: blacklisted from re-placement so
  // a retry lands elsewhere (place_items drops the blacklist when it would
  // empty the farm -- a lone chip must get to retry its own transient).
  std::vector<bool> stage_faulted(farm_.size(), false);
  bool any_faulted = false;
  std::size_t retries_left = opts_.max_stage_retries;

  while (!todo.empty()) {
    const auto assign =
        place_items(todo.size(), any_faulted ? &stage_faulted : nullptr);
    std::vector<std::size_t> active;
    for (std::size_t c = 0; c < assign.size(); ++c)
      if (!assign[c].empty()) active.push_back(c);
    std::vector<std::exception_ptr> chip_errs(farm_.size());
    exec_.for_each(active.size(), [&](std::size_t k) {
      const std::size_t c = active[k];
      // The chip's (tower, request) cells: every live request at its placed
      // towers, or its placed requests at every tower.
      std::vector<std::size_t> placed;
      placed.reserve(assign[c].size());
      for (std::size_t j : assign[c]) placed.push_back(todo[j]);
      std::vector<std::size_t> reqs;
      if (shard) {
        reqs = live;
      } else {
        for (std::size_t i : placed) reqs.push_back(live[i]);
      }
      const auto t0 = Clock::now();
      const auto stage_span =
          opts_.trace != nullptr
              ? opts_.trace->span_wall(
                    "stage", "round",
                    {{"chip", static_cast<double>(c)},
                     {"items", static_cast<double>(placed.size())}})
              : obs::TraceRecorder::WallSpan();
      driver::ChipMulReport rep;
      rep.trace = opts_.trace;
      rep.trace_chip = static_cast<std::uint32_t>(c);
      rep.requests = reqs.size();
      try {
        for (std::size_t tw : shard ? placed : all_towers) tower_body(c, tw, reqs, rep);
        if (opts_.stage_timeout_seconds > 0 &&
            sim_seconds(rep) > opts_.stage_timeout_seconds) {
          // Modeled stage budget blown (injected stalls inflating the
          // link): handled exactly like a link fault, results discarded.
          {
            std::lock_guard<std::mutex> lk(mu_);
            ++stats_.stage_timeouts;
          }
          if (opts_.trace != nullptr)
            opts_.trace->instant_wall("stage_timeout", "heal",
                                      {{"chip", static_cast<double>(c)}});
          throw chip::LinkTimeoutError(
              "chip " + std::to_string(c) + " stage took " +
              std::to_string(sim_seconds(rep)) + "s (budget " +
              std::to_string(opts_.stage_timeout_seconds) + "s)");
        }
      } catch (...) {
        chip_errs[c] = std::current_exception();
      }
      chip_sim[c] += sim_seconds(rep);
      // Close the session: the service's rows, then one fold into the
      // chip's stats.  A share that faulted before configuring any tower
      // never occupied the chip.
      rep.sessions = 1;
      rep.compute_seconds = rep.chip_ms * 1e-3;
      rep.busy_wall_seconds = seconds_since(t0);
      std::lock_guard<std::mutex> lk(mu_);
      if (rep.ring_configs > 0) stats_.per_chip[c] += rep;
      if (chip_errs[c] == nullptr) {
        note_chip_ok_locked(c, sim_seconds(rep) / static_cast<double>(placed.size()));
      } else if (is_fault(chip_errs[c])) {
        note_chip_fault_locked(c);
      }
    });

    std::vector<std::size_t> next_todo;
    bool round_poisoned = false;
    for (std::size_t c : active) {
      if (chip_errs[c] == nullptr) continue;
      if (is_fault(chip_errs[c]) && retries_left > 0) {
        // Healing layer 1: re-place this chip's share within the stage.
        // The tower bodies are pure functions of host-resident operands, so
        // re-running them (usually on another chip) is idempotent.
        stage_faulted[c] = true;
        any_faulted = true;
        for (std::size_t j : assign[c]) next_todo.push_back(todo[j]);
        if (opts_.trace != nullptr)
          opts_.trace->instant_wall("retry", "heal",
                                    {{"chip", static_cast<double>(c)}});
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.retries;
        continue;
      }
      // Out of retries, or not a fault at all: surface the originating
      // error.  First error wins -- nothing may overwrite it later.
      if (shard) {
        // Tower shards: a lost shard starves every request in the round.
        for (std::size_t r : live)
          if (s.errs[r] == nullptr) s.errs[r] = chip_errs[c];
        round_poisoned = true;
      } else {
        // Whole requests: only the chip's own placed requests are lost.
        for (std::size_t j : assign[c]) {
          const std::size_t r = live[todo[j]];
          if (s.errs[r] == nullptr) s.errs[r] = chip_errs[c];
        }
      }
    }
    if (round_poisoned || next_todo.empty()) break;
    --retries_left;
    std::sort(next_todo.begin(), next_todo.end());
    todo = std::move(next_todo);
  }
}

void EvalService::note_chip_fault_locked(std::size_t chip) {
  auto& h = health_[chip];
  ++stats_.per_chip[chip].faults;
  ++h.consecutive_faults;
  if (!h.quarantined && opts_.quarantine_after > 0 &&
      h.consecutive_faults >= opts_.quarantine_after) {
    h.quarantined = true;
    h.last_probe_round = stats_.rounds;
    ++stats_.per_chip[chip].quarantines;
    if (opts_.trace != nullptr)
      opts_.trace->instant_wall("quarantine", "heal",
                                {{"chip", static_cast<double>(chip)}});
  }
}

void EvalService::note_chip_ok_locked(std::size_t chip, double unit_cost_sample) {
  health_[chip].consecutive_faults = 0;
  if (unit_cost_sample > 0)
    chip_unit_cost_[chip] = (1.0 - kCostEwmaAlpha) * chip_unit_cost_[chip] +
                            kCostEwmaAlpha * unit_cost_sample;
}

void EvalService::probe_quarantined(bool force) {
  // Snapshot the due probes under the lock, run them outside it (a probe is
  // real link traffic and can throw).  Serialization with sessions comes
  // from the call sites: the chained chip stage, which never places work on
  // a quarantined chip.
  std::vector<std::size_t> due;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (std::size_t c = 0; c < health_.size(); ++c) {
      auto& h = health_[c];
      if (!h.quarantined || !chip_eligible_[c]) continue;
      if (!force && stats_.rounds - h.last_probe_round < opts_.probe_interval_rounds)
        continue;
      h.last_probe_round = stats_.rounds;
      due.push_back(c);
    }
  }
  for (std::size_t c : due) {
    bool ok = true;
    try {
      farm_.driver(c).probe();
    } catch (...) {
      ok = false;  // still sick: keep quarantined, try again next interval
    }
    if (opts_.trace != nullptr)
      opts_.trace->instant_wall(ok ? "probe.ok" : "probe.fail", "heal",
                                {{"chip", static_cast<double>(c)}});
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.per_chip[c].probes;
    if (ok) {
      health_[c].quarantined = false;
      health_[c].consecutive_faults = 0;
      ++stats_.per_chip[c].readmissions;
      if (opts_.trace != nullptr)
        opts_.trace->instant_wall("readmit", "heal",
                                  {{"chip", static_cast<double>(c)}});
    } else {
      ++stats_.probe_failures;
    }
  }
}

}  // namespace cofhee::service
