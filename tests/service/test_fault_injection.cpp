// Chaos battery for the sick-farm model (chip/fault.hpp + the service's
// healing layer).  The contract under test: with faults injected at the
// link/chip layer, every submitted request either completes BIT-EXACT to
// the serial software reference or fails with the originating typed fault
// -- never silent garbage, never a hang (every test runs under a SIGALRM
// watchdog).  Failing seeded cases print their fault-schedule seed so the
// exact chaos run reproduces from the command line.
#include "chip/fault.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <type_traits>
#include <vector>

#include "bfv/encoder.hpp"
#include "service/errors.hpp"
#include "service/eval_service.hpp"

namespace cofhee::service {
namespace {

/// Never-hang guard: if a chaos case deadlocks, SIGALRM's default action
/// kills the process and the test run fails loudly instead of wedging CI.
struct AlarmGuard {
  explicit AlarmGuard(unsigned seconds) { alarm(seconds); }
  ~AlarmGuard() { alarm(0); }
};

struct ChaosFixture {
  bfv::Bfv scheme{bfv::BfvParams::test_tiny(64), /*seed=*/17};
  bfv::SecretKey sk = scheme.keygen_secret();
  bfv::PublicKey pk = scheme.keygen_public(sk);
  bfv::RelinKeys rk = scheme.keygen_relin(sk, 16);
  bfv::IntegerEncoder enc{scheme.context()};

  std::vector<std::pair<std::int64_t, std::int64_t>> plains = {
      {0, 1}, {1, 1}, {-1, 7}, {2, 3}, {255, -128}, {-181, 181}};
  std::vector<EvalRequest> requests;         // kMultRelin traffic
  std::vector<bfv::Ciphertext> expected;     // serial software reference

  ChaosFixture() {
    for (const auto& [x, y] : plains) {
      EvalRequest r{scheme.encrypt(pk, enc.encode(x)),
                    scheme.encrypt(pk, enc.encode(y)), RequestKind::kMultRelin};
      expected.push_back(scheme.relinearize(scheme.multiply(r.a, r.b), rk));
      requests.push_back(std::move(r));
    }
  }

  ServiceOptions base_opts() const {
    ServiceOptions o;
    o.relin_keys = &rk;
    return o;
  }
};

void expect_bit_exact(const bfv::Ciphertext& got, const bfv::Ciphertext& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got.c[i].towers, want.c[i].towers) << "component " << i;
}

/// Drain the futures: each must yield the bit-exact reference or throw a
/// typed retryable fault (or, for an all-dead farm, FarmCapacityError).
/// Returns the number of failed requests.
std::size_t settle(std::vector<std::future<bfv::Ciphertext>>& futs,
                   const ChaosFixture& f) {
  std::size_t failed = 0;
  for (std::size_t i = 0; i < futs.size(); ++i) {
    try {
      expect_bit_exact(futs[i].get(), f.expected[i]);
    } catch (const chip::FaultError&) {
      ++failed;
    } catch (const FarmCapacityError&) {
      ++failed;
    }
    // Anything else (logic_error, bad ciphertext shapes...) escapes and
    // fails the test: faults must stay typed all the way up.
  }
  return failed;
}

/// Counter invariants that must hold for ANY schedule at ANY point.
void expect_counter_invariants(const ServiceStats& st) {
  EXPECT_LE(st.readmissions, st.quarantines);
  EXPECT_GE(st.probes, st.readmissions);
  EXPECT_LE(st.probe_failures, st.probes);
  // Farm total == sum over chips, for every counter row (healing rows
  // included).
  driver::ChipCounters::for_each_counter([&](const char* family, const char*, auto m) {
    std::remove_cvref_t<decltype(st.*m)> sum{};
    for (const auto& c : st.per_chip) sum += c.*m;
    EXPECT_EQ(st.*m, sum) << family;
  });
  EXPECT_EQ(st.completed + st.failed, st.submitted);
}

TEST(FaultInjection, InjectorFiresTypedFaultsDeterministically) {
  AlarmGuard guard(120);
  // Corrupt window [2, 4), sub-timeout stall at 5, timed-out stall at 6,
  // kill at 8.
  chip::FaultSchedule sch;
  sch.link_timeout_seconds = 1.0;
  sch.events.push_back({chip::FaultKind::kCorruptFrame, 2, 2, 0});
  sch.events.push_back({chip::FaultKind::kStallLink, 5, 1, 0.25});
  sch.events.push_back({chip::FaultKind::kStallLink, 6, 1, 4.0});
  sch.events.push_back({chip::FaultKind::kKillChip, 8, 1, 0});
  chip::FaultInjector inj(sch);

  EXPECT_DOUBLE_EQ(inj.on_transaction(), 0.0);  // op 0
  EXPECT_DOUBLE_EQ(inj.on_transaction(), 0.0);  // op 1
  EXPECT_THROW(inj.on_transaction(), chip::ChipFaultError);   // op 2
  EXPECT_THROW(inj.on_transaction(), chip::ChipFaultError);   // op 3
  EXPECT_DOUBLE_EQ(inj.on_transaction(), 0.0);                // op 4
  EXPECT_DOUBLE_EQ(inj.on_transaction(), 0.25);               // op 5: late
  EXPECT_THROW(inj.on_transaction(), chip::LinkTimeoutError); // op 6
  EXPECT_FALSE(inj.dead());
  EXPECT_DOUBLE_EQ(inj.on_transaction(), 0.0);                // op 7
  EXPECT_THROW(inj.on_transaction(), chip::ChipFaultError);   // op 8: kill
  EXPECT_TRUE(inj.dead());
  // Death is permanent; repeated rejections are not re-counted as faults.
  const std::uint64_t fired = inj.faults_fired();
  EXPECT_THROW(inj.on_transaction(), chip::ChipFaultError);
  EXPECT_THROW(inj.on_transaction(), chip::ChipFaultError);
  EXPECT_EQ(inj.faults_fired(), fired);
  EXPECT_EQ(fired, 5u);  // 2 corrupt + 2 stalls + 1 kill
}

TEST(FaultInjection, RandomScheduleIsSeedStable) {
  const auto a = chip::FaultSchedule::random(1234, 5000, 8, 0.5);
  const auto b = chip::FaultSchedule::random(1234, 5000, 8, 0.5);
  ASSERT_EQ(a.events.size(), b.events.size());
  ASSERT_EQ(a.events.size(), 8u);
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].at_op, b.events[i].at_op);
    EXPECT_EQ(a.events[i].count, b.events[i].count);
    EXPECT_DOUBLE_EQ(a.events[i].stall_seconds, b.events[i].stall_seconds);
    EXPECT_LT(a.events[i].at_op, 5000u);
  }
  // A different seed is a different schedule (astronomically certain).
  const auto c = chip::FaultSchedule::random(1235, 5000, 8, 0.5);
  bool differs = false;
  for (std::size_t i = 0; i < c.events.size(); ++i)
    differs = differs || c.events[i].at_op != a.events[i].at_op;
  EXPECT_TRUE(differs);
}

TEST(FaultInjection, AdmissionErrorsAreTyped) {
  AlarmGuard guard(120);
  ChaosFixture f;
  ChipFarm farm(1);
  auto opts = f.base_opts();
  opts.max_queue = 1;
  EvalService svc(f.scheme, farm, opts);
  // Queue-full hammer: the transient rejection is QueueFullError (still a
  // std::runtime_error for pre-typed callers).
  std::vector<std::future<bfv::Ciphertext>> futs;
  std::size_t queue_full = 0;
  while (futs.size() < 4) {
    try {
      futs.push_back(svc.submit(f.requests[0]));
    } catch (const QueueFullError&) {
      ++queue_full;
    }
  }
  for (auto& fu : futs) expect_bit_exact(fu.get(), f.expected[0]);
  svc.shutdown();
  EXPECT_THROW((void)svc.submit(f.requests[0]), ServiceStoppedError);
  // The hierarchy: both are ServiceError and std::runtime_error.
  try {
    (void)svc.submit(f.requests[0]);
    FAIL() << "submit after shutdown must throw";
  } catch (const ServiceError&) {
  }
}

TEST(FaultInjection, LoneChipHealsItsOwnTransientFault) {
  AlarmGuard guard(120);
  ChaosFixture f;
  // One chip, one corrupt frame early in the first session: with nowhere
  // else to place, the stage retry must reuse the faulted chip itself.
  std::vector<ChipSpec> specs(1);
  specs[0].faults.events.push_back({chip::FaultKind::kCorruptFrame, 10, 1, 0});
  ChipFarm farm(specs);
  EvalService svc(f.scheme, farm, f.base_opts());
  auto futs = svc.submit_batch(f.requests);
  EXPECT_EQ(settle(futs, f), 0u);
  svc.drain();
  const auto st = svc.stats();
  EXPECT_EQ(st.completed, f.requests.size());
  EXPECT_EQ(st.failed, 0u);
  EXPECT_GT(st.retries, 0u);
  EXPECT_GT(st.faults_injected, 0u);
  expect_counter_invariants(st);
}

TEST(FaultInjection, DeadChipIsQuarantinedAndWorkRequeues) {
  AlarmGuard guard(120);
  ChaosFixture f;
  // Chip 0 dies on its very first transaction; chip 1 is healthy.  Stage
  // retries are disabled so healing must go the round-requeue way, and one
  // fault is enough for quarantine.
  std::vector<ChipSpec> specs(2);
  specs[0].faults.events.push_back({chip::FaultKind::kKillChip, 0, 1, 0});
  ChipFarm farm(specs);
  auto opts = f.base_opts();
  opts.max_stage_retries = 0;
  opts.quarantine_after = 1;
  EvalService svc(f.scheme, farm, opts);
  auto futs = svc.submit_batch(f.requests);
  EXPECT_EQ(settle(futs, f), 0u);
  svc.drain();
  const auto st = svc.stats();
  EXPECT_EQ(st.completed, f.requests.size());
  EXPECT_EQ(st.failed, 0u);
  EXPECT_GT(st.requeues, 0u);
  EXPECT_GE(st.quarantines, 1u);
  EXPECT_GE(st.per_chip[0].faults, 1u);
  // A dead chip never passes a probe: quarantined at sampling time, never
  // re-admitted, and probes against it all failed.
  EXPECT_TRUE(st.per_chip[0].quarantined);
  EXPECT_EQ(st.per_chip[0].readmissions, 0u);
  EXPECT_FALSE(st.per_chip[1].quarantined);
  expect_counter_invariants(st);
}

TEST(FaultInjection, TransientlySickChipIsReadmittedAfterProbe) {
  AlarmGuard guard(180);
  ChaosFixture f;
  // Chip 0 corrupts a window of early frames, then recovers for good.  One
  // fault quarantines it; once the per-round probes burn through the window
  // ([5, 11): each failing probe consumes one transaction, a passing one
  // two), a probe must pass and re-admit it.
  std::vector<ChipSpec> specs(2);
  specs[0].faults.events.push_back({chip::FaultKind::kCorruptFrame, 5, 6, 0});
  ChipFarm farm(specs);
  auto opts = f.base_opts();
  opts.max_stage_retries = 1;
  opts.quarantine_after = 1;
  opts.probe_interval_rounds = 1;
  EvalService svc(f.scheme, farm, opts);
  // Several sequential waves so rounds keep coming after the quarantine --
  // the probe (2 transactions) runs at each chip stage and readmits once
  // the corrupt window [5, 45) is consumed.
  for (int wave = 0; wave < 10; ++wave) {
    auto futs = svc.submit_batch(f.requests);
    EXPECT_EQ(settle(futs, f), 0u);
    svc.drain();
  }
  const auto st = svc.stats();
  EXPECT_EQ(st.completed, 10 * f.requests.size());
  EXPECT_EQ(st.failed, 0u);
  EXPECT_GE(st.quarantines, 1u);
  EXPECT_GE(st.readmissions, 1u);
  EXPECT_FALSE(st.per_chip[0].quarantined);  // healed and back in rotation
  expect_counter_invariants(st);
}

TEST(FaultInjection, DegradedChipShedsLoadThroughMeasuredCosts) {
  AlarmGuard guard(180);
  ChaosFixture f;
  // Chip 0 stalls every transaction a little (well under the timeout): no
  // errors anywhere, but its measured unit cost must climb above chip 1's
  // and placement must shift work away from it.
  std::vector<ChipSpec> specs(2);
  specs[0].faults.link_timeout_seconds = 1.0;
  specs[0].faults.events.push_back(
      {chip::FaultKind::kStallLink, 0, ~std::uint64_t{0} / 2, 0.002});
  ChipFarm farm(specs);
  EvalService svc(f.scheme, farm, f.base_opts());
  for (int wave = 0; wave < 6; ++wave) {
    auto futs = svc.submit_batch(f.requests);
    EXPECT_EQ(settle(futs, f), 0u);
    svc.drain();
  }
  const auto st = svc.stats();
  EXPECT_EQ(st.failed, 0u);
  EXPECT_GT(st.faults_injected, 0u);  // late stalls count as fired faults
  EXPECT_GT(st.per_chip[0].ewma_unit_cost, st.per_chip[1].ewma_unit_cost);
  // The healthy chip ends up carrying more of the farm's work.
  EXPECT_GT(st.per_chip[1].placements, st.per_chip[0].placements);
  expect_counter_invariants(st);
}

TEST(FaultInjection, StageTimeoutBudgetTreatsSlowSharesAsFaults) {
  AlarmGuard guard(120);
  ChaosFixture f;
  // Chip 0's share stalls hard but under the link timeout, so only the
  // service-level stage budget can catch it; chip 1 then serves the retry.
  std::vector<ChipSpec> specs(2);
  specs[0].faults.link_timeout_seconds = 1e9;  // link never times out itself
  specs[0].faults.events.push_back({chip::FaultKind::kStallLink, 0, 500, 0.4});
  ChipFarm farm(specs);
  auto opts = f.base_opts();
  opts.stage_timeout_seconds = 5.0;  // far above any healthy share
  opts.quarantine_after = 1;
  EvalService svc(f.scheme, farm, opts);
  auto futs = svc.submit_batch(f.requests);
  EXPECT_EQ(settle(futs, f), 0u);
  svc.drain();
  const auto st = svc.stats();
  EXPECT_EQ(st.failed, 0u);
  EXPECT_GT(st.stage_timeouts, 0u);
  EXPECT_GT(st.retries + st.requeues, 0u);
  expect_counter_invariants(st);
}

TEST(FaultInjection, SeededChaosMatrixNeverHangsOrCorrupts) {
  AlarmGuard guard(480);
  ChaosFixture f;
  // The acceptance matrix: random seeded schedules x 1/2/4-chip farms x
  // pipeline depths 1/2/4.  Every request must settle (bit-exact value or
  // typed error) under the alarm; counters must stay coherent.  The traced
  // seed reproduces any failing cell exactly.
  const std::uint64_t seeds[] = {7, 1001, 424242};
  for (std::size_t chips : {1u, 2u, 4u}) {
    for (std::size_t depth : {1u, 2u, 4u}) {
      for (std::uint64_t seed : seeds) {
        SCOPED_TRACE("chips=" + std::to_string(chips) +
                     " depth=" + std::to_string(depth) +
                     " fault_schedule_seed=" + std::to_string(seed));
        std::vector<ChipSpec> specs(chips);
        for (std::size_t c = 0; c < chips; ++c)
          specs[c].faults = chip::FaultSchedule::random(
              seed + c, /*op_horizon=*/3000, /*num_events=*/5,
              /*link_timeout_seconds=*/0.05);
        ChipFarm farm(specs);
        auto opts = f.base_opts();
        opts.pipeline_depth = depth;
        opts.max_batch = 3;  // several rounds per wave
        EvalService svc(f.scheme, farm, opts);
        auto futs = svc.submit_batch(f.requests);
        (void)settle(futs, f);  // bit-exact or typed -- both acceptable here
        svc.drain();
        expect_counter_invariants(svc.stats());
      }
    }
  }
}

}  // namespace
}  // namespace cofhee::service
