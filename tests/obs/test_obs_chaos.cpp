// Trace/stats reconciliation under the chaos battery: every fault the
// injectors fire lands as exactly one trace instant, every healing action
// (retry, requeue, quarantine, probe, readmission, stage timeout) matches
// its ServiceStats counter, and the per-tower phase spans account for
// exactly the io + compute seconds the stats recorded -- even when phases
// die mid-flight.
#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "bfv/encoder.hpp"
#include "chip/fault.hpp"
#include "obs/trace.hpp"
#include "service/errors.hpp"
#include "service/eval_service.hpp"

namespace cofhee::obs {
namespace {

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
  std::vector<service::EvalRequest> requests;

  ChaosFixture() {
    const std::int64_t plains[][2] = {{0, 1},  {1, 1},    {-1, 7},
                                      {2, 3},  {255, -128}, {-181, 181}};
    for (const auto& p : plains)
      requests.push_back({scheme.encrypt(pk, enc.encode(p[0])),
                          scheme.encrypt(pk, enc.encode(p[1])),
                          service::RequestKind::kMultRelin});
  }
};

/// Drain every future; faults surface as typed errors, both outcomes OK.
void settle(std::vector<std::future<bfv::Ciphertext>>& futs) {
  for (auto& f : futs) {
    try {
      (void)f.get();
    } catch (const chip::FaultError&) {
    } catch (const service::FarmCapacityError&) {
    }
  }
}

/// Every trace-vs-stats identity that must hold for ANY fault schedule.
void expect_trace_reconciles(const TraceRecorder& rec,
                             const service::ServiceStats& st) {
  // One instant per injected fault (kills counted once; dead-chip
  // rejections after the kill are not re-fired).
  EXPECT_EQ(rec.count_events("fault"), st.faults_injected);
  // One healing instant per healing counter tick.
  EXPECT_EQ(rec.count_events("heal", "retry"), st.retries);
  EXPECT_EQ(rec.count_events("heal", "requeue"), st.requeues);
  EXPECT_EQ(rec.count_events("heal", "quarantine"), st.quarantines);
  EXPECT_EQ(rec.count_events("heal", "readmit"), st.readmissions);
  EXPECT_EQ(rec.count_events("heal", "stage_timeout"), st.stage_timeouts);
  EXPECT_EQ(rec.count_events("heal", "probe.ok") +
                rec.count_events("heal", "probe.fail"),
            st.probes);
  EXPECT_EQ(rec.count_events("heal", "probe.fail"), st.probe_failures);
  // The phase tracks carry exactly the io + compute the stats recorded:
  // each driver phase span covers the deltas it added to its report, and a
  // phase that faults mid-flight contributes its partial accounting to
  // both sides identically.
  EXPECT_NEAR(rec.sim_category_seconds("phase"),
              st.io_seconds + st.compute_seconds,
              1e-9 * (1.0 + st.io_seconds + st.compute_seconds));
  // One async 'b' and at most one 'e' per submitted request ('e' missing
  // only for requests still unsettled, which drain() rules out).
  EXPECT_EQ(rec.count_events("request"), 2 * st.submitted);
}

TEST(ObsChaos, DeadChipEventsMatchCounters) {
  AlarmGuard guard(120);
  ChaosFixture f;
  // Chip 0 dies on its first transaction; quarantine after one fault, no
  // stage retries, so healing goes requeue -> quarantine -> probe(fail).
  std::vector<service::ChipSpec> specs(2);
  specs[0].faults.events.push_back({chip::FaultKind::kKillChip, 0, 1, 0});
  service::ChipFarm farm(specs);
  TraceRecorder rec;
  service::ServiceOptions opts;
  opts.relin_keys = &f.rk;
  opts.max_stage_retries = 0;
  opts.quarantine_after = 1;
  opts.trace = &rec;
  service::EvalService svc(f.scheme, farm, opts);
  auto futs = svc.submit_batch(f.requests);
  settle(futs);
  svc.drain();
  const auto st = svc.stats();
  EXPECT_EQ(st.completed, f.requests.size());
  EXPECT_GT(st.requeues, 0u);
  EXPECT_GE(st.quarantines, 1u);
  expect_trace_reconciles(rec, st);
}

TEST(ObsChaos, SeededScheduleMatrixReconciles) {
  AlarmGuard guard(600);
  ChaosFixture f;
  // Random seeded fault schedules across farm sizes and depths: the
  // trace/stats identities must hold cell by cell.  The traced seed
  // reproduces any failing cell.
  const std::uint64_t seeds[] = {7, 1001, 424242};
  for (std::size_t chips : {1u, 2u, 4u}) {
    for (std::uint64_t seed : seeds) {
      SCOPED_TRACE("chips=" + std::to_string(chips) +
                   " fault_schedule_seed=" + std::to_string(seed));
      std::vector<service::ChipSpec> specs(chips);
      for (std::size_t c = 0; c < chips; ++c)
        specs[c].faults = chip::FaultSchedule::random(
            seed + c, /*op_horizon=*/3000, /*num_events=*/5,
            /*link_timeout_seconds=*/0.05);
      service::ChipFarm farm(specs);
      TraceRecorder rec;
      service::ServiceOptions opts;
      opts.relin_keys = &f.rk;
      opts.max_batch = 3;
      opts.trace = &rec;
      service::EvalService svc(f.scheme, farm, opts);
      auto futs = svc.submit_batch(f.requests);
      settle(futs);
      svc.drain();
      expect_trace_reconciles(rec, svc.stats());
    }
  }
}

}  // namespace
}  // namespace cofhee::obs
