// Graph-level chaos: ciphertext DAGs executed over a sick farm.  The
// executor's failure contract (fail fast on the first faulted round, free
// every intermediate, surface the originating typed error, submit nothing
// further) and the acceptance bar for the healing layer (a farm with one
// dead chip completes the full CryptoNets graph, with requeues > 0 and
// simulated throughput within 2x of the healthy (N-1)-chip reference) are
// pinned here.  Alarm-guarded: a wedged round kills the process rather
// than hanging CI; seeded cells print their fault-schedule seed.
#include "graph/executor.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/cryptonets.hpp"
#include "chip/fault.hpp"
#include "service/eval_service.hpp"

namespace cofhee::graph {
namespace {

/// Never-hang guard (SIGALRM default action: terminate the process).
struct AlarmGuard {
  explicit AlarmGuard(unsigned seconds) { alarm(seconds); }
  ~AlarmGuard() { alarm(0); }
};

struct GraphFaultFixture {
  bfv::Bfv scheme{bfv::BfvParams::test_tiny(32), 11};
  bfv::SecretKey sk = scheme.keygen_secret();
  bfv::PublicKey pk = scheme.keygen_public(sk);
  bfv::RelinKeys rk = scheme.keygen_relin(sk, 16);

  bfv::Ciphertext enc_scalar(std::int64_t v) {
    bfv::Plaintext p;
    p.coeffs.assign(scheme.context().n(), 0);
    const auto t = static_cast<std::int64_t>(scheme.context().t());
    std::int64_t r = v % t;
    if (r < 0) r += t;
    p.coeffs[0] = static_cast<nt::u64>(r);
    return scheme.encrypt(pk, p);
  }
};

void expect_bit_exact(const bfv::Ciphertext& got, const bfv::Ciphertext& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got.c[i].towers, want.c[i].towers) << "component " << i;
}

/// The standing CryptoNets program: inputs, compiled graph, and the
/// pure-software reference outputs.
struct CryptoNetsCase {
  apps::NetworkConfig cfg{6, 4, 2, 42};
  Graph g;
  CompiledGraph cg;
  std::vector<bfv::Ciphertext> enc_x;
  std::vector<bfv::Ciphertext> reference;

  explicit CryptoNetsCase(GraphFaultFixture& f) {
    apps::CryptoNet net(f.scheme.context(), cfg);
    const std::vector<std::int64_t> x = {1, -2, 3, 0, -1, 2};
    for (auto v : x) enc_x.push_back(f.enc_scalar(v));
    std::vector<NodeId> ins;
    for (std::size_t i = 0; i < cfg.inputs; ++i) ins.push_back(g.input());
    (void)net.build_graph(g, ins);
    cg = compile(g);
    reference = evaluate_reference(f.scheme, g, enc_x, &f.rk);
  }
};

TEST(GraphFaults, RunFailsFastWithTheOriginatingFault) {
  AlarmGuard guard(120);
  GraphFaultFixture f;
  // Chain of dependent squarings -> three chip rounds of one op each, so a
  // first-round fault has later rounds to (not) submit.
  Graph g;
  const auto x = g.input();
  const auto a = g.square_relin(x);
  const auto b = g.square_relin(a);
  g.mark_output(g.square_relin(b));
  const auto cg = compile(g);
  ASSERT_EQ(cg.chip_ops, 3u);

  // A lone chip that dies immediately, with quarantine disabled so every
  // retry and requeue exhausts against the same dead link: the error that
  // reaches the caller must be the originating ChipFaultError, not a
  // follow-on artifact, and no later round may have been submitted.
  std::vector<service::ChipSpec> specs(1);
  specs[0].faults.events.push_back({chip::FaultKind::kKillChip, 0, 1, 0});
  service::ChipFarm farm(specs);
  service::ServiceOptions opts;
  opts.relin_keys = &f.rk;
  opts.quarantine_after = 0;  // no quarantine: the fault itself must surface
  service::EvalService svc(f.scheme, farm, opts);
  GraphExecutor ex(f.scheme, svc);
  const std::vector<bfv::Ciphertext> in = {f.enc_scalar(3)};
  EXPECT_THROW((void)ex.run(cg, in), chip::ChipFaultError);
  // Fail-fast: only the first round's op was ever submitted, and the
  // service has fully settled it (nothing in flight, nothing queued).
  const auto st = svc.stats();
  EXPECT_EQ(st.submitted, 1u);
  EXPECT_EQ(st.completed, 0u);
  EXPECT_EQ(st.failed, 1u);
  EXPECT_EQ(st.queue_depth, 0u);
  // The service stays usable for later traffic on this (still sick) farm:
  // submissions settle with typed errors rather than wedging.
  auto fu = svc.submit({in[0], in[0], service::RequestKind::kEvalMult});
  EXPECT_THROW((void)fu.get(), chip::ChipFaultError);
}

TEST(GraphFaults, OneDeadChipFarmCompletesCryptoNetsWithinTwiceHealthy) {
  AlarmGuard guard(240);
  GraphFaultFixture f;
  CryptoNetsCase cn(f);

  // Reference: a healthy (N-1)-chip farm running the same graph.
  service::ServiceOptions base;
  base.relin_keys = &f.rk;
  double healthy_sim = 0;
  {
    service::ChipFarm healthy(2);
    service::EvalService svc(f.scheme, healthy, base);
    GraphExecutor ex(f.scheme, svc);
    const auto outs = ex.run(cn.cg, cn.enc_x);
    ASSERT_EQ(outs.size(), cn.reference.size());
    for (std::size_t i = 0; i < outs.size(); ++i)
      expect_bit_exact(outs[i], cn.reference[i]);
    svc.drain();
    healthy_sim = svc.stats().simulated_seconds();
    ASSERT_GT(healthy_sim, 0.0);
  }

  // Sick farm: 3 chips, chip 0 dead from its first transaction.  Stage
  // retries off so healing must requeue whole requests; one fault
  // quarantines the corpse.
  std::vector<service::ChipSpec> specs(3);
  specs[0].faults.events.push_back({chip::FaultKind::kKillChip, 0, 1, 0});
  service::ChipFarm farm(specs);
  auto opts = base;
  opts.max_stage_retries = 0;
  opts.quarantine_after = 1;
  service::EvalService svc(f.scheme, farm, opts);
  GraphExecutor ex(f.scheme, svc);
  const auto outs = ex.run(cn.cg, cn.enc_x);
  ASSERT_EQ(outs.size(), cn.reference.size());
  for (std::size_t i = 0; i < outs.size(); ++i)
    expect_bit_exact(outs[i], cn.reference[i]);
  svc.drain();
  const auto st = svc.stats();
  EXPECT_EQ(st.failed, 0u);
  EXPECT_GT(st.requeues, 0u);
  EXPECT_GE(st.quarantines, 1u);
  EXPECT_TRUE(st.per_chip[0].quarantined);
  // Acceptance bar: the sick farm's simulated makespan stays within 2x of
  // the healthy (N-1)-chip farm serving the same graph.
  EXPECT_LE(st.simulated_seconds(), 2.0 * healthy_sim)
      << "sick=" << st.simulated_seconds() << "s healthy=" << healthy_sim << "s";
}

TEST(GraphFaults, SeededGraphChaosSettlesEveryRun) {
  AlarmGuard guard(480);
  GraphFaultFixture f;
  CryptoNetsCase cn(f);
  // Random schedules over 2-chip farms x pipeline depths 1/2/4: every run
  // either reproduces the reference outputs bit-exactly or throws a typed
  // error; the executor never hangs and the service always drains clean.
  const std::uint64_t seeds[] = {3, 99, 20230615};
  for (std::size_t depth : {1u, 2u, 4u}) {
    for (std::uint64_t seed : seeds) {
      SCOPED_TRACE("depth=" + std::to_string(depth) +
                   " fault_schedule_seed=" + std::to_string(seed));
      std::vector<service::ChipSpec> specs(2);
      for (std::size_t c = 0; c < specs.size(); ++c)
        specs[c].faults = chip::FaultSchedule::random(
            seed + c, /*op_horizon=*/2000, /*num_events=*/4,
            /*link_timeout_seconds=*/0.05);
      service::ChipFarm farm(specs);
      service::ServiceOptions opts;
      opts.relin_keys = &f.rk;
      opts.pipeline_depth = depth;
      service::EvalService svc(f.scheme, farm, opts);
      GraphExecutor ex(f.scheme, svc);
      try {
        const auto outs = ex.run(cn.cg, cn.enc_x);
        ASSERT_EQ(outs.size(), cn.reference.size());
        for (std::size_t i = 0; i < outs.size(); ++i)
          expect_bit_exact(outs[i], cn.reference[i]);
      } catch (const chip::FaultError&) {
        // Typed and expected when the schedule defeats all healing.
      } catch (const service::FarmCapacityError&) {
        // Both chips quarantined/dead: also a typed, explained outcome.
      }
      svc.drain();
      const auto st = svc.stats();
      EXPECT_EQ(st.completed + st.failed, st.submitted);
    }
  }
}

}  // namespace
}  // namespace cofhee::graph
