// Concurrency battery for the evaluation service: many producer threads
// submitting simultaneously (from a backend::ThreadPool, the way an
// application layer would), results verified bit-exactly against the
// serial software path.  Runs under the TSan CI lane (label `service`).
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <vector>

#include "backend/thread_pool.hpp"
#include "bfv/encoder.hpp"
#include "service/eval_service.hpp"

namespace cofhee::service {
namespace {

struct StressFixture {
  bfv::Bfv scheme{bfv::BfvParams::test_tiny(64), /*seed=*/23};
  bfv::SecretKey sk = scheme.keygen_secret();
  bfv::PublicKey pk = scheme.keygen_public(sk);
  bfv::IntegerEncoder enc{scheme.context()};
};

TEST(ServiceStress, ConcurrentSubmittersGetBitExactResults) {
  StressFixture f;
  constexpr std::size_t kProducers = 8;
  constexpr std::size_t kPerProducer = 4;

  // Pre-encrypt outside the pool: Bfv sampling is stateful and the service
  // contract only covers concurrent const evaluation.
  std::vector<std::vector<EvalMultRequest>> reqs(kProducers);
  std::vector<std::vector<bfv::Ciphertext>> want(kProducers);
  std::vector<std::vector<std::int64_t>> prod(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    for (std::size_t i = 0; i < kPerProducer; ++i) {
      const auto x = static_cast<std::int64_t>(p + 1);
      const auto y = static_cast<std::int64_t>(i) - 2;
      EvalMultRequest r{f.scheme.encrypt(f.pk, f.enc.encode(x)),
                        f.scheme.encrypt(f.pk, f.enc.encode(y))};
      want[p].push_back(f.scheme.multiply(r.a, r.b));
      prod[p].push_back(x * y);
      reqs[p].push_back(std::move(r));
    }
  }

  for (Strategy strategy : {Strategy::kBatchPerChip, Strategy::kShardTowers}) {
    SCOPED_TRACE(static_cast<int>(strategy));
    ChipFarm farm(2);
    EvalService svc(f.scheme, farm, {strategy, /*max_batch=*/8});
    std::atomic<int> mismatches{0};

    backend::ThreadPool producers(kProducers);
    producers.parallel_for(kProducers, [&](std::size_t p) {
      // Mix the two entry points: half the producers batch, half trickle.
      std::vector<std::future<bfv::Ciphertext>> futures;
      if (p % 2 == 0) {
        futures = svc.submit_batch(reqs[p]);
      } else {
        for (const auto& r : reqs[p]) futures.push_back(svc.submit({r.a, r.b}));
      }
      for (std::size_t i = 0; i < futures.size(); ++i) {
        const auto got = futures[i].get();
        if (got.size() != want[p][i].size()) {
          ++mismatches;
          continue;
        }
        for (std::size_t k = 0; k < got.size(); ++k)
          if (got.c[k].towers != want[p][i].c[k].towers) ++mismatches;
        if (f.enc.decode(f.scheme.decrypt(f.sk, got)) != prod[p][i]) ++mismatches;
      }
    });

    EXPECT_EQ(mismatches.load(), 0);
    svc.drain();
    const auto s = svc.stats();
    EXPECT_EQ(s.submitted, kProducers * kPerProducer);
    EXPECT_EQ(s.completed, kProducers * kPerProducer);
    EXPECT_EQ(s.failed, 0u);
    EXPECT_EQ(s.queue_depth, 0u);
  }
}

TEST(ServiceStress, PipelinedMixedKindRoundsUnderConcurrentSubmitters) {
  // The double-buffered dispatcher under fire: small rounds (max_batch=2)
  // so consecutive rounds overlap, all three request kinds interleaved from
  // concurrent producers, results checked bit-exactly against the serial
  // software path.  Runs under the TSan lane (label `service`).
  StressFixture f;
  const bfv::RelinKeys rk = f.scheme.keygen_relin(f.sk, 16);
  constexpr std::size_t kProducers = 6;
  constexpr std::size_t kPerProducer = 3;

  std::vector<std::vector<EvalRequest>> reqs(kProducers);
  std::vector<std::vector<bfv::Ciphertext>> want(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    for (std::size_t i = 0; i < kPerProducer; ++i) {
      const auto kind = static_cast<RequestKind>((p + i) % 3);
      const auto ca = f.scheme.encrypt(f.pk, f.enc.encode(static_cast<std::int64_t>(p) - 1));
      const auto cb = f.scheme.encrypt(f.pk, f.enc.encode(static_cast<std::int64_t>(i) + 2));
      const auto tensor = f.scheme.multiply(ca, cb);
      if (kind == RequestKind::kEvalMult) {
        want[p].push_back(tensor);
        reqs[p].push_back({ca, cb, kind});
      } else if (kind == RequestKind::kRelinearize) {
        want[p].push_back(f.scheme.relinearize(tensor, rk));
        reqs[p].push_back({tensor, {}, kind});
      } else {
        want[p].push_back(f.scheme.relinearize(tensor, rk));
        reqs[p].push_back({ca, cb, kind});
      }
    }
  }

  for (Strategy strategy : {Strategy::kBatchPerChip, Strategy::kShardTowers}) {
    SCOPED_TRACE(static_cast<int>(strategy));
    ChipFarm farm(2);
    ServiceOptions opts;
    opts.strategy = strategy;
    opts.max_batch = 2;
    opts.relin_keys = &rk;
    opts.pipeline_depth = 2;
    EvalService svc(f.scheme, farm, opts);
    std::atomic<int> mismatches{0};

    backend::ThreadPool producers(kProducers);
    producers.parallel_for(kProducers, [&](std::size_t p) {
      std::vector<std::future<bfv::Ciphertext>> futures;
      for (const auto& r : reqs[p]) futures.push_back(svc.submit(r));
      for (std::size_t i = 0; i < futures.size(); ++i) {
        const auto got = futures[i].get();
        if (got.size() != want[p][i].size()) {
          ++mismatches;
          continue;
        }
        for (std::size_t k = 0; k < got.size(); ++k)
          if (got.c[k].towers != want[p][i].c[k].towers) ++mismatches;
      }
    });

    EXPECT_EQ(mismatches.load(), 0);
    svc.drain();
    const auto s = svc.stats();
    EXPECT_EQ(s.completed, kProducers * kPerProducer);
    EXPECT_EQ(s.failed, 0u);
    EXPECT_LE(s.pipeline_span_seconds, s.serial_span_seconds + 1e-12);
  }
}

TEST(ServiceStress, InterleavedSubmitAndStatsPolling) {
  StressFixture f;
  ChipFarm farm(2);
  EvalService svc(f.scheme, farm, {Strategy::kShardTowers, 4});
  const EvalMultRequest proto{f.scheme.encrypt(f.pk, f.enc.encode(9)),
                              f.scheme.encrypt(f.pk, f.enc.encode(-4))};
  const auto want = f.scheme.multiply(proto.a, proto.b);

  backend::ThreadPool pool(4);
  std::atomic<int> mismatches{0};
  pool.parallel_for(4, [&](std::size_t worker) {
    if (worker == 0) {
      // A monitoring thread hammering the stats endpoint mid-traffic.
      for (int i = 0; i < 200; ++i) {
        const auto s = svc.stats();
        if (s.completed > s.submitted) ++mismatches;
      }
      return;
    }
    for (int i = 0; i < 6; ++i) {
      auto got = svc.submit({proto.a, proto.b}).get();
      for (std::size_t k = 0; k < got.size(); ++k)
        if (got.c[k].towers != want.c[k].towers) ++mismatches;
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
  svc.drain();
  EXPECT_EQ(svc.stats().completed, 18u);
}

}  // namespace
}  // namespace cofhee::service
