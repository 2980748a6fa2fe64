// obs::TraceRecorder battery: span/instant recording, simulated-axis
// cursor semantics, deterministic sim timelines under seeded multi-thread
// service traffic, JSON export shape, and the tracing differential
// (tracing must never change results).
#include "obs/trace.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bfv/encoder.hpp"
#include "service/eval_service.hpp"

namespace cofhee::obs {
namespace {

struct AlarmGuard {
  explicit AlarmGuard(unsigned seconds) { alarm(seconds); }
  ~AlarmGuard() { alarm(0); }
};

TEST(TraceRecorder, WallSpansAndInstantsAreCounted) {
  TraceRecorder rec;
  {
    auto s = rec.span_wall("outer", "test", {{"k", 1.0}});
    auto inner = rec.span_wall("inner", "test");
    rec.instant_wall("tick", "test");
  }
  EXPECT_EQ(rec.event_count(), 3u);
  EXPECT_EQ(rec.count_events("test"), 3u);
  EXPECT_EQ(rec.count_events("test", "outer"), 1u);
  EXPECT_EQ(rec.count_events("test", "tick"), 1u);
  EXPECT_EQ(rec.count_events("absent"), 0u);
}

TEST(TraceRecorder, SimCursorAppendsAndAggregates) {
  TraceRecorder rec;
  const auto track = TraceRecorder::sim_track_chip_phase(0);
  rec.span_sim(track, "configure_tower", "phase", 0.25);
  rec.span_sim(track, "execute_tower", "phase", 0.5);
  rec.span_sim(TraceRecorder::sim_track_chip_phase(1), "execute_tower", "phase",
               0.125);
  rec.span_sim(TraceRecorder::sim_track_chip_link(0), "link.write", "link", 2.0);
  EXPECT_DOUBLE_EQ(rec.sim_category_seconds("phase"), 0.875);
  EXPECT_DOUBLE_EQ(rec.sim_category_seconds("link"), 2.0);
  const auto breakdown = rec.sim_phase_breakdown("phase");
  EXPECT_DOUBLE_EQ(breakdown.at("configure_tower"), 0.25);
  EXPECT_DOUBLE_EQ(breakdown.at("execute_tower"), 0.625);
}

TEST(TraceRecorder, ConcurrentRecordingLosesNothing) {
  AlarmGuard guard(60);
  TraceRecorder rec;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&rec, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto s = rec.span_wall("work", "mt", {{"t", static_cast<double>(t)}});
        rec.span_sim(TraceRecorder::sim_track_chip_phase(t), "tick", "mt_sim",
                     0.001);
      }
    });
  for (auto& th : ts) th.join();
  EXPECT_EQ(rec.count_events("mt", "work"),
            static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(rec.count_events("mt_sim", "tick"),
            static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_NEAR(rec.sim_category_seconds("mt_sim"), kThreads * kPerThread * 0.001,
              1e-6);
}

TEST(TraceRecorder, JsonExportShape) {
  TraceRecorder rec;
  rec.span_sim(TraceRecorder::sim_track_chip_phase(0), "execute_tower", "phase",
               0.5, {{"io_s", 0.1}});
  rec.instant_sim(TraceRecorder::sim_track_chip_link(0), "fault.kill", "fault");
  rec.async_begin(1, "request", "request");
  rec.async_end(1, "request", "request");
  std::ostringstream os;
  rec.write_json(os);
  const std::string j = os.str();
  EXPECT_EQ(j.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(j.find('\0'), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(j.find("\"name\":\"chip0.phases\""), std::string::npos);
  EXPECT_NE(j.find("\"name\":\"chip0.link\""), std::string::npos);
}

/// Seeded service traffic shared by the determinism and differential
/// cases: 8 kMultRelin requests over a 2-chip farm, pipelined.
struct TrafficFixture {
  bfv::Bfv scheme{bfv::BfvParams::test_tiny(64), /*seed=*/17};
  bfv::SecretKey sk = scheme.keygen_secret();
  bfv::PublicKey pk = scheme.keygen_public(sk);
  bfv::RelinKeys rk = scheme.keygen_relin(sk, 16);
  bfv::IntegerEncoder enc{scheme.context()};
  std::vector<service::EvalRequest> requests;

  TrafficFixture() {
    for (std::int64_t i = 0; i < 8; ++i)
      requests.push_back({scheme.encrypt(pk, enc.encode(i - 3)),
                          scheme.encrypt(pk, enc.encode(2 * i + 1)),
                          service::RequestKind::kMultRelin});
  }

  /// Run all requests through a fresh 2-chip service; returns the results.
  std::vector<bfv::Ciphertext> run(TraceRecorder* trace) {
    service::ChipFarm farm(2);
    service::ServiceOptions opts;
    opts.relin_keys = &rk;
    opts.max_batch = 3;
    opts.trace = trace;
    service::EvalService svc(scheme, farm, opts);
    auto futs = svc.submit_batch(requests);
    std::vector<bfv::Ciphertext> out;
    for (auto& f : futs) out.push_back(f.get());
    svc.drain();
    return out;
  }
};

TEST(TraceRecorder, SimTimelineIsDeterministicAcrossRuns) {
  AlarmGuard guard(300);
  TrafficFixture f;
  TraceRecorder a, b;
  (void)f.run(&a);
  (void)f.run(&b);
  // The simulated axis is a pure function of the workload: identical phase
  // breakdowns, identical category totals, identical span counts -- even
  // though wall-clock interleaving differs between runs.
  EXPECT_EQ(a.count_events("phase"), b.count_events("phase"));
  EXPECT_EQ(a.count_events("link"), b.count_events("link"));
  EXPECT_EQ(a.count_events("model"), b.count_events("model"));
  EXPECT_DOUBLE_EQ(a.sim_category_seconds("phase"), b.sim_category_seconds("phase"));
  EXPECT_DOUBLE_EQ(a.sim_category_seconds("link"), b.sim_category_seconds("link"));
  const auto ba = a.sim_phase_breakdown(), bb = b.sim_phase_breakdown();
  EXPECT_EQ(ba.size(), bb.size());
  for (const auto& [name, secs] : ba) {
    ASSERT_TRUE(bb.count(name)) << name;
    EXPECT_DOUBLE_EQ(secs, bb.at(name)) << name;
  }
}

TEST(TraceRecorder, SpanTaxonomyShowsUpUnderTraffic) {
  AlarmGuard guard(300);
  TrafficFixture f;
  TraceRecorder rec;
  (void)f.run(&rec);
  // One async begin/end pair per request.
  EXPECT_EQ(rec.count_events("request"), 2 * f.requests.size());
  // Every round records prepare, chip stage, finish and placement spans.
  EXPECT_GT(rec.count_events("round", "round.prepare"), 0u);
  EXPECT_GT(rec.count_events("round", "round.chip_stage"), 0u);
  EXPECT_GT(rec.count_events("round", "round.finish"), 0u);
  EXPECT_GT(rec.count_events("round", "placement"), 0u);
  EXPECT_GT(rec.count_events("round", "stage"), 0u);
  // The per-tower phase spans and the pipeline-model spans exist.
  EXPECT_GT(rec.count_events("phase"), 0u);
  EXPECT_GT(rec.count_events("link"), 0u);
  EXPECT_GT(rec.count_events("model", "model.prep"), 0u);
  EXPECT_GT(rec.count_events("model", "model.finish"), 0u);
  // A clean run heals nothing and faults nothing.
  EXPECT_EQ(rec.count_events("heal"), 0u);
  EXPECT_EQ(rec.count_events("fault"), 0u);
}

TEST(TraceRecorder, TracingNeverChangesResults) {
  AlarmGuard guard(300);
  TrafficFixture f;
  TraceRecorder rec;
  const auto traced = f.run(&rec);
  const auto bare = f.run(nullptr);
  ASSERT_EQ(traced.size(), bare.size());
  for (std::size_t i = 0; i < traced.size(); ++i) {
    ASSERT_EQ(traced[i].size(), bare[i].size()) << "request " << i;
    for (std::size_t c = 0; c < traced[i].size(); ++c)
      EXPECT_EQ(traced[i].c[c].towers, bare[i].c[c].towers)
          << "request " << i << " component " << c;
  }
  // The traced run must actually have recorded something.
  EXPECT_GT(rec.event_count(), 0u);
}

}  // namespace
}  // namespace cofhee::obs
