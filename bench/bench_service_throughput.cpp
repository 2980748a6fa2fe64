// Evaluation-service throughput at the IO-dominated operating point.
//
// ChipBfv.IoDominatesAtSmallRings (and the paper's Section VIII-A remark)
// says the serial link, not the PE, bounds EvalMult at n = 2^12.  This
// bench measures what the cofhee::service scheduler buys back there, in
// *simulated* seconds (link byte accounting + chip cycle model + the
// service's deterministic host cost model, so the numbers are
// machine-independent and regression-tracked):
//
//   serial_1chip        -- one EvalMult per session (the pre-service
//                          behavior): every request re-pays ring
//                          configuration per tower.
//   batched_1chip       -- one session per round: ring configuration
//                          amortized over the whole batch.
//   batched_4chip       -- kBatchPerChip over 4 chips: throughput scaling.
//   sharded_4chip       -- kShardTowers over 4 chips: latency scaling.
//   relin_batched_1chip -- Algorithm-2 key switching as its own request
//                          kind, batched through one chip (the batch-aware
//                          relin-key cache shares key uploads across the
//                          group: key_cache_hits > 0, io down).
//   multrelin_noverlap_1chip / multrelin_overlap_1chip -- the paper's
//                          complete EvalMult (tensor + key switch) with
//                          pipelined rounds off vs on: host base extension
//                          / rounding hidden under the previous round's
//                          chip stage.
//   multrelin_overlap_4chip -- overlap + farm scaling combined.
//   multrelin_depth4_1chip -- the K-slot session ring at depth 4 (chained
//                          chip stages, finishes deferred behind the ring).
//   hetero_roundrobin_4chip / hetero_loadaware_4chip -- a mixed farm (2x
//                          SPI at 250 MHz + 2x UART at 125 MHz): blind
//                          striding pays the slow link's makespan, the
//                          load-aware Placer routes towers to the cheap
//                          chips.
//   hetero_loadaware_depth4_4chip -- heterogeneous placement + the depth-4
//                          ring combined on full EvalMult traffic.
//
// Acceptance bars: batched EvalMult/sec >= the one-request-per-session
// baseline, pipelined end-to-end throughput >= the non-overlapped
// schedule (at every depth), and load-aware placement >= round-robin on
// the heterogeneous farm, all at n = 4096.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "bfv/encoder.hpp"
#include "eval/report.hpp"
#include "obs/service_export.hpp"
#include "service/eval_service.hpp"

namespace {

using namespace cofhee;
using service::RequestKind;
using service::Strategy;

struct Scenario {
  const char* name;
  std::size_t chips;
  Strategy strategy;
  std::size_t max_batch;
  RequestKind kind;
  bool overlap;
  std::size_t depth = 2;  // session-ring depth (2 = classic double buffer)
  bool hetero = false;    // back half of the farm on UART at 125 MHz
  service::Placement placement = service::Placement::kLoadAware;
};

service::ChipFarm make_farm(const Scenario& sc) {
  if (!sc.hetero) return service::ChipFarm(sc.chips);
  std::vector<service::ChipSpec> specs(sc.chips);
  for (std::size_t c = sc.chips / 2; c < sc.chips; ++c) {
    specs[c].link = cofhee::driver::Link::kUart;
    specs[c].cfg.freq_mhz = 125.0;
  }
  return service::ChipFarm(specs);
}

struct Run {
  service::ServiceStats stats;
  double evalmult_per_sec;  // chip-axis throughput (farm makespan)
  double e2e_per_sec;       // pipeline-model end-to-end throughput
};

Run run_scenario(const bfv::Bfv& scheme, const bfv::RelinKeys& rk, const Scenario& sc,
                 const std::vector<service::EvalRequest>& requests,
                 obs::TraceRecorder* trace) {
  service::ChipFarm farm = make_farm(sc);
  service::ServiceOptions opts;
  opts.strategy = sc.strategy;
  opts.max_batch = sc.max_batch;
  opts.relin_keys = &rk;
  opts.pipeline_depth = sc.overlap ? sc.depth : 1;
  opts.placement = sc.placement;
  opts.trace = trace;
  service::EvalService svc(scheme, farm, opts);
  std::vector<service::EvalRequest> reqs = requests;
  for (auto& r : reqs) r.kind = sc.kind;
  if (sc.kind == RequestKind::kRelinearize)
    for (auto& r : reqs) {
      r.a = scheme.multiply(r.a, r.b);
      r.b = {};
    }
  auto futures = svc.submit_batch(reqs);
  for (auto& f : futures) (void)f.get();
  svc.drain();
  Run r;
  r.stats = svc.stats();
  r.evalmult_per_sec = r.stats.simulated_requests_per_sec();
  r.e2e_per_sec = r.stats.e2e_requests_per_sec();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  cofhee::bench::BenchIo io(argc, argv);
  eval::MetricsJson& metrics = io.metrics();

  // The Fig. 6 small configuration: n = 2^12, log q = 109 -> 5 extended
  // towers, squarely in the IO-dominated regime.
  bfv::Bfv scheme(bfv::BfvParams::paper_small(), /*seed=*/42);
  const auto sk = scheme.keygen_secret();
  const auto pk = scheme.keygen_public(sk);
  const auto rk = scheme.keygen_relin(sk, 16);
  bfv::IntegerEncoder enc(scheme.context());
  const auto ca = scheme.encrypt(pk, enc.encode(1234));
  const auto cb = scheme.encrypt(pk, enc.encode(-56));

  constexpr std::size_t kRequests = 6;
  std::vector<service::EvalRequest> requests;
  for (std::size_t i = 0; i < kRequests; ++i)
    requests.push_back({ca, cb, RequestKind::kEvalMult});

  const Scenario scenarios[] = {
      {"serial_1chip", 1, Strategy::kBatchPerChip, 1, RequestKind::kEvalMult, true},
      {"batched_1chip", 1, Strategy::kBatchPerChip, kRequests, RequestKind::kEvalMult,
       true},
      {"batched_4chip", 4, Strategy::kBatchPerChip, kRequests, RequestKind::kEvalMult,
       true},
      {"sharded_4chip", 4, Strategy::kShardTowers, kRequests, RequestKind::kEvalMult,
       true},
      {"relin_batched_1chip", 1, Strategy::kBatchPerChip, kRequests,
       RequestKind::kRelinearize, true},
      {"multrelin_noverlap_1chip", 1, Strategy::kBatchPerChip, 2,
       RequestKind::kMultRelin, false},
      {"multrelin_overlap_1chip", 1, Strategy::kBatchPerChip, 2,
       RequestKind::kMultRelin, true},
      {"multrelin_overlap_4chip", 4, Strategy::kShardTowers, 2,
       RequestKind::kMultRelin, true},
      {"multrelin_depth4_1chip", 1, Strategy::kBatchPerChip, 2,
       RequestKind::kMultRelin, true, /*depth=*/4},
      {"hetero_roundrobin_4chip", 4, Strategy::kShardTowers, kRequests,
       RequestKind::kEvalMult, true, 2, /*hetero=*/true,
       service::Placement::kRoundRobin},
      {"hetero_loadaware_4chip", 4, Strategy::kShardTowers, kRequests,
       RequestKind::kEvalMult, true, 2, /*hetero=*/true,
       service::Placement::kLoadAware},
      {"hetero_loadaware_depth4_4chip", 4, Strategy::kShardTowers, 2,
       RequestKind::kMultRelin, true, /*depth=*/4, /*hetero=*/true,
       service::Placement::kLoadAware},
  };

  eval::section("Evaluation service -- throughput, n = 4096 (simulated)");
  eval::Table t({"scenario", "chips", "batch", "sessions", "ring cfgs", "ks muls",
                 "key hits", "io s", "compute ms", "req/s chip", "req/s e2e",
                 "overlap s"});
  double baseline = 0;
  double overlap_ref_e2e = 0;  // multrelin_noverlap_1chip
  for (const auto& sc : scenarios) {
    const Run r = run_scenario(scheme, rk, sc, requests, io.trace());
    obs::export_service_stats(r.stats, io.registry());
    if (baseline == 0) baseline = r.evalmult_per_sec;
    if (std::string(sc.name) == "multrelin_noverlap_1chip") overlap_ref_e2e = r.e2e_per_sec;
    std::uint64_t ring_configs = 0;
    for (const auto& c : r.stats.per_chip) ring_configs += c.ring_configs;
    t.row({sc.name, std::to_string(sc.chips), std::to_string(sc.max_batch),
           std::to_string(r.stats.sessions), std::to_string(ring_configs),
           std::to_string(r.stats.ks_products),
           std::to_string(r.stats.key_cache_hits), eval::fmt(r.stats.io_seconds, 4),
           eval::fmt(r.stats.compute_seconds * 1e3, 2),
           eval::fmt(r.evalmult_per_sec, 2), eval::fmt(r.e2e_per_sec, 2),
           eval::fmt(r.stats.overlap_saved_seconds(), 4)});
    const std::string key = std::string(sc.name) + "/";
    metrics.set(key + "evalmult_per_sec", r.evalmult_per_sec);
    metrics.set(key + "e2e_per_sec", r.e2e_per_sec);
    metrics.set(key + "io_seconds", r.stats.io_seconds);
    metrics.set(key + "compute_ms", r.stats.compute_seconds * 1e3);
    metrics.set(key + "sessions", static_cast<double>(r.stats.sessions));
    metrics.set(key + "ring_configs", static_cast<double>(ring_configs));
    metrics.set(key + "ks_products", static_cast<double>(r.stats.ks_products));
    metrics.set(key + "key_uploads", static_cast<double>(r.stats.key_uploads));
    metrics.set(key + "key_cache_hits", static_cast<double>(r.stats.key_cache_hits));
    metrics.set(key + "pipeline_span_s", r.stats.pipeline_span_seconds);
    metrics.set(key + "serial_span_s", r.stats.serial_span_seconds);
    metrics.set(key + "overlap_saved_s", r.stats.overlap_saved_seconds());
    metrics.set(key + "chip_occupancy", r.stats.chip_occupancy());
    metrics.set(key + "speedup_vs_serial", r.evalmult_per_sec / baseline);
    if (overlap_ref_e2e > 0)
      metrics.set(key + "e2e_gain_vs_noverlap", r.e2e_per_sec / overlap_ref_e2e);
  }
  t.print();

  std::puts(
      "\nReading: all times are the deterministic transport + cycle + host\n"
      "cost model (UART/SPI byte counts, 250 MHz PE, modeled host\n"
      "coefficient rate), not host wall clock.  Batching pays ring\n"
      "reconfiguration (Q/BARRETT/INV_POLYDEG registers + twiddle ROM) once\n"
      "per tower per session instead of once per tower per request;\n"
      "sharding additionally spreads one request's towers across the farm;\n"
      "relinearization rides the same sessions as per-(digit, tower)\n"
      "Algorithm-2 PolyMuls, with the batch-aware key cache sharing key\n"
      "uploads across a group (R+1 instead of 2R per digit and tower);\n"
      "pipelined rounds (K-slot ring, depth 2 = double buffering) hide\n"
      "host-side base extension / rounding under earlier rounds' chip\n"
      "stages (req/s e2e up, req/s chip unchanged); on the heterogeneous\n"
      "farm the load-aware Placer keeps tower work off the 10x-slower UART\n"
      "links, which blind round-robin cannot.");
  return io.finish() ? 0 : 1;
}
