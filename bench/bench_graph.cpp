// Homomorphic-program throughput: CryptoNets inference and logistic
// scoring built as expression graphs and driven through the chip farm.
//
// Each scenario packs a batch of independent inputs (images / patient
// feature vectors) into ONE graph: compile() levels every image's ops into
// shared rounds, so round k of the whole batch reaches the farm as a
// single submit_batch and the scheduler spreads it across however many
// chips exist.  Reported rates are per *simulated* second of farm pipeline
// span (link byte accounting + chip cycle model + deterministic host cost
// model) -- machine-independent and regression-tracked, like the other
// benches.
//
//   cryptonets_{1,2,4}chip -- a 4-image batch through the square-activation
//                          network; one kMultRelin chip op per hidden
//                          neuron per image, all squarings, so every chip
//                          op rides the SRAM scratch-reuse path (B banks
//                          synthesized by on-chip DMA, serial uploads
//                          halved: sram_reuses > 0 in the stats).
//   logreg_{1,2,4}chip   -- an 8-patient batch of linear score + cubic
//                          sigmoid; two chip rounds per patient (z^2, then
//                          z * (3 - z^2)) with the host add/negate/plain
//                          work leveled between them.
//
// Acceptance bars: the multi-chip rates must be >= the single-chip
// baseline for both applications (farm scaling never loses throughput),
// checked here and regression-tracked via tools/bench_diff.py.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/cryptonets.hpp"
#include "apps/logreg.hpp"
#include "bench_util.hpp"
#include "eval/report.hpp"
#include "graph/executor.hpp"
#include "obs/service_export.hpp"
#include "service/eval_service.hpp"

namespace {

using namespace cofhee;

struct Run {
  service::ServiceStats stats;
  graph::GraphRunStats graph_stats;
  double per_sec = 0;  // batch items per simulated pipeline second
};

Run run_graph(const bfv::Bfv& scheme, const bfv::RelinKeys& rk, const graph::Graph& g,
              const std::vector<bfv::Ciphertext>& inputs, std::size_t chips,
              std::size_t items, obs::TraceRecorder* trace) {
  const auto cg = graph::compile(g);
  service::ChipFarm farm(chips);
  service::ServiceOptions opts;
  opts.relin_keys = &rk;
  opts.trace = trace;
  service::EvalService svc(scheme, farm, opts);
  graph::GraphExecutor ex(scheme, svc);
  Run r;
  (void)ex.run(cg, inputs, {}, &r.graph_stats);
  svc.drain();
  r.stats = svc.stats();
  r.per_sec = static_cast<double>(items) / r.stats.pipeline_span_seconds;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  cofhee::bench::BenchIo io(argc, argv);
  eval::MetricsJson& metrics = io.metrics();

  bfv::Bfv scheme(bfv::BfvParams::paper_small(), /*seed=*/42);
  const auto sk = scheme.keygen_secret();
  const auto pk = scheme.keygen_public(sk);
  const auto rk = scheme.keygen_relin(sk, 16);
  const auto enc_scalar = [&](std::int64_t v) {
    bfv::Plaintext p;
    p.coeffs.assign(scheme.context().n(), 0);
    const auto t = static_cast<std::int64_t>(scheme.context().t());
    std::int64_t r = v % t;
    if (r < 0) r += t;
    p.coeffs[0] = static_cast<nt::u64>(r);
    return scheme.encrypt(pk, p);
  };

  // CryptoNets: a 4-image batch through one graph.
  constexpr std::size_t kImages = 4;
  const apps::NetworkConfig net_cfg{8, 4, 2, /*weight_seed=*/42};
  apps::CryptoNet net(scheme.context(), net_cfg);
  graph::Graph cn_graph;
  std::vector<bfv::Ciphertext> cn_inputs;
  for (std::size_t img = 0; img < kImages; ++img) {
    std::vector<graph::NodeId> ins;
    for (std::size_t i = 0; i < net_cfg.inputs; ++i) ins.push_back(cn_graph.input());
    (void)net.build_graph(cn_graph, ins);
    for (std::size_t i = 0; i < net_cfg.inputs; ++i)
      cn_inputs.push_back(enc_scalar(static_cast<std::int64_t>((img * 7 + i) % 5) - 2));
  }

  // Logistic regression: an 8-patient batch of score + sigmoid.
  constexpr std::size_t kPatients = 8;
  const std::vector<std::int64_t> weights = {3, -2, 5, 1, -4, 2, 0, -1};
  apps::LogisticModel model(scheme.context(), weights, /*bias=*/-4);
  graph::Graph lr_graph;
  std::vector<bfv::Ciphertext> lr_inputs;
  for (std::size_t p = 0; p < kPatients; ++p) {
    std::vector<graph::NodeId> feats;
    for (std::size_t i = 0; i < weights.size(); ++i) feats.push_back(lr_graph.input());
    const auto z = model.build_score_graph(lr_graph, feats);
    lr_graph.mark_output(model.build_sigmoid_graph(lr_graph, z));
    for (std::size_t i = 0; i < weights.size(); ++i)
      lr_inputs.push_back(enc_scalar(static_cast<std::int64_t>((p + i) % 7) - 3));
  }

  eval::section("Homomorphic programs through the farm, n = 4096 (simulated)");
  eval::Table t({"scenario", "chips", "rounds", "chip reqs", "squares", "sram reuse",
                 "io s", "span s", "items/s", "speedup"});

  const struct {
    const char* app;
    const graph::Graph* g;
    const std::vector<bfv::Ciphertext>* inputs;
    std::size_t items;
    const char* unit;
  } programs[] = {
      {"cryptonets", &cn_graph, &cn_inputs, kImages, "images_per_sec"},
      {"logreg", &lr_graph, &lr_inputs, kPatients, "predictions_per_sec"},
  };

  // Trace reconciliation accumulator: the recorder's "phase" track totals
  // must match the io + compute seconds every traced service recorded.
  double sim_total = 0;
  bool scaling_ok = true;
  for (const auto& prog : programs) {
    double base = 0;
    for (std::size_t chips : {1u, 2u, 4u}) {
      // --chips restricts the sweep (CI traces a single 2-chip run).
      if (io.chips(0) != 0 && chips != io.chips(0)) continue;
      const Run r =
          run_graph(scheme, rk, *prog.g, *prog.inputs, chips, prog.items, io.trace());
      sim_total += r.stats.io_seconds + r.stats.compute_seconds;
      obs::export_service_stats(r.stats, io.registry());
      if (base == 0) base = r.per_sec;
      const double speedup = r.per_sec / base;
      if (r.per_sec + 1e-12 < base) scaling_ok = false;
      const std::string name = std::string(prog.app) + "_" + std::to_string(chips) + "chip";
      t.row({name, std::to_string(chips), std::to_string(r.graph_stats.rounds),
             std::to_string(r.graph_stats.chip_requests),
             std::to_string(r.graph_stats.squares), std::to_string(r.stats.sram_reuses),
             eval::fmt(r.stats.io_seconds, 4), eval::fmt(r.stats.pipeline_span_seconds, 4),
             eval::fmt(r.per_sec, 2), eval::fmt(speedup, 2)});
      const std::string key = name + "/";
      metrics.set(key + prog.unit, r.per_sec);
      metrics.set(key + "pipeline_span_s", r.stats.pipeline_span_seconds);
      metrics.set(key + "io_seconds", r.stats.io_seconds);
      metrics.set(key + "chip_requests", static_cast<double>(r.graph_stats.chip_requests));
      metrics.set(key + "rounds", static_cast<double>(r.graph_stats.rounds));
      metrics.set(key + "sram_reuses", static_cast<double>(r.stats.sram_reuses));
      metrics.set(key + "speedup_vs_1chip", speedup);
    }
  }
  t.print();

  std::puts(
      "\nReading: one graph carries the whole batch, so each dependency\n"
      "round reaches the farm as a single submit_batch and scales with the\n"
      "chip count.  All CryptoNets chip ops are squarings: the chip\n"
      "synthesizes the second operand's SRAM banks by on-chip DMA (sram\n"
      "reuse column) instead of re-uploading them over the serial link.\n"
      "Rates are per simulated second (transport + cycle + host model),\n"
      "not host wall clock.");
  if (!scaling_ok) {
    std::fprintf(stderr, "FAIL: multi-chip throughput fell below the 1-chip baseline\n");
    return 1;
  }
  // Reconcile the trace against the stats: every driver phase span carries
  // exactly the io + compute it added to its ChipMulReport, so the "phase"
  // track total must match the summed ServiceStats to within 1% (it is
  // exact by construction; the margin absorbs float accumulation order).
  if (io.trace() != nullptr) {
    const double traced = io.trace()->sim_category_seconds("phase");
    if (std::abs(traced - sim_total) > 0.01 * sim_total) {
      std::fprintf(stderr,
                   "FAIL: trace phase total %.6fs vs stats io+compute %.6fs "
                   "(> 1%% apart)\n",
                   traced, sim_total);
      return 1;
    }
    std::printf("\ntrace reconciliation: phase spans %.6fs vs stats %.6fs OK\n",
                traced, sim_total);
  }
  return io.finish() ? 0 : 1;
}
