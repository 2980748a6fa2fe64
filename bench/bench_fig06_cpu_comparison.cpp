// Reproduces paper Fig. 6: ciphertext multiplication (without
// relinearization) -- CPU software baseline vs one CoFHEE instance, for
// (n, log q) = (2^12, 109) and (2^13, 218).
//
//  * CoFHEE side: the chip model runs Algorithm 3 per 128-bit tower
//    (1 tower at log q = 109; 2 towers at 218), exactly as the silicon
//    measurement did.  Power comes from the chip's event-energy model.
//  * CPU side: the from-scratch 64-bit RNS kernel (SEAL 3.7 stand-in;
//    2 towers of 54/55 bits, resp. 4 of ~55 bits) measured on this
//    machine at 1/4/16 threads, plus the paper-calibrated analytic model
//    that regenerates the published Ryzen 7 5800H numbers (this container
//    may not have 16 hardware threads -- the model carries the shape).
//  * Fig. 6b: power and the power-delay product (PDP).
#include <chrono>
#include <cstdio>
#include <thread>

#include "backend/cpu_backend.hpp"
#include "chip/chip.hpp"
#include "driver/host_driver.hpp"
#include "bench_util.hpp"
#include "eval/report.hpp"
#include "nt/primes.hpp"
#include "poly/sampler.hpp"

namespace {

using namespace cofhee;
using driver::u128;

struct Config {
  std::size_t n;
  unsigned log_q;
  std::vector<unsigned> cpu_tower_bits;   // SEAL-style 64-bit split
  unsigned cofhee_towers;                 // 128-bit towers
  double paper_seal_1t_ms;
  double paper_cofhee_ms;
  double paper_seal_w;
  double paper_cofhee_mw;
};

const Config kConfigs[] = {
    {1u << 12, 109, {54, 55}, 1, 1.5, 0.84, 1.48, 22.0},
    {1u << 13, 218, {54, 54, 55, 55}, 2, 6.91, 3.58, 2.30, 21.2},
};

struct CofheeResult {
  double ms;
  double mw;
};

CofheeResult run_cofhee(const Config& cfg) {
  // One 128-bit tower per ceil(log q / 128) -- Section III-C's argument for
  // the wide multiplier.  Towers run sequentially on the single PE.
  const unsigned tower_bits = cfg.log_q / cfg.cofhee_towers;
  double total_ms = 0;
  double energy_uj = 0, total_cycles = 0;
  for (unsigned tw = 0; tw < cfg.cofhee_towers; ++tw) {
    const u128 q = nt::find_ntt_prime_u128(tower_bits, cfg.n, tw);
    chip::CofheeChip soc;
    driver::HostDriver drv(soc);
    drv.configure_ring(q, cfg.n, nt::primitive_2nth_root(q, cfg.n));
    poly::Rng rng(1000 + tw);
    for (auto b : {chip::Bank::kSp0, chip::Bank::kSp1, chip::Bank::kSp2,
                   chip::Bank::kSp3})
      soc.load_coeffs(b, 0, poly::sample_uniform128(rng, cfg.n, q));
    soc.reset_metrics();
    const auto rep = drv.ciphertext_mul();
    total_ms += rep.compute_ms;
    const auto pw = soc.power_trace().report();
    energy_uj += pw.energy_uj;
    total_cycles += static_cast<double>(pw.cycles);
  }
  const double avg_mw = energy_uj * 1e6 / (total_cycles * 4.0);  // pJ/ns
  return {total_ms, avg_mw};
}

double measure_cpu_ms(const Config& cfg, unsigned threads) {
  std::vector<nt::u64> moduli;
  for (std::size_t i = 0; i < cfg.cpu_tower_bits.size(); ++i)
    moduli.push_back(nt::find_ntt_prime_u64(cfg.cpu_tower_bits[i], cfg.n, i));
  // The kernel carries its execution policy: serial reference at 1 thread,
  // pooled above (the ExecPolicy path the BFV stack itself runs on).
  const auto policy = threads <= 1 ? backend::ExecPolicy::serial()
                                   : backend::ExecPolicy::pooled(threads);
  backend::CpuTensorKernel kernel(cfg.n, moduli, policy);

  poly::Rng rng(7);
  auto mk = [&] {
    poly::RnsPoly p;
    for (auto q : moduli) p.towers.push_back(poly::sample_uniform(rng, cfg.n, q));
    return p;
  };
  const auto a0 = mk(), a1 = mk(), b0 = mk(), b1 = mk();

  // Warm-up + best-of-5 (matching how short kernels are usually timed).
  (void)kernel.multiply(a0, a1, b0, b1);
  double best = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)kernel.multiply(a0, a1, b0, b1);
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  cofhee::bench::BenchIo io(argc, argv);
  eval::MetricsJson& metrics = io.metrics();

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("host hardware threads: %u (paper baseline: Ryzen 7 5800H, 16T)\n", hw);

  backend::CpuTimeModel time_model;
  backend::CpuPowerModel power_model;

  for (const auto& cfg : kConfigs) {
    eval::section("Fig. 6a -- time for all towers, (n, log q) = (2^" +
                  std::to_string(nt::log2_exact(cfg.n)) + ", " +
                  std::to_string(cfg.log_q) + ")");
    const auto hw_res = run_cofhee(cfg);

    eval::Table t({"impl", "threads", "towers", "measured ms", "modelled ms",
                   "paper ms"});
    for (unsigned threads : {1u, 4u, 16u}) {
      const double meas = measure_cpu_ms(cfg, threads);
      const double model = time_model.ms(cfg.paper_seal_1t_ms, threads);
      t.row({"CPU baseline (SEAL role)", std::to_string(threads),
             std::to_string(cfg.cpu_tower_bits.size()), eval::fmt(meas, 2),
             eval::fmt(model, 2), threads == 1 ? eval::fmt(cfg.paper_seal_1t_ms, 2)
                                               : "(fig)"});
    }
    t.row({"CoFHEE (1 PE, chip model)", "-", std::to_string(cfg.cofhee_towers),
           eval::fmt(hw_res.ms, 2), eval::fmt(hw_res.ms, 2),
           eval::fmt(cfg.paper_cofhee_ms, 2)});
    t.print();

    eval::section("Fig. 6b -- power and PDP");
    eval::Table p({"impl", "threads", "power", "paper", "PDP (W*ms)",
                   "paper PDP"});
    const double seal_w = power_model.watts(cfg.n, cfg.cpu_tower_bits.size(), 1);
    const double seal_pdp = cfg.paper_seal_1t_ms * seal_w;
    const double paper_pdp = cfg.paper_seal_1t_ms * cfg.paper_seal_w;
    p.row({"CPU baseline", "1", eval::fmt(seal_w, 2) + " W",
           eval::fmt(cfg.paper_seal_w, 2) + " W", eval::fmt(seal_pdp, 2),
           eval::fmt(paper_pdp, 2)});
    for (unsigned threads : {4u, 16u}) {
      const double w = power_model.watts(cfg.n, cfg.cpu_tower_bits.size(), threads);
      const double ms = time_model.ms(cfg.paper_seal_1t_ms, threads);
      p.row({"CPU baseline", std::to_string(threads), eval::fmt(w, 2) + " W",
             "(fig)", eval::fmt(w * ms, 2), "(fig)"});
    }
    const double cofhee_pdp_wms = hw_res.ms * hw_res.mw * 1e-3;
    const double paper_cofhee_pdp = cfg.paper_cofhee_ms * cfg.paper_cofhee_mw * 1e-3;
    p.row({"CoFHEE", "-", eval::fmt(hw_res.mw, 1) + " mW",
           eval::fmt(cfg.paper_cofhee_mw, 1) + " mW",
           eval::fmt_sci(cofhee_pdp_wms, 2), eval::fmt_sci(paper_cofhee_pdp, 2)});
    p.print();

    const double adv =
        (cfg.paper_seal_1t_ms * seal_w) / (hw_res.ms * hw_res.mw * 1e-3);
    std::printf("PDP advantage of CoFHEE over 1-thread CPU: %.0fx "
                "(paper: 2-3 orders of magnitude)\n", adv);

    // Regression-tracked metrics: the chip-model and analytic-model outputs
    // only (wall-clock 'measured ms' is machine-dependent and excluded).
    const std::string key = "logq" + std::to_string(cfg.log_q) + "/";
    metrics.set(key + "cofhee_ms", hw_res.ms);
    metrics.set(key + "cofhee_mw", hw_res.mw);
    metrics.set(key + "cofhee_pdp_wms", cofhee_pdp_wms);
    metrics.set(key + "seal_w_1t", seal_w);
    for (unsigned threads : {1u, 4u, 16u}) {
      metrics.set(key + "modelled_ms_" + std::to_string(threads) + "t",
                  time_model.ms(cfg.paper_seal_1t_ms, threads));
      metrics.set(key + "model_w_" + std::to_string(threads) + "t",
                  power_model.watts(cfg.n, cfg.cpu_tower_bits.size(), threads));
    }
    metrics.set(key + "pdp_advantage_1t", adv);
  }

  std::puts("\nNotes:\n"
            " * 'measured ms' is this machine's wall clock on the from-scratch\n"
            "   RNS kernel (no AVX, possibly fewer cores than the paper's CPU);\n"
            " * 'modelled ms' is the paper-calibrated Amdahl model that carries\n"
            "   the published Ryzen numbers and thread-scaling shape;\n"
            " * CPU watts come from the powertop-calibrated model\n"
            "   (backend::CpuPowerModel).");
  return io.finish() ? 0 : 1;
}
