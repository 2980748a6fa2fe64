// The layer probe of the traced run: one EvalMult + relinearization of the
// workload's ring replayed through the public per-layer functions, each
// call timed on the wall clock and, where it touches the chip, on the
// simulated clock.  Plus the chip model's accuracy against Fig. 6a.
#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "chip/chip.hpp"
#include "driver/chip_bfv.hpp"
#include "e2e.hpp"
#include "nt/primes.hpp"
#include "poly/sampler.hpp"
#include "service/eval_service.hpp"

namespace cofhee::e2e {
namespace {

using obs::TraceRecorder;
using E = driver::ChipBfvEvaluator;

constexpr int kReps = 11;     // repetitions of each host-kernel timing
constexpr int kChipReps = 3;  // repetitions of the chip replay

/// Median wall ms over `reps` calls of `fn`, each inside a `name` span.
template <class F>
double time_ms(TraceRecorder* trace, const char* name, int reps, F&& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const TraceRecorder::WallSpan span(trace, name, "probe");
    const auto t0 = Clock::now();
    fn();
    t.push_back(ms_between(t0, Clock::now()));
  }
  return quantile(std::move(t), 0.5);
}

/// The ChipBfvEvaluator phases of one complete EvalMult, in call order.
enum Phase : std::size_t {
  kPrepare,
  kConfigure,
  kLoad,
  kExecute,
  kRead,
  kAssemble,
  kPrepareRelin,
  kConfigureRelin,
  kRelin,
  kAssembleRelin,
  kNumPhases
};
constexpr std::array<const char*, kNumPhases> kPhaseName = {
    "prepare",       "configure_tower",       "load_tower", "execute_tower",
    "read_tower",    "assemble",              "prepare_relin",
    "configure_relin_tower", "relin_tower",   "assemble_relin"};
// Span names must outlive the recorder, so they are literals too.
constexpr std::array<const char*, kNumPhases> kSpanName = {
    "probe.driver.prepare",       "probe.driver.configure_tower",
    "probe.driver.load_tower",    "probe.driver.execute_tower",
    "probe.driver.read_tower",    "probe.driver.assemble",
    "probe.driver.prepare_relin", "probe.driver.configure_relin_tower",
    "probe.driver.relin_tower",   "probe.driver.assemble_relin"};
constexpr std::array<bool, kNumPhases> kOnChip = {false, true,  true, true,  true,
                                                  false, false, true, true, false};

/// One phase's cost summed over the towers of one request.
struct PhaseCost {
  double wall_ms = 0, sim_ms = 0, io_s = 0;
  double cycles = 0;
};

/// Run every phase of relinearize(multiply(a, b)) -- or of the squaring
/// form -- on `drv`, the way the service's sessions call them.
std::array<PhaseCost, kNumPhases> replay(driver::HostDriver& drv, const Keys& k,
                                         const bfv::Ciphertext& a, const bfv::Ciphertext& b,
                                         bool square, TraceRecorder* trace,
                                         std::int64_t want) {
  const bfv::Bfv& scheme = *k.scheme;
  const auto& ctx = scheme.context();
  std::array<PhaseCost, kNumPhases> pc{};
  const auto timed = [&](Phase p, auto&& fn) {
    driver::ChipMulReport rep;
    const TraceRecorder::WallSpan span(trace, kSpanName[p], "probe");
    const auto t0 = Clock::now();
    fn(&rep);
    pc[p].wall_ms += ms_between(t0, Clock::now());
    pc[p].io_s += rep.io_seconds;
    pc[p].sim_ms += rep.io_seconds * 1e3 + rep.chip_ms;
    pc[p].cycles += static_cast<double>(rep.chip_cycles);
  };
  using Rep = driver::ChipMulReport*;

  driver::EvalMultOperands ops;
  timed(kPrepare, [&](Rep) { ops = square ? E::prepare_square(scheme, a) : E::prepare(scheme, a, b); });
  std::vector<driver::TowerTensor> tensors(ctx.ext_basis().size());
  for (std::size_t tw = 0; tw < tensors.size(); ++tw) {
    timed(kConfigure, [&](Rep r) { E::configure_tower(drv, scheme, tw, r); });
    timed(kLoad, [&](Rep r) { E::load_tower(drv, ops, tw, r); });
    timed(kExecute, [&](Rep r) { E::execute_tower(drv, r); });
    timed(kRead, [&](Rep r) { tensors[tw] = E::read_tower(drv, r); });
  }
  bfv::Ciphertext tensor;
  timed(kAssemble, [&](Rep) { tensor = E::assemble(scheme, tensors); });
  driver::RelinOperands rops;
  timed(kPrepareRelin, [&](Rep) { rops = E::prepare_relin(scheme, tensor, k.rk); });
  std::vector<driver::RelinTowerAcc> accs(ctx.q_basis().size());
  for (std::size_t tw = 0; tw < accs.size(); ++tw) {
    timed(kConfigureRelin, [&](Rep r) { E::configure_relin_tower(drv, scheme, tw, r); });
    timed(kRelin, [&](Rep r) { accs[tw] = E::relin_tower(drv, scheme, rops, k.rk, tw, r); });
  }
  bfv::Ciphertext out;
  timed(kAssembleRelin, [&](Rep) { out = E::assemble_relin(accs); });
  if (k.decrypt(out) != want) throw std::runtime_error("layer probe: chip replay decrypted wrong");
  return pc;
}

}  // namespace

LayerCosts probe_layers(Keys& k, driver::HostDriver* drv, bool square, TraceRecorder* trace,
                        Ledger& out) {
  const bfv::Bfv& scheme = *k.scheme;
  const auto& ctx = scheme.context();
  const std::size_t n = ctx.n();
  const double qt = static_cast<double>(ctx.q_basis().size());
  const double et = static_cast<double>(ctx.ext_basis().size());
  const double nd = static_cast<double>(k.rk.keys.size());
  poly::Rng rng(0xC0FFEEull);
  LayerCosts c;

  // nt: a forward and an inverse transform of tower 0.
  {
    const poly::MergedNtt64& ntt = ctx.ntt(0);
    auto x = poly::sample_uniform(rng, n, ntt.modulus());
    const double ms = time_ms(trace, "probe.nt.transform", kReps, [&] {
      ntt.forward(x);
      ntt.inverse(x);
    });
    const double butterflies = 2.0 * static_cast<double>(n / 2) * nt::log2_exact(n);
    put(out, "nt.ns_per_butterfly", ms * 1e6 / butterflies, "ns", "wall");
  }

  // poly: the fused tensor, once per extended tower.
  {
    std::vector<std::array<poly::Coeffs<nt::u64>, 4>> in(ctx.ext_basis().size());
    for (std::size_t tw = 0; tw < in.size(); ++tw)
      for (auto& p : in[tw]) p = poly::sample_uniform(rng, n, ctx.ext_ntt(tw).modulus());
    poly::Coeffs<nt::u64> y0, y1, y2;
    const double ms = time_ms(trace, "probe.poly.tensor", kReps, [&] {
      for (std::size_t tw = 0; tw < in.size(); ++tw)
        ctx.ext_ntt(tw).tensor(in[tw][0], in[tw][1], in[tw][2], in[tw][3], y0, y1, y2);
    });
    put(out, "poly.tensor_us_per_tower", ms * 1e3 / et, "us", "wall");
  }

  // bfv: the scheme's operations.
  const std::int64_t x = 37, y = -53;
  const bfv::Ciphertext a = k.encrypt(x), b = k.encrypt(y);
  const bfv::Plaintext three = k.encoder.encode(3);
  bfv::Ciphertext m, r;
  c.encrypt = time_ms(trace, "probe.bfv.encrypt", kReps, [&] { (void)k.encrypt(x); });
  c.multiply = time_ms(trace, "probe.bfv.multiply", kReps, [&] { m = scheme.multiply(a, b); });
  c.relinearize = time_ms(trace, "probe.bfv.relinearize", kReps,
                          [&] { r = scheme.relinearize(m, k.rk); });
  c.decrypt = time_ms(trace, "probe.bfv.decrypt", kReps, [&] { (void)scheme.decrypt(k.sk, r); });
  c.add = time_ms(trace, "probe.bfv.add", kReps, [&] { (void)scheme.add(a, b); });
  c.negate = time_ms(trace, "probe.bfv.negate", kReps, [&] { (void)scheme.negate(a); });
  c.mul_plain = time_ms(trace, "probe.bfv.mul_plain", kReps, [&] { (void)scheme.mul_plain(a, three); });
  if (k.decrypt(r) != x * y) throw std::runtime_error("layer probe: software product wrong");
  put(out, "bfv.encrypt_ms", c.encrypt, "ms", "wall");
  put(out, "bfv.multiply_ms", c.multiply, "ms", "wall");
  put(out, "bfv.relinearize_ms", c.relinearize, "ms", "wall");
  put(out, "bfv.decrypt_ms", c.decrypt, "ms", "wall");

  // Host cost-model calibration: the three kernels the service's model
  // prices, with the coefficient-operation counts it charges for them.
  {
    poly::RnsPoly ext;
    const double ms =
        time_ms(trace, "probe.bfv.extend_centered", kReps,
                [&] { ext = scheme.extend_centered_public(a.c[0]); }) +
        time_ms(trace, "probe.bfv.scale_round", kReps,
                [&] { (void)scheme.scale_round_public(ext); }) +
        time_ms(trace, "probe.bfv.relin_digits", kReps,
                [&] { (void)scheme.relin_digits_public(m.c[2], k.rk); });
    const double dn = static_cast<double>(n);
    const double ops = dn * (qt + et) + dn * (et + qt) + dn * qt * (1.0 + nd);
    const double rate = ops / (ms * 1e-3);
    put(out, "bfv.host_coeff_ops_per_s_measured", rate, "1/s", "wall");
    put(out, "model.host_rate_ratio", rate / service::ServiceOptions{}.host_coeff_ops_per_sec,
        "ratio", "wall");
  }

  // driver + chip: every ChipBfvEvaluator phase, on the workload's own farm
  // driver, or on a private chip for a workload without one.
  std::unique_ptr<chip::CofheeChip> own_chip;
  std::unique_ptr<driver::HostDriver> own_drv;
  if (drv == nullptr) {
    own_chip = std::make_unique<chip::CofheeChip>();
    own_drv = std::make_unique<driver::HostDriver>(*own_chip);
    drv = own_drv.get();
  }
  const bfv::Ciphertext& b_op = square ? a : b;
  const std::int64_t want = square ? x * x : x * y;
  std::array<std::vector<double>, kNumPhases> wall;
  std::array<PhaseCost, kNumPhases> last{};
  for (int rep = 0; rep < kChipReps; ++rep) {
    last = replay(*drv, k, a, b_op, square, trace, want);
    for (std::size_t p = 0; p < kNumPhases; ++p) wall[p].push_back(last[p].wall_ms);
  }
  std::array<double, kNumPhases> w{};
  double chip_wall = 0, sim = 0, io = 0, cycles = 0;
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    w[p] = quantile(wall[p], 0.5);
    const std::string name = std::string("driver.") + kPhaseName[p];
    put(out, name + ".wall_ms", w[p], "ms", "wall");
    if (!kOnChip[p]) continue;
    put(out, name + ".sim_ms", last[p].sim_ms, "ms", "sim");
    chip_wall += w[p];
    sim += last[p].sim_ms;
    io += last[p].io_s;
    cycles += last[p].cycles;
  }
  put(out, "driver.request_sim_ms", sim, "ms", "sim");
  put(out, "driver.relin_share_sim", last[kRelin].sim_ms / sim, "ratio", "sim");
  put(out, "chip.wall_ns_per_cycle", chip_wall * 1e6 / cycles, "ns", "wall");

  c.prepare = w[kPrepare];
  c.assemble = w[kAssemble];
  c.prepare_relin = w[kPrepareRelin];
  c.assemble_relin = w[kAssembleRelin];
  c.configure = (w[kConfigure] + w[kConfigureRelin]) / (et + qt);
  c.tower_run = (w[kLoad] + w[kExecute] + w[kRead]) / et;
  c.relin_run = w[kRelin] / qt;
  c.request_cycles = cycles;
  c.request_io_share = io * 1e3 / sim;
  return c;
}

void probe_model_accuracy(Ledger& out) {
  // Fig. 6a: Algorithm 3 (EvalMult without relinearization) on one CoFHEE
  // instance, one 128-bit tower per ceil(log q / 128), towers in sequence.
  const struct {
    std::size_t n;
    unsigned log_q, towers;
    double paper_ms;
    const char* tag;
  } configs[] = {{1u << 12, 109, 1, 0.84, "n4096"}, {1u << 13, 218, 2, 3.58, "n8192"}};
  for (const auto& cfg : configs) {
    double ms = 0;
    for (unsigned tw = 0; tw < cfg.towers; ++tw) {
      const driver::u128 q = nt::find_ntt_prime_u128(cfg.log_q / cfg.towers, cfg.n, tw);
      chip::CofheeChip soc;
      driver::HostDriver drv(soc);
      drv.configure_ring(q, cfg.n, nt::primitive_2nth_root(q, cfg.n));
      poly::Rng rng(1000 + tw);
      for (auto bank : {chip::Bank::kSp0, chip::Bank::kSp1, chip::Bank::kSp2, chip::Bank::kSp3})
        soc.load_coeffs(bank, 0, poly::sample_uniform128(rng, cfg.n, q));
      ms += drv.ciphertext_mul().compute_ms;
    }
    put(out, std::string("model.fig6a_ms.") + cfg.tag, ms, "ms", "sim");
    put(out, std::string("model.fig6a_err_frac.") + cfg.tag,
        std::abs(ms - cfg.paper_ms) / cfg.paper_ms, "ratio", "sim");
  }
}

}  // namespace cofhee::e2e
