// Reproduces paper Table V: CoFHEE latency (clock cycles, microseconds) and
// average/peak power for PolyMul, NTT, and iNTT at n = 2^12 and 2^13.
//
// The chip model executes the real operations (bit-exact arithmetic) with
// the calibrated structural cycle model; power comes from the event-energy
// model of src/chip/power.hpp.  Paper values are printed alongside.
#include <cstdio>
#include <vector>

#include "chip/chip.hpp"
#include "driver/host_driver.hpp"
#include "bench_util.hpp"
#include "eval/report.hpp"
#include "nt/primes.hpp"
#include "poly/sampler.hpp"

namespace {

using namespace cofhee;
using chip::Bank;
using driver::u128;

struct PaperRow {
  const char* algo;
  std::size_t n;
  double cc, us, avg_mw, peak_mw;
};

// Table V of the paper (silicon measurements).
const PaperRow kPaper[] = {
    {"PolyMul", 1u << 12, 83777, 335.1, 22.9, 30.4},
    {"NTT", 1u << 12, 24841, 99.4, 24.5, 30.4},
    {"iNTT", 1u << 12, 29468, 117.9, 19.9, 27.2},
    {"PolyMul", 1u << 13, 179045, 716.2, 21.2, 29.7},
    {"NTT", 1u << 13, 53535, 214.1, 24.4, 29.7},
    {"iNTT", 1u << 13, 62770, 251.1, 18.3, 23.9},
};

struct Measured {
  std::uint64_t cc;
  double us, avg_mw, peak_mw;
};

Measured run_op(const char* algo, std::size_t n) {
  const u128 q = nt::find_ntt_prime_u128(109, n);
  chip::CofheeChip soc;
  driver::HostDriver drv(soc);
  drv.configure_ring(q, n, nt::primitive_2nth_root(q, n));

  poly::Rng rng(n);
  const auto a = poly::sample_uniform128(rng, n, q);
  const auto b = poly::sample_uniform128(rng, n, q);
  soc.load_coeffs(Bank::kSp0, 0, a);
  soc.load_coeffs(Bank::kSp1, 0, b);
  soc.load_coeffs(Bank::kDp0, 0, a);
  soc.reset_metrics();

  std::string op(algo);
  if (op == "PolyMul") {
    (void)drv.poly_mul();
  } else if (op == "NTT") {
    (void)drv.ntt({Bank::kDp0, 0}, {Bank::kDp1, 0});
  } else {
    // Transform first (untimed), then measure the inverse.
    (void)drv.ntt({Bank::kDp0, 0}, {Bank::kDp1, 0});
    soc.reset_metrics();
    (void)drv.intt({Bank::kDp1, 0}, {Bank::kDp0, 0});
  }

  const auto rep = soc.power_trace().report();
  Measured m;
  m.cc = soc.cycles();
  m.us = static_cast<double>(m.cc) * soc.config().cycle_ns() * 1e-3;
  m.avg_mw = rep.avg_mw;
  m.peak_mw = rep.peak_mw;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  cofhee::bench::BenchIo io(argc, argv);
  eval::MetricsJson& metrics = io.metrics();

  eval::section("Table V -- CoFHEE performance & power, n = {2^12, 2^13}");
  eval::Table t({"algo", "n", "cycles", "paper cc", "err", "us", "paper us",
                 "avg mW", "paper", "err", "peak mW", "paper", "err"});
  for (const auto& row : kPaper) {
    const auto m = run_op(row.algo, row.n);
    t.row({row.algo, std::to_string(row.n), std::to_string(m.cc),
           eval::fmt(row.cc, 0), eval::pct_err(static_cast<double>(m.cc), row.cc),
           eval::fmt(m.us, 1), eval::fmt(row.us, 1), eval::fmt(m.avg_mw, 1),
           eval::fmt(row.avg_mw, 1), eval::pct_err(m.avg_mw, row.avg_mw),
           eval::fmt(m.peak_mw, 1), eval::fmt(row.peak_mw, 1),
           eval::pct_err(m.peak_mw, row.peak_mw)});
    const std::string key =
        std::string(row.algo) + "/n" + std::to_string(row.n) + "/";
    metrics.set(key + "cycles", static_cast<double>(m.cc));
    metrics.set(key + "us", m.us);
    metrics.set(key + "avg_mw", m.avg_mw);
    metrics.set(key + "peak_mw", m.peak_mw);
  }
  t.print();
  std::puts("Latency: structural cycle model (calibrated constants asserted by "
            "tests/chip/test_mdmc.cpp).\nPower: event-energy model fit to the "
            "Table V measurements (tests/chip/test_table5_power.cpp).");
  return io.finish() ? 0 : 1;
}
