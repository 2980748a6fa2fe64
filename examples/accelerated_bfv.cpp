// BFV with the EvalMult tensor offloaded to the CoFHEE chip model -- the
// deployment the paper envisions (Section I: the chip "will eventually
// serve as a small component in a much bigger design", accelerating the
// low-level polynomial work under a software FHE stack).
#include <cstdio>

#include "bfv/encoder.hpp"
#include "driver/chip_bfv.hpp"

int main() {
  using namespace cofhee;

  // Pooled ExecPolicy: the host-side RNS plumbing (base extension, t/q
  // rounding) fans out over 4 threads; results are bit-identical to the
  // serial reference path.
  bfv::Bfv scheme(bfv::BfvParams::test_tiny(128), 17,
                  backend::ExecPolicy::pooled(4));
  const auto sk = scheme.keygen_secret();
  const auto pk = scheme.keygen_public(sk);
  bfv::IntegerEncoder enc(scheme.context());

  const auto ca = scheme.encrypt(pk, enc.encode(171));
  const auto cb = scheme.encrypt(pk, enc.encode(-187));

  // Software path (reference).
  const auto sw = scheme.multiply(ca, cb);

  // Hardware path: one Algorithm-3 run per extended-basis tower on the
  // chip model, with polynomial transport over SPI and the t/q rounding
  // back on the host.
  chip::CofheeChip soc;
  driver::ChipBfvEvaluator eval(soc);
  driver::ChipMulReport rep;
  const auto hw = eval.multiply(scheme, ca, cb, &rep);

  std::printf("plaintext product:        %d\n", 171 * -187);
  std::printf("software EvalMult:        %lld\n",
              static_cast<long long>(enc.decode(scheme.decrypt(sk, sw))));
  std::printf("chip-accelerated EvalMult:%lld\n",
              static_cast<long long>(enc.decode(scheme.decrypt(sk, hw))));
  bool identical = true;
  for (std::size_t i = 0; i < sw.size(); ++i)
    identical = identical && sw.c[i].towers == hw.c[i].towers;
  std::printf("ciphertexts bit-identical: %s\n", identical ? "yes" : "NO");

  std::printf("\nchip work: %llu towers x Algorithm 3 = %llu cycles (%.3f ms at "
              "250 MHz)\n", static_cast<unsigned long long>(rep.ring_configs),
              static_cast<unsigned long long>(rep.chip_cycles), rep.chip_ms);
  std::printf("SPI transport: %.3f ms (7 polynomials per tower)\n",
              rep.io_seconds * 1e3);
  const auto pw = soc.power_trace().report();
  std::printf("chip power during the run: %.1f mW avg / %.1f mW peak\n", pw.avg_mw,
              pw.peak_mw);
  std::puts("\nAt bring-up ring sizes the SPI link dominates; at the paper's\n"
            "n = 2^13 operating point compute dominates and one chip instance\n"
            "beats a single-threaded CPU 1.9x (Fig. 6 / bench_fig06).");
  return 0;
}
