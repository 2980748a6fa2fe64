#include "poly/ntt.hpp"

#include <gtest/gtest.h>

#include "nt/primes.hpp"
#include "poly/merged_ntt.hpp"
#include "poly/sampler.hpp"

namespace cofhee::poly {
namespace {

using nt::Barrett128;
using nt::Barrett64;

struct Fixture64 {
  std::size_t n;
  Barrett64 ring;
  u64 psi;
  Fixture64(std::size_t n_, unsigned bits, u64 seed = 0)
      : n(n_), ring(nt::find_ntt_prime_u64(bits, n_, seed)),
        psi(nt::primitive_2nth_root(ring.modulus(), n_)) {}
};

TEST(NegacyclicNtt64, RoundTrip) {
  Fixture64 f(1024, 50);
  NegacyclicNtt64 ntt(f.ring, f.n, f.psi);
  Rng rng(46);
  const auto x = sample_uniform(rng, f.n, f.ring.modulus());
  auto y = x;
  ntt.forward(y);
  ntt.inverse(y);
  EXPECT_EQ(y, x);
}

TEST(NegacyclicNtt64, MulMatchesSchoolbook) {
  Fixture64 f(128, 50);
  NegacyclicNtt64 ntt(f.ring, f.n, f.psi);
  Rng rng(47);
  const auto a = sample_uniform(rng, f.n, f.ring.modulus());
  const auto b = sample_uniform(rng, f.n, f.ring.modulus());
  EXPECT_EQ(ntt.negacyclic_mul(a, b), schoolbook_negacyclic_mul(f.ring, a, b));
}

TEST(NegacyclicNtt64, AgreesWithChipPath) {
  // The independent u64 reference and the chip's arithmetic -- the merged
  // walk through a 128-bit Barrett reducer, as the MDMC's PE runs it --
  // must produce identical negacyclic products on the same ring.
  Fixture64 f(256, 48);
  NegacyclicNtt64 sw(f.ring, f.n, f.psi);
  const Barrett128 wide(f.ring.modulus());
  MergedNtt128 hw(wide, f.n, f.psi);
  Rng rng(48);
  const auto a = sample_uniform(rng, f.n, f.ring.modulus());
  const auto b = sample_uniform(rng, f.n, f.ring.modulus());
  const auto widen = [](const Coeffs<u64>& x) {
    return Coeffs<u128>(x.begin(), x.end());
  };
  EXPECT_EQ(widen(sw.negacyclic_mul(a, b)), hw.negacyclic_mul(widen(a), widen(b)));
}

// Parameterized sweep over polynomial degrees (the chip supports any power
// of two up to 2^14; we exercise the algorithmic range).
class NttDegreeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NttDegreeSweep, BothEnginesMatchSchoolbook) {
  const std::size_t n = GetParam();
  Fixture64 f(n, 34);
  MergedNtt64 fast(f.ring, n, f.psi);
  NegacyclicNtt64 reference(f.ring, n, f.psi);
  Rng rng(1000 + n);
  const auto a = sample_uniform(rng, n, f.ring.modulus());
  const auto b = sample_uniform(rng, n, f.ring.modulus());
  const auto expect = schoolbook_negacyclic_mul(f.ring, a, b);
  EXPECT_EQ(fast.negacyclic_mul(a, b), expect);
  EXPECT_EQ(reference.negacyclic_mul(a, b), expect);
}

INSTANTIATE_TEST_SUITE_P(Degrees, NttDegreeSweep,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128, 256, 512));

// Linearity property: NTT(a + b) == NTT(a) + NTT(b).
class NttLinearity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NttLinearity, TransformIsLinear) {
  const std::size_t n = GetParam();
  Fixture64 f(n, 40);
  MergedNtt64 ntt(f.ring, n, f.psi);
  Rng rng(2000 + n);
  const auto a = sample_uniform(rng, n, f.ring.modulus());
  const auto b = sample_uniform(rng, n, f.ring.modulus());
  auto sum = pointwise_add(f.ring, a, b);
  auto fa = a, fb = b;
  ntt.forward(fa);
  ntt.forward(fb);
  ntt.forward(sum);
  EXPECT_EQ(sum, pointwise_add(f.ring, fa, fb));
}

INSTANTIATE_TEST_SUITE_P(Degrees, NttLinearity,
                         ::testing::Values(16, 64, 256, 1024, 4096));

}  // namespace
}  // namespace cofhee::poly
