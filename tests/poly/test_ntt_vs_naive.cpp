// Property tests cross-checking the production NTT engine (MergedNtt64) and
// the independent reference (NegacyclicNtt64) against a naive O(n^2)
// schoolbook that is arithmetically independent of the library: it reduces
// through raw __uint128_t division rather than the Barrett reducers the
// transforms are built on, so a systematic reduction bug cannot cancel out
// of the comparison.  Swept for n in {16, 64, 256} across every prime of an
// RNS basis spanning the tower widths the BFV parameter sets use
// (30..55 bits, q == 1 mod 2n).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "nt/primes.hpp"
#include "poly/merged_ntt.hpp"
#include "poly/ntt.hpp"
#include "poly/rns.hpp"
#include "poly/sampler.hpp"

namespace cofhee::poly {
namespace {

// Independent modular arithmetic: no Barrett, no Shoup.
u64 naive_mulmod(u64 a, u64 b, u64 q) {
  return static_cast<u64>((static_cast<u128>(a) * b) % q);
}

u64 naive_addmod(u64 a, u64 b, u64 q) {
  const u64 s = a + b;  // a, b < q < 2^63 for every tower here: no overflow
  return s >= q ? s - q : s;
}

u64 naive_submod(u64 a, u64 b, u64 q) { return a >= b ? a - b : a + q - b; }

// Naive negacyclic product in Z_q[x]/(x^n + 1).
Coeffs<u64> naive_negacyclic(const Coeffs<u64>& a, const Coeffs<u64>& b, u64 q) {
  const std::size_t n = a.size();
  Coeffs<u64> c(n, 0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      const u64 p = naive_mulmod(a[i], b[j], q);
      const std::size_t k = (i + j) % n;
      c[k] = i + j < n ? naive_addmod(c[k], p, q) : naive_submod(c[k], p, q);
    }
  return c;
}

u64 naive_powmod(u64 b, std::size_t e, u64 q) {
  u64 r = 1;
  for (; e != 0; e >>= 1, b = naive_mulmod(b, b, q))
    if (e & 1) r = naive_mulmod(r, b, q);
  return r;
}

// The negacyclic NTT's definition: slot i holds a evaluated at the odd power
// psi^(2 rev(i) + 1), i.e. at the roots of x^n + 1 in bit-reversed order.
Coeffs<u64> naive_ntt(const Coeffs<u64>& a, u64 psi, u64 q) {
  const std::size_t n = a.size();
  const unsigned logn = nt::log2_exact(n);
  Coeffs<u64> y(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const u64 root = naive_powmod(psi, 2 * nt::bit_reverse(i, logn) + 1, q);
    u64 p = 1;
    for (std::size_t j = 0; j < n; ++j) {
      y[i] = naive_addmod(y[i], naive_mulmod(a[j], p, q), q);
      p = naive_mulmod(p, root, q);
    }
  }
  return y;
}

// One RNS basis per degree, spanning the tower widths BfvParams uses.
RnsBasis test_basis(std::size_t n) {
  std::vector<u64> moduli;
  u64 seed = 0;
  for (unsigned bits : {30u, 40u, 50u, 54u, 55u})
    moduli.push_back(nt::find_ntt_prime_u64(bits, n, seed++));
  return RnsBasis(moduli);
}

class NttVsNaive : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NttVsNaive, ForwardInverseRoundTripAllPrimes) {
  const std::size_t n = GetParam();
  const RnsBasis basis = test_basis(n);
  Rng rng(100 + n);
  for (std::size_t t = 0; t < basis.size(); ++t) {
    const auto& ring = basis.tower(t);
    const u64 psi = nt::primitive_2nth_root(ring.modulus(), n);
    const MergedNtt64 fast(ring, n, psi);
    const NegacyclicNtt64 reference(ring, n, psi);
    const auto x = sample_uniform(rng, n, ring.modulus());
    auto y = x;
    fast.forward(y);
    fast.inverse(y);
    EXPECT_EQ(y, x) << "production engine, tower " << t;
    y = x;
    reference.forward(y);
    reference.inverse(y);
    EXPECT_EQ(y, x) << "reference engine, tower " << t;
  }
}

TEST_P(NttVsNaive, NegacyclicMulMatchesNaiveAllPrimes) {
  const std::size_t n = GetParam();
  const RnsBasis basis = test_basis(n);
  Rng rng(200 + n);
  for (std::size_t t = 0; t < basis.size(); ++t) {
    const auto& ring = basis.tower(t);
    const u64 q = ring.modulus();
    const u64 psi = nt::primitive_2nth_root(q, n);
    const MergedNtt64 fast(ring, n, psi);
    const NegacyclicNtt64 reference(ring, n, psi);
    const auto a = sample_uniform(rng, n, q);
    const auto b = sample_uniform(rng, n, q);
    const auto expect = naive_negacyclic(a, b, q);
    EXPECT_EQ(fast.negacyclic_mul(a, b), expect) << "production engine, tower " << t;
    EXPECT_EQ(reference.negacyclic_mul(a, b), expect) << "reference engine, tower " << t;
  }
}

TEST_P(NttVsNaive, PointwiseConvolutionTheoremAllPrimes) {
  // The negacyclic product decomposes into forward NTT + pointwise product +
  // inverse NTT (paper Algorithm 2 with psi merged into the twiddles).  Run
  // the pipeline by hand and compare each layer against naive math.
  const std::size_t n = GetParam();
  const RnsBasis basis = test_basis(n);
  Rng rng(300 + n);
  for (std::size_t t = 0; t < basis.size(); ++t) {
    const auto& ring = basis.tower(t);
    const u64 q = ring.modulus();
    const u64 psi = nt::primitive_2nth_root(q, n);
    const MergedNtt64 ntt(ring, n, psi);
    const auto a = sample_uniform(rng, n, q);
    const auto b = sample_uniform(rng, n, q);

    // Forward: evaluation at the roots of x^n + 1, bit-reversed.
    auto fa = a, fb = b;
    ntt.forward(fa);
    ntt.forward(fb);
    EXPECT_EQ(fa, naive_ntt(a, psi, q)) << "forward transform, tower " << t;
    EXPECT_EQ(fb, naive_ntt(b, psi, q)) << "forward transform, tower " << t;

    // Pointwise product, then the inverse interpolates the product.
    Coeffs<u64> prod(n);
    for (std::size_t i = 0; i < n; ++i) prod[i] = naive_mulmod(fa[i], fb[i], q);
    ntt.inverse(prod);
    EXPECT_EQ(prod, naive_negacyclic(a, b, q)) << "negacyclic theorem, tower " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Degrees, NttVsNaive, ::testing::Values(16, 64, 256));

}  // namespace
}  // namespace cofhee::poly
