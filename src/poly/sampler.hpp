// Randomness for RLWE: uniform, ternary, and centered-binomial samplers.
//
// BFV encryption (paper Eqs. 2-3) draws u from {-1, 0, 1} and e1/e2 from a
// discrete Gaussian.  We use a centered binomial distribution with eta = 21
// (sigma = sqrt(eta/2) ~ 3.24, matching SEAL's sigma = 3.2 within 2%) as the
// Gaussian stand-in -- a standard, constant-time-friendly substitution also
// used by Kyber.  All sampling is deterministic from a seed so every
// experiment is reproducible.
#pragma once

#include <cstdint>
#include <vector>

#include "poly/polynomial.hpp"
#include "poly/rns.hpp"

namespace cofhee::poly {

/// xoshiro256** -- small, fast, seedable; not cryptographic (this repo's
/// purpose is performance reproduction, not production key generation).
class Rng {
 public:
  explicit Rng(u64 seed = 0x5EED5EED5EEDull);

  u64 next_u64();
  /// Uniform in [0, bound) by rejection (no modulo bias).
  u64 uniform_below(u64 bound);
  u128 uniform_u128_below(u128 bound);

 private:
  u64 s_[4];
};

/// Small signed value (e.g. -1/0/1 or CBD output), representable in any ring.
using SignedCoeffs = std::vector<int32_t>;

/// Uniform polynomial over [0, q).
Coeffs<u64> sample_uniform(Rng& rng, std::size_t n, u64 q);
Coeffs<u128> sample_uniform128(Rng& rng, std::size_t n, u128 q);

/// Per-(seed, tower) stream seed for seed-expandable polynomials (relin-key
/// `a` components): the host records one 64-bit seed per digit, and both
/// ends re-derive any tower's stream independently -- random access per
/// tower, no ordering constraint between towers.  Splitmix-style mix.
u64 tower_seed(u64 seed, std::size_t tower);

/// Expand one tower of a seed-expandable uniform polynomial.  This is THE
/// shared definition both sides use: key generation calls it on the host,
/// and the driver's seed-frame upload calls it as the chip-side expansion
/// -- so the SRAM contents after a compressed upload are bit-identical to a
/// full coefficient burst of the same key.
Coeffs<u64> expand_uniform(u64 seed, std::size_t tower, std::size_t n, u64 q);

/// Ternary polynomial in {-1, 0, 1}.
SignedCoeffs sample_ternary(Rng& rng, std::size_t n);

/// Centered binomial with parameter eta (variance eta/2).
SignedCoeffs sample_cbd(Rng& rng, std::size_t n, unsigned eta = 21);

/// Map a small signed polynomial into one RNS tower.
Coeffs<u64> to_tower(const SignedCoeffs& s, u64 q);

/// Map a small signed polynomial into every tower of a basis.
RnsPoly to_rns(const SignedCoeffs& s, const RnsBasis& basis);

}  // namespace cofhee::poly
