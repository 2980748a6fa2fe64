// The merged negacyclic NTT, defined once.
//
// CoFHEE runs a whole negacyclic transform as one command: the 2n-th root
// psi is folded into the stage twiddles (Longa-Naehrig), so no psi pre- or
// post-scaling pass is needed, and NTT and iNTT share a single twiddle ROM
// (paper Section VIII-B).  This header holds the pieces of that transform
// every engine shares:
//
//  * check_ntt_ring -- n = 2^k and psi^n = -1 mod q;
//  * twiddle_rom    -- the ROM image psi^rev(i), what the host preloads
//                      into the chip's TW bank;
//  * mirror_twiddles -- the inverse table psi^-rev(i), derived from the ROM
//                      alone through psi^-e = -psi^(n-e);
//  * for_each_ntt_block -- the CT (forward) / GS (inverse) stage walk.
//
// Three engines run that walk: MergedNtt<Red, T> (any reducer, e.g. the
// chip's 128-bit Barrett), MergedNtt64 (the u64 host engine with lazy
// Shoup butterflies and SIMD block kernels; poly/merged_ntt.hpp) and the
// chip model's NTT/iNTT commands (Mdmc::exec_ntt).  Every stage of the
// full log2(n) is run: the paper's Algorithm 1 listing stops at distance 2,
// but Table V's cycle counts ((n/2)*log2 n butterflies) confirm the
// complete transform.
//
// NegacyclicNtt64 is the declared independent reference: its own loops,
// tables and checks, with canonical Shoup butterflies.  The test battery
// and bench_kernel_dispatch compare the engines against it; nothing in
// src/ calls it.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "nt/barrett.hpp"
#include "nt/primes.hpp"
#include "poly/polynomial.hpp"

namespace cofhee::poly {

/// Throws std::invalid_argument (prefixed with `who`) unless n = 2^k with
/// k >= 1 and psi is a primitive 2n-th root of unity (psi^n = -1 mod q).
template <class Red, class T>
void check_ntt_ring(const Red& red, std::size_t n, T psi, const char* who) {
  if (!nt::is_power_of_two(n) || n < 2)
    throw std::invalid_argument(std::string(who) + ": n must be 2^k, k >= 1");
  if (red.pow(psi, static_cast<T>(n)) != red.modulus() - 1)
    throw std::invalid_argument(std::string(who) +
                                ": psi is not a primitive 2n-th root");
}

/// The twiddle ROM image: rom[i] = psi^rev(i), rev = log2(n)-bit reversal.
template <class Red, class T>
std::vector<T> twiddle_rom(const Red& red, std::size_t n, T psi) {
  const unsigned logn = nt::log2_exact(n);
  std::vector<T> rom(n);
  T p = 1;
  for (std::size_t e = 0; e < n; ++e) {
    rom[nt::bit_reverse(e, logn)] = p;
    p = red.mul(p, psi);
  }
  return rom;
}

/// The inverse twiddles psi^-rev(i), read from the ROM at mirrored
/// addresses: psi^n = -1 gives psi^-e = -psi^(n-e), and psi^(n-e) sits at
/// ROM address rev(n-e).  This is why the iNTT needs no second table.
template <class Red, class T>
std::vector<T> mirror_twiddles(const Red& red, const std::vector<T>& rom) {
  const std::size_t n = rom.size();
  const unsigned logn = nt::log2_exact(n);
  std::vector<T> inv(n);
  inv[0] = 1;
  for (std::size_t i = 1; i < n; ++i)
    inv[i] = red.neg(rom[nt::bit_reverse(n - nt::bit_reverse(i, logn), logn)]);
  return inv;
}

/// The stage walk of the merged transform.  Stage m (m blocks of half-width
/// t = n/(2m)) pairs x[j] with x[j + t] for j in [2it, 2it + t), block i
/// using twiddle index m + i.  Forward (CT, natural in, bit-reversed out)
/// runs m = 1, 2, ..., n/2 with ROM twiddles; inverse (GS, bit-reversed in,
/// natural out) runs m = n/2, ..., 1 with mirror twiddles.  `body(offset,
/// t, index)` executes one block; it is a template parameter, so it inlines.
template <class Body>
inline void for_each_ntt_block(std::size_t n, bool inverse, Body&& body) {
  for (std::size_t s = 1; s < n; s <<= 1) {
    const std::size_t m = inverse ? n / (2 * s) : s;
    const std::size_t t = n / (2 * m);
    for (std::size_t i = 0; i < m; ++i) body(2 * i * t, t, m + i);
  }
}

/// Independent u64 reference for the merged engines: merged psi twiddles
/// and canonical Shoup butterflies, with its own loops, tables and checks
/// (the role SEAL's NTT plays in Fig. 6).
class NegacyclicNtt64 {
 public:
  NegacyclicNtt64() = default;
  NegacyclicNtt64(const nt::Barrett64& red, std::size_t n, u64 psi);

  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] const nt::Barrett64& ring() const noexcept { return red_; }

  /// In-place forward negacyclic NTT (natural in, bit-reversed out).
  void forward(Coeffs<u64>& x) const;
  /// In-place inverse negacyclic NTT (bit-reversed in, natural out),
  /// including the n^-1 scaling.
  void inverse(Coeffs<u64>& x) const;

  Coeffs<u64> negacyclic_mul(const Coeffs<u64>& a, const Coeffs<u64>& b) const;

 private:
  nt::Barrett64 red_{};
  std::size_t n_ = 0;
  std::vector<nt::ShoupMul> psi_br_;      // psi^rev(i), merged CT twiddles
  std::vector<nt::ShoupMul> psi_inv_br_;  // psi^-rev(i), merged GS twiddles
  nt::ShoupMul n_inv_{};
};

}  // namespace cofhee::poly
