// The merged negacyclic NTT engines on the host.
//
// Both run the one stage walk, twiddle ROM and mirror identity defined in
// poly/ntt.hpp -- the transform CoFHEE's NTT command executes (the chip
// model's Mdmc::exec_ntt runs the same walk with its PE butterflies).  With
// psi folded into the twiddles, the ciphertext multiplication of Algorithm 3
// costs exactly 4 NTT + 4 Hadamard + 1 add + 3 iNTT commands, which is what
// the Table V / Fig. 6 latencies decompose into (see chip/mdmc.hpp).
//
//  * MergedNtt<Red, T> -- generic over the reducer: canonical butterflies
//    through Red (Barrett128 for the chip's 128-bit towers).
//  * MergedNtt64 -- the default u64 tower engine: Shoup twiddles, lazy
//    reduction and SIMD block kernels.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "nt/barrett.hpp"
#include "poly/ntt.hpp"
#include "poly/polynomial.hpp"

namespace cofhee::poly {

template <class Red, class T>
class MergedNtt {
 public:
  MergedNtt() = default;

  MergedNtt(const Red& red, std::size_t n, T psi) : red_(red), n_(n) {
    check_ntt_ring(red, n, psi, "MergedNtt");
    tw_ = twiddle_rom(red, n, psi);
    tw_inv_ = mirror_twiddles(red, tw_);
    n_inv_ = red.inv(static_cast<T>(n));
  }

  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] const Red& ring() const noexcept { return red_; }
  [[nodiscard]] T n_inv() const noexcept { return n_inv_; }

  /// Forward negacyclic NTT (CT/DIT, natural in, bit-reversed out).
  void forward(Coeffs<T>& x) const {
    check(x);
    const auto block = [&](std::size_t j1, std::size_t t, std::size_t k) {
      const T s = tw_[k];
      for (std::size_t j = j1; j < j1 + t; ++j) {
        const T u = x[j];
        const T v = red_.mul(x[j + t], s);
        x[j] = red_.add(u, v);
        x[j + t] = red_.sub(u, v);
      }
    };
    for_each_ntt_block(n_, /*inverse=*/false, block);
  }

  /// Inverse negacyclic NTT (GS/DIF, bit-reversed in, natural out), with
  /// the trailing n^-1 scaling.
  void inverse(Coeffs<T>& x) const {
    check(x);
    const auto block = [&](std::size_t j1, std::size_t t, std::size_t k) {
      const T s = tw_inv_[k];
      for (std::size_t j = j1; j < j1 + t; ++j) {
        const T u = x[j];
        const T v = x[j + t];
        x[j] = red_.add(u, v);
        x[j + t] = red_.mul(red_.sub(u, v), s);
      }
    };
    for_each_ntt_block(n_, /*inverse=*/true, block);
    for (auto& c : x) c = red_.mul(c, n_inv_);
  }

  Coeffs<T> negacyclic_mul(const Coeffs<T>& a, const Coeffs<T>& b) const {
    Coeffs<T> ap(a), bp(b);
    forward(ap);
    forward(bp);
    Coeffs<T> y = pointwise_mul(red_, ap, bp);
    inverse(y);
    return y;
  }

 private:
  void check(const Coeffs<T>& x) const {
    if (x.size() != n_) throw std::invalid_argument("MergedNtt: wrong length");
  }

  Red red_{};
  std::size_t n_ = 0;
  T n_inv_{};
  std::vector<T> tw_, tw_inv_;
};

using MergedNtt128 = MergedNtt<nt::Barrett128, u128>;

/// The default host-side u64 tower engine: the merged transform on the
/// 64-bit RNS towers with Shoup-precomputed twiddles, Harvey lazy reduction
/// through the butterfly stages (values ride in [0, 4q) forward / [0, 2q)
/// inverse; one canonicalization pass per transform) and SIMD
/// butterfly/pointwise kernels dispatched through nt::simd.  The inverse
/// transform's n^-1 scaling is fused into its canonicalization pass, so each
/// transform is exactly log2(n) butterfly passes plus one reduction pass
/// over the coefficients.
///
/// tensor() is the fused NTT -> pointwise -> INTT tower kernel behind
/// Bfv::multiply and CpuTensorKernel: one call transforms all four operand
/// towers and emits the three tensor components without materializing
/// intermediate RnsPoly waves.  NegacyclicNtt64 (poly/ntt.hpp) is the
/// independent reference this engine is differentially tested against.
class MergedNtt64 {
 public:
  MergedNtt64() = default;
  MergedNtt64(const nt::Barrett64& red, std::size_t n, u64 psi);

  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] const nt::Barrett64& ring() const noexcept { return red_; }
  [[nodiscard]] u64 modulus() const noexcept { return red_.modulus(); }

  /// Forward negacyclic NTT (CT/DIT, natural in, bit-reversed out).
  /// Canonical residues in, canonical residues out.
  void forward(Coeffs<u64>& x) const;
  /// Inverse negacyclic NTT (GS/DIF, bit-reversed in, natural out) with the
  /// n^-1 scaling fused into the final canonicalization pass.
  void inverse(Coeffs<u64>& x) const;

  /// Fused negacyclic product of two towers.
  [[nodiscard]] Coeffs<u64> negacyclic_mul(const Coeffs<u64>& a,
                                           const Coeffs<u64>& b) const;

  /// acc[i] = acc[i] + a[i] * b[i] mod q: the NTT-domain multiply-accumulate
  /// of key switching.  Canonical residues in and out.
  void mul_acc(Coeffs<u64>& acc, const Coeffs<u64>& a, const Coeffs<u64>& b) const;

  /// Fused BFV tensor for one tower: y0 = a0*b0, y1 = a0*b1 + a1*b0,
  /// y2 = a1*b1 (negacyclic products), computed with 4 forward transforms,
  /// 4 pointwise kernels and 3 inverse transforms in one pass structure.
  void tensor(const Coeffs<u64>& a0, const Coeffs<u64>& a1,
              const Coeffs<u64>& b0, const Coeffs<u64>& b1, Coeffs<u64>& y0,
              Coeffs<u64>& y1, Coeffs<u64>& y2) const;

 private:
  void check(const Coeffs<u64>& x) const {
    if (x.size() != n_) throw std::invalid_argument("MergedNtt64: wrong length");
  }

  nt::Barrett64 red_{};
  std::size_t n_ = 0;
  u64 n_inv_ = 0, n_inv_shoup_ = 0;
  std::vector<u64> tw_, tw_shoup_;          // psi^rev(i) + Shoup companions
  std::vector<u64> tw_inv_, tw_inv_shoup_;  // psi^-rev(i) + Shoup companions
};

}  // namespace cofhee::poly
