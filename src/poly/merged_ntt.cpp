#include "poly/merged_ntt.hpp"

#include "nt/simd.hpp"

namespace cofhee::poly {

namespace {
inline u64 shoup_of(u64 w, u64 q) noexcept {
  return static_cast<u64>((static_cast<u128>(w) << 64) / q);
}
}  // namespace

MergedNtt64::MergedNtt64(const nt::Barrett64& red, std::size_t n, u64 psi)
    : red_(red), n_(n) {
  check_ntt_ring(red, n, psi, "MergedNtt64");
  const u64 q = red.modulus();
  tw_ = twiddle_rom(red, n, psi);
  tw_inv_ = mirror_twiddles(red, tw_);
  tw_shoup_.resize(n);
  tw_inv_shoup_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    tw_shoup_[i] = shoup_of(tw_[i], q);
    tw_inv_shoup_[i] = shoup_of(tw_inv_[i], q);
  }
  n_inv_ = red.inv(static_cast<u64>(n));
  n_inv_shoup_ = shoup_of(n_inv_, q);
}

void MergedNtt64::forward(Coeffs<u64>& x) const {
  check(x);
  const auto& K = nt::simd::kernels();
  const u64 q = red_.modulus();
  u64* d = x.data();
  for_each_ntt_block(n_, /*inverse=*/false,
                     [&](std::size_t j1, std::size_t t, std::size_t k) {
                       K.ct_butterfly(d + j1, d + j1 + t, t, tw_[k], tw_shoup_[k], q);
                     });
  K.canonicalize(d, n_, q);
}

void MergedNtt64::inverse(Coeffs<u64>& x) const {
  check(x);
  const auto& K = nt::simd::kernels();
  const u64 q = red_.modulus();
  u64* d = x.data();
  for_each_ntt_block(n_, /*inverse=*/true,
                     [&](std::size_t j1, std::size_t t, std::size_t k) {
                       K.gs_butterfly(d + j1, d + j1 + t, t, tw_inv_[k],
                                      tw_inv_shoup_[k], q);
                     });
  // Shoup scalar multiply accepts the lazy [0, 2q) stage output directly and
  // emits canonical residues: n^-1 scaling and canonicalization in one pass.
  K.scalar_mul_shoup(d, n_, n_inv_, n_inv_shoup_, q);
}

Coeffs<u64> MergedNtt64::negacyclic_mul(const Coeffs<u64>& a,
                                        const Coeffs<u64>& b) const {
  check(a);
  check(b);
  const auto& K = nt::simd::kernels();
  Coeffs<u64> ap(a), bp(b);
  forward(ap);
  forward(bp);
  K.pointwise_mul(ap.data(), ap.data(), bp.data(), n_, red_.modulus(),
                  red_.mu(), red_.k());
  inverse(ap);
  return ap;
}

void MergedNtt64::mul_acc(Coeffs<u64>& acc, const Coeffs<u64>& a,
                          const Coeffs<u64>& b) const {
  check(acc);
  check(a);
  check(b);
  nt::simd::kernels().pointwise_mul_acc(acc.data(), a.data(), b.data(), n_,
                                        red_.modulus(), red_.mu(), red_.k());
}

void MergedNtt64::tensor(const Coeffs<u64>& a0, const Coeffs<u64>& a1,
                         const Coeffs<u64>& b0, const Coeffs<u64>& b1,
                         Coeffs<u64>& y0, Coeffs<u64>& y1,
                         Coeffs<u64>& y2) const {
  check(a0);
  check(a1);
  check(b0);
  check(b1);
  const auto& K = nt::simd::kernels();
  const u64 q = red_.modulus();
  const u64 mu = red_.mu();
  const unsigned k = red_.k();
  Coeffs<u64> fa0(a0), fa1(a1), fb0(b0), fb1(b1);
  forward(fa0);
  forward(fa1);
  forward(fb0);
  forward(fb1);
  y0.resize(n_);
  y1.resize(n_);
  y2.resize(n_);
  K.pointwise_mul(y0.data(), fa0.data(), fb0.data(), n_, q, mu, k);
  K.pointwise_mul(y1.data(), fa0.data(), fb1.data(), n_, q, mu, k);
  K.pointwise_mul_acc(y1.data(), fa1.data(), fb0.data(), n_, q, mu, k);
  K.pointwise_mul(y2.data(), fa1.data(), fb1.data(), n_, q, mu, k);
  inverse(y0);
  inverse(y1);
  inverse(y2);
}

}  // namespace cofhee::poly
