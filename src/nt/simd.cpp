#include "nt/simd.hpp"

#include <atomic>
#include <stdexcept>
#include <string>

#ifndef COFHEE_SIMD
#define COFHEE_SIMD 1
#endif

#if COFHEE_SIMD && (defined(__x86_64__) || defined(_M_X64))
#define COFHEE_SIMD_AVX2 1
#include <immintrin.h>
#else
#define COFHEE_SIMD_AVX2 0
#endif

#if COFHEE_SIMD && defined(__aarch64__)
#define COFHEE_SIMD_NEON 1
#include <arm_neon.h>
#else
#define COFHEE_SIMD_NEON 0
#endif

namespace cofhee::nt::simd {
namespace {

// ---------------------------------------------------------------------------
// Scalar lane -- the reference every vector lane is differentially tested
// against.  The vector lanes below execute these exact recurrences.
// ---------------------------------------------------------------------------

inline u64 mulhi64(u64 a, u64 b) noexcept {
  return static_cast<u64>((static_cast<u128>(a) * b) >> 64);
}

// Lazy Shoup product: w * x mod q plus possibly one extra q, i.e. a value in
// [0, 2q).  Valid for any 64-bit x when w < q (Harvey).
inline u64 shoup_lazy(u64 x, u64 w, u64 wshoup, u64 q) noexcept {
  return w * x - mulhi64(wshoup, x) * q;
}

void ct_butterfly_scalar(u64* x, u64* y, std::size_t len, u64 w, u64 wshoup,
                         u64 q) {
  const u64 two_q = 2 * q;
  for (std::size_t i = 0; i < len; ++i) {
    u64 u = x[i];
    if (u >= two_q) u -= two_q;
    const u64 v = shoup_lazy(y[i], w, wshoup, q);
    x[i] = u + v;
    y[i] = u - v + two_q;
  }
}

void gs_butterfly_scalar(u64* x, u64* y, std::size_t len, u64 w, u64 wshoup,
                         u64 q) {
  const u64 two_q = 2 * q;
  for (std::size_t i = 0; i < len; ++i) {
    const u64 u = x[i];
    const u64 v = y[i];
    u64 s = u + v;
    if (s >= two_q) s -= two_q;
    x[i] = s;
    y[i] = shoup_lazy(u - v + two_q, w, wshoup, q);
  }
}

void canonicalize_scalar(u64* x, std::size_t len, u64 q) {
  const u64 two_q = 2 * q;
  for (std::size_t i = 0; i < len; ++i) {
    u64 v = x[i];
    if (v >= two_q) v -= two_q;
    if (v >= q) v -= q;
    x[i] = v;
  }
}

// Barrett64::reduce with the quotient-estimate shifts unrolled and the
// (at most two) trailing subtractions made unconditional-count so the
// vector lanes can mirror it step for step.
inline u64 barrett_mul_one(u64 a, u64 b, u64 q, u64 mu, unsigned k) noexcept {
  const u128 x = static_cast<u128>(a) * b;
  const u64 q1 = static_cast<u64>(x >> (k - 1));
  const u64 q3 = static_cast<u64>((static_cast<u128>(q1) * mu) >> (k + 1));
  u64 r = static_cast<u64>(x) - q3 * q;  // < 3q, wraparound intentional
  if (r >= q) r -= q;
  if (r >= q) r -= q;
  return r;
}

void pointwise_mul_scalar(u64* dst, const u64* a, const u64* b,
                          std::size_t len, u64 q, u64 mu, unsigned k) {
  for (std::size_t i = 0; i < len; ++i) dst[i] = barrett_mul_one(a[i], b[i], q, mu, k);
}

void pointwise_mul_acc_scalar(u64* dst, const u64* a, const u64* b,
                              std::size_t len, u64 q, u64 mu, unsigned k) {
  for (std::size_t i = 0; i < len; ++i) {
    const u64 p = barrett_mul_one(a[i], b[i], q, mu, k);
    const u64 s = dst[i] + p;
    dst[i] = s >= q ? s - q : s;
  }
}

void scalar_mul_shoup_scalar(u64* x, std::size_t len, u64 w, u64 wshoup,
                             u64 q) {
  for (std::size_t i = 0; i < len; ++i) {
    u64 r = shoup_lazy(x[i], w, wshoup, q);
    if (r >= q) r -= q;
    x[i] = r;
  }
}

constexpr KernelTable kScalarTable = {
    ct_butterfly_scalar,     gs_butterfly_scalar,
    canonicalize_scalar,     pointwise_mul_scalar,
    pointwise_mul_acc_scalar, scalar_mul_shoup_scalar,
};

// ---------------------------------------------------------------------------
// AVX2 lane.  AVX2 has no 64x64 multiply, so the 128-bit products are built
// from four 32x32 partials (_mm256_mul_epu32) exactly as Intel HEXL does;
// unsigned 64-bit compares go through the sign-bit flip + signed cmpgt
// trick.  Tail elements (< 4) fall through to the scalar lane, which keeps
// the vector/scalar outputs identical at every length.
// ---------------------------------------------------------------------------
#if COFHEE_SIMD_AVX2

#define COFHEE_AVX2_FN __attribute__((target("avx2")))

COFHEE_AVX2_FN inline __m256i mm_mulhi_epu64(__m256i a, __m256i b) noexcept {
  const __m256i lomask = _mm256_set1_epi64x(0xffffffffLL);
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i p00 = _mm256_mul_epu32(a, b);
  const __m256i p01 = _mm256_mul_epu32(a, b_hi);
  const __m256i p10 = _mm256_mul_epu32(a_hi, b);
  const __m256i p11 = _mm256_mul_epu32(a_hi, b_hi);
  const __m256i mid = _mm256_add_epi64(
      _mm256_add_epi64(_mm256_srli_epi64(p00, 32), _mm256_and_si256(p01, lomask)),
      _mm256_and_si256(p10, lomask));
  return _mm256_add_epi64(
      _mm256_add_epi64(p11, _mm256_srli_epi64(p01, 32)),
      _mm256_add_epi64(_mm256_srli_epi64(p10, 32), _mm256_srli_epi64(mid, 32)));
}

COFHEE_AVX2_FN inline __m256i mm_mullo_epu64(__m256i a, __m256i b) noexcept {
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(a, b_hi), _mm256_mul_epu32(a_hi, b));
  return _mm256_add_epi64(_mm256_mul_epu32(a, b), _mm256_slli_epi64(cross, 32));
}

// a - (a >= m ? m : 0), unsigned.
COFHEE_AVX2_FN inline __m256i mm_csub_epu64(__m256i a, __m256i m) noexcept {
  const __m256i sign = _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ULL));
  const __m256i lt = _mm256_cmpgt_epi64(_mm256_xor_si256(m, sign),
                                        _mm256_xor_si256(a, sign));
  return _mm256_sub_epi64(a, _mm256_andnot_si256(lt, m));
}

COFHEE_AVX2_FN void ct_butterfly_avx2(u64* x, u64* y, std::size_t len, u64 w,
                                      u64 wshoup, u64 q) {
  const __m256i vq = _mm256_set1_epi64x(static_cast<long long>(q));
  const __m256i vq2 = _mm256_set1_epi64x(static_cast<long long>(2 * q));
  const __m256i vw = _mm256_set1_epi64x(static_cast<long long>(w));
  const __m256i vws = _mm256_set1_epi64x(static_cast<long long>(wshoup));
  std::size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    __m256i u = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i t = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i));
    u = mm_csub_epu64(u, vq2);
    const __m256i hi = mm_mulhi_epu64(vws, t);
    const __m256i v =
        _mm256_sub_epi64(mm_mullo_epu64(vw, t), mm_mullo_epu64(hi, vq));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(x + i), _mm256_add_epi64(u, v));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + i),
                        _mm256_add_epi64(_mm256_sub_epi64(u, v), vq2));
  }
  if (i < len) ct_butterfly_scalar(x + i, y + i, len - i, w, wshoup, q);
}

COFHEE_AVX2_FN void gs_butterfly_avx2(u64* x, u64* y, std::size_t len, u64 w,
                                      u64 wshoup, u64 q) {
  const __m256i vq = _mm256_set1_epi64x(static_cast<long long>(q));
  const __m256i vq2 = _mm256_set1_epi64x(static_cast<long long>(2 * q));
  const __m256i vw = _mm256_set1_epi64x(static_cast<long long>(w));
  const __m256i vws = _mm256_set1_epi64x(static_cast<long long>(wshoup));
  std::size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    const __m256i u = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i));
    const __m256i s = mm_csub_epu64(_mm256_add_epi64(u, v), vq2);
    const __m256i d = _mm256_add_epi64(_mm256_sub_epi64(u, v), vq2);
    const __m256i hi = mm_mulhi_epu64(vws, d);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(x + i), s);
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(y + i),
        _mm256_sub_epi64(mm_mullo_epu64(vw, d), mm_mullo_epu64(hi, vq)));
  }
  if (i < len) gs_butterfly_scalar(x + i, y + i, len - i, w, wshoup, q);
}

COFHEE_AVX2_FN void canonicalize_avx2(u64* x, std::size_t len, u64 q) {
  const __m256i vq = _mm256_set1_epi64x(static_cast<long long>(q));
  const __m256i vq2 = _mm256_set1_epi64x(static_cast<long long>(2 * q));
  std::size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    v = mm_csub_epu64(mm_csub_epu64(v, vq2), vq);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(x + i), v);
  }
  if (i < len) canonicalize_scalar(x + i, len - i, q);
}

// One Barrett product vector: identical shift/estimate recurrence as
// barrett_mul_one, two fixed conditional subtractions.
COFHEE_AVX2_FN inline __m256i mm_barrett_mul(__m256i a, __m256i b, __m256i vq,
                                             __m256i vmu, unsigned k) noexcept {
  const __m128i sh_lo = _mm_cvtsi32_si128(static_cast<int>(k - 1));
  const __m128i sh_lo_c = _mm_cvtsi32_si128(static_cast<int>(65 - k));
  const __m128i sh_hi = _mm_cvtsi32_si128(static_cast<int>(k + 1));
  const __m128i sh_hi_c = _mm_cvtsi32_si128(static_cast<int>(63 - k));
  const __m256i xlo = mm_mullo_epu64(a, b);
  const __m256i xhi = mm_mulhi_epu64(a, b);
  const __m256i q1 = _mm256_or_si256(_mm256_srl_epi64(xlo, sh_lo),
                                     _mm256_sll_epi64(xhi, sh_lo_c));
  const __m256i q2lo = mm_mullo_epu64(q1, vmu);
  const __m256i q2hi = mm_mulhi_epu64(q1, vmu);
  const __m256i q3 = _mm256_or_si256(_mm256_srl_epi64(q2lo, sh_hi),
                                     _mm256_sll_epi64(q2hi, sh_hi_c));
  __m256i r = _mm256_sub_epi64(xlo, mm_mullo_epu64(q3, vq));
  r = mm_csub_epu64(r, vq);
  return mm_csub_epu64(r, vq);
}

COFHEE_AVX2_FN void pointwise_mul_avx2(u64* dst, const u64* a, const u64* b,
                                       std::size_t len, u64 q, u64 mu,
                                       unsigned k) {
  const __m256i vq = _mm256_set1_epi64x(static_cast<long long>(q));
  const __m256i vmu = _mm256_set1_epi64x(static_cast<long long>(mu));
  std::size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        mm_barrett_mul(va, vb, vq, vmu, k));
  }
  if (i < len) pointwise_mul_scalar(dst + i, a + i, b + i, len - i, q, mu, k);
}

COFHEE_AVX2_FN void pointwise_mul_acc_avx2(u64* dst, const u64* a,
                                           const u64* b, std::size_t len,
                                           u64 q, u64 mu, unsigned k) {
  const __m256i vq = _mm256_set1_epi64x(static_cast<long long>(q));
  const __m256i vmu = _mm256_set1_epi64x(static_cast<long long>(mu));
  std::size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i p = mm_barrett_mul(va, vb, vq, vmu, k);
    const __m256i d = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        mm_csub_epu64(_mm256_add_epi64(d, p), vq));
  }
  if (i < len) pointwise_mul_acc_scalar(dst + i, a + i, b + i, len - i, q, mu, k);
}

COFHEE_AVX2_FN void scalar_mul_shoup_avx2(u64* x, std::size_t len, u64 w,
                                          u64 wshoup, u64 q) {
  const __m256i vq = _mm256_set1_epi64x(static_cast<long long>(q));
  const __m256i vw = _mm256_set1_epi64x(static_cast<long long>(w));
  const __m256i vws = _mm256_set1_epi64x(static_cast<long long>(wshoup));
  std::size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    const __m256i t = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i hi = mm_mulhi_epu64(vws, t);
    const __m256i r =
        _mm256_sub_epi64(mm_mullo_epu64(vw, t), mm_mullo_epu64(hi, vq));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(x + i), mm_csub_epu64(r, vq));
  }
  if (i < len) scalar_mul_shoup_scalar(x + i, len - i, w, wshoup, q);
}

constexpr KernelTable kAvx2Table = {
    ct_butterfly_avx2,     gs_butterfly_avx2,
    canonicalize_avx2,     pointwise_mul_avx2,
    pointwise_mul_acc_avx2, scalar_mul_shoup_avx2,
};

#endif  // COFHEE_SIMD_AVX2

// ---------------------------------------------------------------------------
// NEON lane (aarch64).  64x64 products from vmull_u32 partials; aarch64
// provides a native unsigned 64-bit compare (vcgeq_u64), so the conditional
// subtraction is a compare-and-mask.  Structure mirrors the AVX2 lane.
// ---------------------------------------------------------------------------
#if COFHEE_SIMD_NEON

inline uint64x2_t nn_mulhi_epu64(uint64x2_t a, uint64x2_t b) noexcept {
  const uint32x2_t a_lo = vmovn_u64(a);
  const uint32x2_t a_hi = vshrn_n_u64(a, 32);
  const uint32x2_t b_lo = vmovn_u64(b);
  const uint32x2_t b_hi = vshrn_n_u64(b, 32);
  const uint64x2_t p00 = vmull_u32(a_lo, b_lo);
  const uint64x2_t p01 = vmull_u32(a_lo, b_hi);
  const uint64x2_t p10 = vmull_u32(a_hi, b_lo);
  const uint64x2_t p11 = vmull_u32(a_hi, b_hi);
  const uint64x2_t lomask = vdupq_n_u64(0xffffffffULL);
  const uint64x2_t mid = vaddq_u64(
      vaddq_u64(vshrq_n_u64(p00, 32), vandq_u64(p01, lomask)),
      vandq_u64(p10, lomask));
  return vaddq_u64(vaddq_u64(p11, vshrq_n_u64(p01, 32)),
                   vaddq_u64(vshrq_n_u64(p10, 32), vshrq_n_u64(mid, 32)));
}

inline uint64x2_t nn_mullo_epu64(uint64x2_t a, uint64x2_t b) noexcept {
  const uint32x2_t a_lo = vmovn_u64(a);
  const uint32x2_t a_hi = vshrn_n_u64(a, 32);
  const uint32x2_t b_lo = vmovn_u64(b);
  const uint32x2_t b_hi = vshrn_n_u64(b, 32);
  const uint64x2_t cross = vaddq_u64(vmull_u32(a_lo, b_hi), vmull_u32(a_hi, b_lo));
  return vaddq_u64(vmull_u32(a_lo, b_lo), vshlq_n_u64(cross, 32));
}

inline uint64x2_t nn_csub_u64(uint64x2_t a, uint64x2_t m) noexcept {
  return vsubq_u64(a, vandq_u64(vcgeq_u64(a, m), m));
}

void ct_butterfly_neon(u64* x, u64* y, std::size_t len, u64 w, u64 wshoup,
                       u64 q) {
  const uint64x2_t vq = vdupq_n_u64(q);
  const uint64x2_t vq2 = vdupq_n_u64(2 * q);
  const uint64x2_t vw = vdupq_n_u64(w);
  const uint64x2_t vws = vdupq_n_u64(wshoup);
  std::size_t i = 0;
  for (; i + 2 <= len; i += 2) {
    uint64x2_t u = vld1q_u64(x + i);
    const uint64x2_t t = vld1q_u64(y + i);
    u = nn_csub_u64(u, vq2);
    const uint64x2_t hi = nn_mulhi_epu64(vws, t);
    const uint64x2_t v = vsubq_u64(nn_mullo_epu64(vw, t), nn_mullo_epu64(hi, vq));
    vst1q_u64(x + i, vaddq_u64(u, v));
    vst1q_u64(y + i, vaddq_u64(vsubq_u64(u, v), vq2));
  }
  if (i < len) ct_butterfly_scalar(x + i, y + i, len - i, w, wshoup, q);
}

void gs_butterfly_neon(u64* x, u64* y, std::size_t len, u64 w, u64 wshoup,
                       u64 q) {
  const uint64x2_t vq = vdupq_n_u64(q);
  const uint64x2_t vq2 = vdupq_n_u64(2 * q);
  const uint64x2_t vw = vdupq_n_u64(w);
  const uint64x2_t vws = vdupq_n_u64(wshoup);
  std::size_t i = 0;
  for (; i + 2 <= len; i += 2) {
    const uint64x2_t u = vld1q_u64(x + i);
    const uint64x2_t v = vld1q_u64(y + i);
    const uint64x2_t s = nn_csub_u64(vaddq_u64(u, v), vq2);
    const uint64x2_t d = vaddq_u64(vsubq_u64(u, v), vq2);
    const uint64x2_t hi = nn_mulhi_epu64(vws, d);
    vst1q_u64(x + i, s);
    vst1q_u64(y + i, vsubq_u64(nn_mullo_epu64(vw, d), nn_mullo_epu64(hi, vq)));
  }
  if (i < len) gs_butterfly_scalar(x + i, y + i, len - i, w, wshoup, q);
}

void canonicalize_neon(u64* x, std::size_t len, u64 q) {
  const uint64x2_t vq = vdupq_n_u64(q);
  const uint64x2_t vq2 = vdupq_n_u64(2 * q);
  std::size_t i = 0;
  for (; i + 2 <= len; i += 2) {
    uint64x2_t v = vld1q_u64(x + i);
    v = nn_csub_u64(nn_csub_u64(v, vq2), vq);
    vst1q_u64(x + i, v);
  }
  if (i < len) canonicalize_scalar(x + i, len - i, q);
}

inline uint64x2_t nn_barrett_mul(uint64x2_t a, uint64x2_t b, uint64x2_t vq,
                                 uint64x2_t vmu, unsigned k) noexcept {
  const int64x2_t sh_lo = vdupq_n_s64(-static_cast<int64_t>(k - 1));
  const int64x2_t sh_lo_c = vdupq_n_s64(static_cast<int64_t>(65 - k));
  const int64x2_t sh_hi = vdupq_n_s64(-static_cast<int64_t>(k + 1));
  const int64x2_t sh_hi_c = vdupq_n_s64(static_cast<int64_t>(63 - k));
  const uint64x2_t xlo = nn_mullo_epu64(a, b);
  const uint64x2_t xhi = nn_mulhi_epu64(a, b);
  const uint64x2_t q1 =
      vorrq_u64(vshlq_u64(xlo, sh_lo), vshlq_u64(xhi, sh_lo_c));
  const uint64x2_t q2lo = nn_mullo_epu64(q1, vmu);
  const uint64x2_t q2hi = nn_mulhi_epu64(q1, vmu);
  const uint64x2_t q3 =
      vorrq_u64(vshlq_u64(q2lo, sh_hi), vshlq_u64(q2hi, sh_hi_c));
  uint64x2_t r = vsubq_u64(xlo, nn_mullo_epu64(q3, vq));
  r = nn_csub_u64(r, vq);
  return nn_csub_u64(r, vq);
}

void pointwise_mul_neon(u64* dst, const u64* a, const u64* b, std::size_t len,
                        u64 q, u64 mu, unsigned k) {
  const uint64x2_t vq = vdupq_n_u64(q);
  const uint64x2_t vmu = vdupq_n_u64(mu);
  std::size_t i = 0;
  for (; i + 2 <= len; i += 2)
    vst1q_u64(dst + i,
              nn_barrett_mul(vld1q_u64(a + i), vld1q_u64(b + i), vq, vmu, k));
  if (i < len) pointwise_mul_scalar(dst + i, a + i, b + i, len - i, q, mu, k);
}

void pointwise_mul_acc_neon(u64* dst, const u64* a, const u64* b,
                            std::size_t len, u64 q, u64 mu, unsigned k) {
  const uint64x2_t vq = vdupq_n_u64(q);
  const uint64x2_t vmu = vdupq_n_u64(mu);
  std::size_t i = 0;
  for (; i + 2 <= len; i += 2) {
    const uint64x2_t p =
        nn_barrett_mul(vld1q_u64(a + i), vld1q_u64(b + i), vq, vmu, k);
    vst1q_u64(dst + i, nn_csub_u64(vaddq_u64(vld1q_u64(dst + i), p), vq));
  }
  if (i < len) pointwise_mul_acc_scalar(dst + i, a + i, b + i, len - i, q, mu, k);
}

void scalar_mul_shoup_neon(u64* x, std::size_t len, u64 w, u64 wshoup, u64 q) {
  const uint64x2_t vq = vdupq_n_u64(q);
  const uint64x2_t vw = vdupq_n_u64(w);
  const uint64x2_t vws = vdupq_n_u64(wshoup);
  std::size_t i = 0;
  for (; i + 2 <= len; i += 2) {
    const uint64x2_t t = vld1q_u64(x + i);
    const uint64x2_t hi = nn_mulhi_epu64(vws, t);
    const uint64x2_t r = vsubq_u64(nn_mullo_epu64(vw, t), nn_mullo_epu64(hi, vq));
    vst1q_u64(x + i, nn_csub_u64(r, vq));
  }
  if (i < len) scalar_mul_shoup_scalar(x + i, len - i, w, wshoup, q);
}

constexpr KernelTable kNeonTable = {
    ct_butterfly_neon,     gs_butterfly_neon,
    canonicalize_neon,     pointwise_mul_neon,
    pointwise_mul_acc_neon, scalar_mul_shoup_neon,
};

#endif  // COFHEE_SIMD_NEON

// ---------------------------------------------------------------------------
// Dispatch state.
// ---------------------------------------------------------------------------

Isa detect_isa() noexcept {
#if COFHEE_SIMD_AVX2
  if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
#endif
#if COFHEE_SIMD_NEON
  return Isa::kNeon;
#endif
  return Isa::kScalar;
}

// -1 == no forced lane.
std::atomic<int> g_forced{-1};

}  // namespace

const char* isa_name(Isa isa) noexcept {
  switch (isa) {
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
    case Isa::kScalar:
    default:
      return "scalar";
  }
}

bool available(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
#if COFHEE_SIMD_AVX2
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case Isa::kNeon:
#if COFHEE_SIMD_NEON
      return true;
#else
      return false;
#endif
  }
  return false;
}

Isa active_isa() noexcept {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Isa>(forced);
  static const Isa detected = detect_isa();
  return detected;
}

bool force_isa(Isa isa) noexcept {
  if (!available(isa)) return false;
  g_forced.store(static_cast<int>(isa), std::memory_order_relaxed);
  return true;
}

void clear_forced_isa() noexcept { g_forced.store(-1, std::memory_order_relaxed); }

const KernelTable& kernels() noexcept {
  switch (active_isa()) {
#if COFHEE_SIMD_AVX2
    case Isa::kAvx2:
      return kAvx2Table;
#endif
#if COFHEE_SIMD_NEON
    case Isa::kNeon:
      return kNeonTable;
#endif
    default:
      return kScalarTable;
  }
}

const KernelTable& kernels_for(Isa isa) {
  if (!available(isa))
    throw std::invalid_argument(std::string("simd lane unavailable: ") +
                                isa_name(isa));
  switch (isa) {
#if COFHEE_SIMD_AVX2
    case Isa::kAvx2:
      return kAvx2Table;
#endif
#if COFHEE_SIMD_NEON
    case Isa::kNeon:
      return kNeonTable;
#endif
    default:
      return kScalarTable;
  }
}

}  // namespace cofhee::nt::simd
