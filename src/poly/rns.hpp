// Residue Number System (paper Section II-D).
//
// A wide ciphertext modulus q = prod(q_i) is split into coprime 64-bit
// towers so the software baseline can use native arithmetic (SEAL-style);
// CoFHEE's 128-bit datapath instead needs only one tower per 128 coefficient
// bits (Section III-C's rationale for the wide multiplier).
//
// Two definitions of the CRT live here, one fast engine and one reference:
//
//  * RnsConverter is the engine every hot path runs: exact base conversion
//    with 64-bit Shoup arithmetic, the CRT overflow count taken from a
//    double estimate, and a per-coefficient fallback to the oracle when
//    that estimate lies near a decision boundary.  rns_base_convert is its
//    unsigned entry point; RnsTool builds BFV's centered extension, t/Q
//    scaling, decryption rounding and relin digit split on it.
//  * RnsBasis::reconstruct / reconstruct_centered and rns_reconstruct are
//    the declared WideInt oracle: a plain multi-limb CRT sum.  In src/ they
//    run only as the engine's fallback and in Bfv::noise_budget_bits; the
//    differential tests hold the engine bit-exact against them.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "nt/barrett.hpp"
#include "nt/wide_int.hpp"
#include "poly/polynomial.hpp"

// poly stays a leaf layer: the pooled overloads below only name the
// executor, so a forward declaration suffices and backend's thread-pool
// headers are not dragged into every poly consumer.
namespace cofhee::backend {
class Executor;
}

namespace cofhee::poly {

/// Big-integer type wide enough for every CRT lift in this codebase:
/// tensor coefficients are bounded by n * q^2 * t < 2^(2*218+14+20) < 2^512
/// for the paper's largest parameter set.
using BigInt = nt::WideInt<8>;

class RnsBasis {
 public:
  RnsBasis() = default;
  explicit RnsBasis(const std::vector<u64>& moduli);

  [[nodiscard]] std::size_t size() const noexcept { return mods_.size(); }
  [[nodiscard]] const nt::Barrett64& tower(std::size_t i) const { return mods_.at(i); }
  [[nodiscard]] u64 modulus(std::size_t i) const { return mods_.at(i).modulus(); }
  [[nodiscard]] const std::vector<nt::Barrett64>& towers() const noexcept { return mods_; }
  /// Product of all tower moduli.
  [[nodiscard]] const BigInt& product() const noexcept { return big_q_; }
  /// Total bit size of the composite modulus (the paper's "log q").
  [[nodiscard]] unsigned log_q() const noexcept { return big_q_.bit_len(); }

  /// Residues of x (0 <= x < product()) in every tower.
  [[nodiscard]] std::vector<u64> decompose(const BigInt& x) const;

  /// CRT reconstruction into [0, product()) -- the WideInt oracle.
  [[nodiscard]] BigInt reconstruct(std::span<const u64> residues) const;

  /// Oracle reconstruction mapped to the symmetric interval (-Q/2, Q/2],
  /// returned as (magnitude, is_negative) -- the form the BFV rounding
  /// step needs.
  [[nodiscard]] std::pair<BigInt, bool> reconstruct_centered(
      std::span<const u64> residues) const;

  /// Q / q_i and (Q / q_i)^-1 mod q_i, the CRT constants of tower i.
  [[nodiscard]] const BigInt& punctured(std::size_t i) const { return q_hat_.at(i); }
  [[nodiscard]] u64 punctured_inv(std::size_t i) const { return q_hat_inv_.at(i); }

 private:
  std::vector<nt::Barrett64> mods_;
  BigInt big_q_{};
  std::vector<BigInt> q_hat_;      // Q / q_i
  std::vector<u64> q_hat_inv_;     // (Q / q_i)^-1 mod q_i
};

/// A polynomial in RNS representation: towers[i] holds the coefficients
/// modulo q_i.  All towers have the same length n.
struct RnsPoly {
  std::vector<Coeffs<u64>> towers;

  [[nodiscard]] std::size_t num_towers() const noexcept { return towers.size(); }
  [[nodiscard]] std::size_t n() const noexcept {
    return towers.empty() ? 0 : towers.front().size();
  }
};

/// The fast exact base-conversion engine.  For x given by its residues x_i
/// over `from` (product F, F_i = F / f_i) the CRT reads
///
///   x = sum_i s_i F_i - v F,   s_i = x_i (F_i^-1 mod f_i) mod f_i,
///
/// where the overflow count v is floor(sigma) for the unsigned lift of x into
/// [0, F) and round(sigma) for the centered lift into (-F/2, F/2), with
/// sigma = sum_i s_i / f_i in [0, |from|).  terms() computes every s_i with a
/// Shoup product and an estimate of sigma in double; lift() also takes v
/// from that estimate.  The steps after it are exact integer arithmetic on
/// 64-bit words: a residue in to-tower j is sum_i s_i (F_i mod p_j) -
/// v (F mod p_j) (Shoup products again), and limbs() writes x itself as
/// 64-bit limbs.  The estimate is off by less than (k^2 + 4k) 2^-53 for k
/// source towers, far below kGuard; whenever it lies within kGuard of the
/// boundary its decision depends on, lift() returns false and that one
/// coefficient goes through the WideInt oracle (RnsBasis::reconstruct).  So
/// every result is the oracle's, bit for bit (tests/bfv/test_rns_conversions.cpp
/// holds that contract).
///
/// With a plaintext modulus t, round_scaled() also gives round(t * sigma)
/// exactly, the t/F rounding BFV decryption and scaling need: it splits
/// t s_i = I_i f_i + u_i with one Shoup product, sums the integers I_i
/// exactly and the fractions u_i / f_i in double, under the same guard.
///
/// The whole-polynomial sweeps are convert() and RnsTool's operations; the
/// per-coefficient steps stay private to this module, except the two
/// decisions lift() and round_scaled() that tests query directly.
class RnsConverter {
 public:
  /// Which integer the residues stand for.
  enum class Lift : std::uint8_t {
    kUnsigned,  ///< x in [0, F)
    kCentered,  ///< x in (-F/2, F/2], the symmetric representative
  };

  /// Half-width of the band around a floor or rounding boundary inside
  /// which the double estimate is not trusted.
  static constexpr double kGuard = 0x1p-40;

  /// Conversion from `from` into `to`.  A nonzero `t` also prepares
  /// round_scaled(); it must be below every `from` modulus, or round_scaled
  /// always defers to the oracle.
  RnsConverter(const RnsBasis& from, const RnsBasis& to, u64 t = 0);

  /// p (residues over `from`) re-expressed over `to`: the fast path per
  /// coefficient, the oracle where lift() declines.
  [[nodiscard]] RnsPoly convert(const RnsPoly& p, Lift mode,
                                const backend::Executor& exec) const;

  /// The CRT terms and overflow count v of one coefficient, or false when
  /// the estimate is too close to call and the caller must use the oracle.
  bool lift(const u64* x, u64* s, Lift mode, u64& v) const noexcept {
    return overflow(terms(x, s), mode, v);
  }

  /// round(t * sum_i s_i / f_i) into r.  False when the fractional sum is
  /// too close to a half-integer (or no t was given).
  bool round_scaled(const u64* s, u64& r) const noexcept {
    if (!round_) return false;
    u64 whole = 0;
    double frac = 0;
    for (std::size_t i = 0; i < s_mul_.size(); ++i) {
      const u64 f = from_.towers()[i].modulus();
      u64 quo = static_cast<u64>((static_cast<u128>(t_shoup_[i]) * s[i]) >> 64);
      u64 rem = t_ * s[i] - quo * f;  // in [0, 2f); wraparound intended
      if (rem >= f) rem -= f, ++quo;
      whole += quo;
      frac += static_cast<double>(rem) * inv_f_[i];
    }
    const double m = std::floor(frac);
    const double fr = frac - m;
    if (std::fabs(fr - 0.5) < kGuard) return false;
    r = whole + static_cast<u64>(m) + (fr > 0.5 ? 1 : 0);
    return true;
  }

 private:
  friend class RnsTool;

  /// CRT terms s[0..|from|) of one coefficient (any u64 residues x);
  /// returns the estimate of sigma.
  double terms(const u64* x, u64* s) const noexcept {
    double est = 0;
    for (std::size_t i = 0; i < s_mul_.size(); ++i) {
      s[i] = s_mul_[i].mul(x[i]);
      est += static_cast<double>(s[i]) * inv_f_[i];
    }
    return est;
  }

  /// (sum_i s_i F_i - v F) mod p_j for to-tower j; v <= |from|.
  [[nodiscard]] u64 residue(const u64* s, u64 v, std::size_t j) const noexcept {
    const std::size_t k = s_mul_.size();
    const u64 p = to_.towers()[j].modulus();
    const nt::ShoupMul* c = &hat_mod_[j * k];
    u64 acc = 0;
    for (std::size_t i = 0; i < k; ++i) {
      acc += c[i].mul(s[i]);
      acc = acc >= p ? acc - p : acc;
    }
    const u64 vf = v_f_mod_[j * (k + 1) + v];
    return acc >= vf ? acc - vf : acc + p - vf;
  }

  /// x = sum_i s_i F_i - v F as limbs_ little-endian limbs, enough for
  /// sum_i s_i F_i (two's complement when a centered v makes it negative).
  void limbs(const u64* s, u64 v, u64* out) const noexcept {
    const std::size_t k = s_mul_.size(), L = limbs_;
    for (std::size_t l = 0; l < L; ++l) out[l] = 0;
    for (std::size_t i = 0; i < k; ++i) {
      const u64* h = &hat_limbs_[i * L];
      const u64 si = s[i];  // out may share s's buffer
      u64 carry = 0;
      for (std::size_t l = 0; l < L; ++l) {
        const u128 cur = static_cast<u128>(h[l]) * si + out[l] + carry;
        out[l] = static_cast<u64>(cur);
        carry = static_cast<u64>(cur >> 64);
      }
    }
    const u64* vf = &v_f_limbs_[v * L];
    u64 borrow = 0;
    for (std::size_t l = 0; l < L; ++l) {
      const u128 d = static_cast<u128>(out[l]) - vf[l] - borrow;
      out[l] = static_cast<u64>(d);
      borrow = static_cast<u64>(d >> 64) != 0 ? 1 : 0;
    }
  }

  /// The overflow count v for an estimate of sigma.  False when the
  /// estimate is too close to call.
  bool overflow(double est, Lift mode, u64& v) const noexcept {
    if (!fast_) return false;
    const u64 k = s_mul_.size();
    const double m = std::floor(est);
    const double fr = est - m;  // exact (Sterbenz)
    const auto whole = static_cast<u64>(m);
    if (mode == Lift::kCentered) {
      if (std::fabs(fr - 0.5) < kGuard) return false;
      v = whole + (fr > 0.5 ? 1 : 0);
      return true;
    }
    // sigma lies in [0, k): an estimate near 0 or k is decided by the range.
    if (fr < kGuard) {
      if (whole == 0) return v = 0, true;
      if (whole >= k) return v = k - 1, true;
      return false;
    }
    if (fr > 1.0 - kGuard) {
      if (whole + 1 >= k) return v = whole, true;
      return false;
    }
    v = whole;
    return true;
  }

  RnsBasis from_, to_;
  bool fast_ = false;   // estimate error provably below kGuard
  bool round_ = false;  // t prepared and below every from modulus
  u64 t_ = 0;
  std::size_t limbs_ = 0;
  std::vector<nt::ShoupMul> s_mul_;    // F_i^-1 mod f_i
  std::vector<double> inv_f_;          // 1 / f_i
  std::vector<u64> t_shoup_;           // floor(t 2^64 / f_i)
  std::vector<nt::ShoupMul> hat_mod_;  // [j * k + i]: F_i mod p_j
  std::vector<u64> v_f_mod_;           // [j * (k + 1) + v]: v F mod p_j
  std::vector<u64> hat_limbs_;         // [i * L + l]: limbs of F_i
  std::vector<u64> v_f_limbs_;         // [v * L + l]: limbs of v F
};

/// The exact conversions BFV runs on the host around the per-tower products
/// (paper Section II-D), for a ciphertext basis Q, an auxiliary basis B and
/// a plaintext modulus t.  Each operation sweeps the coefficients once: the
/// RnsConverter engine per coefficient, that coefficient's WideInt oracle
/// where the engine declines, so every result is the oracle's bit for bit.
/// Each task of `exec` converts its own contiguous coefficient range.
class RnsTool {
 public:
  RnsTool(const std::vector<u64>& q_moduli, const std::vector<u64>& aux_moduli,
          u64 t);

  [[nodiscard]] const RnsBasis& q_basis() const noexcept { return up_.from_; }
  [[nodiscard]] const RnsBasis& aux_basis() const noexcept { return up_.to_; }
  /// Q followed by B.
  [[nodiscard]] const RnsBasis& ext_basis() const noexcept { return ext_; }

  /// The centered lift of x over Q re-expressed over Q u B: the Q towers
  /// keep their residues, the engine fills B.
  [[nodiscard]] RnsPoly extend_centered(const RnsPoly& x,
                                        const backend::Executor& exec) const;

  /// round(t y / Q) mod Q for the centered lift y over Q u B.  With
  /// y = Q y' + r, r the centered lift of y mod Q, that is
  /// t y' + round(t sigma) - t v for r's CRT sum sigma and overflow count v;
  /// y' = (y - r) / Q is known mod every B tower and lies in (-P/2, P/2), so
  /// a second, centered B -> Q conversion recovers it.
  [[nodiscard]] RnsPoly scale_round(const RnsPoly& y,
                                    const backend::Executor& exec) const;

  /// round(t x / Q) mod t for the centered lift x over Q (decryption).  That
  /// is round(t sigma) - t round(sigma) for x's CRT sum sigma, so it is
  /// round(t sigma) mod t and the centering drops out.
  [[nodiscard]] Coeffs<u64> round_mod_t(const RnsPoly& x,
                                        const backend::Executor& exec) const;

  /// The first `count` base-2^w digits (w in [1, 32]) of x's unsigned lift
  /// over Q, each reduced into every Q tower: relinearization's split.
  [[nodiscard]] std::vector<RnsPoly> digits(const RnsPoly& x, unsigned w,
                                            std::size_t count,
                                            const backend::Executor& exec) const;

  /// The engines behind the operations, for tests that query their
  /// per-coefficient decisions: Q -> B prepared with t, and B -> Q.
  [[nodiscard]] const RnsConverter& q_to_aux() const noexcept { return up_; }
  [[nodiscard]] const RnsConverter& aux_to_q() const noexcept { return down_; }

 private:
  /// round(t |x| / Q) for the oracle's magnitude of x.
  [[nodiscard]] BigInt round_t_over_q(const BigInt& mag) const;

  RnsConverter up_, down_;
  RnsBasis ext_;
  std::vector<nt::ShoupMul> q_inv_aux_;  // Q^-1 mod B tower j
  std::vector<nt::ShoupMul> t_mod_q_;    // t mod Q tower i
};

/// Decompose big-integer coefficients into an RNS polynomial.
[[nodiscard]] RnsPoly rns_decompose(const RnsBasis& basis,
                                    const std::vector<BigInt>& coeffs);

/// CRT-lift an RNS polynomial back to big-integer coefficients in [0, Q)
/// (the WideInt oracle, coefficient by coefficient).
[[nodiscard]] std::vector<BigInt> rns_reconstruct(const RnsBasis& basis,
                                                  const RnsPoly& p);

/// Exact base conversion: re-express p (residues w.r.t. `from`) in `to`,
/// for values in [0, from.product()).  The unsigned entry point of
/// RnsConverter; bit-exact against the oracle lift.
[[nodiscard]] RnsPoly rns_base_convert(const RnsBasis& from, const RnsBasis& to,
                                       const RnsPoly& p);

// Pooled variants.  Coefficients are independent, so each executor task
// lifts a contiguous coefficient range with its own scratch; results are
// bit-identical to the serial overloads above (every coefficient runs the
// exact same arithmetic).  The bases are read-only during the call and may
// be shared by any number of concurrent conversions.
[[nodiscard]] RnsPoly rns_decompose(const RnsBasis& basis,
                                    const std::vector<BigInt>& coeffs,
                                    const backend::Executor& exec);
[[nodiscard]] std::vector<BigInt> rns_reconstruct(const RnsBasis& basis,
                                                  const RnsPoly& p,
                                                  const backend::Executor& exec);
/// Each task converts its own coefficient range through the engine.
[[nodiscard]] RnsPoly rns_base_convert(const RnsBasis& from, const RnsBasis& to,
                                       const RnsPoly& p,
                                       const backend::Executor& exec);

}  // namespace cofhee::poly
