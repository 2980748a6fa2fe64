#include "poly/rns.hpp"

#include "backend/exec_policy.hpp"

namespace cofhee::poly {

RnsBasis::RnsBasis(const std::vector<u64>& moduli) {
  if (moduli.empty()) throw std::invalid_argument("RnsBasis: empty modulus set");
  mods_.reserve(moduli.size());
  for (u64 q : moduli) mods_.emplace_back(q);
  // Pairwise coprimality check (towers are primes in practice, but the CRT
  // below silently mis-reconstructs if this is violated).
  for (std::size_t i = 0; i < moduli.size(); ++i) {
    for (std::size_t j = i + 1; j < moduli.size(); ++j) {
      u64 a = moduli[i], b = moduli[j];
      while (b != 0) {
        const u64 t = a % b;
        a = b;
        b = t;
      }
      if (a != 1) throw std::invalid_argument("RnsBasis: moduli not coprime");
    }
  }
  big_q_ = BigInt(u64{1});
  for (u64 q : moduli) {
    u64 carry = 0;
    big_q_ = big_q_.mul_small(q, &carry);
    if (carry != 0) throw std::overflow_error("RnsBasis: product exceeds 512 bits");
  }
  q_hat_.resize(moduli.size());
  q_hat_inv_.resize(moduli.size());
  for (std::size_t i = 0; i < moduli.size(); ++i) {
    q_hat_[i] = (big_q_ / nt::WideInt<1>(moduli[i])).resize_trunc<8>();
    const u64 qhat_mod = q_hat_[i].mod_u64(moduli[i]);
    q_hat_inv_[i] = mods_[i].inv(qhat_mod);
  }
}

std::vector<u64> RnsBasis::decompose(const BigInt& x) const {
  std::vector<u64> r(mods_.size());
  for (std::size_t i = 0; i < mods_.size(); ++i) r[i] = x.mod_u64(mods_[i].modulus());
  return r;
}

BigInt RnsBasis::reconstruct(std::span<const u64> residues) const {
  if (residues.size() != mods_.size())
    throw std::invalid_argument("RnsBasis::reconstruct: residue count mismatch");
  BigInt acc{};
  for (std::size_t i = 0; i < mods_.size(); ++i) {
    const u64 s = mods_[i].mul(residues[i] % mods_[i].modulus(), q_hat_inv_[i]);
    // term = Qhat_i * s < Q, so a conditional subtract keeps acc < Q.
    BigInt term = q_hat_[i].mul_small(s);
    acc += term;
    if (acc >= big_q_) acc -= big_q_;
  }
  return acc;
}

std::pair<BigInt, bool> RnsBasis::reconstruct_centered(
    std::span<const u64> residues) const {
  BigInt v = reconstruct(residues);
  const BigInt half = big_q_ >> 1;
  if (v > half) return {big_q_ - v, true};
  return {v, false};
}

RnsConverter::RnsConverter(const RnsBasis& from, const RnsBasis& to, u64 t)
    : from_(from), to_(to), t_(t) {
  const std::size_t k = from.size();
  // The estimate's error bound (k^2 + 4k) 2^-53 must sit well inside kGuard.
  fast_ = k > 0 && static_cast<double>(k * k + 4 * k) * 0x1p-53 <= kGuard / 2;
  round_ = fast_ && t != 0;
  for (std::size_t i = 0; i < k; ++i) {
    const u64 f = from.modulus(i);
    s_mul_.emplace_back(from.punctured_inv(i), f);
    inv_f_.push_back(1.0 / static_cast<double>(f));
    if (t >= f) round_ = false;
    t_shoup_.push_back(t < f ? static_cast<u64>((static_cast<u128>(t) << 64) / f) : 0);
  }
  for (std::size_t j = 0; j < to.size(); ++j) {
    const u64 p = to.modulus(j);
    for (std::size_t i = 0; i < k; ++i)
      hat_mod_.emplace_back(from.punctured(i).mod_u64(p), p);
    const u64 f_mod = from.product().mod_u64(p);
    for (u64 v = 0; v <= k; ++v) v_f_mod_.push_back(to.tower(j).mul(v % p, f_mod));
  }
  // sum_i s_i F_i < k F needs bit_len(F) + bit_len(k) bits.
  limbs_ = (from.log_q() + nt::bit_length(static_cast<u64>(k)) + 63) / 64;
  hat_limbs_.assign(k * limbs_, 0);
  v_f_limbs_.assign((k + 1) * limbs_, 0);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t l = 0; l < limbs_ && l < BigInt::limbs(); ++l)
      hat_limbs_[i * limbs_ + l] = from.punctured(i).limb[l];
  for (u64 v = 0; v <= k; ++v) {
    u64 carry = 0;
    for (std::size_t l = 0; l < limbs_; ++l) {
      const u64 fl = l < BigInt::limbs() ? from.product().limb[l] : 0;
      const u128 cur = static_cast<u128>(fl) * v + carry;
      v_f_limbs_[v * limbs_ + l] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
  }
}

RnsPoly RnsConverter::convert(const RnsPoly& p, Lift mode,
                              const backend::Executor& exec) const {
  if (p.num_towers() != from_.size())
    throw std::invalid_argument("RnsConverter::convert: tower count mismatch");
  const std::size_t n = p.n(), k = from_.size();
  const BigInt half = from_.product() >> 1;
  RnsPoly out;
  out.towers.assign(to_.size(), Coeffs<u64>(n));
  exec.for_ranges(n, [&](std::size_t lo, std::size_t hi) {
    std::vector<u64> x(k), s(k);
    for (std::size_t j = lo; j < hi; ++j) {
      for (std::size_t i = 0; i < k; ++i) x[i] = p.towers[i][j];
      u64 v = 0;
      if (lift(x.data(), s.data(), mode, v)) {
        for (std::size_t o = 0; o < to_.size(); ++o) out.towers[o][j] = residue(s.data(), v, o);
        continue;
      }
      const BigInt big = from_.reconstruct(x);
      const bool neg = mode == Lift::kCentered && big > half;
      const BigInt mag = neg ? from_.product() - big : big;
      for (std::size_t o = 0; o < to_.size(); ++o) {
        const u64 r = mag.mod_u64(to_.modulus(o));
        out.towers[o][j] = neg ? to_.tower(o).neg(r) : r;
      }
    }
  });
  return out;
}

RnsPoly rns_decompose(const RnsBasis& basis, const std::vector<BigInt>& coeffs) {
  return rns_decompose(basis, coeffs, backend::Executor{});
}

std::vector<BigInt> rns_reconstruct(const RnsBasis& basis, const RnsPoly& p) {
  return rns_reconstruct(basis, p, backend::Executor{});
}

RnsPoly rns_base_convert(const RnsBasis& from, const RnsBasis& to, const RnsPoly& p) {
  return rns_base_convert(from, to, p, backend::Executor{});
}

RnsPoly rns_decompose(const RnsBasis& basis, const std::vector<BigInt>& coeffs,
                      const backend::Executor& exec) {
  RnsPoly p;
  p.towers.assign(basis.size(), Coeffs<u64>(coeffs.size()));
  exec.for_ranges(coeffs.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t j = lo; j < hi; ++j) {
      for (std::size_t i = 0; i < basis.size(); ++i)
        p.towers[i][j] = coeffs[j].mod_u64(basis.modulus(i));
    }
  });
  return p;
}

std::vector<BigInt> rns_reconstruct(const RnsBasis& basis, const RnsPoly& p,
                                    const backend::Executor& exec) {
  if (p.num_towers() != basis.size())
    throw std::invalid_argument("rns_reconstruct: tower count mismatch");
  const std::size_t n = p.n();
  std::vector<BigInt> coeffs(n);
  exec.for_ranges(n, [&](std::size_t lo, std::size_t hi) {
    std::vector<u64> res(basis.size());
    for (std::size_t j = lo; j < hi; ++j) {
      for (std::size_t i = 0; i < basis.size(); ++i) res[i] = p.towers[i][j];
      coeffs[j] = basis.reconstruct(res);
    }
  });
  return coeffs;
}

RnsPoly rns_base_convert(const RnsBasis& from, const RnsBasis& to, const RnsPoly& p,
                         const backend::Executor& exec) {
  return RnsConverter(from, to).convert(p, RnsConverter::Lift::kUnsigned, exec);
}

}  // namespace cofhee::poly
