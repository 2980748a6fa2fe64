#include "poly/rns.hpp"

#include "backend/exec_policy.hpp"

namespace cofhee::poly {

namespace {

using Lift = RnsConverter::Lift;

/// The residue mod q of the signed integer (mag, neg).
u64 signed_mod(const BigInt& mag, bool neg, u64 q) {
  const u64 r = mag.mod_u64(q);
  return neg && r != 0 ? q - r : r;
}

/// The one coefficient sweep of every conversion: gather coefficient j's
/// residues r over `basis`, run the engine as fast(r, scratch, j) and, where
/// it declines, hand the oracle's lift of r (magnitude and sign; the sign is
/// false for the unsigned lift) to slow(mag, neg, j).  Each executor task
/// owns a contiguous coefficient range and its own `scratch` words.
template <class Fast, class Slow>
void sweep(const RnsPoly& p, const RnsBasis& basis, Lift mode, std::size_t scratch,
           const backend::Executor& exec, Fast&& fast, Slow&& slow) {
  exec.for_ranges(p.n(), [&](std::size_t lo, std::size_t hi) {
    std::vector<u64> r(basis.size()), w(scratch);
    for (std::size_t j = lo; j < hi; ++j) {
      for (std::size_t i = 0; i < r.size(); ++i) r[i] = p.towers[i][j];
      if (fast(r.data(), w.data(), j)) continue;
      const auto [mag, neg] = mode == Lift::kCentered ? basis.reconstruct_centered(r)
                                                      : std::pair{basis.reconstruct(r), false};
      slow(mag, neg, j);
    }
  });
}

}  // namespace

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
  RnsPoly out;
  out.towers.assign(to_.size(), Coeffs<u64>(p.n()));
  sweep(p, from_, mode, from_.size(), exec,
        [&](const u64* r, u64* s, std::size_t j) {
          u64 v = 0;
          if (!lift(r, s, mode, v)) return false;
          for (std::size_t o = 0; o < to_.size(); ++o) out.towers[o][j] = residue(s, v, o);
          return true;
        },
        [&](const BigInt& mag, bool neg, std::size_t j) {
          for (std::size_t o = 0; o < to_.size(); ++o)
            out.towers[o][j] = signed_mod(mag, neg, to_.modulus(o));
        });
  return out;
}

RnsTool::RnsTool(const std::vector<u64>& q_moduli, const std::vector<u64>& aux_moduli,
                 u64 t)
    : up_(RnsBasis(q_moduli), RnsBasis(aux_moduli), t), down_(up_.to_, up_.from_) {
  std::vector<u64> all = q_moduli;
  all.insert(all.end(), aux_moduli.begin(), aux_moduli.end());
  ext_ = RnsBasis(all);
  const RnsBasis &q = q_basis(), &aux = aux_basis();
  for (std::size_t i = 0; i < q.size(); ++i) t_mod_q_.emplace_back(t % q.modulus(i), q.modulus(i));
  for (std::size_t j = 0; j < aux.size(); ++j)
    q_inv_aux_.emplace_back(aux.tower(j).inv(q.product().mod_u64(aux.modulus(j))),
                            aux.modulus(j));
}

BigInt RnsTool::round_t_over_q(const BigInt& mag) const {
  u64 carry = 0;
  const BigInt num = mag.mul_small(up_.t_, &carry);
  if (carry != 0) throw std::logic_error("RnsTool: t*x overflow");
  return nt::div_round(num, q_basis().product());
}

RnsPoly RnsTool::extend_centered(const RnsPoly& x, const backend::Executor& exec) const {
  RnsPoly out = x, aux = up_.convert(x, Lift::kCentered, exec);
  for (std::size_t i = 0; i < out.num_towers(); ++i) {
    const u64 q = q_basis().modulus(i);
    for (u64& c : out.towers[i]) c = c < q ? c : c % q;
  }
  for (auto& tower : aux.towers) out.towers.push_back(std::move(tower));
  return out;
}

RnsPoly RnsTool::scale_round(const RnsPoly& y, const backend::Executor& exec) const {
  const RnsBasis &qb = q_basis(), &ab = aux_basis();
  const std::size_t nq = qb.size(), nb = ab.size();
  RnsPoly out;
  out.towers.assign(nq, Coeffs<u64>(y.n()));
  // Scratch: r's CRT terms s, then y' over B and its terms sb.
  sweep(y, ext_, Lift::kCentered, nq + 2 * nb, exec,
        [&](const u64* r, u64* s, std::size_t j) {
          u64* yq = s + nq;
          u64* sb = yq + nb;
          u64 v = 0, vq = 0, rt = 0;
          if (!up_.lift(r, s, Lift::kCentered, v) || !up_.round_scaled(s, rt)) return false;
          for (std::size_t b = 0; b < ab.size(); ++b)
            yq[b] = q_inv_aux_[b].mul(r[nq + b] + ab.modulus(b) - up_.residue(s, v, b));
          if (!down_.lift(yq, sb, Lift::kCentered, vq)) return false;
          // |round(t r / Q)| <= t/2 + 1, below every Q tower.
          const auto rr = static_cast<std::int64_t>(rt - up_.t_ * v);
          for (std::size_t i = 0; i < qb.size(); ++i) {
            const u64 q = qb.modulus(i);
            const u64 ty = t_mod_q_[i].mul(down_.residue(sb, vq, i));
            out.towers[i][j] =
                qb.tower(i).add(ty, rr >= 0 ? static_cast<u64>(rr) : q - static_cast<u64>(-rr));
          }
          return true;
        },
        [&](const BigInt& mag, bool neg, std::size_t j) {
          const BigInt m = round_t_over_q(mag);
          for (std::size_t i = 0; i < nq; ++i) out.towers[i][j] = signed_mod(m, neg, qb.modulus(i));
        });
  return out;
}

Coeffs<u64> RnsTool::round_mod_t(const RnsPoly& x, const backend::Executor& exec) const {
  Coeffs<u64> m(x.n());
  sweep(x, q_basis(), Lift::kCentered, q_basis().size(), exec,
        [&](const u64* r, u64* s, std::size_t j) {
          up_.terms(r, s);
          u64 rt = 0;
          if (!up_.round_scaled(s, rt)) return false;
          m[j] = rt % up_.t_;
          return true;
        },
        [&](const BigInt& mag, bool neg, std::size_t j) {
          m[j] = signed_mod(round_t_over_q(mag), neg, up_.t_);
        });
  return m;
}

std::vector<RnsPoly> RnsTool::digits(const RnsPoly& x, unsigned w, std::size_t count,
                                     const backend::Executor& exec) const {
  const RnsBasis& qb = q_basis();
  const std::size_t nq = qb.size(), nl = up_.limbs_;
  const u64 mask = (u64{1} << w) - 1;
  std::vector<RnsPoly> out(count);
  for (auto& d : out) d.towers.assign(nq, Coeffs<u64>(x.n(), 0));
  // Digit d of the lift's `len` little-endian limbs, written to every tower.
  const auto split = [&](const u64* limb, std::size_t len, std::size_t j) {
    for (std::size_t d = 0; d < count; ++d) {
      const std::size_t bit = w * d, l = bit / 64, off = bit % 64;
      u64 digit = l < len ? limb[l] >> off : 0;
      if (off + w > 64 && l + 1 < len) digit |= limb[l + 1] << (64 - off);
      digit &= mask;
      for (std::size_t i = 0; i < qb.size(); ++i) {
        const u64 q = qb.modulus(i);
        out[d].towers[i][j] = digit < q ? digit : digit % q;
      }
    }
  };
  sweep(x, qb, Lift::kUnsigned, nq + nl, exec,
        [&](const u64* r, u64* s, std::size_t j) {
          u64 v = 0;
          if (!up_.lift(r, s, Lift::kUnsigned, v)) return false;
          up_.limbs(s, v, s + nq);
          split(s + nq, nl, j);
          return true;
        },
        [&](const BigInt& lift, bool, std::size_t j) {
          split(lift.limb.data(), BigInt::limbs(), j);
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
  return RnsConverter(from, to).convert(p, Lift::kUnsigned, exec);
}

}  // namespace cofhee::poly
