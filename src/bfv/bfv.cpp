#include "bfv/bfv.hpp"

#include <cmath>
#include <stdexcept>

namespace cofhee::bfv {

using poly::BigInt;
using poly::Coeffs;
using poly::RnsPoly;

namespace {

using Lift = poly::RnsConverter::Lift;

/// Map a signed big integer (mag, neg) into residues of one tower.
u64 signed_mod(const BigInt& mag, bool neg, u64 q) {
  const u64 r = mag.mod_u64(q);
  return neg ? (r == 0 ? 0 : q - r) : r;
}

/// round(t * |x| / Q) for the oracle's (magnitude, sign) form of x.
BigInt oracle_round_scaled(const BfvContext& ctx, const BigInt& mag) {
  u64 carry = 0;
  const BigInt num = mag.mul_small(ctx.t(), &carry);
  if (carry != 0) throw std::logic_error("Bfv: t*x overflow");
  return nt::div_round(num, ctx.big_q());
}

}  // namespace

poly::RnsPoly Bfv::sample_small_rns(bool ternary) {
  const auto s = ternary ? poly::sample_ternary(rng_, ctx_.n())
                         : poly::sample_cbd(rng_, ctx_.n(), ctx_.params().cbd_eta);
  return poly::to_rns(s, ctx_.q_basis());
}

SecretKey Bfv::keygen_secret() { return SecretKey{sample_small_rns(true)}; }

PublicKey Bfv::keygen_public(const SecretKey& sk) {
  PublicKey pk;
  RnsPoly a;
  a.towers.reserve(ctx_.q_basis().size());
  for (std::size_t i = 0; i < ctx_.q_basis().size(); ++i)
    a.towers.push_back(poly::sample_uniform(rng_, ctx_.n(), ctx_.q_basis().modulus(i)));
  const RnsPoly e = sample_small_rns(false);
  pk.p0 = ctx_.neg(ctx_.add(ctx_.mul(a, sk.s), e));
  pk.p1 = std::move(a);
  return pk;
}

RelinKeys Bfv::keygen_relin(const SecretKey& sk, unsigned digit_bits) {
  if (digit_bits == 0 || digit_bits > 32)
    throw std::invalid_argument("Bfv: digit_bits in [1,32]");
  RelinKeys rk;
  rk.digit_bits = digit_bits;
  const RnsPoly s2 = ctx_.mul(sk.s, sk.s);
  const unsigned digits =
      (ctx_.big_q().bit_len() + digit_bits - 1) / digit_bits;
  for (unsigned d = 0; d < digits; ++d) {
    // a_i is uniform, so it needs no wire bytes beyond a seed: draw one
    // 64-bit digit seed and expand each tower from it with the shared
    // definition the driver's compressed key upload re-runs chip-side.
    const std::uint64_t dseed = rng_.next_u64();
    rk.a_seeds.push_back(dseed);
    RnsPoly a;
    a.towers.reserve(ctx_.q_basis().size());
    for (std::size_t i = 0; i < ctx_.q_basis().size(); ++i)
      a.towers.push_back(poly::expand_uniform(dseed, i, ctx_.n(),
                                              ctx_.q_basis().modulus(i)));
    const RnsPoly e = sample_small_rns(false);
    // b = -(a s + e) + 2^(w d) s^2  (mod Q), per tower.
    RnsPoly b = ctx_.neg(ctx_.add(ctx_.mul(a, sk.s), e));
    BigInt w_pow;
    w_pow.set_bit(digit_bits * d);
    const BigInt w_mod = w_pow % ctx_.big_q();
    for (std::size_t i = 0; i < ctx_.q_basis().size(); ++i) {
      const u64 wq = w_mod.mod_u64(ctx_.q_basis().modulus(i));
      const auto scaled = poly::scalar_mul(ctx_.q_basis().tower(i), s2.towers[i], wq);
      b.towers[i] = poly::pointwise_add(ctx_.q_basis().tower(i), b.towers[i], scaled);
    }
    rk.keys.emplace_back(std::move(b), std::move(a));
  }
  return rk;
}

Ciphertext Bfv::encrypt(const PublicKey& pk, const Plaintext& m) {
  if (m.coeffs.size() != ctx_.n()) throw std::invalid_argument("Bfv: bad plaintext size");
  const RnsPoly u = sample_small_rns(true);
  const RnsPoly e1 = sample_small_rns(false);
  const RnsPoly e2 = sample_small_rns(false);
  Ciphertext ct;
  // c0 = p0 u + e1 + Delta m  (Eq. 2), c1 = p1 u + e2  (Eq. 3).
  RnsPoly c0 = ctx_.add(ctx_.mul(pk.p0, u), e1);
  ctx_.exec().for_each(ctx_.q_basis().size(), [&](std::size_t i) {
    const auto& ring = ctx_.q_basis().tower(i);
    const u64 dm = ctx_.delta_mod(i);
    for (std::size_t j = 0; j < ctx_.n(); ++j) {
      if (m.coeffs[j] >= ctx_.t()) throw std::invalid_argument("Bfv: coeff >= t");
      c0.towers[i][j] = ring.add(c0.towers[i][j], ring.mul(dm, m.coeffs[j] % ring.modulus()));
    }
  });
  ct.c.push_back(std::move(c0));
  ct.c.push_back(ctx_.add(ctx_.mul(pk.p1, u), e2));
  return ct;
}

Plaintext Bfv::decrypt(const SecretKey& sk, const Ciphertext& ct) const {
  if (ct.size() < 2 || ct.size() > 3) throw std::invalid_argument("Bfv: bad ct size");
  // v = c0 + c1 s (+ c2 s^2) over Q.
  RnsPoly v = ctx_.add(ct.c[0], ctx_.mul(ct.c[1], sk.s));
  if (ct.size() == 3) v = ctx_.add(v, ctx_.mul(ctx_.mul(ct.c[2], sk.s), sk.s));

  Plaintext m;
  m.coeffs.assign(ctx_.n(), 0);
  const u64 t = ctx_.t();
  const auto& qb = ctx_.q_basis();
  const auto& conv = ctx_.q_to_aux();
  // m = round(t x / Q) mod t with x the centered lift of v.  That is
  // round(t sigma) - t round(sigma) for the CRT sum sigma of x's terms, so
  // m = round(t sigma) mod t and the centering drops out.  Each task owns a
  // contiguous coefficient range and its own residue scratch.
  ctx_.exec().for_ranges(ctx_.n(), [&](std::size_t lo, std::size_t hi) {
    std::vector<u64> res(qb.size()), s(qb.size());
    for (std::size_t j = lo; j < hi; ++j) {
      for (std::size_t i = 0; i < res.size(); ++i) res[i] = v.towers[i][j];
      conv.terms(res.data(), s.data());
      u64 r = 0;
      if (conv.round_scaled(s.data(), r)) {
        m.coeffs[j] = r % t;
        continue;
      }
      // Oracle: round(t * |x| / Q), then fold the sign into Z_t.
      auto [mag, neg] = qb.reconstruct_centered(res);
      const u64 mt = oracle_round_scaled(ctx_, mag).mod_u64(t);
      m.coeffs[j] = neg ? (mt == 0 ? 0 : t - mt) : mt;
    }
  });
  return m;
}

Ciphertext Bfv::add(const Ciphertext& a, const Ciphertext& b) const {
  if (a.size() != b.size()) throw std::invalid_argument("Bfv: size mismatch");
  Ciphertext r;
  for (std::size_t i = 0; i < a.size(); ++i) r.c.push_back(ctx_.add(a.c[i], b.c[i]));
  return r;
}

Ciphertext Bfv::negate(const Ciphertext& a) const {
  Ciphertext r;
  for (const auto& comp : a.c) r.c.push_back(ctx_.neg(comp));
  return r;
}

Ciphertext Bfv::add_plain(const Ciphertext& a, const Plaintext& m) const {
  Ciphertext r = a;
  for (std::size_t i = 0; i < ctx_.q_basis().size(); ++i) {
    const auto& ring = ctx_.q_basis().tower(i);
    const u64 dm = ctx_.delta_mod(i);
    for (std::size_t j = 0; j < ctx_.n(); ++j)
      r.c[0].towers[i][j] =
          ring.add(r.c[0].towers[i][j], ring.mul(dm, m.coeffs[j] % ring.modulus()));
  }
  return r;
}

Ciphertext Bfv::mul_plain(const Ciphertext& a, const Plaintext& m) const {
  // Plaintext coefficients are small (< t); embed directly in every tower.
  RnsPoly mp;
  mp.towers.assign(ctx_.q_basis().size(), poly::Coeffs<u64>(ctx_.n()));
  ctx_.exec().for_each(ctx_.q_basis().size(), [&](std::size_t i) {
    for (std::size_t j = 0; j < ctx_.n(); ++j)
      mp.towers[i][j] = m.coeffs[j] % ctx_.q_basis().modulus(i);
  });
  Ciphertext r;
  for (const auto& comp : a.c) r.c.push_back(ctx_.mul(comp, mp));
  return r;
}

poly::RnsPoly Bfv::extend_centered(const RnsPoly& p) const {
  // The Q towers keep their residues; the engine's centered lift fills B.
  RnsPoly aux = ctx_.q_to_aux().convert(p, Lift::kCentered, ctx_.exec());
  RnsPoly out;
  out.towers.reserve(ctx_.ext_basis().size());
  for (std::size_t i = 0; i < p.num_towers(); ++i) {
    const u64 q = ctx_.q_basis().modulus(i);
    out.towers.push_back(p.towers[i]);
    for (u64& c : out.towers.back()) c = c < q ? c : c % q;
  }
  for (auto& tower : aux.towers) out.towers.push_back(std::move(tower));
  return out;
}

poly::RnsPoly Bfv::scale_round_to_q(const RnsPoly& y_ext) const {
  const auto& qb = ctx_.q_basis();
  const auto& eb = ctx_.ext_basis();
  const auto& up = ctx_.q_to_aux();
  const auto& down = ctx_.aux_to_q();
  const std::size_t nq = qb.size(), nb = eb.size() - nq;
  const u64 t = ctx_.t();
  const BigInt half = eb.product() >> 1;
  RnsPoly out;
  out.towers.assign(nq, Coeffs<u64>(ctx_.n()));
  // With y the centered lift over Q u B, write y = Q y' + r, r the centered
  // lift of y mod Q.  Then round(t y / Q) = t y' + round(t r / Q), where
  // round(t r / Q) = round(t sigma) - t v for r's CRT sum sigma and overflow
  // count v, and y' = (y - r) / Q is known mod every B tower and lies in
  // (-P/2, P/2), so the centered B -> Q conversion recovers it.
  ctx_.exec().for_ranges(ctx_.n(), [&](std::size_t lo, std::size_t hi) {
    std::vector<u64> y(eb.size()), s(nq), yq(nb), sb(nb);
    for (std::size_t j = lo; j < hi; ++j) {
      for (std::size_t i = 0; i < eb.size(); ++i) y[i] = y_ext.towers[i][j];
      u64 v = 0, vq = 0, rt = 0;
      if (up.lift(y.data(), s.data(), Lift::kCentered, v) &&
          up.round_scaled(s.data(), rt)) {
        for (std::size_t b = 0; b < nb; ++b) {
          const u64 p = eb.modulus(nq + b);
          yq[b] = ctx_.q_inv_aux(b).mul(y[nq + b] + p - up.residue(s.data(), v, b));
        }
        if (down.lift(yq.data(), sb.data(), Lift::kCentered, vq)) {
          // |round(t r / Q)| <= t/2 + 1, below every Q tower.
          const auto rr = static_cast<std::int64_t>(rt - t * v);
          for (std::size_t i = 0; i < nq; ++i) {
            const u64 q = qb.modulus(i);
            const u64 ty = ctx_.t_mod_q(i).mul(down.residue(sb.data(), vq, i));
            out.towers[i][j] = qb.tower(i).add(
                ty, rr >= 0 ? static_cast<u64>(rr) : q - static_cast<u64>(-rr));
          }
          continue;
        }
      }
      // Oracle: round(t * |y| / Q) through the WideInt lift.
      const BigInt big = eb.reconstruct(y);
      const bool neg = big > half;
      const BigInt m = oracle_round_scaled(ctx_, neg ? eb.product() - big : big);
      for (std::size_t i = 0; i < nq; ++i)
        out.towers[i][j] = signed_mod(m, neg, qb.modulus(i));
    }
  });
  return out;
}

Ciphertext Bfv::multiply(const Ciphertext& a, const Ciphertext& b) const {
  if (a.size() != 2 || b.size() != 2)
    throw std::invalid_argument("Bfv: multiply expects 2-element ciphertexts");
  // Centered base extension Q -> Q u B of all four polynomials.
  const RnsPoly a0 = extend_centered(a.c[0]);
  const RnsPoly a1 = extend_centered(a.c[1]);
  const RnsPoly b0 = extend_centered(b.c[0]);
  const RnsPoly b1 = extend_centered(b.c[1]);

  // Tensor per extended tower (Eq. 4 numerators): 4 forward NTTs, 4
  // Hadamard products, 1 add, 3 inverse NTTs -- the exact command mix
  // CoFHEE runs on chip (Algorithm 3), executed host-side as one fused
  // MergedNtt64::tensor call per tower (lazy-reduction butterflies, SIMD
  // pointwise kernels, no intermediate NTT-form wave materialized).  One
  // task per tower: each owns its contiguous coefficient vectors.
  const std::size_t k = ctx_.ext_basis().size();
  RnsPoly y0, y1, y2;
  y0.towers.resize(k);
  y1.towers.resize(k);
  y2.towers.resize(k);
  ctx_.exec().for_each(k, [&](std::size_t i) {
    ctx_.ext_ntt(i).tensor(a0.towers[i], a1.towers[i], b0.towers[i],
                           b1.towers[i], y0.towers[i], y1.towers[i],
                           y2.towers[i]);
  });

  Ciphertext r;
  r.c.push_back(scale_round_to_q(y0));
  r.c.push_back(scale_round_to_q(y1));
  r.c.push_back(scale_round_to_q(y2));
  return r;
}

void Bfv::validate_relin_keys(const RelinKeys& rk) const {
  const auto& qb = ctx_.q_basis();
  if (rk.digit_bits == 0 || rk.digit_bits > 32)
    throw std::invalid_argument("Bfv: relin digit_bits in [1,32]");
  if (rk.keys.empty()) throw std::invalid_argument("Bfv: empty relin keys");
  if (rk.keys.size() * rk.digit_bits < ctx_.big_q().bit_len())
    throw std::invalid_argument(
        "Bfv: relin keys cover fewer digits than log2(Q) -- generated at a "
        "different level");
  for (const auto& [b, a] : rk.keys) {
    if (b.towers.size() != qb.size() || a.towers.size() != qb.size())
      throw std::invalid_argument(
          "Bfv: relin key tower count does not match this scheme's Q basis");
    for (std::size_t i = 0; i < qb.size(); ++i)
      if (b.towers[i].size() != ctx_.n() || a.towers[i].size() != ctx_.n())
        throw std::invalid_argument(
            "Bfv: relin key polynomial degree does not match this ring");
  }
}

std::vector<RnsPoly> Bfv::relin_digits(const RnsPoly& c2, const RelinKeys& rk) const {
  const auto& qb = ctx_.q_basis();
  const auto& conv = ctx_.q_to_aux();
  const unsigned w = rk.digit_bits;
  const u64 mask = (w == 64) ? ~u64{0} : ((u64{1} << w) - 1);
  const std::size_t nl = conv.limb_count();

  // Digit-decompose c2 over the integers: c2 = sum_d D_d 2^(w d), with c2's
  // unsigned lift written out as limbs by the engine.  Each task lifts a
  // contiguous coefficient range; digit writes are disjoint.
  const std::size_t nd = rk.keys.size();
  std::vector<RnsPoly> digits(nd);
  for (auto& d : digits) d.towers.assign(qb.size(), Coeffs<u64>(ctx_.n(), 0));
  const auto put = [&](std::size_t d, std::size_t j, u64 digit) {
    for (std::size_t i = 0; i < qb.size(); ++i) {
      const u64 q = qb.modulus(i);
      digits[d].towers[i][j] = digit < q ? digit : digit % q;
    }
  };
  ctx_.exec().for_ranges(ctx_.n(), [&](std::size_t lo, std::size_t hi) {
    std::vector<u64> res(qb.size()), s(qb.size()), limbs(nl);
    for (std::size_t j = lo; j < hi; ++j) {
      for (std::size_t i = 0; i < qb.size(); ++i) res[i] = c2.towers[i][j];
      u64 v = 0;
      if (conv.lift(res.data(), s.data(), Lift::kUnsigned, v)) {
        conv.limbs(s.data(), v, limbs.data());
        for (std::size_t d = 0; d < nd; ++d) {
          const std::size_t bit = w * d, l = bit / 64, off = bit % 64;
          u64 digit = l < nl ? limbs[l] >> off : 0;
          if (off + w > 64 && l + 1 < nl) digit |= limbs[l + 1] << (64 - off);
          put(d, j, digit & mask);
        }
        continue;
      }
      // Oracle: shift the WideInt lift down one digit at a time.
      BigInt x = qb.reconstruct(res);
      for (std::size_t d = 0; d < nd; ++d) {
        put(d, j, x.limb[0] & mask);
        x >>= w;
      }
    }
  });
  return digits;
}

Ciphertext Bfv::relinearize(const Ciphertext& ct, const RelinKeys& rk) const {
  if (ct.size() != 3) throw std::invalid_argument("Bfv: relinearize expects 3 elements");
  validate_relin_keys(rk);
  const auto& qb = ctx_.q_basis();
  const std::size_t nq = qb.size();
  const std::size_t nd = rk.keys.size();
  std::vector<RnsPoly> digits = relin_digits(ct.c[2], rk);

  // Key switching in the NTT domain (the dataflow Table X's cost model
  // charges): each digit tower is transformed once, each key half is
  // transformed into a transient scratch tower and multiply-accumulated, and
  // one inverse transform per (component, tower) closes the sum.  The
  // inverse is linear and every modular sum is canonical, so the result is
  // the sum of the per-digit products bit for bit.  No NTT-form copy of the
  // keys outlives the call.
  ctx_.exec().for_each(nd * nq, [&](std::size_t idx) {
    ctx_.ntt(idx % nq).forward(digits[idx / nq].towers[idx % nq]);
  });
  Ciphertext r;
  r.c.push_back(ct.c[0]);
  r.c.push_back(ct.c[1]);
  ctx_.exec().for_each(2 * nq, [&](std::size_t idx) {
    const std::size_t comp = idx / nq;
    const std::size_t i = idx % nq;
    const auto& ntt = ctx_.ntt(i);
    Coeffs<u64> acc(ctx_.n(), 0), key;
    for (std::size_t d = 0; d < nd; ++d) {
      key = (comp == 0 ? rk.keys[d].first : rk.keys[d].second).towers[i];
      ntt.forward(key);
      ntt.mul_acc(acc, digits[d].towers[i], key);
    }
    ntt.inverse(acc);
    auto& out = r.c[comp].towers[i];
    out = poly::pointwise_add(qb.tower(i), out, acc);
  });
  return r;
}

double Bfv::noise_budget_bits(const SecretKey& sk, const Ciphertext& ct) const {
  // v = Delta m + e (mod Q); recover m, then measure |e|_inf.
  const Plaintext m = decrypt(sk, ct);
  RnsPoly v = ctx_.add(ct.c[0], ctx_.mul(ct.c[1], sk.s));
  if (ct.size() == 3) v = ctx_.add(v, ctx_.mul(ctx_.mul(ct.c[2], sk.s), sk.s));
  const auto& qb = ctx_.q_basis();
  double max_noise_bits = 0;
  std::vector<u64> res(qb.size());
  for (std::size_t j = 0; j < ctx_.n(); ++j) {
    for (std::size_t i = 0; i < qb.size(); ++i) res[i] = v.towers[i][j];
    BigInt x = qb.reconstruct(res);
    // e = centered(x - Delta*m_j mod Q).
    u64 carry = 0;
    BigInt dm = ctx_.delta().mul_small(m.coeffs[j], &carry);
    if (x >= dm) {
      x -= dm;
    } else {
      x += qb.product() - dm;
    }
    const BigInt half = qb.product() >> 1;
    const BigInt mag = x > half ? qb.product() - x : x;
    max_noise_bits = std::max(max_noise_bits, static_cast<double>(mag.bit_len()));
  }
  const double capacity =
      static_cast<double>(qb.product().bit_len()) - 1.0 -
      static_cast<double>(nt::bit_length(ctx_.t()));
  return capacity - max_noise_bits;
}

}  // namespace cofhee::bfv
