#include "bfv/bfv.hpp"

#include <algorithm>
#include <stdexcept>

namespace cofhee::bfv {

using poly::BigInt;
using poly::Coeffs;
using poly::RnsPoly;

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

  // m = round(t x / Q) mod t with x the centered lift of v.
  return Plaintext{ctx_.rns().round_mod_t(v, ctx_.exec())};
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

Ciphertext Bfv::multiply(const Ciphertext& a, const Ciphertext& b) const {
  if (a.size() != 2 || b.size() != 2)
    throw std::invalid_argument("Bfv: multiply expects 2-element ciphertexts");
  // Centered base extension Q -> Q u B of all four polynomials.
  const RnsPoly a0 = extend_centered_public(a.c[0]);
  const RnsPoly a1 = extend_centered_public(a.c[1]);
  const RnsPoly b0 = extend_centered_public(b.c[0]);
  const RnsPoly b1 = extend_centered_public(b.c[1]);

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
  r.c.push_back(scale_round_public(y0));
  r.c.push_back(scale_round_public(y1));
  r.c.push_back(scale_round_public(y2));
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

Ciphertext Bfv::relinearize(const Ciphertext& ct, const RelinKeys& rk) const {
  if (ct.size() != 3) throw std::invalid_argument("Bfv: relinearize expects 3 elements");
  const auto& qb = ctx_.q_basis();
  const std::size_t nq = qb.size();
  const std::size_t nd = rk.keys.size();
  std::vector<RnsPoly> digits = relin_digits_public(ct.c[2], rk);  // validates rk

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
  std::vector<u64> e(qb.size());
  for (std::size_t j = 0; j < ctx_.n(); ++j) {
    // e = v - Delta m_j over Q, centered.
    for (std::size_t i = 0; i < qb.size(); ++i)
      e[i] = qb.tower(i).sub(v.towers[i][j], qb.tower(i).mul(ctx_.delta_mod(i), m.coeffs[j]));
    const auto [mag, neg] = qb.reconstruct_centered(e);
    max_noise_bits = std::max(max_noise_bits, static_cast<double>(mag.bit_len()));
  }
  const double capacity =
      static_cast<double>(qb.product().bit_len()) - 1.0 -
      static_cast<double>(nt::bit_length(ctx_.t()));
  return capacity - max_noise_bits;
}

}  // namespace cofhee::bfv
