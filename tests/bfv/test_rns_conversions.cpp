// Seeded differential battery for the exact 64-bit RNS conversions
// (poly::RnsTool on the poly::RnsConverter engine) behind Bfv's centered
// extension, t/Q scaling, relin digit split and decryption rounding.  Each is compared bit for bit with
// the declared WideInt oracle, written out below from RnsBasis::reconstruct
// and WideInt arithmetic alone, at test_tiny, paper_small and paper_large.
//
// Inputs are random coefficients plus values planted on every boundary the
// engine's double estimate decides: 0, 1, (M +- 1)/2, M - 1 for the bases
// involved (M = Q, the extended product, and the auxiliary product P), y
// whose t y / Q lies within 2^-45 of a half-integer, and y whose Q-part or
// Q-quotient sits on its own centering boundary.  A check that the planted
// values do reach the engine's oracle fallback keeps the battery honest: a
// build whose fallback is disabled fails it.  The relinearization dataflow
// is also held against the per-product loop it replaced, and the pooled
// executor (1, 2, 8 threads) against the serial one.  The digit split runs
// at widths 7, 16, 20, 30 and 32, so digits that straddle two 64-bit limbs
// of the lift are covered.
#include "bfv/bfv.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "poly/rns.hpp"

namespace cofhee::bfv {
namespace {

using backend::ExecPolicy;
using poly::BigInt;
using poly::Coeffs;
using poly::RnsBasis;
using poly::RnsConverter;
using poly::RnsPoly;
using Lift = RnsConverter::Lift;

// --- The oracle: RnsBasis::reconstruct and WideInt arithmetic only. --------

u64 signed_mod(const BigInt& mag, bool neg, u64 q) {
  const u64 r = mag.mod_u64(q);
  return neg && r != 0 ? q - r : r;
}

std::vector<u64> column(const RnsPoly& p, std::size_t j) {
  std::vector<u64> r(p.num_towers());
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = p.towers[i][j];
  return r;
}

/// Centered lift of column j over `basis` as (magnitude, negative).
std::pair<BigInt, bool> centered(const RnsBasis& basis, const RnsPoly& p, std::size_t j) {
  const BigInt x = basis.reconstruct(column(p, j));
  if (x > (basis.product() >> 1)) return {basis.product() - x, true};
  return {x, false};
}

/// round(t |x| / Q).
BigInt round_scaled(const BfvContext& ctx, const BigInt& mag) {
  return nt::div_round(mag.mul_small(ctx.t()), ctx.big_q());
}

RnsPoly oracle_extend(const BfvContext& ctx, const RnsPoly& p) {
  const auto& eb = ctx.ext_basis();
  RnsPoly out;
  out.towers.assign(eb.size(), Coeffs<u64>(p.n()));
  for (std::size_t j = 0; j < p.n(); ++j) {
    const auto [mag, neg] = centered(ctx.q_basis(), p, j);
    for (std::size_t i = 0; i < eb.size(); ++i)
      out.towers[i][j] = signed_mod(mag, neg, eb.modulus(i));
  }
  return out;
}

RnsPoly oracle_scale_round(const BfvContext& ctx, const RnsPoly& y) {
  const auto& qb = ctx.q_basis();
  RnsPoly out;
  out.towers.assign(qb.size(), Coeffs<u64>(y.n()));
  for (std::size_t j = 0; j < y.n(); ++j) {
    const auto [mag, neg] = centered(ctx.ext_basis(), y, j);
    const BigInt m = round_scaled(ctx, mag);
    for (std::size_t i = 0; i < qb.size(); ++i)
      out.towers[i][j] = signed_mod(m, neg, qb.modulus(i));
  }
  return out;
}

std::vector<RnsPoly> oracle_digits(const BfvContext& ctx, const RnsPoly& c2,
                                   const RelinKeys& rk) {
  const auto& qb = ctx.q_basis();
  const u64 mask = (u64{1} << rk.digit_bits) - 1;
  std::vector<RnsPoly> digits(rk.keys.size());
  for (auto& d : digits) d.towers.assign(qb.size(), Coeffs<u64>(c2.n()));
  for (std::size_t j = 0; j < c2.n(); ++j) {
    BigInt x = qb.reconstruct(column(c2, j));
    for (auto& d : digits) {
      for (std::size_t i = 0; i < qb.size(); ++i)
        d.towers[i][j] = (x.limb[0] & mask) % qb.modulus(i);
      x >>= rk.digit_bits;
    }
  }
  return digits;
}

/// round(t v / Q) mod t for the centered lift of each coefficient of v.
Coeffs<u64> oracle_decrypt_rounding(const BfvContext& ctx, const RnsPoly& v) {
  Coeffs<u64> m(v.n());
  for (std::size_t j = 0; j < v.n(); ++j) {
    const auto [mag, neg] = centered(ctx.q_basis(), v, j);
    m[j] = signed_mod(round_scaled(ctx, mag), neg, ctx.t());
  }
  return m;
}

// --- Inputs. ---------------------------------------------------------------

BigInt big(u64 v) { return BigInt(v); }

BigInt random_below(poly::Rng& rng, const BigInt& m) {
  BigInt x;
  for (auto& l : x.limb) l = rng.next_u64();
  return (x % m).resize<8>();
}

/// -x mod m for 0 <= x < m.
BigInt negated(const BigInt& x, const BigInt& m) { return x.is_zero() ? x : m - x; }

/// The centering boundary of [0, m) and the two ends of the range.
void plant_centering(const BigInt& m, std::vector<BigInt>& out) {
  const BigInt half = m >> 1;  // (m - 1) / 2 for odd m
  for (const BigInt& v : {big(0), big(1), big(2), half - big(1), half, half + big(1),
                          half + big(2), m - big(2), m - big(1)})
    out.push_back(v);
}

/// x in [0, bound) with t x / Q within 2^-45 of the half-integer k + 1/2:
/// floor((2k + 1) Q / 2t) + delta.  Checked exactly:
/// |2 t x - (2k + 1) Q| 2^45 < 2 Q.
void plant_near_half(const BfvContext& ctx, poly::Rng& rng, const BigInt& bound,
                     std::size_t count, std::vector<BigInt>& out) {
  const u64 t = ctx.t();
  const BigInt& q = ctx.big_q();
  // x < bound holds for k < t bound / Q.
  const BigInt k_end = (bound.mul_full(nt::WideInt<1>(t)) / q).resize<8>();
  for (std::size_t c = 0; c < count; ++c) {
    const BigInt k = c == 0 ? big(0) : random_below(rng, k_end);
    const BigInt odd = (k << 1) + big(1);
    const BigInt x0 = (odd.mul_full(q) / nt::WideInt<1>(2 * t)).resize_trunc<8>();
    for (int delta = -1; delta <= 1; ++delta) {
      if (x0.is_zero() && delta < 0) continue;
      const BigInt x = delta < 0 ? x0 - big(1) : x0 + big(static_cast<u64>(delta));
      if (x >= bound) continue;
      // Both sides of 2 t x vs (2k + 1) Q, widened so nothing wraps.
      const auto lhs = x.mul_full(nt::WideInt<1>(2 * t)).resize<16>();
      const auto rhs = odd.mul_full(q);
      const auto diff = lhs > rhs ? lhs - rhs : rhs - lhs;
      EXPECT_LT(diff << 45, (q << 1).resize<16>()) << "planted value is not near a tie";
      out.push_back(x);
    }
  }
}

/// Split values over `basis` into polynomials of n coefficients; the slots
/// left over hold random values.
std::vector<RnsPoly> to_polys(const RnsBasis& basis, std::size_t n,
                              const std::vector<BigInt>& values, std::uint64_t seed) {
  poly::Rng rng(seed);
  std::vector<RnsPoly> polys;
  for (std::size_t at = 0; at < values.size() || polys.empty(); at += n) {
    std::vector<BigInt> coeffs(n);
    for (std::size_t j = 0; j < n; ++j)
      coeffs[j] = at + j < values.size() ? values[at + j]
                                         : random_below(rng, basis.product());
    polys.push_back(poly::rns_decompose(basis, coeffs));
  }
  return polys;
}

void expect_rns_equal(const RnsPoly& got, const RnsPoly& want, const char* what) {
  ASSERT_EQ(got.num_towers(), want.num_towers()) << what;
  for (std::size_t i = 0; i < got.num_towers(); ++i)
    for (std::size_t j = 0; j < got.n(); ++j)
      ASSERT_EQ(got.towers[i][j], want.towers[i][j])
          << what << ": tower " << i << ", coefficient " << j;
}

// --- Fixture: one scheme and key set per parameter set. --------------------

struct KeySet {
  std::unique_ptr<Bfv> scheme;
  SecretKey sk;
  PublicKey pk;
  RelinKeys rk;
};

BfvParams params_for(const std::string& name) {
  if (name == "paper_small") return BfvParams::paper_small();
  if (name == "paper_large") return BfvParams::paper_large();
  return BfvParams::test_tiny();
}

KeySet& key_set(const std::string& name) {
  static std::map<std::string, std::unique_ptr<KeySet>> cache;
  auto& slot = cache[name];
  if (!slot) {
    slot = std::make_unique<KeySet>();
    slot->scheme = std::make_unique<Bfv>(params_for(name), /*seed=*/17);
    slot->sk = slot->scheme->keygen_secret();
    slot->pk = slot->scheme->keygen_public(slot->sk);
    slot->rk = slot->scheme->keygen_relin(slot->sk);
  }
  return *slot;
}

class RnsConversions : public ::testing::TestWithParam<std::string> {
 protected:
  KeySet& s() const { return key_set(GetParam()); }
  Bfv& scheme() const { return *s().scheme; }
  const BfvContext& ctx() const { return s().scheme->context(); }

  /// Values over Q: the centering boundary, both ends, near-ties of t x / Q
  /// (and their negations), and small values whose CRT sum sits just above
  /// an integer.
  std::vector<BigInt> q_values() const {
    poly::Rng rng(101);
    const BigInt& q = ctx().big_q();
    std::vector<BigInt> v;
    plant_centering(q, v);
    std::vector<BigInt> ties;
    plant_near_half(ctx(), rng, q, 8, ties);
    for (const auto& x : ties) {
      v.push_back(x);
      v.push_back(negated(x, q));
    }
    for (u64 small : {u64{3}, u64{0xFFFF}, u64{1} << 40, ~u64{0}}) {
      v.push_back(big(small));
      v.push_back(q - big(small));
    }
    return v;
  }

  /// Values over the extended basis Q u B (product M = Q P).
  std::vector<BigInt> ext_values() const {
    poly::Rng rng(202);
    const BigInt& q = ctx().big_q();
    const BigInt& m = ctx().ext_basis().product();
    const BigInt& p = ctx().aux_basis().product();
    std::vector<BigInt> v;
    plant_centering(m, v);  // y' at its +-(P - 1)/2 limit
    for (const BigInt& x : {(p >> 1), (p >> 1) + big(1), p - big(1), p}) v.push_back(x);
    std::vector<BigInt> ties;
    plant_near_half(ctx(), rng, m >> 1, 12, ties);
    for (const auto& x : ties) {
      v.push_back(x);
      v.push_back(negated(x, m));
    }
    // y mod Q on its centering boundary, for random quotients.
    for (int c = 0; c < 6; ++c) {
      const BigInt a = random_below(rng, p);
      for (const BigInt& r : {q >> 1, (q >> 1) + big(1)}) {
        const BigInt y = (a.mul_full(q).resize_trunc<8>() + r) % m;
        v.push_back(y.resize<8>());
      }
    }
    // y' = (y - r) / Q at +-(P - 1)/2 with r anywhere in (-Q/2, Q/2).
    const BigInt top = ((p >> 1).mul_full(q)).resize_trunc<8>();
    for (int c = 0; c < 4; ++c) {
      const BigInt r = random_below(rng, q >> 1);
      v.push_back(top + r);
      v.push_back(negated(top + r, m));
      v.push_back(top - r);
    }
    return v;
  }
};

TEST_P(RnsConversions, ExtendCenteredMatchesOracle) {
  for (const auto& p : to_polys(ctx().q_basis(), ctx().n(), q_values(), 1))
    expect_rns_equal(scheme().extend_centered_public(p), oracle_extend(ctx(), p),
                     "extend_centered");
}

TEST_P(RnsConversions, ScaleRoundMatchesOracle) {
  for (const auto& y : to_polys(ctx().ext_basis(), ctx().n(), ext_values(), 2))
    expect_rns_equal(scheme().scale_round_public(y), oracle_scale_round(ctx(), y),
                     "scale_round");
}

TEST_P(RnsConversions, RelinDigitsMatchOracle) {
  // The key set's 16-bit digits divide a 64-bit limb; widths 7, 20 and 30
  // also split digits across two limbs of the lift, and 32 is the widest
  // the keys allow.  Each width gets keys of its own.
  Bfv keyer(params_for(GetParam()), /*seed=*/29);
  const SecretKey sk = keyer.keygen_secret();
  std::vector<RelinKeys> key_sets = {s().rk};
  for (unsigned w : {7u, 16u, 20u, 30u, 32u}) key_sets.push_back(keyer.keygen_relin(sk, w));
  for (const RelinKeys& rk : key_sets)
    for (const auto& c2 : to_polys(ctx().q_basis(), ctx().n(), q_values(), 3)) {
      const auto got = scheme().relin_digits_public(c2, rk);
      const auto want = oracle_digits(ctx(), c2, rk);
      ASSERT_EQ(got.size(), want.size()) << "width " << rk.digit_bits;
      for (std::size_t d = 0; d < got.size(); ++d) expect_rns_equal(got[d], want[d], "digit");
    }
}

TEST_P(RnsConversions, DecryptRoundingMatchesOracle) {
  // c1 = 0 makes decryption's v = c0, so c0 carries the planted values.
  for (const auto& c0 : to_polys(ctx().q_basis(), ctx().n(), q_values(), 4)) {
    Ciphertext ct;
    ct.c = {c0, ctx().zero()};
    ASSERT_EQ(scheme().decrypt(s().sk, ct).coeffs, oracle_decrypt_rounding(ctx(), c0));
  }
}

TEST_P(RnsConversions, BaseConvertMatchesOracle) {
  // The engine's unsigned entry, Q -> Q u B: every target residue is the
  // planted integer's own residue.
  const auto values = q_values();
  const auto polys = to_polys(ctx().q_basis(), ctx().n(), values, 5);
  const auto& eb = ctx().ext_basis();
  for (std::size_t at = 0; at < polys.size(); ++at) {
    const RnsPoly got = poly::rns_base_convert(ctx().q_basis(), eb, polys[at]);
    for (std::size_t j = 0; j < ctx().n(); ++j) {
      const BigInt x = ctx().q_basis().reconstruct(column(polys[at], j));
      if (at * ctx().n() + j < values.size()) {
        ASSERT_EQ(x, values[at * ctx().n() + j]);
      }
      for (std::size_t i = 0; i < eb.size(); ++i)
        ASSERT_EQ(got.towers[i][j], x.mod_u64(eb.modulus(i))) << "coefficient " << j;
    }
  }
}

TEST_P(RnsConversions, PlantedValuesReachTheOracleFallback) {
  // Without this, a battery whose planted values all landed outside the
  // guard band would pass with the fallback disabled.
  const auto& up = ctx().rns().q_to_aux();
  const auto& qb = ctx().q_basis();
  std::vector<u64> s(qb.size());
  std::size_t centered = 0, unsigned_floor = 0, rounding = 0;
  for (const BigInt& x : q_values()) {
    const auto res = qb.decompose(x);
    u64 v = 0, r = 0;
    centered += up.lift(res.data(), s.data(), Lift::kCentered, v) ? 0 : 1;
    unsigned_floor += up.lift(res.data(), s.data(), Lift::kUnsigned, v) ? 0 : 1;
    rounding += up.round_scaled(s.data(), r) ? 0 : 1;
  }
  EXPECT_GE(centered, 2u);
  EXPECT_GE(unsigned_floor, 2u);
  EXPECT_GE(rounding, 4u);
  // The scaling's second conversion declines at y' = +-(P - 1)/2.
  const auto& down = ctx().rns().aux_to_q();
  const auto& ab = ctx().aux_basis();
  std::size_t quotient = 0;
  std::vector<u64> sb(ab.size());
  for (const BigInt& y : {ab.product() >> 1, (ab.product() >> 1) + big(1)}) {
    u64 v = 0;
    quotient += down.lift(ab.decompose(y).data(), sb.data(), Lift::kCentered, v) ? 0 : 1;
  }
  EXPECT_EQ(quotient, 2u);
  // And random values do not.
  poly::Rng rng(9);
  std::size_t declined = 0;
  for (int c = 0; c < 256; ++c) {
    const auto res = qb.decompose(random_below(rng, qb.product()));
    u64 v = 0, r = 0;
    declined += up.lift(res.data(), s.data(), Lift::kCentered, v) ? 0 : 1;
    declined += up.round_scaled(s.data(), r) ? 0 : 1;
  }
  EXPECT_EQ(declined, 0u);
}

TEST_P(RnsConversions, RelinearizeMatchesPerProductLoop) {
  // The key switch as it ran before the NTT-domain dataflow: one negacyclic
  // product per (digit, component, tower), summed in ascending digit order.
  const auto& qb = ctx().q_basis();
  poly::Rng rng(31);
  Plaintext a, b;
  for (Plaintext* m : {&a, &b}) {
    m->coeffs.resize(ctx().n());
    for (auto& c : m->coeffs) c = rng.uniform_below(ctx().t());
  }
  const Ciphertext prod =
      scheme().multiply(scheme().encrypt(s().pk, a), scheme().encrypt(s().pk, b));
  const auto digits = scheme().relin_digits_public(prod.c[2], s().rk);
  Ciphertext want;
  want.c = {prod.c[0], prod.c[1]};
  for (std::size_t d = 0; d < digits.size(); ++d)
    for (std::size_t comp = 0; comp < 2; ++comp) {
      const auto& key = comp == 0 ? s().rk.keys[d].first : s().rk.keys[d].second;
      for (std::size_t i = 0; i < qb.size(); ++i)
        want.c[comp].towers[i] = poly::pointwise_add(
            qb.tower(i), want.c[comp].towers[i],
            ctx().ntt(i).negacyclic_mul(digits[d].towers[i], key.towers[i]));
    }
  const Ciphertext got = scheme().relinearize(prod, s().rk);
  ASSERT_EQ(got.size(), 2u);
  for (std::size_t comp = 0; comp < 2; ++comp)
    expect_rns_equal(got.c[comp], want.c[comp], "relinearize");
}

TEST_P(RnsConversions, PooledMatchesSerial) {
  const auto q_polys = to_polys(ctx().q_basis(), ctx().n(), q_values(), 6);
  const auto ext_polys = to_polys(ctx().ext_basis(), ctx().n(), ext_values(), 7);
  Ciphertext c3;
  c3.c = {q_polys[0], q_polys.back(), q_polys[0]};
  Ciphertext c2;
  c2.c = {q_polys[0], ctx().zero()};
  const auto serial_ext = scheme().extend_centered_public(q_polys[0]);
  const auto serial_scale = scheme().scale_round_public(ext_polys[0]);
  const auto serial_digits = scheme().relin_digits_public(q_polys[0], s().rk);
  const auto serial_dec = scheme().decrypt(s().sk, c2);
  const auto serial_relin = scheme().relinearize(c3, s().rk);
  for (std::size_t threads : {1u, 2u, 8u}) {
    Bfv pooled(params_for(GetParam()), /*seed=*/17, ExecPolicy::pooled(threads, 16));
    expect_rns_equal(pooled.extend_centered_public(q_polys[0]), serial_ext, "extend");
    expect_rns_equal(pooled.scale_round_public(ext_polys[0]), serial_scale, "scale");
    const auto digits = pooled.relin_digits_public(q_polys[0], s().rk);
    for (std::size_t d = 0; d < digits.size(); ++d)
      expect_rns_equal(digits[d], serial_digits[d], "digits");
    ASSERT_EQ(pooled.decrypt(s().sk, c2).coeffs, serial_dec.coeffs);
    const auto relin = pooled.relinearize(c3, s().rk);
    for (std::size_t comp = 0; comp < 2; ++comp)
      expect_rns_equal(relin.c[comp], serial_relin.c[comp], "relinearize");
  }
}

INSTANTIATE_TEST_SUITE_P(Params, RnsConversions,
                         ::testing::Values("test_tiny", "paper_small", "paper_large"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace cofhee::bfv
