// Differential test: the chip-executed BFV pipeline (encrypt -> EvalMult on
// the CoFHEE model via ChipBfvEvaluator -> decrypt) must be bit-exact with
// the pure-software Bfv path on test_tiny parameters -- every ciphertext
// tower identical, not merely decrypting to the same plaintext.
#include "driver/chip_bfv.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bfv/encoder.hpp"

namespace cofhee::driver {
namespace {

struct DiffFixture {
  bfv::Bfv scheme{bfv::BfvParams::test_tiny(64), /*seed=*/11};
  bfv::SecretKey sk = scheme.keygen_secret();
  bfv::PublicKey pk = scheme.keygen_public(sk);
};

void expect_bit_exact(const bfv::Ciphertext& hw, const bfv::Ciphertext& sw) {
  ASSERT_EQ(hw.size(), sw.size());
  for (std::size_t i = 0; i < hw.size(); ++i)
    EXPECT_EQ(hw.c[i].towers, sw.c[i].towers) << "component " << i;
}

TEST(ChipVsSoftwareBfv, PlaintextSweepIsBitExact) {
  DiffFixture f;
  bfv::IntegerEncoder enc(f.scheme.context());
  chip::CofheeChip soc;
  ChipBfvEvaluator ev(soc);

  // Products must stay within the plaintext space: |x*y| < t/2 = 32768.
  const std::vector<std::pair<std::int64_t, std::int64_t>> cases = {
      {0, 0}, {1, 1}, {-1, 1}, {2, 3}, {255, -128}, {-181, 181}, {4096, 7}};
  for (const auto& [x, y] : cases) {
    const auto ca = f.scheme.encrypt(f.pk, enc.encode(x));
    const auto cb = f.scheme.encrypt(f.pk, enc.encode(y));
    const auto sw = f.scheme.multiply(ca, cb);
    const auto hw = ev.multiply(f.scheme, ca, cb);
    expect_bit_exact(hw, sw);
    EXPECT_EQ(enc.decode(f.scheme.decrypt(f.sk, hw)), x * y)
        << "plaintexts " << x << " * " << y;
  }
}

TEST(ChipVsSoftwareBfv, BitExactInEveryExecModeAndLink) {
  DiffFixture f;
  bfv::IntegerEncoder enc(f.scheme.context());
  const auto ca = f.scheme.encrypt(f.pk, enc.encode(123));
  const auto cb = f.scheme.encrypt(f.pk, enc.encode(-56));
  const auto sw = f.scheme.multiply(ca, cb);

  for (ExecMode mode : {ExecMode::kFifo, ExecMode::kCm0}) {
    for (Link link : {Link::kSpi, Link::kUart}) {
      chip::CofheeChip soc;
      ChipBfvEvaluator ev(soc, mode, link);
      const auto hw = ev.multiply(f.scheme, ca, cb);
      expect_bit_exact(hw, sw);
      EXPECT_EQ(enc.decode(f.scheme.decrypt(f.sk, hw)), 123 * -56);
    }
  }
}

TEST(ChipVsSoftwareBfv, ReusedChipStateStaysBitExact) {
  // Run many multiplies through ONE chip instance: stale SP-bank or
  // register state left by an earlier EvalMult would show up as a
  // divergence in a later one.
  DiffFixture f;
  bfv::IntegerEncoder enc(f.scheme.context());
  chip::CofheeChip soc;
  ChipBfvEvaluator ev(soc);

  for (std::int64_t v = -5; v <= 5; ++v) {
    const auto ca = f.scheme.encrypt(f.pk, enc.encode(v));
    const auto cb = f.scheme.encrypt(f.pk, enc.encode(7 * v + 1));
    const auto sw = f.scheme.multiply(ca, cb);
    const auto hw = ev.multiply(f.scheme, ca, cb);
    expect_bit_exact(hw, sw);
    EXPECT_EQ(enc.decode(f.scheme.decrypt(f.sk, hw)), v * (7 * v + 1)) << "v=" << v;
  }
}

TEST(ChipVsSoftwareBfv, PooledHostPlumbingStaysBitExactWithChip) {
  // The evaluator's host-side RNS plumbing (centered base extension and t/q
  // rounding) runs on the scheme's ExecPolicy.  A pooled scheme must feed
  // the chip the same towers and fold its results identically to both the
  // serial scheme and the pure-software product.
  DiffFixture serial;
  bfv::Bfv pooled(bfv::BfvParams::test_tiny(64), /*seed=*/11,
                  backend::ExecPolicy::pooled(4, /*grain=*/8));
  const auto sk_p = pooled.keygen_secret();
  const auto pk_p = pooled.keygen_public(sk_p);
  bfv::IntegerEncoder enc(serial.scheme.context());

  const auto ca_s = serial.scheme.encrypt(serial.pk, enc.encode(77));
  const auto cb_s = serial.scheme.encrypt(serial.pk, enc.encode(-33));
  const auto ca_p = pooled.encrypt(pk_p, enc.encode(77));
  const auto cb_p = pooled.encrypt(pk_p, enc.encode(-33));
  expect_bit_exact(ca_p, ca_s);

  const auto sw = serial.scheme.multiply(ca_s, cb_s);
  chip::CofheeChip soc_s, soc_p;
  ChipBfvEvaluator ev_s(soc_s), ev_p(soc_p);
  const auto hw_serial = ev_s.multiply(serial.scheme, ca_s, cb_s);
  const auto hw_pooled = ev_p.multiply(pooled, ca_p, cb_p);
  expect_bit_exact(hw_pooled, hw_serial);
  expect_bit_exact(hw_pooled, sw);
  EXPECT_EQ(enc.decode(pooled.decrypt(sk_p, hw_pooled)), 77 * -33);
}

TEST(ChipVsSoftwareBfv, ReportAccountsForEveryExtendedTower) {
  DiffFixture f;
  bfv::IntegerEncoder enc(f.scheme.context());
  chip::CofheeChip soc;
  ChipBfvEvaluator ev(soc);
  const auto ca = f.scheme.encrypt(f.pk, enc.encode(5));
  const auto cb = f.scheme.encrypt(f.pk, enc.encode(6));
  ChipMulReport rep;
  (void)ev.multiply(f.scheme, ca, cb, &rep);
  const auto& ctx = f.scheme.context();
  EXPECT_EQ(rep.ring_configs, ctx.ext_basis().size());
  EXPECT_GT(rep.chip_cycles, 0u);
  EXPECT_GT(rep.chip_ms, 0.0);
  EXPECT_GT(rep.io_seconds, 0.0);
}

}  // namespace
}  // namespace cofhee::driver
