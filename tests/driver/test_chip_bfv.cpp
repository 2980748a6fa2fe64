// Full-stack integration: BFV EvalMult with the tensor computed on the
// CoFHEE chip model, bit-exact against the pure-software path.
#include "driver/chip_bfv.hpp"

#include <gtest/gtest.h>

#include "bfv/encoder.hpp"

namespace cofhee::driver {
namespace {

struct StackFixture {
  bfv::Bfv scheme{bfv::BfvParams::test_tiny(64), 5};
  bfv::SecretKey sk = scheme.keygen_secret();
  bfv::PublicKey pk = scheme.keygen_public(sk);
  chip::CofheeChip soc;
};

TEST(ChipBfv, MultiplyMatchesSoftwareBitExactly) {
  StackFixture f;
  bfv::IntegerEncoder enc(f.scheme.context());
  const auto ca = f.scheme.encrypt(f.pk, enc.encode(321));
  const auto cb = f.scheme.encrypt(f.pk, enc.encode(-77));

  const auto sw = f.scheme.multiply(ca, cb);

  ChipBfvEvaluator chip_eval(f.soc);
  ChipMulReport rep;
  const auto hw = chip_eval.multiply(f.scheme, ca, cb, &rep);

  ASSERT_EQ(hw.size(), sw.size());
  for (std::size_t i = 0; i < hw.size(); ++i) {
    EXPECT_EQ(hw.c[i].towers, sw.c[i].towers) << "component " << i;
  }
  EXPECT_EQ(enc.decode(f.scheme.decrypt(f.sk, hw)), 321 * -77);
  // One Algorithm-3 run per extended tower (|Q| + |B| = 2 + 3).
  EXPECT_EQ(rep.ring_configs, 5u);
  EXPECT_GT(rep.chip_cycles, 0u);
  EXPECT_GT(rep.io_seconds, 0.0);
}

TEST(ChipBfv, SquaringReusesResidentOperandBanks) {
  // Passing the same ciphertext for both operands must take the SRAM
  // scratch-reuse path: B0/B1 synthesized from SP0/SP1 by on-chip DMA
  // instead of re-uploaded, with bit-identical results and strictly less
  // serial transport than the general two-operand path.
  StackFixture f;
  bfv::IntegerEncoder enc(f.scheme.context());
  const auto ca = f.scheme.encrypt(f.pk, enc.encode(150));
  const auto cb = ca;  // same value, distinct object: the general path

  const auto sw = f.scheme.multiply(ca, ca);

  ChipBfvEvaluator ev(f.soc);
  ChipMulReport general, squared;
  const auto hw_general = ev.multiply(f.scheme, ca, cb, &general);
  const auto hw_squared = ev.multiply(f.scheme, ca, ca, &squared);

  ASSERT_EQ(hw_squared.size(), sw.size());
  for (std::size_t i = 0; i < sw.size(); ++i) {
    EXPECT_EQ(hw_squared.c[i].towers, sw.c[i].towers) << "component " << i;
    EXPECT_EQ(hw_general.c[i].towers, sw.c[i].towers) << "component " << i;
  }
  EXPECT_EQ(enc.decode(f.scheme.decrypt(f.sk, hw_squared)), 150 * 150);

  // Two uploads skipped per extended tower, none on the general path.
  const auto ext = f.scheme.context().ext_basis().size();
  EXPECT_EQ(squared.sram_reuses, 2 * ext);
  EXPECT_EQ(general.sram_reuses, 0u);
  // The serial link carries half the uploads (readback unchanged)...
  EXPECT_LT(squared.io_seconds, general.io_seconds);
  // ...and the chip pays the foreground DMA duplication instead.
  EXPECT_GT(squared.chip_cycles, general.chip_cycles);
}

TEST(ChipBfv, PrepareSquareRejectsNonCanonicalCiphertext) {
  StackFixture f;
  bfv::IntegerEncoder enc(f.scheme.context());
  const auto ca = f.scheme.encrypt(f.pk, enc.encode(3));
  const auto tensor = f.scheme.multiply(ca, ca);  // 3 elements
  EXPECT_THROW((void)ChipBfvEvaluator::prepare_square(f.scheme, tensor),
               std::invalid_argument);
}

TEST(ChipBfv, AllExecutionModesAgree) {
  StackFixture f;
  bfv::IntegerEncoder enc(f.scheme.context());
  const auto ca = f.scheme.encrypt(f.pk, enc.encode(12));
  const auto cb = f.scheme.encrypt(f.pk, enc.encode(34));
  std::vector<std::vector<poly::Coeffs<nt::u64>>> results;
  for (ExecMode mode : {ExecMode::kFifo, ExecMode::kCm0}) {
    chip::CofheeChip soc;
    ChipBfvEvaluator ev(soc, mode);
    results.push_back(ev.multiply(f.scheme, ca, cb).c[0].towers);
  }
  EXPECT_EQ(results[0], results[1]);
}

TEST(ChipBfv, IoDominatesAtSmallRings) {
  // The Section VIII-A observation from the other side: at bring-up scale
  // the serial link, not the PE, is the bottleneck.
  StackFixture f;
  bfv::IntegerEncoder enc(f.scheme.context());
  const auto ca = f.scheme.encrypt(f.pk, enc.encode(1));
  const auto cb = f.scheme.encrypt(f.pk, enc.encode(2));
  ChipBfvEvaluator ev(f.soc, ExecMode::kFifo, Link::kUart);
  ChipMulReport rep;
  (void)ev.multiply(f.scheme, ca, cb, &rep);
  EXPECT_GT(rep.io_seconds, rep.chip_ms * 1e-3);
}

TEST(ChipBfv, RelinearizeMatchesSoftwareBitExactly) {
  StackFixture f;
  bfv::IntegerEncoder enc(f.scheme.context());
  const auto rk = f.scheme.keygen_relin(f.sk, 16);
  const auto ca = f.scheme.encrypt(f.pk, enc.encode(45));
  const auto cb = f.scheme.encrypt(f.pk, enc.encode(-3));
  const auto tensor = f.scheme.multiply(ca, cb);  // 3 elements

  const auto sw = f.scheme.relinearize(tensor, rk);

  ChipBfvEvaluator chip_eval(f.soc);
  ChipMulReport rep;
  const auto hw = chip_eval.relinearize(f.scheme, tensor, rk, &rep);

  ASSERT_EQ(hw.size(), 2u);
  for (std::size_t i = 0; i < hw.size(); ++i)
    EXPECT_EQ(hw.c[i].towers, sw.c[i].towers) << "component " << i;
  EXPECT_EQ(enc.decode(f.scheme.decrypt(f.sk, hw)), 45 * -3);
  // One ring configuration per Q tower, and per (digit, component) products:
  // |Q| towers x |digits| x 2 PolyMuls.
  const auto qt = f.scheme.context().q_basis().size();
  EXPECT_EQ(rep.ring_configs, qt);
  EXPECT_EQ(rep.ks_products, qt * rk.keys.size() * 2);
  EXPECT_GT(rep.chip_cycles, 0u);
  EXPECT_GT(rep.io_seconds, 0.0);
}

TEST(ChipBfv, MultiplyRelinMatchesSoftwareChain) {
  StackFixture f;
  bfv::IntegerEncoder enc(f.scheme.context());
  const auto rk = f.scheme.keygen_relin(f.sk, 16);
  const auto ca = f.scheme.encrypt(f.pk, enc.encode(19));
  const auto cb = f.scheme.encrypt(f.pk, enc.encode(23));

  const auto sw = f.scheme.relinearize(f.scheme.multiply(ca, cb), rk);

  ChipBfvEvaluator chip_eval(f.soc);
  ChipMulReport rep;
  const auto hw = chip_eval.multiply_relin(f.scheme, ca, cb, rk, &rep);

  ASSERT_EQ(hw.size(), 2u);
  for (std::size_t i = 0; i < hw.size(); ++i)
    EXPECT_EQ(hw.c[i].towers, sw.c[i].towers) << "component " << i;
  EXPECT_EQ(enc.decode(f.scheme.decrypt(f.sk, hw)), 19 * 23);
  // Both halves accounted: tensor ring configs over the extended basis plus
  // key-switch configs over Q.
  const auto& ctx = f.scheme.context();
  EXPECT_EQ(rep.ring_configs, ctx.ext_basis().size() + ctx.q_basis().size());
  EXPECT_EQ(rep.ks_products, ctx.q_basis().size() * rk.keys.size() * 2);
}

TEST(ChipBfv, RelinearizeRejectsMalformedInputs) {
  StackFixture f;
  bfv::IntegerEncoder enc(f.scheme.context());
  const auto rk = f.scheme.keygen_relin(f.sk, 16);
  const auto ct2 = f.scheme.encrypt(f.pk, enc.encode(7));  // 2 elements
  ChipBfvEvaluator ev(f.soc);
  EXPECT_THROW((void)ev.relinearize(f.scheme, ct2, rk), std::invalid_argument);

  // Keys generated at a different level (one tower vs two) are rejected
  // before touching the chip.
  bfv::Bfv other(bfv::BfvParams::create(64, {40}, 65537), 9);
  const auto other_rk = other.keygen_relin(other.keygen_secret(), 16);
  const auto tensor = f.scheme.multiply(ct2, f.scheme.encrypt(f.pk, enc.encode(2)));
  EXPECT_THROW((void)ev.relinearize(f.scheme, tensor, other_rk), std::invalid_argument);

  // Too few digits to cover log2(Q): high digits would be dropped silently.
  bfv::RelinKeys truncated = rk;
  truncated.keys.resize(1);
  EXPECT_THROW((void)ev.relinearize(f.scheme, tensor, truncated), std::invalid_argument);
}

TEST(ChipBfv, RejectsOversizedRing) {
  chip::CofheeChip soc;  // bank_words = 2^14 -> n up to 2^13 in 2 slots
  bfv::Bfv big(bfv::BfvParams::create(1u << 14, {54, 55}, 65537), 1);
  const auto sk = big.keygen_secret();
  const auto pk = big.keygen_public(sk);
  bfv::Plaintext m;
  m.coeffs.assign(1u << 14, 0);
  const auto ct = big.encrypt(pk, m);
  ChipBfvEvaluator ev(soc);
  EXPECT_THROW((void)ev.multiply(big, ct, ct), std::invalid_argument);
}

}  // namespace
}  // namespace cofhee::driver
