#include "bfv/encoder.hpp"

#include <gtest/gtest.h>

namespace cofhee::bfv {
namespace {

struct EncFixture {
  Bfv scheme{BfvParams::test_tiny(64), 7};
  SecretKey sk = scheme.keygen_secret();
  PublicKey pk = scheme.keygen_public(sk);
};

TEST(IntegerEncoder, RoundTripSigned) {
  EncFixture f;
  IntegerEncoder enc(f.scheme.context());
  for (std::int64_t v : {0L, 1L, -1L, 1000L, -1000L, 32768L, -32768L}) {
    EXPECT_EQ(enc.decode(enc.encode(v)), v) << v;
  }
}

TEST(IntegerEncoder, EncryptedArithmetic) {
  EncFixture f;
  IntegerEncoder enc(f.scheme.context());
  const auto ca = f.scheme.encrypt(f.pk, enc.encode(-25));
  const auto cb = f.scheme.encrypt(f.pk, enc.encode(17));
  EXPECT_EQ(enc.decode(f.scheme.decrypt(f.sk, f.scheme.add(ca, cb))), -8);
  EXPECT_EQ(enc.decode(f.scheme.decrypt(f.sk, f.scheme.multiply(ca, cb))), -425);
}

TEST(BatchEncoder, SlotRoundTrip) {
  EncFixture f;
  BatchEncoder enc(f.scheme.context());
  EXPECT_EQ(enc.slot_count(), 64u);
  std::vector<u64> v(64);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = (i * 31 + 5) % 65537;
  const auto p = enc.encode(v);
  EXPECT_EQ(enc.decode(p), v);
}

TEST(BatchEncoder, SlotwiseHomomorphicOps) {
  // SIMD semantics: encrypted add/mul act independently per slot -- the
  // property CryptoNets-style batching (Section VI-C) exploits.
  EncFixture f;
  BatchEncoder enc(f.scheme.context());
  std::vector<u64> va(64), vb(64);
  for (std::size_t i = 0; i < 64; ++i) {
    va[i] = i + 1;
    vb[i] = 2 * i + 3;
  }
  const auto ca = f.scheme.encrypt(f.pk, enc.encode(va));
  const auto cb = f.scheme.encrypt(f.pk, enc.encode(vb));
  const auto sum = enc.decode(f.scheme.decrypt(f.sk, f.scheme.add(ca, cb)));
  const auto prod = enc.decode(f.scheme.decrypt(f.sk, f.scheme.multiply(ca, cb)));
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(sum[i], va[i] + vb[i]);
    EXPECT_EQ(prod[i], va[i] * vb[i] % 65537);
  }
}

TEST(BatchEncoder, PartialVectorZeroPads) {
  EncFixture f;
  BatchEncoder enc(f.scheme.context());
  const auto p = enc.encode({5, 6});
  const auto v = enc.decode(p);
  EXPECT_EQ(v[0], 5u);
  EXPECT_EQ(v[1], 6u);
  for (std::size_t i = 2; i < v.size(); ++i) EXPECT_EQ(v[i], 0u);
}

TEST(BatchEncoder, RejectsOversizedInputs) {
  EncFixture f;
  BatchEncoder enc(f.scheme.context());
  EXPECT_THROW((void)enc.encode(std::vector<u64>(65, 0)), std::invalid_argument);
  EXPECT_THROW((void)enc.encode({65537}), std::invalid_argument);
  // decode: wrong length, and any coefficient outside [0, t).
  EXPECT_THROW((void)enc.decode(Plaintext{std::vector<u64>(63, 0)}),
               std::invalid_argument);
  Plaintext p = enc.encode({1, 2, 3});
  p.coeffs[10] = 65537;
  EXPECT_THROW((void)enc.decode(p), std::invalid_argument);
  p.coeffs[10] = ~u64{0};
  EXPECT_THROW((void)enc.decode(p), std::invalid_argument);
}

}  // namespace
}  // namespace cofhee::bfv
