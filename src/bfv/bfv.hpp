// BFV scheme: key generation, encryption, decryption, evaluation
// (paper Sections II-B, II-C).
//
// Encryption follows Eqs. 2-3; homomorphic multiplication evaluates the
// Eq. 4 tensor with exact arithmetic: inputs are base-extended (centered)
// from Q to Q u B, the three tensor polynomials are computed with per-tower
// NTTs, and the t/q rounding maps the result back to Q.  The base
// extension, the t/q rounding, the relin digit split and decryption's
// rounding all run on poly::RnsConverter, whose 64-bit path hands every
// coefficient it cannot decide exactly to the WideInt CRT oracle, so each
// result equals the exact lift's bit for bit: decryption correctness stays
// provable and the tests assert exact plaintext results.  Relinearization
// uses classic base-2^w digit decomposition key switching, accumulated in
// the NTT domain.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bfv/params.hpp"
#include "poly/sampler.hpp"

namespace cofhee::bfv {

struct SecretKey {
  poly::RnsPoly s;  // ternary secret in every tower
};

struct PublicKey {
  poly::RnsPoly p0;  // -(a s + e)
  poly::RnsPoly p1;  // a
};

struct RelinKeys {
  unsigned digit_bits = 16;
  // One pair per digit: (b_i = -(a_i s + e_i) + 2^(w i) s^2, a_i).
  std::vector<std::pair<poly::RnsPoly, poly::RnsPoly>> keys;
  // One 64-bit seed per digit: a_i's towers are poly::expand_uniform(seed,
  // tower, n, q_tower), so the `a` half of every key pair compresses to 8
  // bytes on the wire (the driver's seed-frame upload re-expands it
  // chip-side, bit-identically).
  std::vector<std::uint64_t> a_seeds;

  /// Whether the `a` components are seed-expandable (seeds recorded and
  /// consistent with the digit count).
  [[nodiscard]] bool seeded() const noexcept {
    return !keys.empty() && a_seeds.size() == keys.size();
  }
};

/// Plaintext polynomial over Z_t (coefficient embedding).
struct Plaintext {
  poly::Coeffs<u64> coeffs;
};

/// Ciphertext: 2 polynomials normally, 3 after an unrelinearized multiply.
struct Ciphertext {
  std::vector<poly::RnsPoly> c;
  [[nodiscard]] std::size_t size() const noexcept { return c.size(); }
};

class Bfv {
 public:
  explicit Bfv(BfvParams params, std::uint64_t seed = 1,
               backend::ExecPolicy policy = backend::ExecPolicy::serial())
      : ctx_(std::move(params), policy), rng_(seed) {}

  [[nodiscard]] const BfvContext& context() const noexcept { return ctx_; }
  /// Switch between the serial reference path and a pooled path at runtime.
  /// Sampling (keygen/encrypt randomness) always stays serial, so two
  /// schemes with equal seeds produce identical keys and ciphertexts
  /// regardless of policy.
  void set_exec_policy(backend::ExecPolicy policy) { ctx_.set_exec_policy(policy); }

  [[nodiscard]] SecretKey keygen_secret();
  [[nodiscard]] PublicKey keygen_public(const SecretKey& sk);
  [[nodiscard]] RelinKeys keygen_relin(const SecretKey& sk, unsigned digit_bits = 16);

  [[nodiscard]] Ciphertext encrypt(const PublicKey& pk, const Plaintext& m);
  /// Decrypts 2- or 3-element ciphertexts (the latter with s^2).
  [[nodiscard]] Plaintext decrypt(const SecretKey& sk, const Ciphertext& ct) const;

  [[nodiscard]] Ciphertext add(const Ciphertext& a, const Ciphertext& b) const;
  /// Component-wise negation: noise-free (used to handle negative plaintext
  /// scalars without the |m| ~ t noise blow-up of encoding them as t - |m|).
  [[nodiscard]] Ciphertext negate(const Ciphertext& a) const;
  [[nodiscard]] Ciphertext add_plain(const Ciphertext& a, const Plaintext& m) const;
  [[nodiscard]] Ciphertext mul_plain(const Ciphertext& a, const Plaintext& m) const;
  /// Eq. 4 tensor + t/q rounding; result has 3 components ("without
  /// relinearization", the Fig. 6 operation).
  [[nodiscard]] Ciphertext multiply(const Ciphertext& a, const Ciphertext& b) const;
  /// Key switching back to 2 components: per Q tower, each digit is
  /// transformed once, each key half is transformed into transient scratch
  /// and multiply-accumulated, and one inverse transform per (component,
  /// tower) closes the sum.
  [[nodiscard]] Ciphertext relinearize(const Ciphertext& ct, const RelinKeys& rk) const;

  /// Upper bound check helper for tests: decrypt noise budget proxy --
  /// infinity norm of the centered decryption error scaled by t/Q.
  [[nodiscard]] double noise_budget_bits(const SecretKey& sk, const Ciphertext& ct) const;

  /// Exposed RNS plumbing for backends that compute the Eq. 4 tensor
  /// elsewhere (the chip-backed evaluator in driver/chip_bfv.hpp): centered
  /// exact base extension Q -> Q u B, and the t/q rounding back to Q.
  [[nodiscard]] poly::RnsPoly extend_centered_public(const poly::RnsPoly& p) const {
    return extend_centered(p);
  }
  [[nodiscard]] poly::RnsPoly scale_round_public(const poly::RnsPoly& y_ext) const {
    return scale_round_to_q(y_ext);
  }

  /// Base-2^w digit decomposition of `c2` over the Q basis: the host half of
  /// Algorithm-2 key switching, shared verbatim with the chip-backed
  /// relinearization (driver/chip_bfv.hpp) so both paths are bit-identical.
  /// Validates `rk` against this scheme's level first (see
  /// validate_relin_keys) and throws std::invalid_argument on mismatch.
  [[nodiscard]] std::vector<poly::RnsPoly> relin_digits_public(
      const poly::RnsPoly& c2, const RelinKeys& rk) const {
    validate_relin_keys(rk);
    return relin_digits(c2, rk);
  }

  /// Reject relinearization keys generated at a different level or ring:
  /// wrong tower count / polynomial degree, digit width outside [1,32], or
  /// too few digits to cover log2(Q) (which would silently drop high digits
  /// and corrupt the result).  Throws std::invalid_argument.
  void validate_relin_keys(const RelinKeys& rk) const;

 private:
  [[nodiscard]] poly::RnsPoly sample_small_rns(bool ternary);
  /// Centered exact base extension Q -> Q u B of one polynomial.
  [[nodiscard]] poly::RnsPoly extend_centered(const poly::RnsPoly& p) const;
  /// round(t * y / Q) mod Q for a polynomial given in the extended basis.
  [[nodiscard]] poly::RnsPoly scale_round_to_q(const poly::RnsPoly& y_ext) const;
  /// Digit decomposition behind relinearize()/relin_digits_public().
  [[nodiscard]] std::vector<poly::RnsPoly> relin_digits(const poly::RnsPoly& c2,
                                                        const RelinKeys& rk) const;

  BfvContext ctx_;
  poly::Rng rng_;
};

}  // namespace cofhee::bfv
