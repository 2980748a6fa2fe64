#include "bfv/params.hpp"

#include <set>
#include <stdexcept>

namespace cofhee::bfv {

BfvParams BfvParams::create(std::size_t n, const std::vector<unsigned>& tower_bits,
                            u64 t) {
  if (!nt::is_power_of_two(n)) throw std::invalid_argument("BfvParams: n must be 2^k");
  if (tower_bits.empty()) throw std::invalid_argument("BfvParams: no towers");
  BfvParams p;
  p.n = n;
  p.t = t;
  std::set<u64> used;
  for (unsigned bits : tower_bits) {
    for (u64 seed = 0;; ++seed) {
      const u64 q = nt::find_ntt_prime_u64(bits, n, seed);
      if (q != t && used.insert(q).second) {
        p.q_moduli.push_back(q);
        break;
      }
    }
  }
  // Aux base: |Q|+1 towers of 55 bits (or tower_bits max, whichever larger),
  // distinct from every Q tower and from t.
  const unsigned aux_bits = 55;
  for (std::size_t i = 0; i < tower_bits.size() + 1; ++i) {
    for (u64 seed = 0;; ++seed) {
      const u64 q = nt::find_ntt_prime_u64(aux_bits, n, seed);
      if (q != t && used.insert(q).second) {
        p.aux_moduli.push_back(q);
        break;
      }
    }
  }
  return p;
}

BfvParams BfvParams::paper_small() { return create(1u << 12, {54, 55}, 65537); }

BfvParams BfvParams::paper_large() {
  return create(1u << 13, {54, 54, 55, 55}, 65537);
}

BfvParams BfvParams::test_tiny(std::size_t n) { return create(n, {40, 41}, 65537); }

unsigned BfvParams::log_q() const {
  poly::RnsBasis b(q_moduli);
  return b.log_q();
}

BfvContext::BfvContext(BfvParams params, backend::ExecPolicy policy)
    : params_(std::move(params)),
      rns_(params_.q_moduli, params_.aux_moduli, params_.t),
      exec_(policy) {
  // Twiddle-table construction is itself per-tower independent work (root
  // finding + O(n) table fills), so it runs on the same executor.
  ext_ntt_.resize(ext_basis().size());
  exec_.for_each(ext_basis().size(), [&](std::size_t i) {
    const u64 q = ext_basis().modulus(i);
    ext_ntt_[i] = poly::MergedNtt64(ext_basis().tower(i), params_.n,
                                    nt::primitive_2nth_root(q, params_.n));
  });
  const BigInt delta = (q_basis().product() / nt::WideInt<1>(params_.t)).resize_trunc<8>();
  for (std::size_t i = 0; i < q_basis().size(); ++i)
    delta_mod_q_.push_back(delta.mod_u64(q_basis().modulus(i)));
}

poly::RnsPoly BfvContext::add(const poly::RnsPoly& a, const poly::RnsPoly& b) const {
  poly::RnsPoly r;
  r.towers.reserve(a.num_towers());
  for (std::size_t i = 0; i < a.num_towers(); ++i)
    r.towers.push_back(poly::pointwise_add(q_basis().tower(i), a.towers[i], b.towers[i]));
  return r;
}

poly::RnsPoly BfvContext::sub(const poly::RnsPoly& a, const poly::RnsPoly& b) const {
  poly::RnsPoly r;
  r.towers.reserve(a.num_towers());
  for (std::size_t i = 0; i < a.num_towers(); ++i)
    r.towers.push_back(poly::pointwise_sub(q_basis().tower(i), a.towers[i], b.towers[i]));
  return r;
}

poly::RnsPoly BfvContext::mul(const poly::RnsPoly& a, const poly::RnsPoly& b) const {
  // Per-tower negacyclic NTT multiplications are fully independent; this is
  // the Q-basis hot loop behind relinearization and decryption.
  poly::RnsPoly r;
  r.towers.resize(a.num_towers());
  exec_.for_each(a.num_towers(), [&](std::size_t i) {
    r.towers[i] = ntt(i).negacyclic_mul(a.towers[i], b.towers[i]);
  });
  return r;
}

poly::RnsPoly BfvContext::neg(const poly::RnsPoly& a) const {
  poly::RnsPoly r;
  r.towers.reserve(a.num_towers());
  for (std::size_t i = 0; i < a.num_towers(); ++i)
    r.towers.push_back(poly::negate(q_basis().tower(i), a.towers[i]));
  return r;
}

poly::RnsPoly BfvContext::zero() const {
  poly::RnsPoly r;
  r.towers.assign(q_basis().size(), poly::Coeffs<u64>(params_.n, 0));
  return r;
}

}  // namespace cofhee::bfv
