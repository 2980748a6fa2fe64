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
    : params_(std::move(params)), q_basis_(params_.q_moduli),
      ext_basis_([&] {
        std::vector<u64> all = params_.q_moduli;
        all.insert(all.end(), params_.aux_moduli.begin(), params_.aux_moduli.end());
        return poly::RnsBasis(all);
      }()),
      aux_basis_(params_.aux_moduli),
      q_to_aux_(q_basis_, aux_basis_, params_.t),
      aux_to_q_(aux_basis_, q_basis_),
      exec_(policy) {
  // Twiddle-table construction is itself per-tower independent work (root
  // finding + O(n) table fills), so it runs on the same executor.
  q_ntt_.resize(q_basis_.size());
  exec_.for_each(q_basis_.size(), [&](std::size_t i) {
    const u64 q = q_basis_.modulus(i);
    q_ntt_[i] = poly::MergedNtt64(q_basis_.tower(i), params_.n,
                                  nt::primitive_2nth_root(q, params_.n));
  });
  ext_ntt_.resize(ext_basis_.size());
  exec_.for_each(ext_basis_.size(), [&](std::size_t i) {
    const u64 q = ext_basis_.modulus(i);
    ext_ntt_[i] = poly::MergedNtt64(ext_basis_.tower(i), params_.n,
                                    nt::primitive_2nth_root(q, params_.n));
  });
  delta_ = (q_basis_.product() / nt::WideInt<1>(params_.t)).resize_trunc<8>();
  delta_mod_q_.resize(q_basis_.size());
  for (std::size_t i = 0; i < q_basis_.size(); ++i) {
    const u64 q = q_basis_.modulus(i);
    delta_mod_q_[i] = delta_.mod_u64(q);
    t_mod_q_.emplace_back(params_.t % q, q);
  }
  for (std::size_t j = 0; j < aux_basis_.size(); ++j) {
    const auto& ring = aux_basis_.tower(j);
    q_inv_aux_.emplace_back(ring.inv(q_basis_.product().mod_u64(ring.modulus())),
                            ring.modulus());
  }
}

poly::RnsPoly BfvContext::add(const poly::RnsPoly& a, const poly::RnsPoly& b) const {
  poly::RnsPoly r;
  r.towers.reserve(a.num_towers());
  for (std::size_t i = 0; i < a.num_towers(); ++i)
    r.towers.push_back(poly::pointwise_add(q_basis_.tower(i), a.towers[i], b.towers[i]));
  return r;
}

poly::RnsPoly BfvContext::sub(const poly::RnsPoly& a, const poly::RnsPoly& b) const {
  poly::RnsPoly r;
  r.towers.reserve(a.num_towers());
  for (std::size_t i = 0; i < a.num_towers(); ++i)
    r.towers.push_back(poly::pointwise_sub(q_basis_.tower(i), a.towers[i], b.towers[i]));
  return r;
}

poly::RnsPoly BfvContext::mul(const poly::RnsPoly& a, const poly::RnsPoly& b) const {
  // Per-tower negacyclic NTT multiplications are fully independent; this is
  // the Q-basis hot loop behind relinearization and decryption.
  poly::RnsPoly r;
  r.towers.resize(a.num_towers());
  exec_.for_each(a.num_towers(), [&](std::size_t i) {
    r.towers[i] = q_ntt_.at(i).negacyclic_mul(a.towers[i], b.towers[i]);
  });
  return r;
}

poly::RnsPoly BfvContext::neg(const poly::RnsPoly& a) const {
  poly::RnsPoly r;
  r.towers.reserve(a.num_towers());
  for (std::size_t i = 0; i < a.num_towers(); ++i)
    r.towers.push_back(poly::negate(q_basis_.tower(i), a.towers[i]));
  return r;
}

poly::RnsPoly BfvContext::zero() const {
  poly::RnsPoly r;
  r.towers.assign(q_basis_.size(), poly::Coeffs<u64>(params_.n, 0));
  return r;
}

}  // namespace cofhee::bfv
