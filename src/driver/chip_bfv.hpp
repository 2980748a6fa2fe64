// Chip-backed BFV evaluator: the full-stack integration path.
//
// The software BFV scheme runs its EvalMult tensor (Eq. 4 numerators) on
// the CoFHEE model instead of the CPU: every tower of the extended RNS
// basis becomes one chip ring configuration (q_i <= 128 bits always fits
// the native datapath), the four input polynomials are loaded into the SP
// banks, Algorithm 3 executes on the MDMC, and the host performs the t/q
// rounding on the read-back tensor -- the division of labor the paper
// prescribes ("low-level polynomial operations" on chip, "data movement"
// and higher-level steps on the host, Sections I and III).
//
// Relinearization (the second half of a full EvalMult) follows the same
// split: the host digit-decomposes c2 over the Q basis (an exact CRT lift
// the chip has no datapath for), and every per-(digit, tower) key-switch
// product -- the dominant on-chip cost in the HEAX line of work -- runs as
// one Algorithm-2 PolyMul on the PE, with the host accumulating the
// read-back products into c0/c1.
//
// Both pipelines are exposed as separate phases -- prepare/prepare_relin
// (host), configure_tower / load_tower / execute_tower / read_tower /
// relin_tower (chip session), assemble/assemble_relin (host) -- so a
// scheduler that owns several chips (service/eval_service.hpp) can
// interleave them: amortize one ring configuration over a batch of
// requests, shard one request's towers across a chip farm, or overlap
// host-side base conversion with the previous round's chip phases.
// multiply() / relinearize() / multiply_relin() are the serial single-chip
// compositions of the same phases.
//
// Bit-exactness against the pure-software Bfv::multiply/relinearize is
// asserted by tests/driver/test_chip_bfv.cpp.
#pragma once

#include <cstdint>
#include <vector>

#include "bfv/bfv.hpp"
#include "chip/chip.hpp"
#include "driver/host_driver.hpp"
#include "obs/trace.hpp"

namespace cofhee::driver {

/// Accounting of one chip session, split along the paper's
/// compute-vs-transport axis: the counter rows of driver/chip_counters.hpp
/// plus the phases' compute tally and an optional trace sink.  All times
/// are simulated (cycle model + serial-link byte counts), never host wall
/// clock.
struct ChipMulReport : ChipCounters {
  /// Compute of the phases so far: chip_cycles at the configured clock
  /// (250 MHz default), in milliseconds.  The service folds it into
  /// compute_seconds when it closes the session.
  double chip_ms = 0;
  /// Optional trace sink: when set, every phase emits a simulated-axis span
  /// (cat "phase") on chip `trace_chip`'s phase track covering exactly the
  /// io + compute seconds the phase added to this report -- including
  /// partial time of a phase that faulted mid-way, which is also how
  /// ServiceStats accounts it, so trace and stats reconcile.  Not
  /// accumulated by operator+=.
  obs::TraceRecorder* trace = nullptr;
  /// Chip index the trace spans are attributed to (with `trace`).
  std::uint32_t trace_chip = 0;

  /// Accumulate another session's counters into this one.
  ChipMulReport& operator+=(const ChipMulReport& o) {
    ChipCounters::operator+=(o);
    chip_ms += o.chip_ms;
    return *this;
  }
};

/// Tag of the relinearization-key tower currently resident in a chip's SP1
/// bank, so consecutive key-switch products that reuse the same (keys,
/// tower, digit, component) key polynomial skip the serial-link upload.
/// One cache per chip; the owner must invalidate() whenever SP1 is
/// clobbered by non-relin traffic (e.g. a tensor session's load_tower) and
/// relies on key identity by address -- regenerating keys into the same
/// RelinKeys object must go through a fresh address or an invalidate().
class RelinKeyCache {
 public:
  /// True when the tagged key polynomial is already loaded (a cache hit);
  /// a changed `keys` pointer never hits, which is how key rotation
  /// invalidates the cache.
  [[nodiscard]] bool hit(const bfv::RelinKeys* keys, std::size_t tower,
                         std::size_t digit, unsigned comp) const noexcept {
    return keys_ == keys && tower_ == tower && digit_ == digit && comp_ == comp;
  }
  /// Record the key polynomial just uploaded into SP1.
  void loaded(const bfv::RelinKeys* keys, std::size_t tower, std::size_t digit,
              unsigned comp) noexcept {
    keys_ = keys;
    tower_ = tower;
    digit_ = digit;
    comp_ = comp;
  }
  /// Forget the resident key (SP1 was clobbered or keys changed).
  void invalidate() noexcept { keys_ = nullptr; }

 private:
  const bfv::RelinKeys* keys_ = nullptr;
  std::size_t tower_ = 0;
  std::size_t digit_ = 0;
  unsigned comp_ = 0;
};

/// Host-side prepared operands of one EvalMult: the four input polynomials
/// base-extended (centered) from Q to the extended basis Q u B, ready for
/// per-tower dispatch to any chip.
struct EvalMultOperands {
  /// Extended components of the two operand ciphertexts (a = {a0, a1},
  /// b = {b0, b1}).  When `square` is set, b0/b1 are empty: B == A and the
  /// chip synthesizes its SP2/SP3 images from SP0/SP1 by on-chip DMA.
  poly::RnsPoly a0, a1, b0, b1;
  /// Squaring hint (prepare_square): the second operand is the same
  /// ciphertext as the first, so load_tower skips the B serial uploads and
  /// duplicates A's banks in SRAM instead.  Results are bit-identical to
  /// the four-upload path.
  bool square = false;
};

/// One extended-basis tower of the Eq. 4 tensor (Y0, Y1, Y2) as read back
/// from a chip.
struct TowerTensor {
  /// The three tensor polynomials of this tower, canonical residues.
  poly::Coeffs<nt::u64> y0, y1, y2;
};

/// Host-side prepared operands of one Algorithm-2 relinearization: c2
/// digit-decomposed over the Q basis (base 2^w, exact CRT lift), plus the
/// {c0, c1} passthrough the key-switch products accumulate into.
struct RelinOperands {
  /// Base-2^w digits of c2, ascending digit order, each an RNS polynomial
  /// over the Q basis.
  std::vector<poly::RnsPoly> digits;
  /// First component of the input ciphertext (accumulation base for c0').
  poly::RnsPoly c0;
  /// Second component of the input ciphertext (accumulation base for c1').
  poly::RnsPoly c1;
};

/// One Q-basis tower of the relinearized output, accumulated host-side from
/// the chip's per-digit key-switch products.
struct RelinTowerAcc {
  /// Output component towers: c0' = c0 + sum_d D_d * rk_d.b, and
  /// c1' = c1 + sum_d D_d * rk_d.a, canonical residues mod q_tower.
  poly::Coeffs<nt::u64> c0, c1;
};

/// Runs BFV EvalMult (tensor and/or Algorithm-2 key switching) on a chip
/// model, exposing each per-tower step as a phase a multi-chip scheduler
/// can interleave.
class ChipBfvEvaluator {
 public:
  /// The evaluator drives `chip` through `mode`; ring reconfiguration
  /// between towers is host work (register writes, timed).
  ChipBfvEvaluator(CofheeChip& chip, ExecMode mode = ExecMode::kFifo,
                   Link link = Link::kSpi)
      : chip_(chip), mode_(mode), link_(link) {}

  /// EvalMult without relinearization (the Fig. 6 operation), tensor
  /// computed on chip, scaling on the host.  Result decrypts identically
  /// to bfv.multiply(a, b).  Passing the same object for both operands
  /// (squaring) automatically takes the prepare_square / scratch-reuse
  /// path: half the base-extension work, B uploads replaced by on-chip DMA.
  bfv::Ciphertext multiply(const bfv::Bfv& bfv, const bfv::Ciphertext& a,
                           const bfv::Ciphertext& b, ChipMulReport* report = nullptr);

  /// Algorithm-2 key switching of a 3-element ciphertext back to 2
  /// components, the key-switch products computed on chip.  Bit-exact vs
  /// bfv.relinearize(ct, rk).  Throws std::invalid_argument on a 2-element
  /// input or relin keys generated at a different level (see
  /// bfv::Bfv::validate_relin_keys).
  bfv::Ciphertext relinearize(const bfv::Bfv& bfv, const bfv::Ciphertext& ct,
                              const bfv::RelinKeys& rk, ChipMulReport* report = nullptr);

  /// The paper's complete EvalMult: multiply() followed by relinearize(),
  /// both halves on chip.  Bit-exact vs
  /// bfv.relinearize(bfv.multiply(a, b), rk).
  bfv::Ciphertext multiply_relin(const bfv::Bfv& bfv, const bfv::Ciphertext& a,
                                 const bfv::Ciphertext& b, const bfv::RelinKeys& rk,
                                 ChipMulReport* report = nullptr);

  // --- per-tower phases (shared with cofhee::service) ---------------------
  /// Host: centered exact base extension Q -> Q u B of both ciphertexts.
  /// Throws std::invalid_argument unless both are 2-element.
  [[nodiscard]] static EvalMultOperands prepare(const bfv::Bfv& bfv,
                                                const bfv::Ciphertext& a,
                                                const bfv::Ciphertext& b);

  /// Squaring form of prepare(): only `a` is base-extended (half the host
  /// work of the general case) and the returned operands carry the
  /// SRAM scratch-reuse hint, so load_tower turns the B0/B1 serial uploads
  /// into on-chip DMA copies of SP0/SP1.  Bit-exact vs prepare(bfv, a, a).
  /// Throws std::invalid_argument unless `a` is 2-element.
  [[nodiscard]] static EvalMultOperands prepare_square(const bfv::Bfv& bfv,
                                                       const bfv::Ciphertext& a);

  /// Program `drv`'s chip for extended tower `tower`: ring registers +
  /// twiddle ROM over the serial link (timed into report->io_seconds, and
  /// counted in report->ring_configs).  Throws std::invalid_argument when the
  /// ring does not fit the chip's bank slots.
  static void configure_tower(HostDriver& drv, const bfv::Bfv& bfv, std::size_t tower,
                              ChipMulReport* report);

  /// Upload one tower of the four operand polynomials into SP0..SP3.  Under
  /// the squaring hint (EvalMultOperands::square) only A0/A1 travel the
  /// serial link; B0/B1 are synthesized by on-chip DMA copies SP0 -> SP2 and
  /// SP1 -> SP3 (cycles into report->chip_cycles, skips counted in
  /// report->sram_reuses), roughly halving the upload transport per tower.
  static void load_tower(HostDriver& drv, const EvalMultOperands& ops,
                         std::size_t tower, ChipMulReport* report);

  /// Run Algorithm 3 on whatever is loaded (outputs land in SP0/SP1/SP2).
  static void execute_tower(HostDriver& drv, ChipMulReport* report);

  /// Download the three tensor polynomials of the configured tower.
  [[nodiscard]] static TowerTensor read_tower(HostDriver& drv, ChipMulReport* report);

  /// Host: reassemble the per-tower tensors (indexed by extended tower) and
  /// apply the t/q rounding back to the Q basis (Eq. 4's outer operation).
  [[nodiscard]] static bfv::Ciphertext assemble(const bfv::Bfv& bfv,
                                                const std::vector<TowerTensor>& tensors);

  // --- per-tower relinearization phases (shared with cofhee::service) -----
  /// Host: validate `rk` against the scheme's level and digit-decompose
  /// ct.c[2] over the Q basis (base 2^w, exact CRT lift).  Throws
  /// std::invalid_argument unless `ct` is 3-element and `rk` matches the
  /// scheme (tower count, degree, digit coverage of log2(Q)).
  [[nodiscard]] static RelinOperands prepare_relin(const bfv::Bfv& bfv,
                                                   const bfv::Ciphertext& ct,
                                                   const bfv::RelinKeys& rk);

  /// Program `drv`'s chip for Q-basis tower `tower` (Q is a prefix of the
  /// extended basis, so the ring image matches configure_tower at the same
  /// index).  Timed into report->io_seconds, counted in
  /// report->ring_configs.
  /// Throws std::invalid_argument on a tower index outside the Q basis.
  static void configure_relin_tower(HostDriver& drv, const bfv::Bfv& bfv,
                                    std::size_t tower, ChipMulReport* report);

  /// Run every (digit, component) key-switch product of `tower` on the
  /// configured chip -- digit to SP0, key polynomial to SP1, Algorithm-2
  /// PolyMul, product read back from SP2 -- and accumulate into the tower's
  /// c0/c1 host-side in ascending digit order (the software reference's
  /// summation order, so results are bit-identical).
  [[nodiscard]] static RelinTowerAcc relin_tower(HostDriver& drv, const bfv::Bfv& bfv,
                                                 const RelinOperands& ops,
                                                 const bfv::RelinKeys& rk,
                                                 std::size_t tower,
                                                 ChipMulReport* report);

  /// Batched form of relin_tower: run `tower`'s key-switch products for a
  /// whole request group in one chip session, digit-outer / request-inner,
  /// with the per-request component order serpentine so consecutive
  /// products share a key polynomial whenever possible.  With `cache`
  /// non-null, key uploads whose (keys, tower, digit, component) tag is
  /// already resident in SP1 are skipped and counted in
  /// report->key_cache_hits -- for a group of R requests this cuts the key
  /// transport per digit from 2R uploads to R+1.  Results are bit-identical
  /// to calling relin_tower per request (host accumulation stays in
  /// ascending digit order per component).  Returns one accumulation per
  /// group entry, in group order.
  [[nodiscard]] static std::vector<RelinTowerAcc> relin_tower_batch(
      HostDriver& drv, const bfv::Bfv& bfv,
      const std::vector<const RelinOperands*>& group, const bfv::RelinKeys& rk,
      std::size_t tower, RelinKeyCache* cache, ChipMulReport* report);

  /// Host: stack the per-Q-tower accumulations into the 2-element result
  /// (no rounding -- relinearization stays in the Q basis).
  [[nodiscard]] static bfv::Ciphertext assemble_relin(
      const std::vector<RelinTowerAcc>& towers);

 private:
  CofheeChip& chip_;
  ExecMode mode_;
  Link link_;
};

}  // namespace cofhee::driver
