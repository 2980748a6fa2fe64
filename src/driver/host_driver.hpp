// Host-side driver (paper Sections III-I, V-F).
//
// Plays the role of the bring-up PC: programs the ring registers, preloads
// the twiddle ROM, moves polynomials over UART or SPI (timed), builds the
// command sequences for the composed operations (Algorithms 2 and 3), and
// runs them in any of the three execution modes.  Every entry point returns
// an ExecReport splitting compute time (chip cycles at 250 MHz) from host
// I/O time (serial line rate) -- the decomposition behind the paper's
// mode-1-is-slow remark and the n >= 2^14 communication-cost discussion.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "chip/chip.hpp"
#include "chip/cm0.hpp"
#include "driver/chip_counters.hpp"
#include "obs/trace.hpp"
#include "poly/merged_ntt.hpp"

namespace cofhee::driver {

using chip::Bank;
using chip::CofheeChip;
using chip::Instr;
using chip::MemRef;
using chip::Opcode;
/// Native coefficient word of the chip's 128-bit datapath.
using u128 = unsigned __int128;

/// The paper's three command-execution modes (Section III-I).
enum class ExecMode : std::uint8_t {
  kDirect = 0,  ///< mode 1: one register-triggered command at a time
  kFifo = 1,    ///< mode 2: preloaded command FIFO
  kCm0 = 2,     ///< mode 3: on-chip Cortex-M0 sequencer
};

/// Host-link selection (Section III-H).
enum class Link : std::uint8_t {
  kUart = 0,  ///< UART 8N1 at the bring-up baud rate
  kSpi = 1,   ///< SPI mode 0 at up to 50 MHz
};

/// Per-operation accounting, splitting chip compute from serial transport
/// (the decomposition behind the paper's mode-1-is-slow remark).
struct ExecReport {
  /// PE cycles at the configured clock.
  std::uint64_t compute_cycles = 0;
  /// compute_cycles in milliseconds.
  double compute_ms = 0;
  /// Serial transfer time (loads, triggers, readback).  Seconds.
  double io_seconds = 0;
  /// Commands dispatched.
  std::uint64_t commands = 0;
  /// Sequencer work (overlapped with compute).  Cycles.
  std::uint64_t cm0_cycles = 0;

  /// Accumulate another operation's counters into this one.
  ExecReport& operator+=(const ExecReport& o) {
    compute_cycles += o.compute_cycles;
    compute_ms += o.compute_ms;
    io_seconds += o.io_seconds;
    commands += o.commands;
    cm0_cycles += o.cm0_cycles;
    return *this;
  }
};

/// The bring-up PC's side of the protocol: register programming, twiddle
/// preload, timed polynomial transport and command sequencing in all three
/// execution modes.
class HostDriver {
 public:
  /// Modeled chip-side cycles to expand one 32-bit SRAM word from a key
  /// seed (sequencer PRNG + bank write); charged by load_polynomial_seeded.
  static constexpr std::uint64_t kSeedExpandCyclesPerWord = 2;

  /// Drive `chip` (kept by reference, caller-owned) in `mode` over `link`.
  explicit HostDriver(CofheeChip& chip, ExecMode mode = ExecMode::kFifo,
                      Link link = Link::kSpi);

  /// The chip this driver talks to.
  [[nodiscard]] CofheeChip& chip() noexcept { return chip_; }
  /// The execution mode commands run in.
  [[nodiscard]] ExecMode mode() const noexcept { return mode_; }
  /// The serial link polynomials travel over (UART or SPI) -- the transport
  /// axis of the service's placement cost model.
  [[nodiscard]] Link link() const noexcept { return link_; }

  /// Program Q/N/INV_POLYDEG/BARRETTCTL* and preload the twiddle ROM with
  /// the bit-reversed psi powers.  One-time setup per modulus.  When `timed`
  /// the register writes and the ROM preload go over the serial link and the
  /// transfer time is returned (0 when untimed) -- this is the
  /// ring-reconfiguration cost the host pays between RNS towers.
  double configure_ring(u128 q, std::size_t n, u128 psi, bool timed = false);

  /// Host-side mirror of the chip's NTT engine for the configured ring.
  [[nodiscard]] const poly::MergedNtt128& ntt_engine() const { return engine_; }
  /// Configured polynomial degree (0 before configure_ring).
  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  /// Configured modulus (0 before configure_ring).
  [[nodiscard]] u128 q() const noexcept { return q_; }

  /// Health probe: write a known pattern to a scratch SRAM word over the
  /// serial link and read it back.  A healthy chip echoes the pattern; a
  /// dead or faulting chip throws chip::ChipFaultError /
  /// chip::LinkTimeoutError (from the link's fault injector), and a chip
  /// that answers with the wrong word throws chip::ChipFaultError.  The
  /// service uses this to decide quarantine re-admission; it clobbers one
  /// word of SP3, so only probe a chip with no session in flight.
  void probe();

  /// Timed polynomial upload over the serial link; returns transfer seconds.
  double load_polynomial(Bank bank, std::size_t offset, std::span<const u128> coeffs);

  /// Seed-compressed upload of a seed-expandable polynomial (relin-key `a`
  /// towers, which are uniform by construction): ships a 17-byte seed frame
  /// instead of the 9 + 16·count-byte coefficient burst, then runs the
  /// chip-side expansion -- poly::expand_uniform(seed, tower, count, q) for
  /// the configured ring modulus, the same definition key generation used,
  /// so SRAM ends bit-identical to a full burst of the key tower -- and
  /// charges kSeedExpandCyclesPerWord per 32-bit word to the chip.
  /// `expand_cycles` (when non-null) receives those cycles so callers can
  /// fold them into their ExecReport/ChipMulReport compute totals.  When
  /// key compression is disabled the same coefficients travel as a plain
  /// full burst instead (the differential baseline).  Returns transfer
  /// seconds.  Requires configure_ring first (q must be the tower modulus).
  double load_polynomial_seeded(Bank bank, std::size_t offset, std::size_t count,
                                std::uint64_t seed, std::size_t tower,
                                std::uint64_t* expand_cycles = nullptr);

  /// Foreground on-chip DMA copy of `count` coefficient words from one bank
  /// slot to another -- no serial transport at all, which is the point: a
  /// polynomial already resident in SRAM (e.g. A0 in SP0 when squaring
  /// needs the same value as B0 in SP2) is duplicated at MDMC speed instead
  /// of being re-uploaded over UART/SPI.  Returns the DMA cycles charged to
  /// the chip's cycle counter.
  std::uint64_t copy_polynomial(Bank src, std::size_t src_offset, Bank dst,
                                std::size_t dst_offset, std::size_t count);
  /// Timed polynomial download; `io_seconds` (when non-null) receives the
  /// transfer time of this read.
  std::vector<u128> read_polynomial(Bank bank, std::size_t offset, std::size_t count,
                                    double* io_seconds = nullptr);

  /// Run a batch of commands in the configured execution mode.
  ExecReport run(std::span<const Instr> program);

  // --- composed operations -----------------------------------------------
  /// Single NTT of the polynomial at `x`, result at `dst`.
  ExecReport ntt(const MemRef& x, const MemRef& dst);
  /// Single inverse NTT of the polynomial at `x`, result at `dst`.
  ExecReport intt(const MemRef& x, const MemRef& dst);

  /// Polynomial multiplication (Algorithm 2): operands preloaded at SP0 and
  /// SP1, product written to SP2 (all slot 0).  Matches the silicon PolyMul
  /// measurement of Table V: 2 NTT + Hadamard + iNTT + DMA staging.
  ExecReport poly_mul();

  /// Ciphertext multiplication (Algorithm 3) on one RNS tower: inputs
  /// A0->SP0, A1->SP1, B0->SP2, B1->SP3 (slot 0); outputs Y0->SP0, Y1->SP1,
  /// Y2->SP2 (slot 0).  4 NTT + 4 Hadamard + 1 add + 3 iNTT commands with
  /// DMA staging overlapped per Section III-F.
  ExecReport ciphertext_mul();

  /// Attach a trace recorder: timed serial transactions (polynomial
  /// uploads/downloads, ring reconfiguration, probes) land as spans (cat
  /// "link") on chip `chip`'s link track, durations on the simulated axis.
  /// Pass nullptr to detach.  Call only while no session owns the chip.
  void set_tracer(obs::TraceRecorder* trace, std::uint32_t chip) noexcept {
    trace_ = trace;
    trace_chip_ = chip;
  }

  /// Cumulative counters of this driver's link optimizations (burst
  /// framing, twiddle-ROM cache, seeded key upload); no other row moves.
  /// The evaluator adds their delta over each phase to its ChipMulReport.
  [[nodiscard]] const ChipCounters& transport() const noexcept {
    return transport_;
  }

  /// Coalesce consecutive-address register writes into burst frames
  /// (configure_ring, mode-1 command pushes).  Default on; the differential
  /// link tests turn it off to prove byte-identical SRAM/register state.
  void set_link_batching(bool on) noexcept { batching_ = on; }
  [[nodiscard]] bool link_batching() const noexcept { return batching_; }

  /// Skip timed ring configuration when the chip already holds the
  /// requested (q, n, psi) -- the cross-session twiddle-ROM cache.  Default
  /// on.
  void set_twiddle_cache(bool on) noexcept { twiddle_cache_ = on; }
  [[nodiscard]] bool twiddle_cache() const noexcept { return twiddle_cache_; }

  /// Drop the chip's twiddle-ROM tag (counted as an invalidation): the next
  /// timed configure reprograms everything.
  void invalidate_twiddle_cache() noexcept;

  /// Ship seed-expandable key towers as compact seed frames
  /// (load_polynomial_seeded).  Default on.
  void set_key_compression(bool on) noexcept { key_compression_ = on; }
  [[nodiscard]] bool key_compression() const noexcept { return key_compression_; }

 private:
  ExecReport run_direct(std::span<const Instr> program);
  ExecReport run_fifo(std::span<const Instr> program);
  ExecReport run_cm0(std::span<const Instr> program);
  /// Background-stage `len` words; returns the non-hidden residue cycles.
  std::uint64_t stage(const MemRef& src, const MemRef& dst, std::size_t len,
                      std::uint64_t window);

  /// Emit one "link" span of `seconds` on this chip's link track (no-op
  /// without a tracer or for zero-length transfers).
  void trace_link(const char* name, double seconds, double words) const {
    if (trace_ != nullptr && seconds > 0)
      trace_->span_sim(obs::TraceRecorder::sim_track_chip_link(trace_chip_), name,
                       "link", seconds, {{"words", words}});
  }

  CofheeChip& chip_;
  ExecMode mode_;
  Link link_;
  poly::MergedNtt128 engine_;
  std::size_t n_ = 0;
  u128 q_ = 0;
  std::uint32_t probe_nonce_ = 0;
  obs::TraceRecorder* trace_ = nullptr;
  std::uint32_t trace_chip_ = 0;
  ChipCounters transport_;
  bool batching_ = true;
  bool twiddle_cache_ = true;
  bool key_compression_ = true;
};

}  // namespace cofhee::driver
