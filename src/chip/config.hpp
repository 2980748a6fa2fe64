// Structural parameters of the fabricated CoFHEE SoC (paper Section III)
// plus the cycle-model constants calibrated against the silicon
// measurements of Table V (the cycle model is described in chip/mdmc.hpp).
#pragma once

#include <cstdint>
#include <cstddef>

namespace cofhee::chip {

/// Memory map (ARM Cortex-M series convention, Section III-A/III-G1).
struct MemoryMap {
  static constexpr std::uint32_t kCm0SramBase = 0x0000'0000;   // code + data
  static constexpr std::uint32_t kDataSramBase = 0x2000'0000;  // poly banks
  static constexpr std::uint32_t kBankStride = 0x0010'0000;    // per bank
  /// Dual-port banks expose their second port as a distinct address space
  /// (paper Section III-A: "assigning different base addresses to each
  /// port, treating them as two distinct address spaces at the bus level").
  static constexpr std::uint32_t kPortBOffset = 0x0008'0000;
  static constexpr std::uint32_t kGpcfgBase = 0x4002'0000;     // Table II
  static constexpr std::uint32_t kGpcfgLimit = 0x4002'FFFF;
};

/// Data-memory bank identifiers.  The silicon instantiates 3 logical
/// dual-port banks (48 16-bit x 2096 macros), 4 single-port polynomial
/// banks plus the twiddle bank (16x 32-bit x 8192 and 4x 32-bit x 4096
/// macros), and the CM0's own SRAM -- 68 macro instances total
/// (Section V-A).  The logical view below groups macros into
/// coefficient-wide banks.
enum class Bank : std::uint8_t {
  kDp0 = 0,  // dual-port, NTT ping
  kDp1 = 1,  // dual-port, NTT pong
  kDp2 = 2,  // dual-port, DMA staging buffer (Section III-F)
  kSp0 = 3,  // single-port polynomial storage
  kSp1 = 4,
  kSp2 = 5,
  kSp3 = 6,
  kTw = 7,   // single-port twiddle storage
};
inline constexpr std::size_t kNumBanks = 8;
inline constexpr std::size_t kNumDualPort = 3;

struct ChipConfig {
  // --- Architecture (Section III) ---
  unsigned log2_max_n = 14;      // native degree limit
  unsigned log2_opt_n = 13;      // the degree the design is optimized for
  unsigned coeff_bits = 128;     // native coefficient width
  std::size_t bank_words = 1u << 14;  // coefficients per logical data bank
  std::size_t cm0_sram_bytes = 32 * 1024;
  std::size_t cmd_fifo_depth = 32;    // Section III-I
  double freq_mhz = 250.0;            // memory-read limited (Section III-D)

  // --- PE pipeline (Section III-E) ---
  unsigned mult_latency = 5;     // Barrett multiplier pipeline depth, II=1
  unsigned addsub_latency = 1;
  unsigned mem_read_latency = 2; // ~3.1 ns read path at 4 ns cycle

  // --- Calibrated cycle-model constants (see chip/mdmc.hpp) ---
  // Per-NTT-stage overhead: address-unit reconfiguration plus pipeline
  // fill/drain.  NTT(n) = (n/2)log2(n) + stage_overhead*log2(n) + 1.
  unsigned stage_overhead = 22;
  // Pointwise-op pipeline fill; op(n) = n + pointwise_fill + 1.
  unsigned pointwise_fill = 19;
  // DMA-assisted passes (twiddle mirror reorder in iNTT, staging in
  // composed ops) move dma_words_per_cycle coefficients per cycle.
  unsigned dma_words_per_cycle = 8;
  unsigned cmd_issue_cycles = 1;

  // --- Scalability knobs (Section VIII-A; defaults = fabricated chip) ---
  unsigned num_pe = 1;
  unsigned butterfly_radix = 2;
  bool dual_port_compute = true;  // false models II=2 single-port NTT
  bool dma_background = true;     // Section III-F overlap on/off

  [[nodiscard]] double cycle_ns() const noexcept { return 1e3 / freq_mhz; }
  [[nodiscard]] std::size_t max_n() const noexcept {
    return std::size_t{1} << log2_max_n;
  }
};

/// Per-event energies in picojoules, fitted to the silicon power
/// measurements of Table V (GF55 LPE, 1.2 V core).  The power-model test
/// asserts the fit stays within 10% of every Table V row.
struct EnergyTable {
  double static_pj_per_cycle = 12.0;  // clock tree + leakage + control
  double mult_fwd_pj = 48.5;          // 128-bit Barrett multiply (CT dataflow)
  double mult_inv_pj = 29.5;          // same unit, GS dataflow (lower toggling)
  double add_pj = 3.0;
  double sub_pj = 3.0;
  double sram_read_pj = 6.0;          // per 128-bit access
  double sram_write_pj = 6.0;
  double twiddle_read_pj = 6.0;
  double dma_word_pj = 20.0;          // read+write beat of a staged word
  double dma_concurrent_pj = 25.1;    // background staging during compute
};

}  // namespace cofhee::chip
