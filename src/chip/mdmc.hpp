// Multiplier Data Mover and Controller (paper Sections III-B, III-G2).
//
// The MDMC decodes each command, generates operand/twiddle addresses every
// cycle, streams data between the SRAM banks and the PE with II = 1, and
// raises the op-done interrupt on completion.  This model executes the
// command's arithmetic bit-exactly against the memory contents while
// charging cycles with the calibrated structural model (asserted against
// Table V by tests/chip/test_mdmc.cpp):
//
//   NTT(n)   = (n/2)*log2(n)*II + stage_overhead*log2(n) + 1
//   iNTT(n)  = NTT(n) + (n + pointwise_fill) + n/dma_words_per_cycle
//   ptwise   = len + pointwise_fill + 1
//   memcpy   = len + pointwise_fill + 1
//
// II is 1 when both ping/pong NTT buffers are dual-port banks and 2
// otherwise (Section III-C: single-port operation at n >= 2^14).
#pragma once

#include <cstdint>

#include "chip/config.hpp"
#include "chip/gpcfg.hpp"
#include "chip/isa.hpp"
#include "chip/pe.hpp"
#include "chip/power.hpp"
#include "chip/sram.hpp"

namespace cofhee::chip {

struct MdmcStats {
  std::uint64_t commands = 0;
  std::uint64_t ntt_ops = 0;
  std::uint64_t intt_ops = 0;
  std::uint64_t pointwise_ops = 0;
  std::uint64_t memcpy_ops = 0;
};

class Mdmc {
 public:
  Mdmc(const ChipConfig& cfg, MemorySystem& mem, Gpcfg& gpcfg, Pe& pe,
       PowerTrace& trace)
      : cfg_(cfg), mem_(mem), gpcfg_(gpcfg), pe_(pe), trace_(trace) {}

  /// Execute one command to completion; returns the cycles consumed.
  std::uint64_t execute(const Instr& in);

  [[nodiscard]] const MdmcStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

 private:
  void refresh_ring();
  [[nodiscard]] std::size_t vec_len(const Instr& in) const;
  [[nodiscard]] unsigned ntt_ii(const Instr& in) const;

  std::uint64_t exec_ntt(const Instr& in, bool inverse);
  std::uint64_t exec_pointwise(const Instr& in);
  std::uint64_t exec_memcpy(const Instr& in, bool bit_reverse);

  ChipConfig cfg_;
  MemorySystem& mem_;
  Gpcfg& gpcfg_;
  Pe& pe_;
  PowerTrace& trace_;
  MdmcStats stats_;
  std::uint64_t ring_version_ = ~std::uint64_t{0};
};

}  // namespace cofhee::chip
