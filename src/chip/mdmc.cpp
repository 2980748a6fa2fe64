#include "chip/mdmc.hpp"

#include <stdexcept>
#include <vector>

#include "nt/primes.hpp"
#include "poly/ntt.hpp"

namespace cofhee::chip {

void Mdmc::refresh_ring() {
  if (ring_version_ != gpcfg_.q_version()) {
    pe_.set_modulus(gpcfg_.q());
    ring_version_ = gpcfg_.q_version();
  }
}

std::size_t Mdmc::vec_len(const Instr& in) const {
  const std::size_t len = in.len != 0 ? in.len : gpcfg_.n();
  if (len == 0 || len > cfg_.bank_words)
    throw std::invalid_argument("Mdmc: bad vector length");
  return len;
}

unsigned Mdmc::ntt_ii(const Instr& in) const {
  // II = 1 requires simultaneous fetch of two coefficients per cycle, i.e.
  // dual-port ping and pong buffers (Section III-A).  Degraded single-port
  // operation (n >= 2^14, or the dual_port_compute=false ablation) halves
  // the butterfly issue rate.
  const bool dp = cfg_.dual_port_compute && mem_.bank(in.x.bank).dual_port() &&
                  mem_.bank(in.dst.bank).dual_port();
  return dp ? 1u : 2u;
}

std::uint64_t Mdmc::execute(const Instr& in) {
  refresh_ring();
  ++stats_.commands;
  switch (in.op) {
    case Opcode::kNtt:
      ++stats_.ntt_ops;
      return exec_ntt(in, /*inverse=*/false);
    case Opcode::kIntt:
      ++stats_.intt_ops;
      return exec_ntt(in, /*inverse=*/true);
    case Opcode::kMemCpy:
      ++stats_.memcpy_ops;
      return exec_memcpy(in, /*bit_reverse=*/false);
    case Opcode::kMemCpyR:
      ++stats_.memcpy_ops;
      return exec_memcpy(in, /*bit_reverse=*/true);
    default:
      ++stats_.pointwise_ops;
      return exec_pointwise(in);
  }
}

std::uint64_t Mdmc::exec_ntt(const Instr& in, bool inverse) {
  const std::size_t n = gpcfg_.n();
  if (in.len != 0 && in.len != n)
    throw std::invalid_argument("Mdmc: NTT length must match the N register");
  if (!nt::is_power_of_two(n)) throw std::invalid_argument("Mdmc: N not a power of 2");
  const unsigned logn = nt::log2_exact(n);
  const unsigned ii = ntt_ii(in);

  Sram& src = mem_.bank(in.x.bank);
  Sram& dst = mem_.bank(in.dst.bank);
  Sram& tw = mem_.bank(Bank::kTw);

  // Fetch the working vector.  The silicon ping-pongs between the two
  // dual-port banks stage by stage; the model computes stages in a local
  // buffer and charges the same per-stage memory traffic, storing the final
  // stage into dst (bank-parity handling is abstracted away -- it does not
  // change cycle counts or results).
  std::vector<u128> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = src.read(in.x.offset + i);

  std::uint64_t cycles = cfg_.cmd_issue_cycles;
  const unsigned radix_speedup = cfg_.num_pe;  // Section VIII-A scaling knob

  if (!inverse) {
    // CT/DIT merged negacyclic forward transform (natural -> bit-reversed),
    // each block's twiddle psi^rev(k) read from the TW bank.
    const auto block = [&](std::size_t j1, std::size_t t, std::size_t k) {
      const u128 s = tw.read(k);
      for (std::size_t j = j1; j < j1 + t; ++j) {
        const auto o = pe_.butterfly_ct(x[j], x[j + t], s);
        x[j] = o.lo;
        x[j + t] = o.hi;
      }
    };
    poly::for_each_ntt_block(n, /*inverse=*/false, block);
  } else {
    // GS/DIF merged inverse transform (bit-reversed -> natural).  The
    // mirror pass streams the ROM through the DMA to derive the inverse
    // twiddles psi^-rev(i) = -psi^(n - rev(i)) (Section VIII-B).
    PowerSegment mirror;
    mirror.cycles = n / cfg_.dma_words_per_cycle / radix_speedup;
    mirror.dma_words = n / cfg_.dma_words_per_cycle;
    mirror.label = "intt-twiddle-mirror";
    trace_.append(mirror);
    cycles += mirror.cycles;
    std::vector<u128> rom(n);
    for (std::size_t i = 0; i < n; ++i) rom[i] = tw.peek(i);
    const std::vector<u128> itw = poly::mirror_twiddles(pe_.ring(), rom);
    const auto block = [&](std::size_t j1, std::size_t t, std::size_t k) {
      const u128 s = itw[k];
      for (std::size_t j = j1; j < j1 + t; ++j) {
        const auto o = pe_.butterfly_gs(x[j], x[j + t], s);
        x[j] = o.lo;
        x[j + t] = o.hi;
      }
    };
    poly::for_each_ntt_block(n, /*inverse=*/true, block);
  }

  // One segment per stage, n/2 butterflies each, then the stage's
  // reconfiguration + pipeline fill/drain.  Background staging of the next
  // polynomial (Section III-F) overlaps the first stage only -- an n-word
  // burst at 8 words/cycle fits well inside one stage's n/2 butterfly
  // window.  That stage is the peak-power window the oscilloscope sees
  // (Table V peak > steady-state butterfly power).
  const std::uint64_t butterflies = n / 2;
  for (unsigned stage = 0; stage < logn; ++stage) {
    PowerSegment seg;
    seg.cycles = butterflies * ii / radix_speedup;
    if (inverse) {
      seg.mult_inv = butterflies;
    } else {
      seg.mult_fwd = butterflies;
    }
    seg.adds = butterflies;
    seg.subs = butterflies;
    seg.sram_reads = 2 * butterflies;
    seg.sram_writes = 2 * butterflies;
    seg.twiddle_reads = butterflies;
    seg.dma_concurrent = cfg_.dma_background && stage == 0;
    seg.label = inverse ? "intt-stage" : "ntt-stage";
    trace_.append(seg);
    cycles += seg.cycles;
    PowerSegment fill;
    fill.cycles = cfg_.stage_overhead;
    fill.label = "stage-overhead";
    trace_.append(fill);
    cycles += fill.cycles;
  }

  if (inverse) {
    // Trailing CMODMUL by INV_POLYDEG (n^-1 mod q).
    const u128 ninv = gpcfg_.inv_polydeg();
    for (auto& c : x) c = pe_.mod_mul(c, ninv);
    PowerSegment scale;
    scale.cycles = (n + cfg_.pointwise_fill) / radix_speedup;
    scale.mult_inv = n;
    scale.sram_reads = n;
    scale.sram_writes = n;
    scale.label = "intt-scale";
    trace_.append(scale);
    cycles += scale.cycles;
  }

  for (std::size_t i = 0; i < n; ++i) dst.write(in.dst.offset + i, x[i]);
  gpcfg_.raise_irq(kIrqOpDone);
  return cycles;
}

std::uint64_t Mdmc::exec_pointwise(const Instr& in) {
  const std::size_t len = vec_len(in);
  Sram& xs = mem_.bank(in.x.bank);
  Sram& ys = mem_.bank(in.y.bank);
  Sram& ds = mem_.bank(in.dst.bank);

  const u128 c = gpcfg_.cmod_const();
  PowerSegment seg;
  seg.cycles = len + cfg_.pointwise_fill;
  seg.sram_writes = len;
  seg.label = std::string(opcode_name(in.op));

  for (std::size_t i = 0; i < len; ++i) {
    const u128 a = xs.read(in.x.offset + i);
    u128 r = 0;
    switch (in.op) {
      case Opcode::kPModAdd:
        r = pe_.mod_add(a, ys.read(in.y.offset + i));
        break;
      case Opcode::kPModSub:
        r = pe_.mod_sub(a, ys.read(in.y.offset + i));
        break;
      case Opcode::kPModMul:
        r = pe_.mod_mul(a, ys.read(in.y.offset + i));
        break;
      case Opcode::kPModSqr:
        r = pe_.mod_mul(a, a);
        break;
      case Opcode::kCModMul:
        r = pe_.mod_mul(a, c);
        break;
      case Opcode::kPMul:
        r = pe_.mul_plain(a, ys.read(in.y.offset + i));
        break;
      default:
        throw std::logic_error("Mdmc: not a pointwise op");
    }
    ds.write(in.dst.offset + i, r);
  }

  switch (in.op) {
    case Opcode::kPModAdd:
      seg.adds = len;
      seg.sram_reads = 2 * len;
      break;
    case Opcode::kPModSub:
      seg.subs = len;
      seg.sram_reads = 2 * len;
      break;
    case Opcode::kPModMul:
    case Opcode::kPMul:
      seg.mult_fwd = len;
      seg.sram_reads = 2 * len;
      break;
    case Opcode::kPModSqr:
      seg.mult_fwd = len;
      seg.sram_reads = len;
      break;
    case Opcode::kCModMul:
      seg.mult_inv = len;  // constant operand: low toggling datapath
      seg.sram_reads = len;
      break;
    default:
      break;
  }
  trace_.append(seg);
  gpcfg_.raise_irq(kIrqOpDone);
  return seg.cycles + cfg_.cmd_issue_cycles;
}

std::uint64_t Mdmc::exec_memcpy(const Instr& in, bool bit_reverse) {
  const std::size_t len = vec_len(in);
  if (!nt::is_power_of_two(len) && bit_reverse)
    throw std::invalid_argument("Mdmc: MEMCPYR length must be a power of 2");
  Sram& src = mem_.bank(in.x.bank);
  Sram& dst = mem_.bank(in.dst.bank);
  const unsigned logl = bit_reverse ? nt::log2_exact(len) : 0;
  for (std::size_t i = 0; i < len; ++i) {
    const std::size_t di = bit_reverse ? nt::bit_reverse(i, logl) : i;
    dst.write(in.dst.offset + di, src.read(in.x.offset + i));
  }
  PowerSegment seg;
  seg.cycles = len + cfg_.pointwise_fill;
  seg.sram_reads = len;
  seg.sram_writes = len;
  seg.label = bit_reverse ? "MEMCPYR" : "MEMCPY";
  trace_.append(seg);
  gpcfg_.raise_irq(kIrqOpDone);
  return seg.cycles + cfg_.cmd_issue_cycles;
}

}  // namespace cofhee::chip
