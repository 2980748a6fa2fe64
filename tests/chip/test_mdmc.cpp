// MDMC correctness and the Table V cycle calibration.
#include "chip/chip.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "nt/primes.hpp"
#include "poly/merged_ntt.hpp"
#include "poly/sampler.hpp"

namespace cofhee::chip {
namespace {

using nt::Barrett128;
using poly::MergedNtt128;

struct ChipFixture {
  CofheeChip chip;
  u128 q;
  std::size_t n;
  Barrett128 ring;
  u128 psi;
  MergedNtt128 eng;

  explicit ChipFixture(std::size_t n_, unsigned bits = 109)
      : q(nt::find_ntt_prime_u128(bits, n_)), n(n_), ring(q),
        psi(nt::primitive_2nth_root(q, n_)), eng(ring, n_, psi) {
    chip.gpcfg().set_q(q);
    chip.gpcfg().set_n(n);
    chip.gpcfg().set_inv_polydeg(eng.n_inv());
    chip.load_coeffs(Bank::kTw, 0, poly::twiddle_rom(ring, n, psi));
  }

  std::vector<u128> random_poly(std::uint64_t seed) {
    poly::Rng rng(seed);
    return poly::sample_uniform128(rng, n, q);
  }
};

TEST(Mdmc, NttMatchesReferenceEngine) {
  ChipFixture f(256);
  const auto x = f.random_poly(1);
  f.chip.load_coeffs(Bank::kDp0, 0, x);
  f.chip.direct_execute({Opcode::kNtt, {Bank::kDp0, 0}, {}, {Bank::kDp1, 0}, 0, 0});
  auto expect = x;
  f.eng.forward(expect);
  EXPECT_EQ(f.chip.read_coeffs(Bank::kDp1, 0, f.n), expect);
}

TEST(Mdmc, InttInvertsNtt) {
  ChipFixture f(512);
  const auto x = f.random_poly(2);
  f.chip.load_coeffs(Bank::kDp0, 0, x);
  f.chip.direct_execute({Opcode::kNtt, {Bank::kDp0, 0}, {}, {Bank::kDp1, 0}, 0, 0});
  f.chip.direct_execute({Opcode::kIntt, {Bank::kDp1, 0}, {}, {Bank::kDp0, 0}, 0, 0});
  EXPECT_EQ(f.chip.read_coeffs(Bank::kDp0, 0, f.n), x);
}

TEST(Mdmc, NttHadamardInttIsNegacyclicProduct) {
  // The full Algorithm 2 flow on chip equals the schoolbook negacyclic
  // product -- the end-to-end functional contract of the co-processor.
  ChipFixture f(128);
  const auto a = f.random_poly(3);
  const auto b = f.random_poly(4);
  f.chip.load_coeffs(Bank::kDp0, 0, a);
  f.chip.direct_execute({Opcode::kNtt, {Bank::kDp0, 0}, {}, {Bank::kDp1, 0}, 0, 0});
  f.chip.load_coeffs(Bank::kDp0, 0, b);
  f.chip.direct_execute({Opcode::kNtt, {Bank::kDp0, 0}, {}, {Bank::kDp2, 0}, 0, 0});
  f.chip.direct_execute({Opcode::kPModMul, {Bank::kDp1, 0}, {Bank::kDp2, 0},
                         {Bank::kDp0, 0}, static_cast<std::uint32_t>(f.n), 0});
  f.chip.direct_execute({Opcode::kIntt, {Bank::kDp0, 0}, {}, {Bank::kDp1, 0}, 0, 0});
  EXPECT_EQ(f.chip.read_coeffs(Bank::kDp1, 0, f.n),
            poly::schoolbook_negacyclic_mul(f.ring, a, b));
}

TEST(Mdmc, PointwiseOps) {
  ChipFixture f(64);
  const auto a = f.random_poly(5);
  const auto b = f.random_poly(6);
  f.chip.load_coeffs(Bank::kSp0, 0, a);
  f.chip.load_coeffs(Bank::kSp1, 0, b);
  const auto len = static_cast<std::uint32_t>(f.n);

  f.chip.direct_execute({Opcode::kPModAdd, {Bank::kSp0, 0}, {Bank::kSp1, 0},
                         {Bank::kSp2, 0}, len, 0});
  EXPECT_EQ(f.chip.read_coeffs(Bank::kSp2, 0, f.n), poly::pointwise_add(f.ring, a, b));

  f.chip.direct_execute({Opcode::kPModSub, {Bank::kSp0, 0}, {Bank::kSp1, 0},
                         {Bank::kSp2, 0}, len, 0});
  EXPECT_EQ(f.chip.read_coeffs(Bank::kSp2, 0, f.n), poly::pointwise_sub(f.ring, a, b));

  f.chip.direct_execute({Opcode::kPModMul, {Bank::kSp0, 0}, {Bank::kSp1, 0},
                         {Bank::kSp2, 0}, len, 0});
  EXPECT_EQ(f.chip.read_coeffs(Bank::kSp2, 0, f.n), poly::pointwise_mul(f.ring, a, b));

  f.chip.direct_execute({Opcode::kPModSqr, {Bank::kSp0, 0}, {}, {Bank::kSp2, 0},
                         len, 0});
  EXPECT_EQ(f.chip.read_coeffs(Bank::kSp2, 0, f.n), poly::pointwise_mul(f.ring, a, a));

  const u128 c = 123456789;
  f.chip.gpcfg().set_cmod_const(c);
  f.chip.direct_execute({Opcode::kCModMul, {Bank::kSp0, 0}, {}, {Bank::kSp2, 0},
                         len, 0});
  EXPECT_EQ(f.chip.read_coeffs(Bank::kSp2, 0, f.n), poly::scalar_mul(f.ring, a, c));
}

TEST(Mdmc, MemCpyAndBitReverse) {
  ChipFixture f(64);
  const auto a = f.random_poly(7);
  f.chip.load_coeffs(Bank::kSp0, 0, a);
  const auto len = static_cast<std::uint32_t>(f.n);
  f.chip.direct_execute({Opcode::kMemCpy, {Bank::kSp0, 0}, {}, {Bank::kSp1, 0}, len, 0});
  EXPECT_EQ(f.chip.read_coeffs(Bank::kSp1, 0, f.n), a);
  f.chip.direct_execute({Opcode::kMemCpyR, {Bank::kSp0, 0}, {}, {Bank::kSp2, 0}, len, 0});
  const auto rev = nt::bit_reverse_table(f.n);
  auto expect = a;
  for (std::size_t i = 0; i < f.n; ++i) expect[rev[i]] = a[i];
  EXPECT_EQ(f.chip.read_coeffs(Bank::kSp2, 0, f.n), expect);
}

// ---- Table V cycle calibration: these are the silicon measurements. ----

struct CyclesCase {
  std::size_t n;
  std::uint64_t ntt, intt;
};

class TableVCycles : public ::testing::TestWithParam<CyclesCase> {};

TEST_P(TableVCycles, NttAndInttMatchSilicon) {
  const auto [n, ntt_cc, intt_cc] = GetParam();
  ChipFixture f(n, 60);  // modulus width does not affect cycle counts
  const auto x = f.random_poly(8);
  f.chip.load_coeffs(Bank::kDp0, 0, x);
  const auto c1 =
      f.chip.direct_execute({Opcode::kNtt, {Bank::kDp0, 0}, {}, {Bank::kDp1, 0}, 0, 0});
  EXPECT_EQ(c1, ntt_cc);
  const auto c2 = f.chip.direct_execute(
      {Opcode::kIntt, {Bank::kDp1, 0}, {}, {Bank::kDp0, 0}, 0, 0});
  EXPECT_EQ(c2, intt_cc);
}

INSTANTIATE_TEST_SUITE_P(PaperTableV, TableVCycles,
                         ::testing::Values(CyclesCase{4096, 24841, 29468},
                                           CyclesCase{8192, 53535, 62770}));

// ---- Transform accounting in closed form. ----
//
// Everything one NTT and one iNTT charge, pinned against the cycle model in
// chip/mdmc.hpp: returned cycles, MdmcStats, PeCounters, per-bank SRAM
// traffic and the power segments.  The forward transform reads each of the
// n - 1 twiddles it uses from the TW bank once; the inverse derives its
// twiddles from the ROM by the (uncounted) mirror pass.

struct Traffic {
  std::uint64_t reads = 0, writes = 0;
  bool operator==(const Traffic&) const = default;
};

std::array<Traffic, kNumBanks> bank_traffic(CofheeChip& chip) {
  std::array<Traffic, kNumBanks> t{};
  for (std::size_t b = 0; b < kNumBanks; ++b) {
    const Sram& s = chip.mem().bank(static_cast<Bank>(b));
    t[b] = {s.reads(), s.writes()};
  }
  return t;
}

void expect_stage(const PowerSegment& s, std::size_t n, bool inverse, bool first) {
  EXPECT_EQ(s.label, inverse ? "intt-stage" : "ntt-stage");
  EXPECT_EQ(s.cycles, n / 2);
  EXPECT_EQ(s.mult_fwd, inverse ? 0 : n / 2);
  EXPECT_EQ(s.mult_inv, inverse ? n / 2 : 0);
  EXPECT_EQ(s.adds, n / 2);
  EXPECT_EQ(s.subs, n / 2);
  EXPECT_EQ(s.sram_reads, n);
  EXPECT_EQ(s.sram_writes, n);
  EXPECT_EQ(s.twiddle_reads, n / 2);
  EXPECT_EQ(s.dma_words, 0u);
  EXPECT_EQ(s.dma_concurrent, first);
}

void expect_overhead(const PowerSegment& s, const ChipConfig& cfg) {
  EXPECT_EQ(s.label, "stage-overhead");
  EXPECT_EQ(s.cycles, cfg.stage_overhead);
  EXPECT_EQ(s.mult_fwd + s.mult_inv + s.adds + s.subs, 0u);
  EXPECT_EQ(s.sram_reads + s.sram_writes + s.twiddle_reads + s.dma_words, 0u);
  EXPECT_FALSE(s.dma_concurrent);
}

class TransformAccounting : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TransformAccounting, NttAndInttMatchClosedForm) {
  const std::size_t n = GetParam();
  ChipFixture f(n, 60);
  const ChipConfig& cfg = f.chip.config();
  ASSERT_EQ(cfg.num_pe, 1u);
  ASSERT_TRUE(cfg.dma_background);
  const unsigned logn = nt::log2_exact(n);
  const std::uint64_t bfly = n / 2 * logn;
  const auto dp0 = static_cast<std::size_t>(Bank::kDp0);
  const auto dp1 = static_cast<std::size_t>(Bank::kDp1);
  const auto tw = static_cast<std::size_t>(Bank::kTw);
  f.chip.load_coeffs(Bank::kDp0, 0, f.random_poly(12));

  // Forward: DP0 -> DP1, dual-port banks (II = 1).
  f.chip.reset_metrics();
  const auto ntt_cycles =
      f.chip.direct_execute({Opcode::kNtt, {Bank::kDp0, 0}, {}, {Bank::kDp1, 0}, 0, 0});
  EXPECT_EQ(ntt_cycles, cfg.cmd_issue_cycles + logn * (n / 2 + cfg.stage_overhead));
  {
    const auto& st = f.chip.mdmc().stats();
    EXPECT_EQ(st.commands, 1u);
    EXPECT_EQ(st.ntt_ops, 1u);
    EXPECT_EQ(st.intt_ops + st.pointwise_ops + st.memcpy_ops, 0u);
    const auto& pe = f.chip.pe().counters();
    EXPECT_EQ(pe.butterflies, bfly);
    EXPECT_EQ(pe.mults, bfly);
    EXPECT_EQ(pe.adds, bfly);
    EXPECT_EQ(pe.subs, bfly);
    std::array<Traffic, kNumBanks> expect{};
    expect[dp0].reads = n;
    expect[dp1].writes = n;
    expect[tw].reads = n - 1;
    EXPECT_EQ(bank_traffic(f.chip), expect);
    const auto& segs = f.chip.power_trace().segments();
    ASSERT_EQ(segs.size(), 2u * logn);
    std::uint64_t sum = 0;
    for (unsigned s = 0; s < logn; ++s) {
      expect_stage(segs[2 * s], n, /*inverse=*/false, /*first=*/s == 0);
      expect_overhead(segs[2 * s + 1], cfg);
    }
    for (const auto& s : segs) sum += s.cycles;
    EXPECT_EQ(sum + cfg.cmd_issue_cycles, ntt_cycles);
  }

  // Inverse: DP1 -> DP0.
  f.chip.reset_metrics();
  const auto intt_cycles =
      f.chip.direct_execute({Opcode::kIntt, {Bank::kDp1, 0}, {}, {Bank::kDp0, 0}, 0, 0});
  const std::uint64_t mirror = n / cfg.dma_words_per_cycle;
  const std::uint64_t scale = n + cfg.pointwise_fill;
  EXPECT_EQ(intt_cycles, cfg.cmd_issue_cycles + mirror +
                             logn * (n / 2 + cfg.stage_overhead) + scale);
  {
    const auto& st = f.chip.mdmc().stats();
    EXPECT_EQ(st.commands, 1u);
    EXPECT_EQ(st.intt_ops, 1u);
    EXPECT_EQ(st.ntt_ops + st.pointwise_ops + st.memcpy_ops, 0u);
    const auto& pe = f.chip.pe().counters();
    EXPECT_EQ(pe.butterflies, bfly);
    EXPECT_EQ(pe.mults, bfly + n);  // butterflies + the n^-1 scaling pass
    EXPECT_EQ(pe.adds, bfly);
    EXPECT_EQ(pe.subs, bfly);
    std::array<Traffic, kNumBanks> expect{};
    expect[dp1].reads = n;
    expect[dp0].writes = n;
    EXPECT_EQ(bank_traffic(f.chip), expect);
    const auto& segs = f.chip.power_trace().segments();
    ASSERT_EQ(segs.size(), 2u * logn + 2);
    EXPECT_EQ(segs.front().label, "intt-twiddle-mirror");
    EXPECT_EQ(segs.front().cycles, mirror);
    EXPECT_EQ(segs.front().dma_words, mirror);
    EXPECT_FALSE(segs.front().dma_concurrent);
    for (unsigned s = 0; s < logn; ++s) {
      expect_stage(segs[1 + 2 * s], n, /*inverse=*/true, /*first=*/s == 0);
      expect_overhead(segs[2 + 2 * s], cfg);
    }
    const auto& sc = segs.back();
    EXPECT_EQ(sc.label, "intt-scale");
    EXPECT_EQ(sc.cycles, scale);
    EXPECT_EQ(sc.mult_inv, n);
    EXPECT_EQ(sc.mult_fwd + sc.adds + sc.subs + sc.twiddle_reads, 0u);
    EXPECT_EQ(sc.sram_reads, n);
    EXPECT_EQ(sc.sram_writes, n);
    EXPECT_FALSE(sc.dma_concurrent);
    std::uint64_t sum = 0;
    for (const auto& s : segs) sum += s.cycles;
    EXPECT_EQ(sum + cfg.cmd_issue_cycles, intt_cycles);
  }
  // The pair still round-trips.
  EXPECT_EQ(f.chip.read_coeffs(Bank::kDp0, 0, n), f.random_poly(12));
}

INSTANTIATE_TEST_SUITE_P(Rings, TransformAccounting, ::testing::Values(256, 4096),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

TEST(Mdmc, SinglePortNttHasDoubleII) {
  // Section III-C: n >= 2^14 must run from single-port memories at II = 2.
  ChipFixture f(256, 60);
  const auto x = f.random_poly(9);
  f.chip.load_coeffs(Bank::kDp0, 0, x);
  const auto dp = f.chip.direct_execute(
      {Opcode::kNtt, {Bank::kDp0, 0}, {}, {Bank::kDp1, 0}, 0, 0});
  f.chip.load_coeffs(Bank::kSp0, 0, x);
  const auto sp = f.chip.direct_execute(
      {Opcode::kNtt, {Bank::kSp0, 0}, {}, {Bank::kSp1, 0}, 0, 0});
  const unsigned logn = nt::log2_exact(f.n);
  EXPECT_EQ(dp, f.n / 2 * logn + 22 * logn + 1);
  EXPECT_EQ(sp, f.n * logn + 22 * logn + 1);  // butterflies at II = 2
  // Same functional result either way.
  EXPECT_EQ(f.chip.read_coeffs(Bank::kSp1, 0, f.n),
            f.chip.read_coeffs(Bank::kDp1, 0, f.n));
}

TEST(Mdmc, RejectsBadLengths) {
  ChipFixture f(64);
  EXPECT_THROW(f.chip.direct_execute({Opcode::kNtt, {Bank::kDp0, 0}, {}, {Bank::kDp1, 0},
                                      32, 0}),
               std::invalid_argument);
  EXPECT_THROW(f.chip.direct_execute({Opcode::kPModAdd, {Bank::kSp0, 0}, {Bank::kSp1, 0},
                                      {Bank::kSp2, 0}, 1u << 20, 0}),
               std::invalid_argument);
}

TEST(Mdmc, OpDoneIrqRaised) {
  ChipFixture f(64);
  f.chip.gpcfg().clear_irq(~0u);
  const auto a = f.random_poly(10);
  f.chip.load_coeffs(Bank::kSp0, 0, a);
  f.chip.direct_execute({Opcode::kMemCpy, {Bank::kSp0, 0}, {}, {Bank::kSp1, 0},
                         static_cast<std::uint32_t>(f.n), 0});
  EXPECT_TRUE(f.chip.gpcfg().irq_pending(kIrqOpDone));
}

TEST(CmdFifoTest, DepthAndOrderAndEmptyIrq) {
  ChipFixture f(64);
  const auto a = f.random_poly(11);
  f.chip.load_coeffs(Bank::kSp0, 0, a);
  const auto len = static_cast<std::uint32_t>(f.n);
  // Chain: SP0 -> SP1 -> SP2 -> SP3; order matters.
  f.chip.fifo().push({Opcode::kMemCpy, {Bank::kSp0, 0}, {}, {Bank::kSp1, 0}, len, 0});
  f.chip.fifo().push({Opcode::kMemCpy, {Bank::kSp1, 0}, {}, {Bank::kSp2, 0}, len, 0});
  f.chip.fifo().push({Opcode::kMemCpy, {Bank::kSp2, 0}, {}, {Bank::kSp3, 0}, len, 0});
  EXPECT_EQ(f.chip.fifo().size(), 3u);
  f.chip.run_fifo();
  EXPECT_EQ(f.chip.read_coeffs(Bank::kSp3, 0, f.n), a);
  EXPECT_TRUE(f.chip.gpcfg().irq_pending(kIrqFifoEmpty));
  EXPECT_EQ(f.chip.fifo().depth(), 32u);  // Section III-I
}

TEST(CmdFifoTest, OverflowThrows) {
  ChipFixture f(64);
  for (int i = 0; i < 32; ++i)
    f.chip.fifo().push({Opcode::kMemCpy, {Bank::kSp0, 0}, {}, {Bank::kSp1, 0}, 8, 0});
  EXPECT_THROW(
      f.chip.fifo().push({Opcode::kMemCpy, {Bank::kSp0, 0}, {}, {Bank::kSp1, 0}, 8, 0}),
      std::overflow_error);
}

TEST(ChipTop, BusMappedBankAccessMatchesBackdoor) {
  ChipFixture f(64);
  auto& bus = f.chip.bus();
  const u128 v = (static_cast<u128>(0x1122334455667788ull) << 64) | 0x99AABBCCDDEEFF00ull;
  bus.write128(BusMaster::kHostSpi, MemoryMap::kDataSramBase, v);
  EXPECT_EQ(f.chip.read_coeffs(Bank::kDp0, 0, 1)[0], v);
  // Dual-port banks respond identically through the port-B address space.
  const u128 back = bus.read128(BusMaster::kHostSpi,
                                MemoryMap::kDataSramBase + MemoryMap::kPortBOffset);
  EXPECT_EQ(back, v);
}

TEST(ChipTop, GpcfgReachableOverBus) {
  ChipFixture f(64);
  const auto sig = f.chip.bus().read32(BusMaster::kHostUart, MemoryMap::kGpcfgBase);
  EXPECT_EQ(sig, kSignatureValue);
}

}  // namespace
}  // namespace cofhee::chip
