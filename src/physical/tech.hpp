// Technology model: GF 55nm LPE (the fabrication node) plus the scaling
// factors the paper derives by re-synthesizing the Barrett multiplier in
// the comparison node (Section VII: area / 16.7, critical path / 3.7).
// Constants are calibrated against the published silicon data (Tables IV,
// VIII); they are a substitute for the foundry PDK, which cannot be
// shipped.
#pragma once

namespace cofhee::physical {

struct TechNode {
  const char* name = "GF 55nm LPE";
  double gate_area_um2 = 1.45;        // average placed NAND2-equivalent
  // Bit-cell / overhead constants solved from the published macro areas
  // (Table VIII: 4 SP banks 3.2036 mm^2 over 16 macros, CM0 SRAM 0.4062
  // mm^2 over 4 macros): the narrow 16-bit dual-port macros are markedly
  // less area-efficient per bit, as the paper's 2x-per-port plus periphery
  // discussion implies.
  double sp_bitcell_um2 = 0.753;      // single-port SRAM, incl. array overhead
  double dp_bitcell_um2 = 3.238;      // dual-port 16b x 2096 macros
  double macro_overhead_um2 = 2875;   // decoder/sense-amp/well ring per macro
  double mem_read_ns = 3.1;           // Section III-D: memory read path
  double buffer_delay_ns = 0.055;     // CTS buffer stage (calibrated, Table IX)
  double wire_delay_ns_per_mm = 0.30; // average loaded wire delay
  double core_voltage = 1.2;
  double io_voltage = 3.3;
};

/// Node-to-node normalization used by the Table XI comparison.
struct Scaling {
  double area_divisor = 16.7;   // 55nm -> GF 12nm (Barrett re-synthesis)
  double delay_divisor = 3.7;
};

}  // namespace cofhee::physical
