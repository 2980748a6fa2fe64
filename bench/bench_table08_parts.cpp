// Reproduces paper Table VIII: post-synthesis area and delay of every
// CoFHEE block (GF 55nm), from the structural area model.
#include <cstdio>

#include "eval/report.hpp"
#include "physical/area_model.hpp"

int main() {
  using namespace cofhee;
  // Paper Table VIII values for side-by-side comparison.
  const struct {
    const char* name;
    double area, delay;
  } paper[] = {{"3 DP SRAMs", 5.3506, 4.22}, {"4 SP SRAMs", 3.2036, 4.19},
               {"PE", 0.6394, 5.65},         {"CM0 SRAM", 0.4062, 6.13},
               {"AHB", 0.0747, 5.76},        {"GPCFG", 0.0534, 7.03},
               {"ARM CM0", 0.0354, 5.24},    {"MDMC", 0.0273, 4.16},
               {"SPI", 0.0202, 7.74},        {"DMA", 0.0075, 7.17},
               {"UART", 0.0065, 5.66},       {"GPIO", 0.0035, 6.73},
               {"Others", 0.0063, 0.0}};

  physical::AreaModel am;
  const auto blocks = am.blocks();

  eval::section("Table VIII -- part estimations (area mm^2, delay ns)");
  eval::Table t({"module", "area", "paper", "err", "delay", "paper delay"});
  for (const auto& p : paper) {
    for (const auto& b : blocks) {
      if (b.name == p.name) {
        t.row({b.name, eval::fmt(b.area_mm2, 4), eval::fmt(p.area, 4),
               eval::pct_err(b.area_mm2, p.area), eval::fmt(b.delay_ns, 2),
               eval::fmt(p.delay, 2)});
      }
    }
  }
  t.row({"Total", eval::fmt(am.total_mm2(), 4), "9.8345",
         eval::pct_err(am.total_mm2(), 9.8345), "-", "-"});
  t.print();
  std::puts("Memory areas derive from bit-cell/periphery constants solved from\n"
            "the published macro inventory; logic areas from NAND2-equivalent\n"
            "gate counts fitted to the synthesis report.  Delays\n"
            "are the pre-layout HVT-corner paths the paper reports; they close\n"
            "to 4 ns after the VT migration shown in Table III.");
  return 0;
}
