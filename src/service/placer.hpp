// Load-aware placement of round work onto a (possibly heterogeneous) chip
// farm.
//
// v1 placement was a blind stride: chip c took work items {c, c+C, ...} of
// every round, which is optimal only when every chip is identical.  With
// per-chip ChipConfigs (different ring capacity, clock, serial link) the
// farm is heterogeneous, and the HEAX line of work shows throughput comes
// from matching work to the unit that serves it cheapest.  The Placer does
// that with the same deterministic cost model ServiceStats accounts in
// (simulated io + compute seconds per chip): every chip carries a modeled
// cost per work item, and greedy least-projected-finish-time assignment
// fills the stage so its makespan -- the busiest chip's seconds, exactly
// what ServiceStats::simulated_seconds() measures afterwards -- stays
// minimal.  The farm's chip stages are barrier-synchronized, so each
// placement starts from idle chips (load 0) unless the caller injects
// carry-over load.  Fast chips absorb proportionally more items; a chip
// whose config cannot serve the ring at all is skipped entirely.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace cofhee::service {

/// Thrown when no chip in the farm can serve a request (e.g. the ring does
/// not fit any chip's bank capacity) -- a typed, clean failure instead of a
/// hang or a generic error.
class FarmCapacityError : public std::invalid_argument {
 public:
  /// Construct with a message, like std::invalid_argument.
  using std::invalid_argument::invalid_argument;
};

/// How round work is mapped onto chips.
enum class Placement : std::uint8_t {
  /// Blind stride over the eligible chips.  Test oracle: the v1 reference
  /// the heterogeneous-farm tests and bench_service_throughput compare
  /// load-aware placement against.
  kRoundRobin = 0,
  /// Greedy least-projected-finish-time over the per-chip cost model
  /// (scheduler v2, the default).
  kLoadAware = 1,
};

/// One chip's standing in a placement decision.
struct ChipScore {
  /// False when this chip's config cannot serve the ring (it is skipped).
  bool eligible = false;
  /// Simulated seconds (io + compute) already committed to this chip
  /// within the placement horizon.  The service passes 0 (its stages are
  /// barrier-synchronized, so every chip starts a stage idle); the greedy
  /// pass accumulates projected load here as it assigns.
  double load = 0;
  /// Modeled simulated seconds one work item costs on this chip (link rate
  /// + cycle model estimate; only the ranking across chips matters).
  double unit_cost = 0;
};

/// Stateless assignment of uniform work items onto scored chips.
class Placer {
 public:
  /// Assign `items` uniform work items; returns item index -> chip index.
  /// Ineligible chips receive nothing.  Deterministic: ties break toward
  /// the lower chip index.  Throws FarmCapacityError when no chip is
  /// eligible.
  static std::vector<std::size_t> assign(std::vector<ChipScore> chips,
                                         std::size_t items, Placement policy);
};

}  // namespace cofhee::service
