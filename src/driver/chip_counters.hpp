// The chip counter schema: one table row per counter.
//
// A COFHEE_CHIP_COUNTERS row gives a counter's type, member, Prometheus
// family suffix and help text (unit and clock).  It is the counter's only
// declaration: it yields the member of ChipCounters -- the base of
// driver::ChipMulReport (one session), service::ChipStats (one chip) and
// service::ServiceStats (farm-wide sums over per_chip) -- their +=, the
// per-phase delta of HostDriver::transport(), and the families
// cofhee_chip_<suffix>{chip="N"} and cofhee_service_<suffix> rendered by
// obs::export_service_stats.  Adding a counter means adding a row.
//
// Who fills a row: the driver phases fill the link, key and compute-cycle
// rows of a ChipMulReport (HostDriver tallies the three link-optimization
// rows itself); the service closes a session with sessions, requests,
// tower_runs, relin_tower_runs, compute_seconds (from chip_ms) and
// busy_wall_seconds, and bumps placements and the healing rows (faults,
// quarantines, readmissions, probes) on the chip's ChipStats.
#pragma once

#include <cstdint>

// X(type, member, family suffix, help)
#define COFHEE_CHIP_COUNTERS(X)                                                    \
  X(std::uint64_t, sessions, "sessions_total",                                     \
    "Chip sessions: continuous occupancies of a chip by one round's work. Count.") \
  X(std::uint64_t, placements, "placements_total",                                 \
    "Work items placed on the chip: whole requests under kBatchPerChip, tower "    \
    "shards under kShardTowers. Count.")                                           \
  X(std::uint64_t, requests, "requests_total",                                     \
    "Requests the chip's sessions served; a tower-sharded request counts on "      \
    "every chip serving one of its towers. Count.")                                \
  X(std::uint64_t, tower_runs, "tower_runs_total",                                 \
    "Algorithm-3 ciphertext-tensor runs, one per (request, extended tower). "      \
    "Count.")                                                                      \
  X(std::uint64_t, relin_tower_runs, "relin_tower_runs_total",                     \
    "Key-switch tower runs, one per (request, Q tower). Count.")                   \
  X(std::uint64_t, ks_products, "ks_products_total",                               \
    "Algorithm-2 key-switch PolyMuls. Count.")                                     \
  X(std::uint64_t, key_uploads, "key_uploads_total",                               \
    "Relin-key tower uploads paid over the serial link. Count.")                   \
  X(std::uint64_t, key_cache_hits, "key_cache_hits_total",                         \
    "Relin-key tower uploads skipped because the key was resident in SP1 "         \
    "(batch-aware key cache). Count.")                                             \
  X(std::uint64_t, ring_configs, "ring_configs_total",                             \
    "Ring configurations, one per tower a session visits (twiddle-ROM cache "      \
    "hits included). Count.")                                                      \
  X(std::uint64_t, sram_reuses, "sram_reuses_total",                               \
    "Operand uploads replaced by on-chip DMA copies (squaring scratch-reuse "      \
    "hint). Count.")                                                               \
  X(std::uint64_t, batched_writes, "batched_writes_total",                         \
    "Register writes carried inside coalesced burst frames (link batching). "      \
    "Count.")                                                                      \
  X(std::uint64_t, twiddle_cache_hits, "twiddle_cache_hits_total",                 \
    "Timed ring configurations skipped because the twiddle ROM already held the "  \
    "ring. Count.")                                                                \
  X(std::uint64_t, key_bytes_saved, "key_bytes_saved_total",                       \
    "Wire bytes saved by shipping relin-key a towers as seed frames. Bytes.")      \
  X(std::uint64_t, faults, "faults_total",                                         \
    "Typed chip/link faults the chip's sessions or probes surfaced. Count.")       \
  X(std::uint64_t, quarantines, "quarantines_total",                               \
    "Times the chip was quarantined after consecutive faults. Count.")             \
  X(std::uint64_t, readmissions, "readmissions_total",                             \
    "Times a passing health probe re-admitted the chip. Count.")                   \
  X(std::uint64_t, probes, "probes_total",                                         \
    "Health probes sent to the chip while quarantined. Count.")                    \
  X(std::uint64_t, chip_cycles, "cycles_total",                                    \
    "PE cycles at the configured clock. Cycles (simulated).")                      \
  X(double, io_seconds, "io_seconds_total",                                        \
    "Serial-link transport: register writes, twiddle preload, polynomial "         \
    "upload and readback. Seconds (simulated).")                                   \
  X(double, compute_seconds, "compute_seconds_total",                              \
    "Chip compute: chip_cycles at the modeled clock. Seconds (simulated).")        \
  X(double, busy_wall_seconds, "busy_wall_seconds_total",                          \
    "Host time spent inside the chip's sessions. Seconds (wall).")

namespace cofhee::driver {

/// One zero-initialized member per COFHEE_CHIP_COUNTERS row.
struct ChipCounters {
#define COFHEE_DECLARE_COUNTER(type, member, family, help) type member = 0;
  COFHEE_CHIP_COUNTERS(COFHEE_DECLARE_COUNTER)
#undef COFHEE_DECLARE_COUNTER

  /// Call f(family suffix, help, member pointer) once per row, in table
  /// order.
  template <typename F>
  static void for_each_counter(F&& f) {
#define COFHEE_VISIT_COUNTER(type, member, family, help) \
  f(family, help, &ChipCounters::member);
    COFHEE_CHIP_COUNTERS(COFHEE_VISIT_COUNTER)
#undef COFHEE_VISIT_COUNTER
  }

  /// Row-wise sum.
  ChipCounters& operator+=(const ChipCounters& o) {
    for_each_counter([&](const char*, const char*, auto m) { this->*m += o.*m; });
    return *this;
  }
};

}  // namespace cofhee::driver
