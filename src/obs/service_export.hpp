// ServiceStats -> MetricsRegistry bridge.
//
// export_service_stats() maps one consistent EvalService::stats() snapshot
// onto registry instruments, so the Prometheus text exposition subsumes
// every ServiceStats counter without dashboards touching service headers.
// Naming convention (docs/ARCHITECTURE.md "Observability"):
//
//   cofhee_service_<counter>_total           service-wide monotonic counts
//   cofhee_service_<span>_seconds            simulated / wall time totals
//   cofhee_service_<row>, cofhee_chip_<row>{chip="C"}
//                                            each driver/chip_counters.hpp
//                                            row: the farm-wide sum and the
//                                            per-chip value
//   cofhee_chip_<gauge>{chip="C"}            ewma_unit_cost_seconds and the
//                                            quarantined 0/1 gauge
//   cofhee_class_<counter>{class="high|normal|low"}
//                                            per-priority-class counts plus
//                                            queue_depth and latency
//                                            quantile gauges
//   cofhee_tenant_<counter>{tenant="T"}      per-tenant counts
//
// Call it right before MetricsRegistry::render() -- it overwrites (set),
// never accumulates, so repeated exports of newer snapshots stay correct.
#pragma once

#include "obs/metrics.hpp"
#include "service/service_stats.hpp"

namespace cofhee::obs {

/// Map `st` onto `reg` (creating instruments on first use; see file
/// comment).
void export_service_stats(const service::ServiceStats& st, MetricsRegistry& reg);

}  // namespace cofhee::obs
