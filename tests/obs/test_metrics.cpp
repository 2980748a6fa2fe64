// obs::MetricsRegistry unit battery: histogram bucket exactness against a
// sorted reference, lock-free concurrency, the Prometheus text exposition
// shape, and the ServiceStats -> registry export mapping.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "driver/chip_counters.hpp"
#include "obs/service_export.hpp"
#include "service/request_queue.hpp"
#include "service/service_stats.hpp"

namespace cofhee::obs {
namespace {

TEST(Histogram, RejectsBadBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(Histogram, BucketCountsMatchSortedReference) {
  // Deterministic sample set spanning below, on and above every bound;
  // the histogram's raw per-bucket counts must equal what brute-force
  // classification of the sorted samples yields.
  const std::vector<double> bounds = {0.001, 0.01, 0.1, 1.0, 10.0};
  Histogram h(bounds);
  std::mt19937_64 rng(20230907);
  std::uniform_real_distribution<double> mag(-4.0, 2.0);
  std::vector<double> samples;
  for (int i = 0; i < 10000; ++i) samples.push_back(std::pow(10.0, mag(rng)));
  for (double b : bounds) samples.push_back(b);  // exactly-on-bound samples
  double sum = 0;
  for (double v : samples) {
    h.observe(v);
    sum += v;
  }

  std::vector<std::uint64_t> want(bounds.size() + 1, 0);
  for (double v : samples) {
    std::size_t i = 0;
    while (i < bounds.size() && v > bounds[i]) ++i;  // le: inclusive upper
    ++want[i];
  }
  for (std::size_t i = 0; i <= bounds.size(); ++i)
    EXPECT_EQ(h.bucket_count(i), want[i]) << "bucket " << i;
  EXPECT_EQ(h.count(), samples.size());
  EXPECT_NEAR(h.sum(), sum, 1e-9 * std::abs(sum));
}

TEST(Histogram, ConcurrentObservesLoseNothing) {
  Histogram h({1.0, 2.0, 3.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i)
        h.observe(static_cast<double>((t + i) % 4) + 0.5);
    });
  for (auto& th : ts) th.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i <= 3; ++i) total += h.bucket_count(i);
  EXPECT_EQ(total, h.count());
}

TEST(MetricsRegistry, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("cofhee_x_total", "x");
  EXPECT_THROW(reg.gauge("cofhee_x_total", "x"), std::logic_error);
  EXPECT_THROW(reg.histogram("cofhee_x_total", "x", {1.0}), std::logic_error);
}

TEST(MetricsRegistry, InstrumentsAreStableAndLabeled) {
  MetricsRegistry reg;
  Counter& a = reg.counter("cofhee_ops_total", "ops", {{"chip", "0"}});
  Counter& b = reg.counter("cofhee_ops_total", "ops", {{"chip", "1"}});
  Counter& a2 = reg.counter("cofhee_ops_total", "ops", {{"chip", "0"}});
  EXPECT_EQ(&a, &a2);
  EXPECT_NE(&a, &b);
  a.add(2);
  b.inc();
  EXPECT_DOUBLE_EQ(a.value(), 2.0);
  EXPECT_DOUBLE_EQ(b.value(), 1.0);
}

TEST(MetricsRegistry, RenderEmitsPrometheusTextFormat) {
  MetricsRegistry reg;
  reg.counter("cofhee_requests_total", "Requests accepted.").set(42);
  reg.gauge("cofhee_queue_depth", "Queue depth.").set(3);
  Histogram& h = reg.histogram("cofhee_latency_seconds", "Latency.",
                               {0.1, 1.0}, {{"class", "normal"}});
  h.observe(0.05);
  h.observe(0.5);
  h.observe(5.0);
  const std::string text = reg.render_text();

  EXPECT_NE(text.find("# HELP cofhee_requests_total Requests accepted.\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE cofhee_requests_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("cofhee_requests_total 42"), std::string::npos);
  EXPECT_NE(text.find("# TYPE cofhee_queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE cofhee_latency_seconds histogram\n"),
            std::string::npos);
  // Buckets are CUMULATIVE in the exposition and close with +Inf == count.
  EXPECT_NE(text.find("cofhee_latency_seconds_bucket{class=\"normal\",le=\"0.1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("cofhee_latency_seconds_bucket{class=\"normal\",le=\"1\"} 2"),
            std::string::npos);
  EXPECT_NE(
      text.find("cofhee_latency_seconds_bucket{class=\"normal\",le=\"+Inf\"} 3"),
      std::string::npos);
  EXPECT_NE(text.find("cofhee_latency_seconds_count{class=\"normal\"} 3"),
            std::string::npos);
  // Families render sorted by name: latency < queue_depth < requests.
  EXPECT_LT(text.find("cofhee_latency_seconds"), text.find("cofhee_queue_depth"));
  EXPECT_LT(text.find("cofhee_queue_depth"), text.find("cofhee_requests_total"));
}

TEST(ServiceExport, MapsStatsOntoRegistry) {
  service::ServiceStats st;
  st.submitted = 7;
  st.completed = 6;
  st.failed = 1;
  st.io_seconds = 1.25;
  st.compute_seconds = 0.5;
  st.queue_depth = 2;
  st.per_chip.resize(2);
  st.per_chip[0].ewma_unit_cost = 0.125;
  st.per_chip[1].quarantined = true;
  st.per_chip[1].faults = 3;
  st.per_class.resize(service::kNumPriorities);
  st.per_class[0].submitted = 4;  // high
  st.per_class[0].queued = 2;
  st.per_tenant.push_back({});
  st.per_tenant[0].tenant = 9;
  st.per_tenant[0].weight = 2;
  st.per_tenant[0].submitted = 7;

  MetricsRegistry reg;
  export_service_stats(st, reg);
  const std::string text = reg.render_text();
  EXPECT_NE(text.find("cofhee_service_requests_submitted_total 7"),
            std::string::npos);
  EXPECT_NE(text.find("cofhee_service_io_seconds_total 1.25"), std::string::npos);
  EXPECT_NE(text.find("cofhee_chip_ewma_unit_cost_seconds{chip=\"0\"} 0.125"),
            std::string::npos);
  EXPECT_NE(text.find("cofhee_chip_quarantined{chip=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("cofhee_chip_faults_total{chip=\"1\"} 3"), std::string::npos);
  EXPECT_NE(text.find("cofhee_class_submitted_total{class=\"high\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("cofhee_class_queue_depth{class=\"high\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("cofhee_tenant_weight{tenant=\"9\"} 2"), std::string::npos);

  // Re-export after the counters moved: set() semantics overwrite, so the
  // registry tracks the latest snapshot instead of double counting.
  st.submitted = 9;
  export_service_stats(st, reg);
  const std::string text2 = reg.render_text();
  EXPECT_NE(text2.find("cofhee_service_requests_submitted_total 9"),
            std::string::npos);
  EXPECT_EQ(text2.find("cofhee_service_requests_submitted_total 7"),
            std::string::npos);
}

// The pinned cofhee_service_* and cofhee_chip_* families: name, type and
// the stats field each one shows.  Dashboards key on these names, so none
// may disappear or change kind, labels or meaning.
template <typename Stats>
struct GoldenFamily {
  const char* name;
  const char* type;
  double (*value)(const Stats&);
};
#define COFHEE_GOLDEN(Stats, name, type, field)                                   \
  GoldenFamily<service::Stats> {                                                  \
    name, type, [](const service::Stats& s) { return static_cast<double>(s.field); } \
  }
const GoldenFamily<service::ServiceStats> kServiceFamilies[] = {
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_active_seconds", "gauge", active_seconds),
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_batched_writes_total", "counter",
                  batched_writes),
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_compute_seconds_total", "counter",
                  compute_seconds),
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_faults_injected_total", "counter",
                  faults_injected),
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_forced_picks_total", "counter",
                  forced_picks),
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_io_seconds_total", "counter", io_seconds),
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_key_bytes_saved_total", "counter",
                  key_bytes_saved),
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_key_cache_hits_total", "counter",
                  key_cache_hits),
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_key_uploads_total", "counter",
                  key_uploads),
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_ks_products_total", "counter",
                  ks_products),
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_max_class_skip", "gauge", max_class_skip),
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_overlap_wall_seconds", "gauge",
                  overlap_wall_seconds),
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_overlapped_rounds_total", "counter",
                  overlapped_rounds),
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_peak_queue_depth", "gauge",
                  peak_queue_depth),
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_pipeline_span_seconds", "gauge",
                  pipeline_span_seconds),
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_probe_failures_total", "counter",
                  probe_failures),
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_probes_total", "counter", probes),
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_quarantines_total", "counter",
                  quarantines),
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_queue_depth", "gauge", queue_depth),
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_readmissions_total", "counter",
                  readmissions),
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_rejected_batch_too_large_total", "counter",
                  rejected_batch_too_large),
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_rejected_queue_full_total", "counter",
                  rejected_queue_full),
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_rejected_quota_total", "counter",
                  rejected_quota),
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_rejected_rate_limited_total", "counter",
                  rejected_rate_limited),
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_requests_completed_total", "counter",
                  completed),
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_requests_failed_total", "counter",
                  failed),
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_requests_submitted_total", "counter",
                  submitted),
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_requeues_total", "counter", requeues),
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_retries_total", "counter", retries),
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_rounds_total", "counter", rounds),
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_serial_span_seconds", "gauge",
                  serial_span_seconds),
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_sessions_total", "counter", sessions),
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_sim_chip_round_seconds_total", "counter",
                  sim_chip_round_seconds),
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_sim_host_finish_seconds_total", "counter",
                  sim_host_finish_seconds),
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_sim_host_prep_seconds_total", "counter",
                  sim_host_prep_seconds),
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_sram_reuses_total", "counter",
                  sram_reuses),
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_stage_timeouts_total", "counter",
                  stage_timeouts),
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_twiddle_cache_hits_total", "counter",
                  twiddle_cache_hits),
    COFHEE_GOLDEN(ServiceStats, "cofhee_service_wall_seconds", "gauge", wall_seconds),
};
const GoldenFamily<service::ChipStats> kChipFamilies[] = {
    COFHEE_GOLDEN(ChipStats, "cofhee_chip_batched_writes_total", "counter",
                  batched_writes),
    COFHEE_GOLDEN(ChipStats, "cofhee_chip_busy_wall_seconds_total", "counter",
                  busy_wall_seconds),
    COFHEE_GOLDEN(ChipStats, "cofhee_chip_compute_seconds_total", "counter",
                  compute_seconds),
    COFHEE_GOLDEN(ChipStats, "cofhee_chip_cycles_total", "counter", chip_cycles),
    COFHEE_GOLDEN(ChipStats, "cofhee_chip_ewma_unit_cost_seconds", "gauge",
                  ewma_unit_cost),
    COFHEE_GOLDEN(ChipStats, "cofhee_chip_faults_total", "counter", faults),
    COFHEE_GOLDEN(ChipStats, "cofhee_chip_io_seconds_total", "counter", io_seconds),
    COFHEE_GOLDEN(ChipStats, "cofhee_chip_key_bytes_saved_total", "counter",
                  key_bytes_saved),
    COFHEE_GOLDEN(ChipStats, "cofhee_chip_key_cache_hits_total", "counter",
                  key_cache_hits),
    COFHEE_GOLDEN(ChipStats, "cofhee_chip_key_uploads_total", "counter", key_uploads),
    COFHEE_GOLDEN(ChipStats, "cofhee_chip_ks_products_total", "counter", ks_products),
    COFHEE_GOLDEN(ChipStats, "cofhee_chip_placements_total", "counter", placements),
    COFHEE_GOLDEN(ChipStats, "cofhee_chip_probes_total", "counter", probes),
    COFHEE_GOLDEN(ChipStats, "cofhee_chip_quarantined", "gauge", quarantined),
    COFHEE_GOLDEN(ChipStats, "cofhee_chip_quarantines_total", "counter", quarantines),
    COFHEE_GOLDEN(ChipStats, "cofhee_chip_readmissions_total", "counter", readmissions),
    COFHEE_GOLDEN(ChipStats, "cofhee_chip_relin_tower_runs_total", "counter",
                  relin_tower_runs),
    COFHEE_GOLDEN(ChipStats, "cofhee_chip_requests_total", "counter", requests),
    COFHEE_GOLDEN(ChipStats, "cofhee_chip_ring_configs_total", "counter", ring_configs),
    COFHEE_GOLDEN(ChipStats, "cofhee_chip_sessions_total", "counter", sessions),
    COFHEE_GOLDEN(ChipStats, "cofhee_chip_sram_reuses_total", "counter", sram_reuses),
    COFHEE_GOLDEN(ChipStats, "cofhee_chip_tower_runs_total", "counter", tower_runs),
    COFHEE_GOLDEN(ChipStats, "cofhee_chip_twiddle_cache_hits_total", "counter",
                  twiddle_cache_hits),
};
#undef COFHEE_GOLDEN

/// Rendered samples of an exposition: series (name + label set) -> every
/// value rendered for it, and family -> TYPE.
struct Exposition {
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, std::string> type;
};

Exposition parse(const std::string& text) {
  Exposition e;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream t(line.substr(7));
      std::string name, kind;
      t >> name >> kind;
      e.type[name] = kind;
    } else if (!line.empty() && line[0] != '#') {
      const std::size_t sp = line.rfind(' ');
      e.samples[line.substr(0, sp)].push_back(std::stod(line.substr(sp + 1)));
    }
  }
  return e;
}

TEST(ServiceExport, KeepsEveryFamilyAndRendersEachCounterRowOnce) {
  constexpr std::size_t kChips = 2;
  // Every exported field of a 2-chip snapshot gets a distinct value, so a
  // family showing the wrong field cannot pass.
  double next = 1;
  service::ServiceStats st;
  st.per_chip.resize(kChips);
  std::set<std::string> rows;
  std::size_t row_count = 0;
  driver::ChipCounters::for_each_counter([&](const char* family, const char*, auto m) {
    using T = std::remove_cvref_t<decltype(st.*m)>;
    rows.insert(family);
    ++row_count;
    st.*m = static_cast<T>(next++);
    for (auto& c : st.per_chip) c.*m = static_cast<T>(next++);
  });
  for (auto& c : st.per_chip) c.ewma_unit_cost = next++;
  st.per_chip[1].quarantined = true;
  for (auto* f : {&st.submitted, &st.completed, &st.failed, &st.rounds,
                  &st.overlapped_rounds, &st.faults_injected, &st.retries, &st.requeues,
                  &st.probe_failures, &st.stage_timeouts, &st.forced_picks,
                  &st.max_class_skip, &st.rejected_rate_limited, &st.rejected_quota,
                  &st.rejected_queue_full, &st.rejected_batch_too_large})
    *f = static_cast<std::uint64_t>(next++);
  for (auto* f : {&st.queue_depth, &st.peak_queue_depth})
    *f = static_cast<std::size_t>(next++);
  for (auto* f : {&st.sim_host_prep_seconds, &st.sim_host_finish_seconds,
                  &st.sim_chip_round_seconds, &st.pipeline_span_seconds,
                  &st.serial_span_seconds, &st.overlap_wall_seconds, &st.wall_seconds,
                  &st.active_seconds})
    *f = next++;

  MetricsRegistry reg;
  export_service_stats(st, reg);
  const Exposition e = parse(reg.render_text());
  const auto type_of = [&](const std::string& family) {
    const auto it = e.type.find(family);
    return it == e.type.end() ? std::string() : it->second;
  };
  const auto chip_series = [](const std::string& family, std::size_t c) {
    return family + "{chip=\"" + std::to_string(c) + "\"}";
  };
  // The series is rendered exactly once, with `value`.
  const auto expect_once = [&](const std::string& series, double value) {
    const auto it = e.samples.find(series);
    ASSERT_NE(it, e.samples.end()) << series;
    ASSERT_EQ(it->second.size(), 1u) << series;
    EXPECT_EQ(it->second.front(), value) << series;
  };

  // The pinned families: same type, labels and value.
  for (const auto& f : kServiceFamilies) {
    EXPECT_EQ(type_of(f.name), f.type) << f.name;
    expect_once(f.name, f.value(st));
  }
  for (const auto& f : kChipFamilies) {
    EXPECT_EQ(type_of(f.name), f.type) << f.name;
    for (std::size_t c = 0; c < kChips; ++c)
      expect_once(chip_series(f.name, c), f.value(st.per_chip[c]));
  }

  // Each table row: one farm-wide counter series and one per chip.
  EXPECT_EQ(rows.size(), row_count) << "two counter rows share a family suffix";
  driver::ChipCounters::for_each_counter([&](const char* family, const char*, auto m) {
    const std::string farm = std::string("cofhee_service_") + family;
    const std::string chip = std::string("cofhee_chip_") + family;
    EXPECT_EQ(type_of(farm), "counter") << farm;
    EXPECT_EQ(type_of(chip), "counter") << chip;
    expect_once(farm, static_cast<double>(st.*m));
    for (std::size_t c = 0; c < kChips; ++c)
      expect_once(chip_series(chip, c), static_cast<double>(st.per_chip[c].*m));
  });

  // Families beyond the pinned ones are farm-wide sums of table rows only,
  // and no family carries a label set other than the ones checked above.
  std::set<std::string> known;
  for (const auto& f : kServiceFamilies) known.insert(f.name);
  for (const std::string& row : rows) known.insert("cofhee_service_" + row);
  for (const auto& f : kChipFamilies)
    for (std::size_t c = 0; c < kChips; ++c) known.insert(chip_series(f.name, c));
  for (const auto& [series, values] : e.samples) {
    if (series.rfind("cofhee_service_", 0) == 0 || series.rfind("cofhee_chip_", 0) == 0) {
      EXPECT_EQ(known.count(series), 1u) << "unexpected series " << series;
    }
  }
}

}  // namespace
}  // namespace cofhee::obs
