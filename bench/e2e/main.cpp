// cofhee_e2e: one workload of the end-to-end benchmark.
//
//   cofhee_e2e --workload <name> --seed <s> [--seconds <t>] [--json <out>]
//              [--trace <trace.json>]
//
// Untraced (the end-to-end run): the stack is set up at least five times
// and setup_s is the median; two warm-up items follow, then a timed window
// of --seconds with tracing off.
//
// Traced (--trace): the window is split between an untraced stack and one
// carrying a TraceRecorder -- their per-item wall times differ by
// obs.trace_overhead_frac -- and the traced stack's phase spans must
// reconcile with its ServiceStats io + compute.  Then the layer probe
// replays one item through the per-layer functions on the untraced stack's
// own farm, and the window's CPU time is attributed to the layers
// (unattributed_frac is what they leave over).  The Chrome trace goes to
// the --trace path.
//
// Every metric goes to --json with its unit and clock; run.py prints them.
// Exit status: 0 when every output checked out, 1 otherwise, 2 on bad usage.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <fstream>
#include <string>

#include "e2e.hpp"

namespace cofhee::e2e {

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double resident_mb() {
  // Freed heap pages stay resident in whichever malloc arena freed them,
  // and how they spread over arenas depends on thread timing; returning
  // them first leaves the memory the live stack holds.
  malloc_trim(0);
  std::ifstream statm("/proc/self/statm");
  double size = 0, resident = 0;
  statm >> size >> resident;
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double heap_mb() {
  // Summed over every malloc arena, plus mmapped blocks.  Unlike the
  // resident set, it does not depend on which arena freed a page.
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

namespace {

// An untraced run sets up at least kMinSetups times, and short set-ups
// repeat until kMinSetupSeconds have passed (at most kMaxSetups times);
// setup_s is their median.
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 20;
constexpr double kMinSetupSeconds = 2.0;

struct Args {
  std::string workload, json, trace;
  std::uint64_t seed = 1;
  double seconds = 20;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--json") a.json = v;
    else if (k == "--trace") a.trace = v;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

// The wall metrics are read over every stretch of kStretch consecutive
// results, and each is reported at its best stretch.  The shared host
// slows the model in bursts of seconds to minutes, by up to 1.6x, covering
// from none to nearly all of a run; whole-window quantiles then measure
// how much of the run the bursts covered.  A stretch is short enough to
// fall between bursts, and on mixed_priority it always holds one queued
// kHigh request (every fifth one lands in a kLow batch), so its p90 is a
// queued request's latency.
constexpr std::size_t kStretch = 5;

/// The user-visible numbers of a window.
void end_to_end(const Window& w, Ledger& out) {
  // NaN (no stretch) reaches the ledger as null, which fails the run.
  double rate = NAN, p50 = NAN, p90 = NAN;
  for (std::size_t i = 0; i + kStretch <= w.latency_ms.size(); ++i) {
    const auto first = w.latency_ms.begin() + static_cast<std::ptrdiff_t>(i);
    const std::vector<double> stretch(first, first + kStretch);
    p50 = std::fmin(p50, quantile(stretch, 0.5));
    p90 = std::fmin(p90, quantile(stretch, 0.9));
    const double from = i == 0 ? 0.0 : w.done_s[i - 1];
    rate = std::fmax(rate, static_cast<double>(kStretch) / (w.done_s[i + kStretch - 1] - from));
  }
  put(out, "wall_items_per_s", rate, "items/s", "wall");
  put(out, "wall_p50_ms", p50, "ms", "wall");
  put(out, "wall_p90_ms", p90, "ms", "wall");
  // The same numbers over the whole window, bursts included.
  put(out, "window.items_per_s", static_cast<double>(w.items) / w.elapsed_s, "items/s", "wall");
  put(out, "window.p50_ms", quantile(w.latency_ms, 0.5), "ms", "wall");
  put(out, "window.p90_ms", quantile(w.latency_ms, 0.9), "ms", "wall");
  put(out, "latency_samples", static_cast<double>(w.latency_ms.size()), "count", "none");
  put(out, "fail_frac", static_cast<double>(w.failed) / static_cast<double>(w.attempted),
      "ratio", "none");
  put(out, "load.gen_lag_p90_ms", quantile(w.lag_ms, 0.9), "ms", "wall");
  put(out, "item_cpu_ms", w.cpu_s * 1e3 / static_cast<double>(w.attempted), "ms", "cpu");
}

bool write_json(const std::string& path, const Args& a, bool traced, std::size_t attempted,
                std::size_t failed, bool correct, const Ledger& l) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.17g, \"traced\": %s, "
               "\"attempted\": %zu, \"failed\": %zu, \"correct\": %s, \"metrics\": {",
               a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
               traced ? "true" : "false", attempted, failed, correct ? "true" : "false");
  const char* sep = "";
  for (const auto& [name, m] : l) {
    std::fprintf(f, "%s\n  \"%s\": {\"value\": ", sep, name.c_str());
    if (std::isfinite(m.value))
      std::fprintf(f, "%.17g", m.value);
    else
      std::fputs("null", f);
    std::fprintf(f, ", \"unit\": \"%s\", \"clock\": \"%s\"}", m.unit.c_str(), m.clock.c_str());
    sep = ",";
  }
  std::fputs("\n}}\n", f);
  return std::fclose(f) == 0;
}

int run(const Args& a) {
  if (make_workload(a.workload, a.seed) == nullptr) {
    std::fprintf(stderr, "cofhee_e2e: unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  const bool traced = !a.trace.empty();
  Ledger l;
  std::vector<double> setups;
  const auto set_up = [&](obs::TraceRecorder* rec) {
    const auto t0 = Clock::now();
    auto w = make_workload(a.workload, a.seed);  // builds the parameter set
    w->setup(rec);
    setups.push_back(since(t0));
    return w;
  };

  std::unique_ptr<Workload> w;
  Window win;
  std::size_t attempted = 0, failed = 0;
  bool correct = true;
  if (!traced) {
    double total = 0;
    while (setups.size() < kMinSetups || (total < kMinSetupSeconds && setups.size() < kMaxSetups)) {
      w.reset();
      w = set_up(nullptr);
      total += setups.back();
    }
    w->warm(l);
    // Memory of the warmed stack, read before the window: the farm's
    // memory grows with every item served (mem.heap_growth_kb_per_item),
    // so a reading after the window would rise with throughput.
    const double heap0 = heap_mb();
    put(l, "heap_mb", heap0, "MB", "none");
    put(l, "rss_mb", resident_mb(), "MB", "none");
    win = w->run(a.seconds);
    w->window_metrics(win, l);
    put(l, "mem.heap_growth_kb_per_item",
        (heap_mb() - heap0) * 1024.0 / static_cast<double>(win.attempted), "KB", "none");
    w->stop();
  } else {
    obs::TraceRecorder rec;
    w = set_up(nullptr);
    w->warm(l);
    win = w->run(a.seconds / 2);
    w->window_metrics(win, l);
    {
      auto t = set_up(&rec);
      Ledger scratch;
      t->warm(scratch);
      const Window tw = t->run(a.seconds / 2);
      t->stop();
      attempted += tw.attempted;
      failed += tw.failed;
      put(l, "obs.trace_overhead_frac",
          (tw.elapsed_s / static_cast<double>(tw.items)) /
                  (win.elapsed_s / static_cast<double>(win.items)) -
              1.0,
          "ratio", "wall");
      const double stats_s = t->service_sim_seconds();
      if (stats_s >= 0 && obs::TraceRecorder::enabled()) {
        const double err = std::abs(rec.sim_category_seconds("phase") - stats_s) / stats_s;
        put(l, "obs.trace_reconcile_err", err, "ratio", "sim");
        correct = correct && err <= 1e-6;
      }
    }
    w->probe_extra(l);
    w->stop();
    const LayerCosts costs = probe_layers(w->keys(), w->probe_driver(), w->squares(), &rec, l);
    probe_model_accuracy(l);
    if (l.count("chip.cycles_per_item") == 0) {
      // No chip in the workload: report the chip cost of its item's
      // EvalMult + relinearization from the probe's replay.
      put(l, "chip.cycles_per_item", costs.request_cycles, "count", "sim");
      put(l, "driver.io_share_sim", costs.request_io_share, "ratio", "sim");
    }
    const double attributed = w->attributed_cpu_ms(costs, win);
    put(l, "layers.attributed_cpu_ms_per_item", attributed / static_cast<double>(win.attempted),
        "ms", "cpu");
    put(l, "unattributed_frac", 1.0 - attributed / (win.cpu_s * 1e3), "ratio", "cpu");
    if (!rec.write_json_file(a.trace)) {
      std::fprintf(stderr, "cofhee_e2e: cannot write %s\n", a.trace.c_str());
      return 1;
    }
  }
  put(l, "setup_s", quantile(setups, 0.5), "s", "wall");
  end_to_end(win, l);
  put(l, "peak_rss_mb", peak_rss_mb(), "MB", "none");
  attempted += win.attempted;
  failed += win.failed;
  correct = correct && failed == 0;
  if (!a.json.empty() && !write_json(a.json, a, traced, attempted, failed, correct, l)) {
    std::fprintf(stderr, "cofhee_e2e: cannot write %s\n", a.json.c_str());
    return 1;
  }
  std::fprintf(stderr, "cofhee_e2e: %s seed %llu: %zu items, %zu failed\n", a.workload.c_str(),
               static_cast<unsigned long long>(a.seed), attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace cofhee::e2e

int main(int argc, char** argv) {
  cofhee::e2e::Args a;
  if (!cofhee::e2e::parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: cofhee_e2e --workload <name> --seed <s> [--seconds <t>] "
                 "[--json <out>] [--trace <trace.json>]\n");
    return 2;
  }
  try {
    return cofhee::e2e::run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cofhee_e2e: %s\n", e.what());
    return 1;
  }
}
