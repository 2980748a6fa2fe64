// Shared CLI plumbing for the bench binaries.
//
// Every bench grows the same artifact flags; this header keeps the parsing
// and the write-out in one place so a new bench gets all of them for free:
//
//   --json <path>         flat regression metrics, diffed by
//                         tools/bench_diff.py against bench/reference/
//   --trace <path>        Chrome trace-event JSON of the run (load in
//                         chrome://tracing or https://ui.perfetto.dev);
//                         lintable with tools/trace_lint.py
//   --metrics-out <path>  Prometheus text exposition of the final
//                         ServiceStats (obs::MetricsRegistry::render)
//   --chips <n>           restrict chip-count sweeps (benches that sweep
//                         read it via chips(); others ignore it)
//
// A TraceRecorder is constructed only when --trace is given, so the traced
// code paths stay on their single-pointer-check fast path by default.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "eval/report.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cofhee::bench {

class BenchIo {
 public:
  BenchIo(int argc, char** argv) {
    for (int i = 1; i + 1 < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--json") {
        json_path_ = argv[i + 1];
      } else if (a == "--trace") {
        trace_path_ = argv[i + 1];
      } else if (a == "--metrics-out") {
        metrics_path_ = argv[i + 1];
      } else if (a == "--chips") {
        chips_ = static_cast<std::size_t>(std::strtoul(argv[i + 1], nullptr, 10));
      }
    }
    if (!trace_path_.empty()) recorder_ = std::make_unique<obs::TraceRecorder>();
  }

  /// Regression-metric sink; written to the --json path by finish().
  [[nodiscard]] eval::MetricsJson& metrics() noexcept { return metrics_; }

  /// The run's trace recorder, or nullptr when --trace was not given.
  /// Plumb into ServiceOptions::trace; export happens in finish().
  [[nodiscard]] obs::TraceRecorder* trace() noexcept { return recorder_.get(); }

  /// Prometheus registry; rendered to the --metrics-out path by finish().
  /// Feed it with obs::export_service_stats(svc.stats(), io.registry()).
  [[nodiscard]] obs::MetricsRegistry& registry() noexcept { return registry_; }

  /// --chips override, or `fallback` when the flag was absent or zero.
  [[nodiscard]] std::size_t chips(std::size_t fallback) const noexcept {
    return chips_ != 0 ? chips_ : fallback;
  }

  /// Write every requested artifact.  Returns false (with a message on
  /// stderr) if any write failed -- benches `return io.finish() ? 0 : 1;`.
  /// Call only at quiescence (services drained): trace export requires it.
  [[nodiscard]] bool finish() {
    bool ok = true;
    if (!json_path_.empty() && !metrics_.write(json_path_)) {
      std::fprintf(stderr, "failed to write %s\n", json_path_.c_str());
      ok = false;
    }
    if (recorder_ != nullptr && !recorder_->write_json_file(trace_path_)) {
      std::fprintf(stderr, "failed to write %s\n", trace_path_.c_str());
      ok = false;
    }
    if (!metrics_path_.empty()) {
      std::FILE* f = std::fopen(metrics_path_.c_str(), "w");
      const std::string text = registry_.render_text();
      if (f == nullptr || std::fwrite(text.data(), 1, text.size(), f) != text.size()) {
        std::fprintf(stderr, "failed to write %s\n", metrics_path_.c_str());
        ok = false;
      }
      if (f != nullptr) std::fclose(f);
    }
    return ok;
  }

 private:
  std::string json_path_;
  std::string trace_path_;
  std::string metrics_path_;
  std::size_t chips_ = 0;
  eval::MetricsJson metrics_;
  obs::MetricsRegistry registry_;
  std::unique_ptr<obs::TraceRecorder> recorder_;
};

}  // namespace cofhee::bench
