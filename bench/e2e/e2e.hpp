// Shared declarations of cofhee_e2e, the end-to-end benchmark binary.
//
// The benchmark drives the model through its public APIs only
// (GraphExecutor::run, EvalService::submit*, EvalClient::submit_batch,
// bfv::Bfv) and reads numbers off two clocks: the *wall* clock of the host
// running the model, and the *simulated* clock (chip cycles, serial-link
// bytes, the service's host cost model).  Every metric carries its unit and
// clock; see README.md for the full list.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bfv/bfv.hpp"
#include "bfv/encoder.hpp"
#include "driver/host_driver.hpp"
#include "obs/trace.hpp"

namespace cofhee::e2e {

using Clock = std::chrono::steady_clock;

/// Wall seconds since `t0`.
inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Milliseconds between two wall-clock instants.
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// CPU seconds consumed so far by every thread of this process.
double process_cpu_seconds();
/// Peak resident set size of this process, MB (getrusage).
double peak_rss_mb();
/// Resident set size now, MB, after returning freed heap pages to the OS.
double resident_mb();
/// Heap bytes the program holds now, MB (mallinfo2).
double heap_mb();
/// The q-quantile (q in [0, 1]) of `v`, interpolated linearly between order
/// statistics; 0 for an empty sample.
double quantile(std::vector<double> v, double q);

/// One reported number with its unit and the clock it was read on: "wall",
/// "sim" (simulated), "cpu" (process CPU time) or "none" (counts, ratios,
/// memory).
struct Metric {
  double value = 0;
  std::string unit;
  std::string clock;
};

/// Every metric of one run, by name.
using Ledger = std::map<std::string, Metric>;

inline void put(Ledger& l, const std::string& name, double value, const char* unit,
                const char* clock) {
  l[name] = Metric{value, unit, clock};
}

/// A scheme and its keys, all derived from the run's seed, plus the integer
/// encoding every workload's inputs use (one signed scalar per ciphertext).
struct Keys {
  Keys(bfv::BfvParams params, std::uint64_t seed);

  [[nodiscard]] bfv::Ciphertext encrypt(std::int64_t v);
  [[nodiscard]] std::int64_t decrypt(const bfv::Ciphertext& ct) const;

  std::unique_ptr<bfv::Bfv> scheme;  // heap: services keep a reference
  bfv::IntegerEncoder encoder;
  bfv::SecretKey sk;
  bfv::PublicKey pk;
  bfv::RelinKeys rk;
};

/// What one timed window measured.
struct Window {
  /// Per-item latency samples, ms (wall).  Closed loops time submit to
  /// result; the open loop times its kHigh requests from their due time.
  std::vector<double> latency_ms;
  /// When each latency sample's result arrived, s since the window started
  /// (wall); parallel to latency_ms.
  std::vector<double> done_s;
  /// Generator lateness per submit, ms (wall): submit time minus due time
  /// (a closed loop's next item is due when the previous result arrives).
  std::vector<double> lag_ms;
  /// Items started, and items whose output decrypted correctly.
  std::size_t attempted = 0;
  std::size_t items = 0;
  /// Items lost to an exception, a typed reject or a wrong decryption.
  std::size_t failed = 0;
  /// Window start to the last result, s (wall).
  double elapsed_s = 0;
  /// Process CPU time over the window, s.
  double cpu_s = 0;
};

/// Per-call wall cost of each layer call, ms, as the layer probe measured it
/// on the workload's ring.  Workloads multiply these by the calls their
/// window made to attribute its CPU time.
struct LayerCosts {
  double encrypt = 0, decrypt = 0;
  double multiply = 0, relinearize = 0, add = 0, negate = 0, mul_plain = 0;
  /// ChipBfvEvaluator host phases, per request.
  double prepare = 0, assemble = 0, prepare_relin = 0, assemble_relin = 0;
  /// Chip session phases: one ring configuration, one tower's
  /// load + execute + read, one Q tower's key-switch products.
  double configure = 0, tower_run = 0, relin_run = 0;
  /// Chip cycles and simulated io share of one complete EvalMult.
  double request_cycles = 0, request_io_share = 0;
};

/// One workload: a stack (keys, farm, service, server, graph) plus the load
/// that drives it.  Each instance is one stack; the runner builds several
/// to time set-up and to compare traced with untraced runs.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Build the stack and return once the first warm-up item's result is in.
  /// `trace` (nullable) is handed to the service and wraps the benchmark's
  /// own calls into each layer.
  virtual void setup(obs::TraceRecorder* trace) = 0;
  /// Encrypt the input pool and run the second warm-up item, recording the
  /// per-item simulated metrics (they repeat exactly on closed loops).
  virtual void warm(Ledger& out) = 0;
  /// The timed window: load for `seconds`, then wait for every result.
  virtual Window run(double seconds) = 0;
  /// Layer counters of the last window (service, driver, chip); none
  /// without a service.
  virtual void window_metrics(const Window& /*w*/, Ledger& /*out*/) {}
  /// Probe measurements only this workload has (the wire codecs); runs
  /// after the window with the stack still serving.
  virtual void probe_extra(Ledger& /*out*/) {}
  /// Shut the server and service down (idempotent).
  virtual void stop() {}
  /// After stop(): chip 0's driver for the layer probe, or nullptr when the
  /// workload has no chip.
  virtual driver::HostDriver* probe_driver() { return nullptr; }
  /// After stop(): io + compute seconds the service accounted over its
  /// lifetime (what the trace's phase spans must sum to), or -1 without a
  /// service.
  virtual double service_sim_seconds() const { return -1; }
  /// CPU ms the layers account for in the last window, from per-call costs
  /// times the calls the window made.
  [[nodiscard]] virtual double attributed_cpu_ms(const LayerCosts& c,
                                                 const Window& w) const = 0;
  /// Whether the workload's EvalMults square their operand (the probe
  /// replays the same shape).
  [[nodiscard]] virtual bool squares() const { return false; }
  [[nodiscard]] virtual Keys& keys() = 0;
};

/// The four workloads, in the order run.py lists them.
const std::vector<std::string>& workload_names();
/// A fresh (not yet set up) instance of workload `name`; nullptr when the
/// name is unknown.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed);

/// Replay one EvalMult + relinearization of `k`'s ring through the public
/// per-layer functions -- nt transforms, the fused tensor, the Bfv ops, the
/// host cost-model kernels and every ChipBfvEvaluator phase on `drv` (a
/// private chip when null) -- timing each call on both clocks.  Writes the
/// nt.*, poly.*, bfv.*, model.host_* and driver.* metrics and returns the
/// per-call costs.  Calls are wrapped in `trace` spans when non-null.
LayerCosts probe_layers(Keys& k, driver::HostDriver* drv, bool square,
                        obs::TraceRecorder* trace, Ledger& out);

/// Chip-model accuracy against the paper's Fig. 6a: Algorithm 3 on 128-bit
/// towers at n = 2^12 and 2^13 (model.fig6a_*; deterministic).
void probe_model_accuracy(Ledger& out);

}  // namespace cofhee::e2e
