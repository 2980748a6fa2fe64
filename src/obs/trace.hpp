// Low-overhead hierarchical tracing for the evaluation stack.
//
// TraceRecorder collects spans and instant events from every layer of a
// request's life -- request -> round -> placement -> per-chip stage ->
// per-tower phase -> serial transaction -- and exports them as Chrome
// trace-event JSON (load the file in Perfetto / chrome://tracing).  Two
// process tracks coexist in one trace, mirroring the repo's two time axes
// (see service/service_stats.hpp):
//
//  * pid kPidWall ("wall") -- wall-clock spans recorded with RAII WallSpan
//    guards on whichever thread ran the work (dispatcher, pool workers,
//    submitters).  Machine-dependent, never regression-tracked.
//  * pid kPidSim ("simulated") -- the deterministic simulated axis.  Each
//    sim track owns a monotonic cursor in simulated seconds; span_sim()
//    appends a span of a given simulated duration at the cursor and
//    advances it, so per-chip phase timelines reconstruct exactly the
//    io/compute seconds ServiceStats accounts.  Track layout:
//    chip C's phases on sim_track_chip_phase(C), its serial-link
//    transactions on sim_track_chip_link(C), and the service's pipeline
//    model on kSimTrackHostModel / kSimTrackChipModel.
//
// Recording is lock-free: every (thread, recorder) pair appends to its own
// buffer (registered once under a mutex, cached thread-locally and keyed by
// a never-reused recorder id, so a stale cache entry can never alias a new
// recorder).  Sim cursors are atomics advanced by CAS.  The null-recorder
// idiom keeps idle cost to a pointer check: every instrumented layer holds
// a TraceRecorder* that is almost always null, and WallSpan accepts null.
//
// Export (write_json / the aggregation helpers) requires quiescence: no
// thread may be recording concurrently.  The service provides that
// happens-before for free -- drain() / shutdown() join all outstanding
// stage work before returning -- which is what keeps the chaos battery
// TSan-clean.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cofhee::obs {

/// One key/value annotation on a trace event.  Keys are string literals
/// (static storage duration); values are doubles -- every id, count and
/// duration the instrumentation attaches fits.
struct TraceArg {
  /// Argument name (must outlive the recorder; use string literals).
  const char* key;
  /// Argument value.
  double value;
};

/// Argument pack accepted by every recording call.
using TraceArgs = std::initializer_list<TraceArg>;

/// Most arguments one event retains (extras are dropped, never UB).
inline constexpr int kMaxTraceArgs = 4;

/// One recorded event in the Chrome trace-event model.
struct TraceEvent {
  /// Event name (string literal; spans/instants group by it).
  const char* name = "";
  /// Category tag (string literal; aggregation helpers filter by it).
  const char* cat = "";
  /// Chrome phase: 'X' complete span, 'i' instant, 'b'/'e' async pair.
  char ph = 'X';
  /// Process track: TraceRecorder::kPidWall or kPidSim.
  std::uint32_t pid = 0;
  /// Thread (wall) or sim-track (sim) id within the process track.
  std::uint32_t tid = 0;
  /// Start timestamp, microseconds in the track's time base.
  double ts_us = 0;
  /// Span duration, microseconds ('X' only).
  double dur_us = 0;
  /// Async correlation id ('b'/'e' only; the request id).
  std::uint64_t id = 0;
  /// Number of valid entries in args.
  int nargs = 0;
  /// Inline annotations (bounded; see kMaxTraceArgs).
  TraceArg args[kMaxTraceArgs] = {};
};

/// Collects trace events lock-free per thread and exports Chrome
/// trace-event JSON (see file comment).  All recording methods are safe to
/// call concurrently; export/aggregation require quiescence.
class TraceRecorder {
 public:
  /// Process id of the wall-clock track group.
  static constexpr std::uint32_t kPidWall = 1;
  /// Process id of the simulated-time track group.
  static constexpr std::uint32_t kPidSim = 2;
  /// Sim tracks available (cursor array size); chip tracks use 2 per chip
  /// from 0, the pipeline-model tracks sit at the top.
  static constexpr std::uint32_t kMaxSimTracks = 256;
  /// Sim track of the service pipeline model's virtual host resource.
  static constexpr std::uint32_t kSimTrackHostModel = kMaxSimTracks - 2;
  /// Sim track of the pipeline model's virtual chip-farm resource.
  static constexpr std::uint32_t kSimTrackChipModel = kMaxSimTracks - 1;

  /// Sim track carrying chip `chip`'s per-tower phase spans.
  static constexpr std::uint32_t sim_track_chip_phase(std::size_t chip) noexcept {
    return static_cast<std::uint32_t>(2 * chip);
  }
  /// Sim track carrying chip `chip`'s serial-link transaction spans and
  /// fault instants.
  static constexpr std::uint32_t sim_track_chip_link(std::size_t chip) noexcept {
    return static_cast<std::uint32_t>(2 * chip + 1);
  }

  /// Fresh empty recorder; wall timestamps are relative to this moment.
  TraceRecorder();
  /// Destruction requires the same quiescence as export.
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Tracing is always compiled in; kept for callers that still ask.
  static constexpr bool enabled() noexcept { return true; }

  /// Microseconds of wall clock since recorder construction.
  [[nodiscard]] double now_us() const noexcept;

  /// RAII wall-clock span: opens at construction, records one 'X' event at
  /// destruction (or end()).  A null recorder yields an inert guard, so
  /// call sites need no branch beyond the recorder pointer they pass.
  class WallSpan {
   public:
    /// Inert span (records nothing).
    WallSpan() = default;
    /// Open a span on `rec` (null = inert) named `name` in category `cat`.
    WallSpan(TraceRecorder* rec, const char* name, const char* cat,
             TraceArgs args = {});
    /// Transfer the open span; `o` becomes inert.
    WallSpan(WallSpan&& o) noexcept { move_from(o); }
    /// Close any span this guard held, then take over `o`'s.
    WallSpan& operator=(WallSpan&& o) noexcept {
      if (this != &o) {
        end();
        move_from(o);
      }
      return *this;
    }
    WallSpan(const WallSpan&) = delete;
    WallSpan& operator=(const WallSpan&) = delete;
    /// Closes the span if still open.
    ~WallSpan() { end(); }

    /// Close the span now (idempotent).
    void end() noexcept;
    /// Attach one more argument to the (still open) span.
    void arg(const char* key, double value) noexcept;

   private:
    void move_from(WallSpan& o) noexcept;

    TraceRecorder* rec_ = nullptr;
    TraceEvent ev_{};
  };

  /// Open a wall-clock span (sugar over the WallSpan constructor).
  [[nodiscard]] WallSpan span_wall(const char* name, const char* cat,
                                   TraceArgs args = {}) {
    return WallSpan(this, name, cat, args);
  }

  /// Record a wall-clock instant event on the calling thread's track.
  void instant_wall(const char* name, const char* cat, TraceArgs args = {});

  /// Open the async span of request `id` (one 'b' event; pair with
  /// async_end under the same name/category/id).
  void async_begin(std::uint64_t id, const char* name, const char* cat,
                   TraceArgs args = {});
  /// Close the async span of request `id` (one 'e' event).
  void async_end(std::uint64_t id, const char* name, const char* cat,
                 TraceArgs args = {});

  /// Append a span of `dur_seconds` simulated seconds at sim track
  /// `track`'s cursor and advance the cursor -- the deterministic-axis
  /// workhorse (per-tower chip phases, serial transactions).
  void span_sim(std::uint32_t track, const char* name, const char* cat,
                double dur_seconds, TraceArgs args = {});

  /// Place a sim span at an explicit timestamp without touching the
  /// track's cursor (the pipeline-model tracks, whose clocks the service
  /// already owns).  `ts_seconds`/`dur_seconds` in simulated seconds.
  void span_sim_at(std::uint32_t track, const char* name, const char* cat,
                   double ts_seconds, double dur_seconds, TraceArgs args = {});

  /// Record an instant at sim track `track`'s current cursor (no advance)
  /// -- fault injections, cache events.
  void instant_sim(std::uint32_t track, const char* name, const char* cat,
                   TraceArgs args = {});

  /// Name the calling thread's wall track in the exported trace.
  void name_thread(const char* name);
  /// Name a simulated track (chip phase/link tracks get default names; the
  /// service names them "chip0.phases" etc. at construction).
  void name_sim_track(std::uint32_t track, std::string name);

  // --- export & aggregation (require quiescence; see file comment) --------

  /// Events recorded so far (all tracks).
  [[nodiscard]] std::size_t event_count() const;
  /// Events in category `cat` (and, when non-null, named `name`).
  [[nodiscard]] std::size_t count_events(const char* cat,
                                         const char* name = nullptr) const;
  /// Total simulated seconds of 'X' spans in category `cat` on the sim
  /// process track -- e.g. sim_category_seconds("phase") reconciles against
  /// ServiceStats io_seconds + compute_seconds.
  [[nodiscard]] double sim_category_seconds(const char* cat) const;
  /// Per-name simulated seconds of sim-track 'X' spans in category `cat`:
  /// the per-phase breakdown tools/trace_report.py prints.
  [[nodiscard]] std::map<std::string, double> sim_phase_breakdown(
      const char* cat = "phase") const;

  /// Write the whole trace as Chrome trace-event JSON ({"traceEvents":[..]})
  /// with process/thread metadata, sorted deterministically by
  /// (pid, tid, ts).
  void write_json(std::ostream& os) const;
  /// write_json to `path`; false when the file cannot be written.
  bool write_json_file(const std::string& path) const;

 private:
  struct ThreadBuf {
    std::vector<TraceEvent> events;
    std::uint32_t tid = 0;
    std::string name;
  };

  /// The calling thread's buffer for this recorder (registers on first
  /// use; afterwards a thread-local lookup, no lock).
  ThreadBuf& buf();
  void record(const TraceEvent& ev) { buf().events.push_back(ev); }
  static void fill_args(TraceEvent& ev, TraceArgs args) noexcept;
  /// Advance `track`'s cursor by `dur` seconds; returns the pre-advance
  /// cursor (CAS loop -- fetch_add on atomic<double> is C++20-library
  /// dependent).
  double advance_cursor(std::uint32_t track, double dur) noexcept;

  const std::uint64_t id_;  // globally unique, never reused (TLS cache key)
  const std::chrono::steady_clock::time_point t0_;
  std::atomic<std::uint32_t> next_tid_{1};
  std::array<std::atomic<double>, kMaxSimTracks> sim_cursor_{};
  mutable std::mutex reg_mu_;  // guards bufs_ growth and track_names_
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
  std::map<std::uint32_t, std::string> track_names_;
};

}  // namespace cofhee::obs
