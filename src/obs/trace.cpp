#include "obs/trace.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <utility>

namespace cofhee::obs {

namespace {

/// Never-reused recorder ids: the key that makes the thread-local buffer
/// cache safe.  A destroyed recorder's id can never match a later one, so a
/// stale cache entry is dead weight, never a dangling dereference.
std::atomic<std::uint64_t> g_next_recorder_id{1};

struct TlsEntry {
  std::uint64_t rec_id = 0;
  void* buf = nullptr;
};

/// Per-thread cache of (recorder id -> buffer).  Bounded: threads that
/// outlive many recorders (the main test thread) drop the oldest entries
/// and simply re-register on the next touch.
thread_local std::vector<TlsEntry> t_bufs;

constexpr std::size_t kTlsCacheCap = 32;

/// JSON-escape `s` into `os` (names and thread names; values are numeric).
void escape(std::ostream& os, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          os << "\\u" << std::hex << std::setw(4) << std::setfill('0')
             << static_cast<int>(c) << std::dec << std::setfill(' ');
        else
          os << c;
    }
  }
}

void emit_number(std::ostream& os, double v) {
  // Round-trippable but compact; trace files carry many thousands of
  // timestamps.
  std::ostringstream ss;
  ss << std::setprecision(12) << v;
  os << ss.str();
}

void emit_args(std::ostream& os, const TraceEvent& e) {
  os << "\"args\":{";
  for (int a = 0; a < e.nargs; ++a) {
    if (a != 0) os << ',';
    os << '"';
    escape(os, e.args[a].key);
    os << "\":";
    emit_number(os, e.args[a].value);
  }
  os << '}';
}

}  // namespace

TraceRecorder::TraceRecorder()
    : id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)),
      t0_(std::chrono::steady_clock::now()) {}

TraceRecorder::~TraceRecorder() = default;

double TraceRecorder::now_us() const noexcept {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0_)
      .count();
}

TraceRecorder::ThreadBuf& TraceRecorder::buf() {
  for (const TlsEntry& e : t_bufs)
    if (e.rec_id == id_) return *static_cast<ThreadBuf*>(e.buf);
  // First touch from this thread: register a fresh buffer (the only locked
  // path; every later event from this thread is a plain vector append).
  ThreadBuf* b;
  {
    std::lock_guard<std::mutex> lk(reg_mu_);
    bufs_.push_back(std::make_unique<ThreadBuf>());
    b = bufs_.back().get();
  }
  b->tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
  if (t_bufs.size() >= kTlsCacheCap)
    t_bufs.erase(t_bufs.begin());  // oldest recorder re-registers if alive
  t_bufs.push_back({id_, b});
  return *b;
}

void TraceRecorder::fill_args(TraceEvent& ev, TraceArgs args) noexcept {
  for (const TraceArg& a : args) {
    if (ev.nargs == kMaxTraceArgs) break;
    ev.args[ev.nargs++] = a;
  }
}

double TraceRecorder::advance_cursor(std::uint32_t track, double dur) noexcept {
  auto& c = sim_cursor_[track % kMaxSimTracks];
  double old = c.load(std::memory_order_relaxed);
  while (!c.compare_exchange_weak(old, old + dur, std::memory_order_relaxed)) {
  }
  return old;
}

TraceRecorder::WallSpan::WallSpan(TraceRecorder* rec, const char* name,
                                  const char* cat, TraceArgs args)
    : rec_(rec) {
  if (rec_ == nullptr) return;
  ev_.name = name;
  ev_.cat = cat;
  ev_.ph = 'X';
  ev_.pid = kPidWall;
  ev_.ts_us = rec_->now_us();
  fill_args(ev_, args);
}

void TraceRecorder::WallSpan::end() noexcept {
  if (rec_ == nullptr) return;
  ev_.dur_us = rec_->now_us() - ev_.ts_us;
  TraceRecorder* r = rec_;
  rec_ = nullptr;
  ev_.tid = r->buf().tid;
  r->record(ev_);
}

void TraceRecorder::WallSpan::arg(const char* key, double value) noexcept {
  if (rec_ == nullptr || ev_.nargs == kMaxTraceArgs) return;
  ev_.args[ev_.nargs++] = {key, value};
}

void TraceRecorder::WallSpan::move_from(WallSpan& o) noexcept {
  rec_ = o.rec_;
  ev_ = o.ev_;
  o.rec_ = nullptr;
}

void TraceRecorder::instant_wall(const char* name, const char* cat, TraceArgs args) {
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.ph = 'i';
  ev.pid = kPidWall;
  ev.ts_us = now_us();
  fill_args(ev, args);
  ev.tid = buf().tid;
  record(ev);
}

void TraceRecorder::async_begin(std::uint64_t id, const char* name, const char* cat,
                                TraceArgs args) {
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.ph = 'b';
  ev.pid = kPidWall;
  ev.id = id;
  ev.ts_us = now_us();
  fill_args(ev, args);
  ev.tid = buf().tid;
  record(ev);
}

void TraceRecorder::async_end(std::uint64_t id, const char* name, const char* cat,
                              TraceArgs args) {
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.ph = 'e';
  ev.pid = kPidWall;
  ev.id = id;
  ev.ts_us = now_us();
  fill_args(ev, args);
  ev.tid = buf().tid;
  record(ev);
}

void TraceRecorder::span_sim(std::uint32_t track, const char* name, const char* cat,
                             double dur_seconds, TraceArgs args) {
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.ph = 'X';
  ev.pid = kPidSim;
  ev.tid = track;
  ev.ts_us = advance_cursor(track, dur_seconds) * 1e6;
  ev.dur_us = dur_seconds * 1e6;
  fill_args(ev, args);
  record(ev);
}

void TraceRecorder::span_sim_at(std::uint32_t track, const char* name,
                                const char* cat, double ts_seconds,
                                double dur_seconds, TraceArgs args) {
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.ph = 'X';
  ev.pid = kPidSim;
  ev.tid = track;
  ev.ts_us = ts_seconds * 1e6;
  ev.dur_us = dur_seconds * 1e6;
  fill_args(ev, args);
  record(ev);
}

void TraceRecorder::instant_sim(std::uint32_t track, const char* name,
                                const char* cat, TraceArgs args) {
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.ph = 'i';
  ev.pid = kPidSim;
  ev.tid = track;
  ev.ts_us =
      sim_cursor_[track % kMaxSimTracks].load(std::memory_order_relaxed) * 1e6;
  fill_args(ev, args);
  record(ev);
}

void TraceRecorder::name_thread(const char* name) { buf().name = name; }

void TraceRecorder::name_sim_track(std::uint32_t track, std::string name) {
  std::lock_guard<std::mutex> lk(reg_mu_);
  track_names_[track] = std::move(name);
}

std::size_t TraceRecorder::event_count() const {
  std::lock_guard<std::mutex> lk(reg_mu_);
  std::size_t n = 0;
  for (const auto& b : bufs_) n += b->events.size();
  return n;
}

std::size_t TraceRecorder::count_events(const char* cat, const char* name) const {
  std::lock_guard<std::mutex> lk(reg_mu_);
  std::size_t n = 0;
  for (const auto& b : bufs_)
    for (const TraceEvent& e : b->events)
      if (std::strcmp(e.cat, cat) == 0 &&
          (name == nullptr || std::strcmp(e.name, name) == 0))
        ++n;
  return n;
}

// Buffer registration order depends on thread scheduling, and float
// addition is order-sensitive in the last ulp, so both aggregations sum
// durations in sorted order: the duration multiset is deterministic,
// making the totals bit-identical across runs.
double TraceRecorder::sim_category_seconds(const char* cat) const {
  std::lock_guard<std::mutex> lk(reg_mu_);
  std::vector<double> durs;
  for (const auto& b : bufs_)
    for (const TraceEvent& e : b->events)
      if (e.pid == kPidSim && e.ph == 'X' && std::strcmp(e.cat, cat) == 0)
        durs.push_back(e.dur_us);
  std::sort(durs.begin(), durs.end());
  double total = 0;
  for (double d : durs) total += d;
  return total * 1e-6;
}

std::map<std::string, double> TraceRecorder::sim_phase_breakdown(
    const char* cat) const {
  std::lock_guard<std::mutex> lk(reg_mu_);
  std::map<std::string, std::vector<double>> durs;
  for (const auto& b : bufs_)
    for (const TraceEvent& e : b->events)
      if (e.pid == kPidSim && e.ph == 'X' && std::strcmp(e.cat, cat) == 0)
        durs[e.name].push_back(e.dur_us);
  std::map<std::string, double> out;
  for (auto& [name, v] : durs) {
    std::sort(v.begin(), v.end());
    double total = 0;
    for (double d : v) total += d;
    out[name] = total * 1e-6;
  }
  return out;
}

void TraceRecorder::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lk(reg_mu_);

  os << "{\"traceEvents\":[\n";
  const char* sep = "";
  const auto meta = [&](std::uint32_t pid, std::uint32_t tid, const char* kind,
                        const std::string& value) {
    os << sep << "{\"name\":\"" << kind << "\",\"ph\":\"M\",\"pid\":" << pid;
    if (std::strcmp(kind, "thread_name") == 0) os << ",\"tid\":" << tid;
    os << ",\"args\":{\"name\":\"";
    escape(os, value.c_str());
    os << "\"}}";
    sep = ",\n";
  };
  meta(kPidWall, 0, "process_name", "wall");
  meta(kPidSim, 0, "process_name", "simulated");
  for (const auto& b : bufs_)
    if (!b->name.empty()) meta(kPidWall, b->tid, "thread_name", b->name);
  // Sim tracks referenced by at least one event get names so Perfetto's
  // left rail reads "chip0.phases", not "thread 0".
  std::map<std::uint32_t, bool> sim_tracks;
  for (const auto& b : bufs_)
    for (const TraceEvent& e : b->events)
      if (e.pid == kPidSim) sim_tracks[e.tid] = true;
  for (const auto& [track, used] : sim_tracks) {
    (void)used;
    std::string name;
    if (auto it = track_names_.find(track); it != track_names_.end()) {
      name = it->second;
    } else if (track == kSimTrackHostModel) {
      name = "model.host";
    } else if (track == kSimTrackChipModel) {
      name = "model.chip";
    } else {
      name = "chip" + std::to_string(track / 2) +
             (track % 2 == 0 ? ".phases" : ".link");
    }
    meta(kPidSim, track, "thread_name", name);
  }

  // Deterministic order: (pid, tid, ts, insertion index within buffer).
  struct Ref {
    const TraceEvent* e;
    std::size_t buf_idx;
    std::size_t seq;
  };
  std::vector<Ref> refs;
  for (std::size_t bi = 0; bi < bufs_.size(); ++bi) {
    const auto& evs = bufs_[bi]->events;
    for (std::size_t i = 0; i < evs.size(); ++i) refs.push_back({&evs[i], bi, i});
  }
  std::sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    if (a.e->pid != b.e->pid) return a.e->pid < b.e->pid;
    if (a.e->tid != b.e->tid) return a.e->tid < b.e->tid;
    if (a.e->ts_us != b.e->ts_us) return a.e->ts_us < b.e->ts_us;
    if (a.buf_idx != b.buf_idx) return a.buf_idx < b.buf_idx;
    return a.seq < b.seq;
  });

  for (const Ref& r : refs) {
    const TraceEvent& e = *r.e;
    os << sep << "{\"name\":\"";
    escape(os, e.name);
    os << "\",\"cat\":\"";
    escape(os, e.cat);
    os << "\",\"ph\":\"" << e.ph << "\",\"pid\":" << e.pid << ",\"tid\":" << e.tid
       << ",\"ts\":";
    emit_number(os, e.ts_us);
    if (e.ph == 'X') {
      os << ",\"dur\":";
      emit_number(os, e.dur_us);
    }
    if (e.ph == 'b' || e.ph == 'e') os << ",\"id\":" << e.id;
    if (e.ph == 'i') os << ",\"s\":\"t\"";
    os << ',';
    emit_args(os, e);
    os << '}';
    sep = ",\n";
  }
  os << "\n]}\n";
}

bool TraceRecorder::write_json_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  write_json(os);
  return os.good();
}

}  // namespace cofhee::obs
