// The four workloads of the end-to-end benchmark; README.md says why each
// was chosen.  Inputs come from the run's seed, every output is checked
// against a plaintext reference outside the timed window, and a wrong
// result counts as a failed item.
#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "apps/cryptonets.hpp"
#include "e2e.hpp"
#include "graph/executor.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "service/eval_service.hpp"

namespace cofhee::e2e {

Keys::Keys(bfv::BfvParams params, std::uint64_t seed)
    : scheme(std::make_unique<bfv::Bfv>(std::move(params), seed)),
      encoder(scheme->context()),
      sk(scheme->keygen_secret()),
      pk(scheme->keygen_public(sk)),
      rk(scheme->keygen_relin(sk, 16)) {}

bfv::Ciphertext Keys::encrypt(std::int64_t v) {
  return scheme->encrypt(pk, encoder.encode(v));
}

std::int64_t Keys::decrypt(const bfv::Ciphertext& ct) const {
  return encoder.decode(scheme->decrypt(sk, ct));
}

namespace {

using obs::TraceRecorder;
using service::EvalRequest;
using service::Priority;
using service::RequestKind;
using service::ServiceStats;

constexpr std::size_t kChips = 2;  // farm size of every chip workload
constexpr std::size_t kPool = 8;   // distinct inputs a window cycles through
constexpr std::size_t kBatch = 4;  // EvalMults per wire batch / kLow batch

/// Signed operand in [-100, 100]; products stay far inside t/2 = 32768.
std::int64_t operand(poly::Rng& rng) {
  return static_cast<std::int64_t>(rng.uniform_below(201)) - 100;
}

/// One closed-loop item: when it was submitted, when its result arrived,
/// and whether the result passed the in-window check.
struct ItemResult {
  Clock::time_point submit, done;
  bool ok = false;
};

/// Checks every output of a window without decrypting inside it.  Items
/// cycle a pool of kPool inputs and evaluation is deterministic, so every
/// output of a pool entry must be bit-identical to that entry's first
/// output: inside the window an item costs one comparison, and after it
/// the first outputs are decrypted against the plaintext reference.
class OutputCheck {
 public:
  /// In the window: whether `out`, a result of pool entry k, matches the
  /// entry's first result (the first one is kept, and matches).
  bool match(std::size_t k, std::vector<bfv::Ciphertext>&& out) {
    Entry& e = entries_[k];
    if (e.items == 0)
      e.first = std::move(out);
    else if (!same(e.first, out))
      return false;
    ++e.items;
    return true;
  }

  /// After the window: the number of matched items whose entry's first
  /// result `correct(k, outs)` rejects.  Resets the check.
  template <class F>
  std::size_t wrong(F&& correct) {
    std::size_t n = 0;
    for (std::size_t k = 0; k < kPool; ++k)
      if (entries_[k].items > 0 && !correct(k, entries_[k].first)) n += entries_[k].items;
    entries_ = {};
    return n;
  }

 private:
  struct Entry {
    std::vector<bfv::Ciphertext> first;
    std::size_t items = 0;
  };

  static bool same(const std::vector<bfv::Ciphertext>& a, const std::vector<bfv::Ciphertext>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].c.size() != b[i].c.size()) return false;
      for (std::size_t j = 0; j < a[i].c.size(); ++j)
        if (a[i].c[j].towers != b[i].c[j].towers) return false;
    }
    return true;
  }

  std::array<Entry, kPool> entries_{};
};

/// Move `n` items that passed the in-window check but decrypted wrong to
/// the failed count.
void fail_wrong(Window& w, std::size_t n) {
  w.items -= n;
  w.failed += n;
}

/// Run `item(i)` back to back until `seconds` have passed; the next item is
/// due the moment the previous result arrives, so lag_ms is the loop's own
/// time between a result and the next submit.
template <class F>
Window closed_loop(double seconds, F&& item) {
  Window w;
  const double cpu0 = process_cpu_seconds();
  const auto start = Clock::now();
  auto due = start, last = start;
  for (std::size_t i = 0; since(start) < seconds; ++i) {
    ++w.attempted;
    try {
      const ItemResult r = item(i);
      w.lag_ms.push_back(ms_between(due, r.submit));
      w.latency_ms.push_back(ms_between(r.submit, r.done));
      w.done_s.push_back(ms_between(start, r.done) * 1e-3);
      due = last = r.done;
      ++(r.ok ? w.items : w.failed);
    } catch (const std::exception&) {
      ++w.failed;
      due = last = Clock::now();
    }
  }
  w.elapsed_s = std::chrono::duration<double>(last - start).count();
  w.cpu_s = process_cpu_seconds() - cpu0;
  return w;
}

/// Unbounded blocking FIFO between an open-loop generator and its collector.
template <class T>
class Channel {
 public:
  void push(T v) {
    {
      const std::lock_guard lk(mu_);
      q_.push_back(std::move(v));
    }
    cv_.notify_one();
  }
  T pop() {
    std::unique_lock lk(mu_);
    cv_.wait(lk, [&] { return !q_.empty(); });
    T v = std::move(q_.front());
    q_.pop_front();
    return v;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> q_;
};

/// A workload serving through an EvalService on a kChips-chip farm.
class ServiceWorkload : public Workload {
 public:
  ServiceWorkload(bfv::BfvParams params, std::uint64_t seed)
      : params_(std::move(params)), seed_(seed), rng_(seed ^ 0x9E3779B97F4A7C15ull) {}

  void stop() override {
    if (svc_ != nullptr) svc_->shutdown();
  }
  driver::HostDriver* probe_driver() override { return &farm_->driver(0); }
  double service_sim_seconds() const override {
    const ServiceStats s = svc_->stats();
    return s.io_seconds + s.compute_seconds;
  }
  Keys& keys() override { return *keys_; }

  void window_metrics(const Window& w, Ledger& out) override {
    const ServiceStats& a = before_;
    const ServiceStats& b = after_;
    const double per = w.attempted > 0 ? 1.0 / static_cast<double>(w.attempted) : 0.0;
    const double span = b.pipeline_span_seconds - a.pipeline_span_seconds;
    const double io = b.io_seconds - a.io_seconds;
    const double compute = b.compute_seconds - a.compute_seconds;
    put(out, "service.sim_io_s", io * per, "s/item", "sim");
    put(out, "service.sim_compute_s", compute * per, "s/item", "sim");
    put(out, "service.sim_host_prep_s",
        (b.sim_host_prep_seconds - a.sim_host_prep_seconds) * per, "s/item", "sim");
    put(out, "service.sim_host_finish_s",
        (b.sim_host_finish_seconds - a.sim_host_finish_seconds) * per, "s/item", "sim");
    put(out, "service.pipeline_span_s", span * per, "s/item", "sim");
    put(out, "service.chip_occupancy",
        (b.sim_chip_round_seconds - a.sim_chip_round_seconds) / span, "ratio", "sim");
    put(out, "service.overlapped_rounds_frac",
        static_cast<double>(b.overlapped_rounds - a.overlapped_rounds) /
            static_cast<double>(b.rounds - a.rounds),
        "ratio", "none");
    put(out, "service.peak_queue_depth", static_cast<double>(b.peak_queue_depth), "count",
        "none");
    put(out, "service.forced_picks", static_cast<double>(b.forced_picks - a.forced_picks),
        "count", "none");

    double busy = 0, cycles = 0;
    for (std::size_t c = 0; c < b.per_chip.size(); ++c) {
      busy += b.per_chip[c].busy_wall_seconds - a.per_chip[c].busy_wall_seconds;
      cycles += static_cast<double>(b.per_chip[c].chip_cycles - a.per_chip[c].chip_cycles);
    }
    put(out, "service.chip_busy_frac",
        busy / (static_cast<double>(b.per_chip.size()) * w.elapsed_s), "ratio", "wall");
    put(out, "chip.cycles_per_item", cycles * per, "count", "sim");

    const double uploads = static_cast<double>(b.key_uploads - a.key_uploads);
    const double hits = static_cast<double>(b.key_cache_hits - a.key_cache_hits);
    put(out, "driver.key_uploads_per_item", uploads * per, "count", "none");
    put(out, "driver.key_cache_hit_ratio", uploads + hits > 0 ? hits / (uploads + hits) : 0,
        "ratio", "none");
    put(out, "driver.key_cache_base_per_item", (uploads + hits) * per, "count", "none");
    put(out, "driver.sram_reuses_per_item",
        static_cast<double>(b.sram_reuses - a.sram_reuses) * per, "count", "none");
    put(out, "driver.twiddle_cache_hits",
        static_cast<double>(b.twiddle_cache_hits - a.twiddle_cache_hits) * per, "count",
        "none");
    put(out, "driver.io_share_sim", io / (io + compute), "ratio", "sim");
    // Each chip op appends to its chip's power trace and the service never
    // clears it, so the heap grows with every item served.
    put(out, "chip.power_segments_per_item", (segments_after_ - segments_before_) * per,
        "count", "none");
  }

 protected:
  /// Quiescent snapshots around a timed window.
  void begin_window() {
    before_ = quiet_stats();
    segments_before_ = power_segments();
  }
  void end_window() {
    after_ = quiet_stats();
    segments_after_ = power_segments();
  }

  /// Power-trace segments held by the farm's chips (read at quiescence).
  double power_segments() const {
    double n = 0;
    for (std::size_t c = 0; c < farm_->size(); ++c)
      n += static_cast<double>(farm_->chip(c).power_trace().segments().size());
    return n;
  }

  /// Keygen, farm and service; `trace` goes into ServiceOptions::trace and
  /// wraps the benchmark's own layer calls.
  void build_service(TraceRecorder* trace, bool relin,
                     service::Strategy strategy = service::Strategy::kBatchPerChip) {
    trace_ = trace;
    keys_ = std::make_unique<Keys>(params_, seed_);
    farm_ = std::make_unique<service::ChipFarm>(kChips);
    service::ServiceOptions opts;
    if (relin) opts.relin_keys = &keys_->rk;
    opts.trace = trace;
    opts.strategy = strategy;
    svc_ = std::make_unique<service::EvalService>(*keys_->scheme, *farm_, opts);
  }

  /// Stats snapshot at quiescence (drain first: stats lag the futures).
  ServiceStats quiet_stats() {
    svc_->drain();
    return svc_->stats();
  }

  /// Simulated cost of one closed-loop item, from the stats around it; the
  /// item runs alone on a warmed farm, so these repeat exactly.
  static void put_sim(const ServiceStats& a, const ServiceStats& b, Ledger& out) {
    const double span = b.pipeline_span_seconds - a.pipeline_span_seconds;
    put(out, "sim_items_per_s", 1.0 / span, "items/s", "sim");
    put(out, "sim_latency_ms", span * 1e3, "ms", "sim");
  }

  /// CPU ms the last window's chip sessions account for: ring
  /// configurations, tower runs and key-switch tower runs, each at its
  /// probed per-call cost.
  double chip_cpu_ms(const LayerCosts& c) const {
    double ms = 0;
    for (std::size_t i = 0; i < after_.per_chip.size(); ++i) {
      const auto& a = before_.per_chip[i];
      const auto& b = after_.per_chip[i];
      ms += static_cast<double>(b.ring_configs - a.ring_configs) * c.configure +
            static_cast<double>(b.tower_runs - a.tower_runs) * c.tower_run +
            static_cast<double>(b.relin_tower_runs - a.relin_tower_runs) * c.relin_run;
    }
    return ms;
  }

  bfv::BfvParams params_;
  std::uint64_t seed_;
  poly::Rng rng_;
  TraceRecorder* trace_ = nullptr;
  std::unique_ptr<Keys> keys_;
  std::unique_ptr<service::ChipFarm> farm_;
  std::unique_ptr<service::EvalService> svc_;
  ServiceStats before_, after_;  // around the last window
  double segments_before_ = 0, segments_after_ = 0;
};

// --- cryptonets_graph ------------------------------------------------------

/// CryptoNets inference, one CryptoNet{8,4,2} graph per image (4 complete
/// EvalMult squarings), closed loop through GraphExecutor::run on a 2-chip
/// farm.  The paper's Table X application; key switching dominates its
/// simulated time and it exercises the graph and SRAM-reuse paths.
class CryptonetsGraph final : public ServiceWorkload {
 public:
  explicit CryptonetsGraph(std::uint64_t seed)
      : ServiceWorkload(bfv::BfvParams::paper_small(), seed) {}

  void setup(TraceRecorder* trace) override {
    build_service(trace, /*relin=*/true);
    net_ = std::make_unique<apps::CryptoNet>(keys_->scheme->context(),
                                             apps::NetworkConfig{8, 4, 2, 42});
    const auto t0 = Clock::now();
    graph::Graph g;
    std::vector<graph::NodeId> ins;
    for (std::size_t i = 0; i < net_->config().inputs; ++i) ins.push_back(g.input());
    (void)net_->build_graph(g, ins);
    cg_ = graph::compile(g);
    compile_ms_ = ms_between(t0, Clock::now());
    ex_ = std::make_unique<graph::GraphExecutor>(*keys_->scheme, *svc_);
    pool_.push_back(make_image());
    ItemResult r;
    if (!correct(pool_[0], infer(pool_[0], r)))
      throw std::runtime_error("cryptonets_graph: warm-up image wrong");
  }

  void warm(Ledger& out) override {
    while (pool_.size() < kPool) pool_.push_back(make_image());
    const ServiceStats a = quiet_stats();
    graph::GraphRunStats gs;
    ItemResult r;
    if (!correct(pool_[1], infer(pool_[1], r, &gs)))
      throw std::runtime_error("cryptonets_graph: warm-up image wrong");
    put_sim(a, quiet_stats(), out);
    put(out, "graph.compile_ms", compile_ms_, "ms", "wall");
    put(out, "graph.rounds_per_item", static_cast<double>(gs.rounds), "count", "none");
    put(out, "graph.critical_path_sim_s", gs.critical_path_seconds, "s", "sim");
  }

  Window run(double seconds) override {
    begin_window();
    Window w = closed_loop(seconds, [&](std::size_t i) {
      ItemResult r;
      r.ok = check_.match(i % kPool, infer(pool_[i % kPool], r));
      return r;
    });
    end_window();
    const TraceRecorder::WallSpan span(trace_, "check.outputs", "e2e");
    fail_wrong(w, check_.wrong([&](std::size_t k, const std::vector<bfv::Ciphertext>& outs) {
      return correct(pool_[k], outs);
    }));
    return w;
  }

  double attributed_cpu_ms(const LayerCosts& c, const Window& w) const override {
    const double images = static_cast<double>(w.attempted);
    double host = 0;  // the graph's inline host ops, per image
    for (const graph::Round& r : cg_.rounds)
      for (graph::NodeId id : r.host_ops) {
        const graph::OpKind op = cg_.nodes[id].op;
        host += op == graph::OpKind::kAdd      ? c.add
                : op == graph::OpKind::kNegate ? c.negate
                                               : c.mul_plain;
      }
    const double per_request = c.prepare + c.assemble + c.prepare_relin + c.assemble_relin;
    return chip_cpu_ms(c) + images * (static_cast<double>(cg_.chip_ops) * per_request + host);
  }

  bool squares() const override { return true; }

 private:
  struct Image {
    std::vector<std::int64_t> x;
    std::vector<bfv::Ciphertext> ct;
    std::vector<std::int64_t> want;
  };

  Image make_image() {
    Image im;
    for (std::size_t i = 0; i < net_->config().inputs; ++i) {
      im.x.push_back(static_cast<std::int64_t>(rng_.uniform_below(5)) - 2);
      im.ct.push_back(keys_->encrypt(im.x.back()));
    }
    im.want = net_->infer_plain(im.x);
    return im;
  }

  /// One image through the graph; stamps its submit and done times on `r`.
  std::vector<bfv::Ciphertext> infer(const Image& im, ItemResult& r,
                                     graph::GraphRunStats* gs = nullptr) {
    const TraceRecorder::WallSpan span(trace_, "graph.run", "e2e");
    r.submit = Clock::now();
    std::vector<bfv::Ciphertext> outs = ex_->run(cg_, im.ct, {}, gs);
    r.done = Clock::now();
    return outs;
  }

  bool correct(const Image& im, const std::vector<bfv::Ciphertext>& outs) const {
    bool ok = outs.size() == im.want.size();
    for (std::size_t k = 0; ok && k < outs.size(); ++k)
      ok = apps::decode_logit(*keys_->scheme, keys_->sk, outs[k]) == im.want[k];
    return ok;
  }

  std::unique_ptr<apps::CryptoNet> net_;
  graph::CompiledGraph cg_;
  double compile_ms_ = 0;
  std::unique_ptr<graph::GraphExecutor> ex_;
  std::vector<Image> pool_;
  OutputCheck check_;
};

// --- evalmult_wire ---------------------------------------------------------

/// A batch of 4 EvalMults (kEvalMult, n = 4096) -- the Eq. 4 tensor without
/// key switching.
struct MultBatch {
  std::vector<EvalRequest> reqs;
  std::vector<std::int64_t> want;
};

MultBatch make_mult_batch(Keys& k, poly::Rng& rng) {
  MultBatch b;
  for (std::size_t i = 0; i < kBatch; ++i) {
    const std::int64_t x = operand(rng), y = operand(rng);
    b.reqs.push_back({k.encrypt(x), k.encrypt(y), RequestKind::kEvalMult});
    b.want.push_back(x * y);
  }
  return b;
}

bool mult_batch_ok(const Keys& k, const MultBatch& b, const std::vector<bfv::Ciphertext>& out) {
  bool ok = out.size() == b.want.size();
  for (std::size_t i = 0; ok && i < out.size(); ++i) ok = k.decrypt(out[i]) == b.want[i];
  return ok;
}

/// Closed loop of EvalMult batches over one loopback EvalClient ->
/// EvalServer connection to a 2-chip farm.  Tensor only, no key switching,
/// and the only workload with a wire layer.
class EvalmultWire final : public ServiceWorkload {
 public:
  explicit EvalmultWire(std::uint64_t seed)
      : ServiceWorkload(bfv::BfvParams::paper_small(), seed) {}

  void setup(TraceRecorder* trace) override {
    build_service(trace, /*relin=*/false);
    server_ = std::make_unique<net::EvalServer>(*svc_);
    client_ = std::make_unique<net::EvalClient>("127.0.0.1", server_->port());
    client_->hello({Priority::kNormal, /*tenant=*/1, /*weight=*/1});
    pool_.push_back(make_mult_batch(*keys_, rng_));
    ItemResult r;
    if (!mult_batch_ok(*keys_, pool_[0], send(pool_[0], r)))
      throw std::runtime_error("evalmult_wire: warm-up batch wrong");
  }

  void warm(Ledger& out) override {
    while (pool_.size() < kPool) pool_.push_back(make_mult_batch(*keys_, rng_));
    const ServiceStats a = quiet_stats();
    ItemResult r;
    if (!mult_batch_ok(*keys_, pool_[1], send(pool_[1], r)))
      throw std::runtime_error("evalmult_wire: warm-up batch wrong");
    put_sim(a, quiet_stats(), out);
  }

  Window run(double seconds) override {
    begin_window();
    Window w = closed_loop(seconds, [&](std::size_t i) {
      ItemResult r;
      r.ok = check_.match(i % kPool, send(pool_[i % kPool], r));
      return r;
    });
    end_window();
    const TraceRecorder::WallSpan span(trace_, "check.outputs", "e2e");
    fail_wrong(w, check_.wrong([&](std::size_t k, const std::vector<bfv::Ciphertext>& outs) {
      return mult_batch_ok(*keys_, pool_[k], outs);
    }));
    return w;
  }

  void probe_extra(Ledger& out) override {
    constexpr int kReps = 5;
    const MultBatch& b = pool_[0];
    const net::SubmitFrame sf{{}, b.reqs};
    const std::vector<net::ResultItem> results = client_->submit_batch(b.reqs);
    std::vector<std::uint8_t> submit, reply;
    std::vector<double> enc, dec, wire, local;
    for (int r = 0; r < kReps; ++r) {
      const TraceRecorder::WallSpan span(trace_, "probe.net.codecs", "probe");
      const auto t0 = Clock::now();
      submit = net::encode_submit(sf);
      const auto t1 = Clock::now();
      (void)net::decode_submit(submit);
      const auto t2 = Clock::now();
      reply = net::encode_result_batch(results);
      const auto t3 = Clock::now();
      (void)net::decode_result_batch(reply);
      const auto t4 = Clock::now();
      enc.push_back(ms_between(t0, t1) + ms_between(t2, t3));
      dec.push_back(ms_between(t1, t2) + ms_between(t3, t4));
    }
    // The same batch over the socket and in-process: the difference is
    // what the wire layer adds per batch.
    for (int r = 0; r < kReps; ++r) {
      auto t0 = Clock::now();
      (void)client_->submit_batch(b.reqs);
      wire.push_back(ms_between(t0, Clock::now()));
      t0 = Clock::now();
      for (auto& f : svc_->submit_batch(b.reqs)) (void)f.get();
      local.push_back(ms_between(t0, Clock::now()));
    }
    codec_ms_ = quantile(enc, 0.5) + quantile(dec, 0.5);
    double raw = 0;
    for (const auto& req : b.reqs)
      for (const auto* ct : {&req.a, &req.b})
        for (const auto& p : ct->c)
          for (const auto& t : p.towers) raw += static_cast<double>(t.size() * sizeof(std::uint64_t));
    const double bytes = static_cast<double>(net::kHeaderSize + submit.size());
    put(out, "net.encode_us", quantile(enc, 0.5) * 1e3, "us", "wall");
    put(out, "net.decode_us", quantile(dec, 0.5) * 1e3, "us", "wall");
    put(out, "net.submit_bytes_per_item", bytes, "B", "none");
    put(out, "net.framing_overhead_frac", bytes / raw - 1.0, "ratio", "none");
    put(out, "net.wire_ms_per_batch", quantile(wire, 0.5) - quantile(local, 0.5), "ms", "wall");
  }

  void stop() override {
    if (client_ != nullptr) {
      client_->bye();
      client_.reset();
    }
    if (server_ != nullptr) server_->stop();
    ServiceWorkload::stop();
  }

  double attributed_cpu_ms(const LayerCosts& c, const Window& w) const override {
    const double batches = static_cast<double>(w.attempted);
    return chip_cpu_ms(c) +
           batches * (static_cast<double>(kBatch) * (c.prepare + c.assemble) + codec_ms_);
  }

 private:
  /// One batch over the connection; stamps its submit and done times on
  /// `r`.  The results stop at the first rejected item.
  std::vector<bfv::Ciphertext> send(const MultBatch& b, ItemResult& r) {
    std::vector<net::ResultItem> res;
    {
      const TraceRecorder::WallSpan span(trace_, "net.submit_batch", "e2e");
      r.submit = Clock::now();
      res = client_->submit_batch(b.reqs);
      r.done = Clock::now();
    }
    std::vector<bfv::Ciphertext> out;
    for (auto& item : res) {
      if (!item.ok) break;
      out.push_back(std::move(item.value));
    }
    return out;
  }

  std::unique_ptr<net::EvalServer> server_;
  std::unique_ptr<net::EvalClient> client_;
  std::vector<MultBatch> pool_;
  OutputCheck check_;
  double codec_ms_ = 0;  // wire codec cost per batch (probe_extra)
};

// --- mixed_priority --------------------------------------------------------

/// Open loop, two tenants on a 2-chip farm at about half utilisation:
/// tenant 1 sends kHigh single complete EvalMults at 2.5/s, tenant 2 sends
/// kLow batches of 4 EvalMults at 0.5/s, both periodic with seeded jitter.
/// The only workload with queueing and priority / fair-share contention
/// between request classes.  The farm shards each round's towers over both
/// chips, the latency strategy: a lone kHigh request then takes ~190 ms
/// instead of holding one chip for ~330 ms of its 400 ms period, where a
/// 15% slower host tipped rounds into queueing (on a 4-core VM, p50 ranged
/// 328-402 ms over six runs, against 187-196 ms sharded).
class MixedPriority final : public ServiceWorkload {
 public:
  explicit MixedPriority(std::uint64_t seed)
      : ServiceWorkload(bfv::BfvParams::paper_small(), seed) {}

  void setup(TraceRecorder* trace) override {
    build_service(trace, /*relin=*/true, service::Strategy::kShardTowers);
    high_.push_back(make_high());
    auto f = svc_->submit(high_[0].req, kHighSo);
    if (keys_->decrypt(f.get()) != high_[0].want)
      throw std::runtime_error("mixed_priority: warm-up request wrong");
  }

  void warm(Ledger& /*out*/) override {
    while (high_.size() < kPool) high_.push_back(make_high());
    while (low_.size() < kPool) low_.push_back(make_mult_batch(*keys_, rng_));
    std::vector<bfv::Ciphertext> out;
    for (auto& f : svc_->submit_batch(low_[0].reqs, kLowSo)) out.push_back(f.get());
    if (!mult_batch_ok(*keys_, low_[0], out))
      throw std::runtime_error("mixed_priority: warm-up batch wrong");
  }

  Window run(double seconds) override {
    // Periodic arrivals with seeded jitter, phased so that every fifth kHigh
    // request lands kContendedS into a kLow batch: p50 is then a kHigh
    // request on a free farm and p90 one queued behind kLow work.  Poisson
    // arrivals made kHigh latency bimodal at the median -- a request either
    // finds the farm free or waits out a round -- and over a 20 s window on
    // a 4-core VM moved p50 by up to a third between runs of the same code.
    const auto arrivals = [&](double rate, double phase) {
      std::vector<double> due;
      for (double t = phase; t < seconds; t += 1.0 / rate) {
        const double unit = static_cast<double>(rng_.uniform_below(1u << 20)) / (1u << 20);
        due.push_back(std::max(0.0, t + kJitterS * (2.0 * unit - 1.0)));
      }
      return due;
    };
    const std::vector<double> high_due = arrivals(kHighRate, kLowPhaseS + kContendedS);
    const std::vector<double> low_due = arrivals(kLowRate, kLowPhaseS);

    begin_window();
    const double cpu0 = process_cpu_seconds();
    const auto start = Clock::now();
    Stream high, low;
    high.last = low.last = start;
    {
      const std::jthread gh([&] { generate(high, high_due, start, /*is_high=*/true); });
      const std::jthread gl([&] { generate(low, low_due, start, /*is_high=*/false); });
      const std::jthread ch([&] { collect(high, high_due, start, /*is_high=*/true); });
      const std::jthread cl([&] { collect(low, low_due, start, /*is_high=*/false); });
    }
    Window w;
    w.cpu_s = process_cpu_seconds() - cpu0;
    end_window();
    w.elapsed_s = std::chrono::duration<double>(std::max(high.last, low.last) - start).count();
    w.latency_ms = std::move(high.latency_ms);
    w.done_s = std::move(high.done_s);
    w.lag_ms = std::move(high.lag_ms);
    w.lag_ms.insert(w.lag_ms.end(), low.lag_ms.begin(), low.lag_ms.end());
    high_requests_ = high_due.size();
    low_requests_ = low_due.size() * kBatch;
    w.attempted = high_requests_ + low_requests_;
    w.items = high.ok + low.ok;
    w.failed = high.failed + low.failed;
    low_latency_ms_ = std::move(low.latency_ms);

    const TraceRecorder::WallSpan span(trace_, "check.outputs", "e2e");
    fail_wrong(w, high.check.wrong([&](std::size_t k, const std::vector<bfv::Ciphertext>& outs) {
      return outs.size() == 1 && keys_->decrypt(outs[0]) == high_[k].want;
    }));
    fail_wrong(w, kBatch * low.check.wrong([&](std::size_t k,
                                               const std::vector<bfv::Ciphertext>& outs) {
      return mult_batch_ok(*keys_, low_[k], outs);
    }));
    return w;
  }

  void window_metrics(const Window& w, Ledger& out) override {
    ServiceWorkload::window_metrics(w, out);
    const double span = after_.pipeline_span_seconds - before_.pipeline_span_seconds;
    put(out, "sim_items_per_s", static_cast<double>(w.attempted) / span, "items/s", "sim");
    put(out, "service.low_class_p90_ms", quantile(low_latency_ms_, 0.9), "ms", "wall");
  }

  double attributed_cpu_ms(const LayerCosts& c, const Window& /*w*/) const override {
    return chip_cpu_ms(c) +
           static_cast<double>(high_requests_) *
               (c.prepare + c.assemble + c.prepare_relin + c.assemble_relin) +
           static_cast<double>(low_requests_) * (c.prepare + c.assemble);
  }

 private:
  static constexpr double kHighRate = 2.5;     // kHigh requests per second
  static constexpr double kLowRate = 0.5;      // kLow batches per second
  static constexpr double kLowPhaseS = 0.05;   // first kLow arrival, s
  static constexpr double kContendedS = 0.1;   // kHigh offset into a kLow batch, s
  static constexpr double kJitterS = 0.02;     // +- uniform jitter per arrival, s
  static constexpr service::SubmitOptions kHighSo{Priority::kHigh, /*tenant=*/1, 1};
  static constexpr service::SubmitOptions kLowSo{Priority::kLow, /*tenant=*/2, 1};

  struct High {
    EvalRequest req;
    std::int64_t want = 0;
  };

  /// One submitted unit on its way from generator to collector.
  struct Sent {
    std::size_t index = 0;                              // arrival index
    std::vector<std::future<bfv::Ciphertext>> futures;  // empty: submit threw
  };

  /// One tenant's half of the open loop.  The generator writes lag_ms, the
  /// collector the rest; run() reads both after joining them.
  struct Stream {
    Channel<Sent> sent;
    std::vector<double> lag_ms, latency_ms, done_s;
    std::size_t ok = 0, failed = 0;
    Clock::time_point last{};
    OutputCheck check;
  };

  High make_high() {
    const std::int64_t x = operand(rng_), y = operand(rng_);
    return {{keys_->encrypt(x), keys_->encrypt(y), RequestKind::kMultRelin}, x * y};
  }

  static Clock::time_point due_at(Clock::time_point start, double due_s) {
    return start +
           std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(due_s));
  }

  void generate(Stream& s, const std::vector<double>& due, Clock::time_point start,
                bool is_high) {
    for (std::size_t i = 0; i < due.size(); ++i) {
      const auto at = due_at(start, due[i]);
      std::this_thread::sleep_until(at);
      const TraceRecorder::WallSpan span(trace_, "service.submit", "e2e");
      s.lag_ms.push_back(ms_between(at, Clock::now()));
      Sent sent{i, {}};
      try {
        if (is_high)
          sent.futures.push_back(svc_->submit(high_[i % kPool].req, kHighSo));
        else
          sent.futures = svc_->submit_batch(low_[i % kPool].reqs, kLowSo);
      } catch (const std::exception&) {
        sent.futures.clear();
      }
      s.sent.push(std::move(sent));
    }
  }

  /// Wait for each unit in submit order (one tenant's units complete in
  /// order), timing it from its due time, then match it in the stream's
  /// output check.
  void collect(Stream& s, const std::vector<double>& due, Clock::time_point start,
               bool is_high) {
    const std::size_t requests = is_high ? 1 : kBatch;
    for (std::size_t n = 0; n < due.size(); ++n) {
      Sent sent = s.sent.pop();
      bool ok = !sent.futures.empty();
      std::vector<bfv::Ciphertext> out;
      {
        const TraceRecorder::WallSpan span(trace_, "service.wait", "e2e");
        for (auto& f : sent.futures) {
          try {
            out.push_back(f.get());
          } catch (const std::exception&) {
            ok = false;
          }
        }
      }
      const auto done = Clock::now();
      if (ok) {
        s.last = std::max(s.last, done);
        s.latency_ms.push_back(ms_between(due_at(start, due[sent.index]), done));
        s.done_s.push_back(ms_between(start, done) * 1e-3);
        ok = s.check.match(sent.index % kPool, std::move(out));
      }
      (ok ? s.ok : s.failed) += requests;
    }
  }

  std::vector<High> high_;
  std::vector<MultBatch> low_;
  std::size_t high_requests_ = 0, low_requests_ = 0;
  std::vector<double> low_latency_ms_;
};

// --- host_bfv --------------------------------------------------------------

/// Software BFV with no chip at paper_large (n = 8192): closed loop of
/// encrypt x2 -> multiply -> relinearize -> decrypt chains.  Fig. 6's CPU
/// baseline; exercises the nt, poly and bfv kernels and nothing else.
class HostBfv final : public Workload {
 public:
  explicit HostBfv(std::uint64_t seed) : seed_(seed), rng_(seed ^ 0x9E3779B97F4A7C15ull) {}

  void setup(TraceRecorder* trace) override {
    trace_ = trace;
    keys_ = std::make_unique<Keys>(bfv::BfvParams::paper_large(), seed_);
    pool_.push_back({operand(rng_), operand(rng_)});
    if (!chain(pool_[0]).ok) throw std::runtime_error("host_bfv: warm-up chain wrong");
  }

  void warm(Ledger& /*out*/) override {
    while (pool_.size() < kPool) pool_.push_back({operand(rng_), operand(rng_)});
    if (!chain(pool_[1]).ok) throw std::runtime_error("host_bfv: warm-up chain wrong");
  }

  Window run(double seconds) override {
    return closed_loop(seconds, [&](std::size_t i) { return chain(pool_[i % kPool]); });
  }

  double attributed_cpu_ms(const LayerCosts& c, const Window& w) const override {
    return static_cast<double>(w.attempted) *
           (2 * c.encrypt + c.multiply + c.relinearize + c.decrypt);
  }

  Keys& keys() override { return *keys_; }

 private:
  struct Pair {
    std::int64_t x = 0, y = 0;
  };

  ItemResult chain(const Pair& p) {
    const bfv::Bfv& s = *keys_->scheme;
    ItemResult r;
    bfv::Ciphertext a, b, m, out;
    std::int64_t v = 0;
    r.submit = Clock::now();
    {
      const TraceRecorder::WallSpan span(trace_, "bfv.encrypt", "e2e");
      a = keys_->encrypt(p.x);
      b = keys_->encrypt(p.y);
    }
    {
      const TraceRecorder::WallSpan span(trace_, "bfv.multiply", "e2e");
      m = s.multiply(a, b);
    }
    {
      const TraceRecorder::WallSpan span(trace_, "bfv.relinearize", "e2e");
      out = s.relinearize(m, keys_->rk);
    }
    {
      const TraceRecorder::WallSpan span(trace_, "bfv.decrypt", "e2e");
      v = keys_->decrypt(out);
    }
    r.done = Clock::now();
    r.ok = v == p.x * p.y;
    return r;
  }

  std::uint64_t seed_;
  poly::Rng rng_;
  TraceRecorder* trace_ = nullptr;
  std::unique_ptr<Keys> keys_;
  std::vector<Pair> pool_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"cryptonets_graph", "evalmult_wire",
                                                 "mixed_priority", "host_bfv"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "cryptonets_graph") return std::make_unique<CryptonetsGraph>(seed);
  if (name == "evalmult_wire") return std::make_unique<EvalmultWire>(seed);
  if (name == "mixed_priority") return std::make_unique<MixedPriority>(seed);
  if (name == "host_bfv") return std::make_unique<HostBfv>(seed);
  return nullptr;
}

}  // namespace cofhee::e2e

