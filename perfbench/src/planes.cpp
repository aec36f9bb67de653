#include "planes.hpp"

#include <malloc.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "net/connection.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "runtime/live_engine.hpp"
#include "runtime/multiproc.hpp"
#include "server/protocol.hpp"
#include "telemetry/metrics.hpp"

namespace perfbench {
namespace {

namespace tel = fastjoin::telemetry;
namespace srv = fastjoin::server;
namespace net = fastjoin::net;

/// mp_hotkeys: publish() takes one record; one ack sample times this
/// many. Per 16 records, pump and checkpoint-round stalls hold about
/// 0.3 % of the samples and p99 sits in the dense body (four runs within
/// 1.2 %). Per 256 they held 1.5 % and p99 sat on their edge, moving by
/// 41 % between runs; per 1,024 p99 sat inside them and moved with the
/// host's load by up to 63 %.
constexpr std::size_t kAckRecords = 16;
/// mp_hotkeys: a registry scrape (the closed loop's state read) after
/// every this many timed records: ~4,000 samples a 30 s run.
constexpr std::size_t kScrapeEveryRecords = 512;
/// Sample one ingest call in this many as a span in the traced run.
constexpr std::size_t kSpanEvery = 16;
/// serve_wide: a slot sent later than this after its due time is a
/// missed slot (the generator lost its schedule). Spinning threads on a
/// 4-vCPU KVM guest of a shared host saw preemption gaps of 16-32 ms,
/// which delay the generator without the system being at fault.
constexpr double kMissedSlotS = 0.050;
/// serve_wide traced run: router pumps at least this long become spans.
constexpr double kSlowPumpS = 50e-6;

double mib(std::uint64_t kb) { return static_cast<double>(kb) / 1024.0; }

void fail(RepResult& r, std::uint64_t n, std::string why) {
  r.failed += n;
  r.errors.push_back(std::move(why));
}

/// Snapshot the process-wide metric registry: the public read surface
/// of a running router. Returns its latency in microseconds. (Rendering
/// the snapshot as JSON as well made the latency no steadier.)
double scrape_us(Tracer& tr, std::uint32_t parent) {
  const double a = now_s();
  const auto snap = tel::MetricRegistry::global().snapshot();
  const double e = now_s();
  tr.add("scrape", a, e, parent);
  return snap.counters.empty() ? -1.0 : (e - a) * 1e6;
}

/// Baseline of the peak-RSS measurement: hand memory freed by earlier
/// repetitions back to the kernel first, or the allocator reuses it and
/// the growth of the next repetition depends on what is still cached.
std::uint64_t rss_baseline_kb() {
  ::malloc_trim(0);
  reset_peak_rss();
  return vm_rss_kb();
}

/// Tuples a checkpoint round snapshots, summed over the rounds that
/// fall after the warm-up: with full-history stores the state after i
/// records is i tuples, and a round runs every kCheckpointEvery records.
double checkpoint_tuples_per_timed_rec(std::uint64_t records,
                                       std::uint64_t warmup) {
  double tuples = 0.0;
  for (std::uint64_t at = kCheckpointEvery; at <= records;
       at += kCheckpointEvery) {
    if (at > warmup) tuples += static_cast<double>(at);
  }
  return tuples / static_cast<double>(records - warmup);
}

std::string socket_path(const PlaneOptions& opt, const char* what) {
  return opt.run_dir + "/" + what + "-" + std::to_string(::getpid()) + "-" +
         std::to_string(opt.rep_id) + ".sock";
}

/// The router leaves its listening sockets behind; a run cleans up.
void remove_sockets(const PlaneOptions& opt) {
  ::unlink(socket_path(opt, "mp").c_str());
  ::unlink(socket_path(opt, "serve").c_str());
}

fastjoin::MultiprocConfig router_config(const PlaneOptions& opt) {
  fastjoin::MultiprocConfig cfg;
  cfg.workers = kWorkers;
  cfg.endpoint = "unix:" + socket_path(opt, "mp");
  cfg.worker_command = {"/proc/self/exe"};
  cfg.collect_matches = false;
  cfg.checkpoint_every = kCheckpointEvery;
  return cfg;
}

/// Worker figures read through worker_pid() while the workers live.
struct WorkerProbe {
  std::uint64_t hwm_kb = 0;
  double cpu_max = 0.0;
  double cpu_skew = 0.0;
};

WorkerProbe probe_workers(const fastjoin::MultiprocRouter& router) {
  WorkerProbe p;
  double sum = 0.0;
  for (std::uint32_t w = 0; w < kWorkers; ++w) {
    const pid_t pid = router.worker_pid(w);
    if (pid <= 0) continue;
    p.hwm_kb += vm_hwm_kb(pid);
    const double cpu = pid_cpu_s(pid);
    p.cpu_max = std::max(p.cpu_max, cpu);
    sum += cpu;
  }
  p.cpu_skew = sum > 0.0 ? p.cpu_max / (sum / kWorkers) : 0.0;
  return p;
}

void check_router(RepResult& r, const fastjoin::MultiprocRouter& router,
                  bool finished, std::uint64_t expected) {
  const auto& st = router.stats();
  if (!finished) fail(r, 1, "router finish() timed out");
  if (st.records_dropped != 0) {
    fail(r, st.records_dropped,
         "router dropped " + std::to_string(st.records_dropped) +
             " delivery halves");
  }
  if (st.matches_total != expected) {
    fail(r, 1, "match total " + std::to_string(st.matches_total) +
                   " != reference " + std::to_string(expected));
  }
}

}  // namespace

RepResult run_inproc(const std::vector<Record>& trace, const Shape& shape,
                     std::uint64_t expected, const PlaneOptions& opt) {
  RepResult r;
  Tracer off;
  Tracer& tr = opt.tracer != nullptr ? *opt.tracer : off;
  const std::size_t n = trace.size();
  const std::size_t warm = std::min<std::size_t>(shape.warmup, n);
  // Records in the batch starting at i of a phase ending at `end`.
  auto m_of = [&shape](std::size_t i, std::size_t end) {
    return std::min(shape.batch, end - i);
  };
  r.ack_us.reserve((n - warm) / shape.batch + 1);
  tel::Counter& backpressure =
      tel::MetricRegistry::global().counter("live.lane_backpressure");

  const std::uint64_t base_kb = rss_baseline_kb();
  const std::uint64_t bp0 = backpressure.value();
  const double cpu0 = process_cpu_s();
  const double self0 = thread_cpu_s();
  const double t0 = now_s();
  const std::uint32_t rep = tr.begin("inproc.rep");
  const std::uint32_t setup = tr.begin("setup", rep);

  fastjoin::LiveConfig cfg;
  cfg.instances = 2;
  cfg.balancer = opt.balancer;
  auto engine = std::make_unique<fastjoin::LiveEngine>(cfg);
  {
    ScopedSpan s(tr, "start", setup);
    engine->start();
  }
  const int producer = engine->register_producer();
  std::uint64_t delivered = 0;
  std::size_t i = 0;
  for (std::size_t b = 0; i < warm; i += m_of(i, warm), ++b) {
    const double a = now_s();
    delivered += engine->push_batch(&trace[i], m_of(i, warm), producer);
    if (b % kSpanEvery == 0) tr.add("push_batch", a, now_s(), setup);
  }
  tr.end(setup);
  r.setup_s = now_s() - t0;

  const double t1 = now_s();
  const std::uint32_t timed = tr.begin("timed", rep);
  for (std::size_t b = 0; i < n; i += m_of(i, n), ++b) {
    const double a = now_s();
    delivered += engine->push_batch(&trace[i], m_of(i, n), producer);
    const double e = now_s();
    r.ack_us.push_back((e - a) * 1e6);
    if (b % kSpanEvery == 0) tr.add("push_batch", a, e, timed);
  }
  const std::vector<double> threads = other_threads_cpu_s();
  const double tf = now_s();
  const std::uint32_t fin = tr.begin("finish", timed);
  const fastjoin::LiveStats stats = engine->finish();
  tr.end(fin);
  const double te = now_s();
  tr.end(timed);
  const double engine_cpu =
      (process_cpu_s() - cpu0) - (thread_cpu_s() - self0);
  r.rss_peak_mb = mib(vm_hwm_kb() - std::min(vm_hwm_kb(), base_kb));
  engine.reset();
  tr.end(rep);

  r.throughput_rps = static_cast<double>(n - warm) / (te - t1);
  r.attempted = n;
  if (delivered != n) {
    fail(r, n - delivered, "push_batch delivered " + std::to_string(delivered) +
                               " of " + std::to_string(n) + " records");
  }
  if (stats.records_dropped != 0) {
    fail(r, stats.records_dropped,
         "engine dropped " + std::to_string(stats.records_dropped) +
             " deliveries");
  }
  // Exact with the balancer on too: migrations preserve the pair set.
  if (stats.results != expected) {
    fail(r, 1, "match total " + std::to_string(stats.results) +
                   " != reference " + std::to_string(expected));
  }
  if (tr.enabled()) {
    Layers& L = r.layers;
    L["runtime.push_batch_us_p50"] = quantile(r.ack_us, 0.5);
    L["runtime.push_batch_us_p99"] = quantile(r.ack_us, 0.99);
    L["runtime.lane_backpressure"] =
        static_cast<double>(backpressure.value() - bp0);
    L["runtime.engine_cpu_s"] = engine_cpu;
    L["runtime.busiest_thread_cpu_s"] =
        threads.empty() ? 0.0 : *std::max_element(threads.begin(), threads.end());
    L["runtime.finish_s"] = te - tf;
    L["runtime.migrations"] = static_cast<double>(stats.migrations);
  }
  return r;
}

RepResult run_multiproc(const std::vector<Record>& trace, const Shape& shape,
                        std::uint64_t expected, const PlaneOptions& opt) {
  RepResult r;
  Tracer off;
  Tracer& tr = opt.tracer != nullptr ? *opt.tracer : off;
  const std::size_t n = trace.size();
  const std::size_t warm = std::min<std::size_t>(shape.warmup, n);
  r.ack_us.reserve((n - warm) / kAckRecords + 1);
  r.query_us.reserve((n - warm) / kScrapeEveryRecords + 1);
  r.attempted = n;

  const std::uint64_t base_kb = rss_baseline_kb();
  const double t0 = now_s();
  const std::uint32_t rep = tr.begin("multiproc.rep");
  const std::uint32_t setup = tr.begin("setup", rep);
  auto router = std::make_unique<fastjoin::MultiprocRouter>(router_config(opt));
  std::string err;
  bool started = false;
  {
    ScopedSpan s(tr, "start", setup);
    started = router->start(&err);
  }
  if (!started) {
    fail(r, n, "router start failed: " + err);
    remove_sockets(opt);
    return r;
  }
  std::size_t i = 0;
  for (std::size_t b = 0; i < warm; i = std::min(i + shape.batch, warm), ++b) {
    const std::size_t end = std::min(i + shape.batch, warm);
    const double a = now_s();
    for (std::size_t k = i; k < end; ++k) router->publish(trace[k]);
    if (b % kSpanEvery == 0) tr.add("publish", a, now_s(), setup);
  }
  tr.end(setup);
  r.setup_s = now_s() - t0;

  const double t1 = now_s();
  const double router_cpu0 = thread_cpu_s();
  double publish_s = 0.0;
  const std::uint32_t timed = tr.begin("timed", rep);
  for (std::size_t u = 0; i < n; i = std::min(i + kAckRecords, n), ++u) {
    const std::size_t end = std::min(i + kAckRecords, n);
    const double a = now_s();
    for (std::size_t k = i; k < end; ++k) router->publish(trace[k]);
    const double e = now_s();
    publish_s += e - a;
    r.ack_us.push_back((e - a) * 1e6);
    if (u % kSpanEvery == 0) tr.add("publish", a, e, timed);
    if (end % kScrapeEveryRecords < kAckRecords) {
      r.query_us.push_back(scrape_us(tr, timed));
    }
  }
  const WorkerProbe workers = probe_workers(*router);
  const std::uint32_t fin = tr.begin("finish", timed);
  const bool finished = router->finish();
  tr.end(fin);
  const double te = now_s();
  tr.end(timed);
  const double router_cpu = thread_cpu_s() - router_cpu0;
  r.rss_peak_mb = mib(vm_hwm_kb() - std::min(vm_hwm_kb(), base_kb) +
                      workers.hwm_kb);
  check_router(r, *router, finished, expected);
  for (const double us : r.query_us) {
    if (us < 0.0) fail(r, 1, "registry scrape returned no counters");
  }
  const auto checkpoints = router->stats().checkpoints_completed;
  router.reset();
  remove_sockets(opt);
  tr.end(rep);
  r.throughput_rps = static_cast<double>(n - warm) / (te - t1);

  if (tr.enabled()) {
    Layers& L = r.layers;
    L["runtime.publish_ns_per_rec"] =
        publish_s * 1e9 / static_cast<double>(n - warm);
    L["runtime.router_cpu_s"] = router_cpu;
    L["runtime.worker_cpu_s_max"] = workers.cpu_max;
    L["runtime.worker_cpu_skew"] = workers.cpu_skew;
    L["runtime.checkpoints"] = static_cast<double>(checkpoints);
    L["runtime.checkpoint_tuples_per_rec"] =
        checkpoint_tuples_per_timed_rec(n, warm);
  }
  return r;
}

namespace {

constexpr std::uint16_t wire(srv::ClientMsgType t) {
  return static_cast<std::uint16_t>(t);
}

/// Frame reader over a raw socket. poll() never blocks: the open-loop
/// client interleaves it with sends on one spinning thread.
class FrameReader {
 public:
  explicit FrameReader(net::Socket& s) : s_(s) {}
  /// Next complete frame if one has arrived (false: none yet, or the
  /// stream ended or broke — see broken()).
  bool poll(net::Frame& out, bool wait) {
    while (ready_.empty()) {
      std::byte buf[64 * 1024];
      const ssize_t got =
          ::recv(s_.fd(), buf, sizeof(buf), wait ? 0 : MSG_DONTWAIT);
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
        if (!wait) return false;
        continue;
      }
      if (got <= 0 || !dec_.feed(buf, static_cast<std::size_t>(got), ready_)) {
        broken_ = true;
        return false;
      }
    }
    out = std::move(ready_.front());
    ready_.erase(ready_.begin());
    return true;
  }
  bool broken() const { return broken_; }

 private:
  net::Socket& s_;
  net::FrameDecoder dec_;
  std::vector<net::Frame> ready_;
  bool broken_ = false;
};

bool send_frame(net::Socket& s, srv::ClientMsgType t,
                const std::vector<std::byte>& payload) {
  const auto bytes = net::encode_frame(wire(t), payload);
  return net::send_all(s, bytes.data(), bytes.size());
}

srv::AppendMsg make_append(
    const std::vector<srv::ClientRecord>& recs, std::size_t from,
    std::size_t count, std::uint64_t req_id) {
  srv::AppendMsg m;
  m.req_id = req_id;
  m.records.assign(recs.begin() + static_cast<std::ptrdiff_t>(from),
                   recs.begin() + static_cast<std::ptrdiff_t>(from + count));
  return m;
}

/// Client side of one serve_wide repetition, on its own thread. It
/// spins rather than sleeps: on a shared-host KVM guest a sleeping thread can
/// wake milliseconds late, which would be charged to the system as
/// generator lateness.
struct ServeClient {
  // Inputs.
  const std::vector<srv::ClientRecord>* recs = nullptr;
  const Shape* shape = nullptr;
  net::Endpoint ep;
  // Outputs, read by the caller after done.
  std::atomic<bool> done{false};
  std::atomic<double> setup_end_s{0.0};
  double sched_start_s = 0.0;
  std::uint64_t offered = 0, admitted = 0, rejected = 0, appended = 0;
  std::uint64_t answered = 0, missed_slots = 0;
  std::vector<double> ack_us, query_us, late_us;
  std::vector<std::string> errors;
  Tracer tracer;

  void run();
  /// Account one reply of the timed phase.
  void on_reply(const net::Frame& f, double t, std::uint64_t req0,
                double period, const std::vector<double>& query_sent);
};

void ServeClient::on_reply(const net::Frame& f, double t, std::uint64_t req0,
                           double period,
                           const std::vector<double>& query_sent) {
  if (f.type == wire(srv::ClientMsgType::kQueryResult)) {
    srv::QueryResultMsg q;
    if (!decode(f.payload, q) || q.req_id < req0 + 1) {
      errors.push_back("bad query result");
      return;
    }
    const double sent = query_sent[(q.req_id - req0) / 2];
    ++answered;
    query_us.push_back((t - sent) * 1e6);
    tracer.add("query", sent, t, 0, q.req_id);
    return;
  }
  if (f.type == wire(srv::ClientMsgType::kAppendAck)) {
    srv::AppendAckMsg ack;
    if (!decode(f.payload, ack) || ack.req_id < req0) {
      errors.push_back("bad append ack");
      return;
    }
    // Timed from the slot's due time, so a stall also charges the
    // requests queued behind it.
    const double due =
        sched_start_s + static_cast<double>((ack.req_id - req0) / 2) * period;
    ++admitted;
    appended += ack.appended + ack.parked;
    ack_us.push_back((t - due) * 1e6);
    tracer.add("append", due, t, 0, ack.req_id);
    return;
  }
  ++rejected;
}

void ServeClient::run() {
  const std::size_t n = recs->size();
  const std::size_t batch = shape->batch;
  const std::size_t warm = std::min<std::size_t>(shape->warmup, n);
  std::string err;
  net::Socket sock = net::connect_with_retry(ep, std::chrono::seconds(10), &err);
  if (!sock.valid()) {
    errors.push_back("connect: " + err);
    done = true;
    return;
  }
  FrameReader reader(sock);
  net::Frame f;
  srv::ClientHelloMsg hello;
  hello.tenant = "perfbench";
  srv::ClientHelloAckMsg hack;
  if (!send_frame(sock, srv::ClientMsgType::kClientHello, encode(hello)) ||
      !reader.poll(f, true) || !decode(f.payload, hack) || hack.ok != 1) {
    errors.push_back("hello refused");
    done = true;
    return;
  }

  // Warm-up prefix, closed loop: part of set-up.
  std::uint64_t req = 1;
  for (std::size_t i = 0; i < warm; i += std::min(batch, warm - i)) {
    const std::size_t m = std::min(batch, warm - i);
    ++offered;
    srv::AppendAckMsg ack;
    if (!send_frame(sock, srv::ClientMsgType::kAppend,
                    encode(make_append(*recs, i, m, req++))) ||
        !reader.poll(f, true)) {
      errors.push_back("warm-up append failed");
      done = true;
      return;
    }
    if (f.type == wire(srv::ClientMsgType::kAppendAck) &&
        decode(f.payload, ack)) {
      ++admitted;
      appended += ack.appended + ack.parked;
    } else {
      ++rejected;
    }
  }
  setup_end_s = now_s();

  // Open loop: slot j is due at sched_start + j * period whatever the
  // replies do. Each slot sends an append (req_id req0 + 2j) and a
  // query for the batch's first key (req_id req0 + 2j + 1).
  const std::size_t slots = (n - warm + batch - 1) / batch;
  const double period = static_cast<double>(batch) / shape->offered_rps;
  std::vector<double> query_sent(slots, 0.0);
  const std::uint64_t req0 = req;
  sched_start_s = now_s() + 1e-3;
  ack_us.reserve(slots);
  query_us.reserve(slots);
  late_us.reserve(slots);
  std::size_t j = 0;
  std::uint64_t replies = 0;
  while (replies < 2 * slots && errors.empty()) {
    const double due = sched_start_s + static_cast<double>(j) * period;
    const double now = now_s();
    if (j < slots && now >= due) {
      late_us.push_back((now - due) * 1e6);
      if (now - due > kMissedSlotS) ++missed_slots;
      const std::size_t from = warm + j * batch;
      ++offered;
      srv::QueryMsg q;
      q.req_id = req0 + 2 * j + 1;
      q.key = (*recs)[from].key;
      const bool sent =
          send_frame(sock, srv::ClientMsgType::kAppend,
                     encode(make_append(*recs, from, std::min(batch, n - from),
                                        req0 + 2 * j)));
      query_sent[j] = now_s();
      if (!sent || !send_frame(sock, srv::ClientMsgType::kQuery, encode(q))) {
        errors.push_back("send failed");
        break;
      }
      tracer.add("send", now, now_s(), 0, q.req_id);
      ++j;
      continue;
    }
    if (reader.poll(f, false)) {
      ++replies;
      on_reply(f, now_s(), req0, period, query_sent);
    } else if (reader.broken()) {
      errors.push_back("reply stream ended early");
    }
  }
  send_frame(sock, srv::ClientMsgType::kClientBye, {});
  done = true;
}

}  // namespace

RepResult run_serve(const std::vector<srv::ClientRecord>& recs,
                    const Shape& shape, std::uint64_t expected,
                    const PlaneOptions& opt) {
  RepResult r;
  Tracer off;
  Tracer& tr = opt.tracer != nullptr ? *opt.tracer : off;
  const std::size_t n = recs.size();
  const std::size_t warm = std::min<std::size_t>(shape.warmup, n);

  auto cfg = router_config(opt);
  cfg.serve = true;
  cfg.serve_cfg.endpoint.kind = net::Endpoint::Kind::kUnix;
  cfg.serve_cfg.endpoint.path = socket_path(opt, "serve");

  ServeClient client;
  client.recs = &recs;
  client.shape = &shape;
  client.tracer = Tracer(tr.enabled(), 1);

  const std::uint64_t base_kb = rss_baseline_kb();
  const double t0 = now_s();
  const std::uint32_t rep = tr.begin("serve.rep");
  const std::uint32_t setup = tr.begin("setup", rep);
  auto router = std::make_unique<fastjoin::MultiprocRouter>(std::move(cfg));
  std::string err;
  bool started = false;
  {
    ScopedSpan s(tr, "start", setup);
    started = router->start(&err);
  }
  // One operation per append (warm-up and timed) and per query.
  const std::uint64_t warm_appends = (warm + shape.batch - 1) / shape.batch;
  const std::uint64_t slots = (n - warm + shape.batch - 1) / shape.batch;
  r.attempted = warm_appends + 2 * slots;
  if (!started) {
    fail(r, r.attempted, "router start failed: " + err);
    remove_sockets(opt);
    return r;
  }
  client.ep = router->frontdoor()->endpoint();
  std::jthread th([&client] { client.run(); });
  // The calling thread is the router's event loop for the whole run.
  bool in_setup = true;
  double router_cpu0 = 0.0;
  std::uint32_t timed = 0;
  // It polls without sleeping, for the same reason the client spins.
  while (!client.done.load()) {
    const double a = now_s();
    router->pump(std::chrono::milliseconds(0));
    if (in_setup && client.setup_end_s.load() > 0.0) {
      in_setup = false;
      tr.end(setup);
      timed = tr.begin("timed", rep);
      router_cpu0 = thread_cpu_s();
    }
    // The loop spins, so most pumps find nothing to do; the trace keeps
    // the ones long enough to delay a request.
    const double e = now_s();
    if (e - a >= kSlowPumpS) tr.add("pump", a, e, in_setup ? setup : timed);
  }
  th.join();
  if (in_setup) {
    tr.end(setup);
    timed = tr.begin("timed", rep);
    router_cpu0 = thread_cpu_s();
  }
  const WorkerProbe workers = probe_workers(*router);
  const std::uint32_t fin = tr.begin("finish", timed);
  const bool finished = router->finish();
  tr.end(fin);
  const double te = now_s();
  tr.end(timed);
  const double router_cpu = thread_cpu_s() - router_cpu0;
  r.rss_peak_mb = mib(vm_hwm_kb() - std::min(vm_hwm_kb(), base_kb) +
                      workers.hwm_kb);

  const double setup_end = client.setup_end_s.load();
  r.setup_s = (setup_end > 0.0 ? setup_end : te) - t0;
  r.throughput_rps = static_cast<double>(n - warm) / (te - client.sched_start_s);
  r.ack_us = std::move(client.ack_us);
  r.query_us = std::move(client.query_us);
  r.late_us = std::move(client.late_us);
  for (auto& e : client.errors) fail(r, 1, std::move(e));

  // Ledgers: client offered == admitted + rejected; the router's tenant
  // ledger agrees; every offered record was appended; every query was
  // answered; the generator kept every schedule slot.
  if (client.offered != client.admitted + client.rejected) {
    fail(r, 1, "client ledger: offered != admitted + rejected");
  }
  if (client.rejected != 0) {
    fail(r, client.rejected,
         std::to_string(client.rejected) + " appends rejected");
  }
  if (client.offered != warm_appends + slots) {
    fail(r, warm_appends + slots - std::min(warm_appends + slots, client.offered),
         "appends not sent");
  }
  if (client.appended != n) {
    fail(r, 1, "appended " + std::to_string(client.appended) + " of " +
                   std::to_string(n) + " records");
  }
  if (client.answered != slots) {
    fail(r, slots - std::min(slots, client.answered), "queries unanswered");
  }
  if (client.missed_slots != 0) {
    fail(r, client.missed_slots,
         std::to_string(client.missed_slots) + " schedule slots missed");
  }
  const auto* fd = router->frontdoor();
  std::uint64_t fd_offered = 0, fd_admitted = 0, fd_rejected = 0;
  for (const auto& [name, ts] : fd->stats().tenants) {
    fd_offered += ts.offered_requests;
    fd_admitted += ts.admitted_requests;
    fd_rejected += ts.rejected_requests;
  }
  if (fd_offered != client.offered || fd_admitted != client.admitted ||
      fd_rejected != client.rejected ||
      fd_offered != fd_admitted + fd_rejected) {
    fail(r, 1, "router ledger disagrees with the client ledger");
  }
  check_router(r, *router, finished, expected);
  const auto checkpoints = router->stats().checkpoints_completed;
  router.reset();
  remove_sockets(opt);
  tr.end(rep);
  if (tr.enabled()) {
    tr.absorb(std::move(client.tracer));
    Layers& L = r.layers;
    L["runtime.router_cpu_s"] = router_cpu;
    L["runtime.worker_cpu_s_max"] = workers.cpu_max;
    L["runtime.worker_cpu_skew"] = workers.cpu_skew;
    L["runtime.checkpoints"] = static_cast<double>(checkpoints);
    L["runtime.checkpoint_tuples_per_rec"] =
        checkpoint_tuples_per_timed_rec(n, warm);
  }
  return r;
}

}  // namespace perfbench
