// Router process for the multi-process plane: generates (or will later
// accept) a stream, routes it to fastjoin_worker shards over the
// socket transport, and reports the join outcome as JSON.
//
// Demonstrates the full protocol surface from the command line:
//
//   fastjoin_router --workers 4 --records 200000 --zipf 1.2
//   fastjoin_router --workers 4 --kill 2@50000         # chaos: SIGKILL
//   fastjoin_router --workers 4 --migrate-hot 8        # live migration
//   fastjoin_router --workers 2 --endpoint tcp:0       # TCP transport
//
// Serving mode replaces the built-in generator with the client front
// door (src/server/): external fastjoin_client processes ingest
// tenant-authenticated batches and read per-key snapshot state; the
// router exits once every client has come and gone:
//
//   fastjoin_router --workers 2 --serve tcp:0 --serve-port-file ep.txt
//   fastjoin_router --workers 2 --serve tcp:7641 --verify-inproc
//
// --verify-inproc replays the router's own StreamLog through the
// in-process engine after the fact and exits nonzero unless the two
// planes' match-pair sets are byte-identical.
//
// The worker binary defaults to the sibling `fastjoin_worker` next to
// this executable; override with --worker-bin.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "datagen/keygen.hpp"
#include "runtime/live_engine.hpp"
#include "runtime/multiproc.hpp"

namespace {

using namespace fastjoin;

struct Options {
  std::uint32_t workers = 4;
  std::uint64_t records = 100'000;
  std::uint64_t keys = 10'000;
  double zipf = 1.1;
  std::uint64_t seed = 42;
  std::string endpoint = "unix:";
  std::string worker_bin;
  std::uint64_t checkpoint_every = 20'000;
  bool file_log = false;
  std::string log_dir = "streamlog-router";
  /// Chaos: SIGKILL worker `kill_worker` after `kill_after` records.
  std::int64_t kill_worker = -1;
  std::uint64_t kill_after = 0;
  /// Migrate the K hottest R-side keys away from their owners halfway.
  std::uint64_t migrate_hot = 0;
  /// Serving mode: listen for fastjoin_client on this endpoint
  /// ("tcp:0", "tcp:7641", "unix:/path"); empty = generator mode.
  std::string serve;
  /// Write the resolved serve endpoint here (tcp:0 → real port).
  std::string serve_port_file;
  /// Exit once this many clients have connected and all are gone.
  std::uint64_t serve_min_clients = 1;
  /// Hard wall-clock bound on serving (watchdog for CI).
  std::uint64_t serve_max_seconds = 120;
  /// Admission knobs forwarded to the front door.
  std::uint64_t serve_rate = 4 << 20;
  std::uint64_t serve_burst = 1 << 20;
  std::uint64_t serve_budget = 16 << 20;
  std::uint32_t serve_max_batch = 8192;
  /// Replay the StreamLog through the in-process engine afterwards and
  /// require byte-identical match sets.
  bool verify_inproc = false;
};

std::string sibling_worker_bin() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "fastjoin_worker";
  buf[n] = '\0';
  std::string self(buf);
  const std::size_t slash = self.find_last_of('/');
  if (slash == std::string::npos) return "fastjoin_worker";
  return self.substr(0, slash + 1) + "fastjoin_worker";
}

bool parse_args(int argc, char** argv, Options& o) {
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) return nullptr;
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = nullptr;
    if (a == "--workers" && (v = need(i))) {
      o.workers = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (a == "--records" && (v = need(i))) {
      o.records = std::strtoull(v, nullptr, 10);
    } else if (a == "--keys" && (v = need(i))) {
      o.keys = std::strtoull(v, nullptr, 10);
    } else if (a == "--zipf" && (v = need(i))) {
      o.zipf = std::strtod(v, nullptr);
    } else if (a == "--seed" && (v = need(i))) {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--endpoint" && (v = need(i))) {
      o.endpoint = v;
    } else if (a == "--worker-bin" && (v = need(i))) {
      o.worker_bin = v;
    } else if (a == "--checkpoint-every" && (v = need(i))) {
      o.checkpoint_every = std::strtoull(v, nullptr, 10);
    } else if (a == "--file-log") {
      o.file_log = true;
    } else if (a == "--log-dir" && (v = need(i))) {
      o.log_dir = v;
      o.file_log = true;
    } else if (a == "--kill" && (v = need(i))) {
      const char* at = std::strchr(v, '@');
      if (!at) return false;
      o.kill_worker = std::strtol(v, nullptr, 10);
      o.kill_after = std::strtoull(at + 1, nullptr, 10);
    } else if (a == "--migrate-hot" && (v = need(i))) {
      o.migrate_hot = std::strtoull(v, nullptr, 10);
    } else if (a == "--serve" && (v = need(i))) {
      o.serve = v;
    } else if (a == "--serve-port-file" && (v = need(i))) {
      o.serve_port_file = v;
    } else if (a == "--serve-min-clients" && (v = need(i))) {
      o.serve_min_clients = std::strtoull(v, nullptr, 10);
    } else if (a == "--serve-max-seconds" && (v = need(i))) {
      o.serve_max_seconds = std::strtoull(v, nullptr, 10);
    } else if (a == "--serve-rate" && (v = need(i))) {
      o.serve_rate = std::strtoull(v, nullptr, 10);
    } else if (a == "--serve-burst" && (v = need(i))) {
      o.serve_burst = std::strtoull(v, nullptr, 10);
    } else if (a == "--serve-budget" && (v = need(i))) {
      o.serve_budget = std::strtoull(v, nullptr, 10);
    } else if (a == "--serve-max-batch" && (v = need(i))) {
      o.serve_max_batch =
          static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (a == "--verify-inproc") {
      o.verify_inproc = true;
    } else {
      return false;
    }
  }
  return o.workers > 0 && (o.records > 0 || !o.serve.empty());
}

void usage() {
  std::fprintf(
      stderr,
      "usage: fastjoin_router [--workers N] [--records N] [--keys N]\n"
      "           [--zipf S] [--seed X] [--endpoint unix:|tcp:0]\n"
      "           [--worker-bin PATH] [--checkpoint-every N]\n"
      "           [--file-log] [--log-dir DIR]\n"
      "           [--kill W@N] [--migrate-hot K]\n"
      "           [--serve EP] [--serve-port-file PATH]\n"
      "           [--serve-min-clients N] [--serve-max-seconds N]\n"
      "           [--serve-rate B/s] [--serve-burst B] [--serve-budget B]\n"
      "           [--serve-max-batch N] [--verify-inproc]\n");
}

}  // namespace

int main(int argc, char** argv) {
  // This binary can serve as its own worker (useful for single-binary
  // deployments): fastjoin_router --multiproc-worker ...
  const int wrc = multiproc_worker_maybe_run(argc, argv);
  if (wrc >= 0) return wrc;

  Options o;
  if (!parse_args(argc, argv, o)) {
    usage();
    return 64;
  }
  if (o.worker_bin.empty()) o.worker_bin = sibling_worker_bin();

  MultiprocConfig cfg;
  cfg.workers = o.workers;
  cfg.endpoint = o.endpoint;
  cfg.worker_command = {o.worker_bin};
  cfg.checkpoint_every = o.checkpoint_every;
  if (o.file_log) {
    cfg.ingest.backend = SegmentBackend::kFile;
    cfg.ingest.dir = o.log_dir;
  }
  const bool serving = !o.serve.empty();
  if (serving) {
    cfg.serve = true;
    if (!net::Endpoint::parse(o.serve, cfg.serve_cfg.endpoint)) {
      std::fprintf(stderr, "fastjoin_router: bad --serve endpoint %s\n",
                   o.serve.c_str());
      return 64;
    }
    cfg.serve_cfg.admission.tenant_rate_bytes_per_sec = o.serve_rate;
    cfg.serve_cfg.admission.tenant_burst_bytes = o.serve_burst;
    cfg.serve_cfg.admission.global_budget_bytes = o.serve_budget;
    cfg.serve_cfg.admission.max_batch_records = o.serve_max_batch;
    if (o.verify_inproc) {
      // Byte-identical verification needs the workers' match pairs and
      // the log (front-door seq/ts stamps live only there).
      cfg.collect_matches = true;
    }
  }

  MultiprocRouter router(std::move(cfg));
  std::string err;
  if (!router.start(&err)) {
    std::fprintf(stderr, "fastjoin_router: start failed: %s\n", err.c_str());
    return 1;
  }
  std::fprintf(stderr, "fastjoin_router: %u workers on %s\n", o.workers,
               router.endpoint().c_str());

  bool serve_timed_out = false;
  if (serving) {
    const std::string serve_ep =
        router.frontdoor()->endpoint().to_string();
    std::fprintf(stderr, "fastjoin_router: serving clients on %s\n",
                 serve_ep.c_str());
    if (!o.serve_port_file.empty()) {
      std::FILE* f = std::fopen(o.serve_port_file.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "fastjoin_router: cannot write %s\n",
                     o.serve_port_file.c_str());
        return 1;
      }
      std::fprintf(f, "%s\n", serve_ep.c_str());
      std::fclose(f);
    }
    // Serve until every client has come and gone (at least
    // serve_min_clients connected), with a wall-clock watchdog.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(o.serve_max_seconds);
    for (;;) {
      router.pump(std::chrono::milliseconds(10));
      const server::FrontDoorStats& fs = router.frontdoor()->stats();
      if (fs.accepted >= o.serve_min_clients &&
          router.frontdoor()->open_connections() == 0) {
        break;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        serve_timed_out = true;
        std::fprintf(stderr, "fastjoin_router: serve watchdog fired\n");
        break;
      }
    }
  } else {
    KeyStreamSpec spec;
    spec.num_keys = o.keys;
    spec.zipf_s = o.zipf;
    spec.seed = o.seed;
    KeyGenerator gen(spec);

    std::uint64_t seq[2] = {0, 0};
    bool killed = false;
    bool migrated = false;
    for (std::uint64_t i = 0; i < o.records; ++i) {
      Record rec;
      rec.side = (i & 1) ? Side::kS : Side::kR;
      rec.key = gen();
      rec.seq = seq[static_cast<int>(rec.side)]++;
      rec.payload = i;
      rec.ts = static_cast<SimTime>(i);
      router.publish(rec);

      if (!killed && o.kill_worker >= 0 && i == o.kill_after) {
        killed = true;
        std::fprintf(stderr, "fastjoin_router: SIGKILL worker %ld at %llu\n",
                     static_cast<long>(o.kill_worker),
                     static_cast<unsigned long long>(i));
        router.kill_worker(static_cast<std::uint32_t>(o.kill_worker));
      }
      if (!migrated && o.migrate_hot > 0 && i == o.records / 2) {
        migrated = true;
        // Shed the hottest R-side keys from whichever worker owns each;
        // destination is the next worker around the ring.
        for (std::uint64_t r = 1; r <= o.migrate_hot; ++r) {
          const KeyId k = gen.key_for_rank(r);
          const std::uint32_t from = router.owner(Side::kR, k);
          const std::uint32_t to = (from + 1) % o.workers;
          router.request_migration(Side::kR, from, to, {k});
        }
      }
    }
  }
  if (!router.finish()) {
    std::fprintf(stderr, "fastjoin_router: finish timed out\n");
    return 1;
  }

  // Cross-plane verification: replay the router's own log (the only
  // holder of front-door seq/ts stamps) through the in-process engine
  // and require the byte-identical match-pair set.
  std::string verify = "skipped";
  if (o.verify_inproc) {
    std::vector<Record> trace;
    for (const LogRecord& lr : router.dump_log()) trace.push_back(lr.rec);
    LiveConfig lc;
    lc.instances = o.workers;
    lc.balancer = false;
    LiveEngine engine(lc);
    std::mutex mu;
    std::vector<MatchPair> inproc;
    engine.set_on_match([&](const MatchPair& p) {
      std::lock_guard<std::mutex> lk(mu);
      inproc.push_back(p);
    });
    engine.start();
    for (const Record& rec : trace) engine.push(rec);
    engine.finish();
    auto canon = [](std::vector<MatchPair> pairs) {
      std::vector<std::tuple<KeyId, std::uint64_t, std::uint64_t>> out;
      out.reserve(pairs.size());
      for (const MatchPair& p : pairs) {
        out.emplace_back(p.key, p.r_seq, p.s_seq);
      }
      std::sort(out.begin(), out.end());
      return out;
    };
    verify =
        canon(router.take_matches()) == canon(std::move(inproc)) &&
                !trace.empty()
            ? "ok"
            : "mismatch";
  }

  const MultiprocStats& st = router.stats();
  std::uint64_t stores = 0, probes = 0, wmatches = 0;
  for (const auto& f : st.worker_finals) {
    stores += f.stores;
    probes += f.probes;
    wmatches += f.matches;
  }
  std::printf(
      "{\n"
      "  \"workers\": %u,\n"
      "  \"records\": %llu,\n"
      "  \"matches\": %llu,\n"
      "  \"worker_matches\": %llu,\n"
      "  \"stores\": %llu,\n"
      "  \"probes\": %llu,\n"
      "  \"records_dropped\": %llu,\n"
      "  \"worker_crashes\": %llu,\n"
      "  \"respawns\": %llu,\n"
      "  \"replayed_entries\": %llu,\n"
      "  \"skipped_probes\": %llu,\n"
      "  \"migrations_completed\": %llu,\n"
      "  \"tuples_migrated\": %llu,\n"
      "  \"checkpoints_completed\": %llu,\n",
      o.workers, static_cast<unsigned long long>(st.records_published),
      static_cast<unsigned long long>(st.matches_total),
      static_cast<unsigned long long>(wmatches),
      static_cast<unsigned long long>(stores),
      static_cast<unsigned long long>(probes),
      static_cast<unsigned long long>(st.records_dropped),
      static_cast<unsigned long long>(st.worker_crashes),
      static_cast<unsigned long long>(st.respawns),
      static_cast<unsigned long long>(st.replayed_entries),
      static_cast<unsigned long long>(st.skipped_probes),
      static_cast<unsigned long long>(st.migrations_completed),
      static_cast<unsigned long long>(st.tuples_migrated),
      static_cast<unsigned long long>(st.checkpoints_completed));
  if (serving) {
    const server::FrontDoorStats& fs = router.frontdoor()->stats();
    std::printf(
        "  \"serve\": {\n"
        "    \"clients\": %llu,\n"
        "    \"idle_closed\": %llu,\n"
        "    \"protocol_errors\": %llu,\n"
        "    \"backpressure_rejects\": %llu,\n"
        "    \"tenants\": {\n",
        static_cast<unsigned long long>(fs.accepted),
        static_cast<unsigned long long>(fs.idle_closed),
        static_cast<unsigned long long>(fs.protocol_errors),
        static_cast<unsigned long long>(fs.backpressure_rejects));
    std::size_t i = 0;
    for (const auto& [tenant, ts] : fs.tenants) {
      std::printf(
          "      \"%s\": {\"offered\": %llu, \"admitted\": %llu, "
          "\"rejected\": %llu, \"admitted_records\": %llu, "
          "\"queries\": %llu}%s\n",
          tenant.c_str(),
          static_cast<unsigned long long>(ts.offered_requests),
          static_cast<unsigned long long>(ts.admitted_requests),
          static_cast<unsigned long long>(ts.rejected_requests),
          static_cast<unsigned long long>(ts.admitted_records),
          static_cast<unsigned long long>(ts.queries),
          ++i == fs.tenants.size() ? "" : ",");
    }
    std::printf("    }\n  },\n");
  }
  std::printf("  \"verify\": \"%s\"\n}\n", verify.c_str());
  if (verify == "mismatch") return 3;
  if (serve_timed_out) return 4;
  return st.records_dropped == 0 ? 0 : 2;
}
