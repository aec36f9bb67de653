// Perf — serving front door: multi-tenant ingest→ack latency and
// admitted throughput over real client sockets.
//
// The front door turns the router from a library into a service:
// clients speak the framed client protocol (hello / append / ack)
// through admission control, the router stamps stream positions and
// fans out to forked workers. This bench measures what a tenant
// actually experiences at the socket:
//   * scaling cells: T polite tenants (T in {1, 2, 4}) append
//     concurrently under the default generous admission config —
//     per-request ingest→ack latency (p50/p99.9) and aggregate
//     admitted records/s;
//   * an abuse cell: one polite tenant next to one hammering tenant
//     under a tight per-tenant bucket — the abuser's refusals are
//     explicit kRejected frames, the polite tenant honors retry_after
//     and lands every batch, and nothing admitted is ever dropped.
// Every cell asserts the per-tenant ledger (offered == admitted +
// rejected, client-side and router-side) and zero drops; a latency
// number for a front door that lost records is not a number.
//
// Usage: serving_frontdoor [scale=1.0] [records=20000] [batch=256]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "net/connection.hpp"
#include "net/frame.hpp"
#include "runtime/multiproc.hpp"
#include "server/protocol.hpp"
#include "support/harness.hpp"
#include "support/workloads.hpp"

namespace fastjoin::bench {
namespace {

using namespace std::chrono_literals;

constexpr std::uint16_t wire(server::ClientMsgType t) {
  return static_cast<std::uint16_t>(t);
}

/// One client thread's session ledger and latency samples.
struct ClientRun {
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t admitted_records = 0;
  std::vector<double> ack_us;  ///< per admitted request, ingest→ack
  double wall_s = 0.0;
  std::string fail;
  bool ok() const { return fail.empty(); }
};

double pct(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  const std::size_t idx = std::min(
      v.size() - 1, static_cast<std::size_t>(p * static_cast<double>(
                                                     v.size() - 1)));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

ClientRun run_tenant(const net::Endpoint& ep, const std::string& tenant,
                     std::uint64_t seed, std::uint64_t records,
                     std::uint32_t batch, int num_keys, bool polite) {
  ClientRun out;
  std::string err;
  net::FrameConn fc = net::FrameConn::connect(ep, 10'000ms, &err);
  if (!fc.valid()) {
    out.fail = "connect: " + err;
    return out;
  }
  server::ClientHelloMsg h;
  h.tenant = tenant;
  net::Frame f;
  server::ClientHelloAckMsg hack;
  if (!fc.write_frame(wire(server::ClientMsgType::kClientHello),
                      encode(h)) ||
      !fc.read_frame(f) || !decode(f.payload, hack) || hack.ok != 1) {
    out.fail = "hello failed";
    return out;
  }
  Xoshiro256 rng(seed);
  std::uint64_t req_id = 1;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t sent = 0; sent < records && out.ok(); sent += batch) {
    server::AppendMsg m;
    m.records.resize(std::min<std::uint64_t>(batch, records - sent));
    for (auto& r : m.records) {
      r.side = rng.next_below(2) != 0 ? Side::kS : Side::kR;
      r.key = static_cast<KeyId>(rng.next_below(num_keys));
      r.payload = rng();
    }
    for (int attempt = 0; attempt < 1000; ++attempt) {
      m.req_id = req_id++;
      const auto a0 = std::chrono::steady_clock::now();
      if (!fc.write_frame(wire(server::ClientMsgType::kAppend),
                          encode(m))) {
        out.fail = "append write failed";
        break;
      }
      ++out.offered;
      if (!fc.read_frame(f)) {
        out.fail = "append reply missing";
        break;
      }
      if (f.type == wire(server::ClientMsgType::kAppendAck)) {
        server::AppendAckMsg ack;
        if (!decode(f.payload, ack)) {
          out.fail = "bad ack";
          break;
        }
        ++out.admitted;
        out.admitted_records += ack.appended + ack.parked;
        out.ack_us.push_back(
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - a0)
                .count());
        break;
      }
      server::RejectedMsg rej;
      if (f.type != wire(server::ClientMsgType::kRejected) ||
          !decode(f.payload, rej)) {
        out.fail = "unexpected append reply";
        break;
      }
      ++out.rejected;
      if (!polite) break;  // hammer on: the refusal is final
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::max<std::uint32_t>(1, rej.retry_after_ms)));
    }
  }
  out.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  fc.write_frame(wire(server::ClientMsgType::kClientBye), {});
  return out;
}

MultiprocConfig serve_config(std::uint32_t workers) {
  MultiprocConfig cfg;
  cfg.workers = workers;
  cfg.worker_command = {"/proc/self/exe"};
  cfg.checkpoint_every = 5'000;
  cfg.serve = true;
  cfg.serve_cfg.endpoint.kind = net::Endpoint::Kind::kUnix;
  cfg.serve_cfg.endpoint.path =
      "/tmp/fastjoin-bench-serve-" + std::to_string(::getpid()) + ".sock";
  return cfg;
}

/// Tight per-tenant bucket used by the abuse cell.
struct AdmissionKnobs {
  std::uint64_t burst = 0;
  std::uint64_t rate = 0;
};

struct Cell {
  int tenants = 0;
  double admitted_rps = 0.0;
  double p50_us = 0.0;
  double p999_us = 0.0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  bool ledger_ok = true;
};

/// Drive `tenants` polite clients against a fresh router; returns the
/// aggregate cell. Exits on correctness violations.
Cell run_cell(int tenants, std::uint64_t records_per_tenant,
              std::uint32_t batch, const AdmissionKnobs* abuse) {
  auto cfg = serve_config(2);
  if (abuse != nullptr) {
    cfg.serve_cfg.admission.tenant_burst_bytes = abuse->burst;
    cfg.serve_cfg.admission.tenant_rate_bytes_per_sec = abuse->rate;
  }
  MultiprocRouter router(std::move(cfg));
  std::string err;
  if (!router.start(&err)) {
    std::cerr << "router start failed: " << err << "\n";
    std::exit(2);
  }
  const net::Endpoint ep = router.frontdoor()->endpoint();

  std::vector<ClientRun> runs(static_cast<std::size_t>(tenants));
  std::atomic<int> live{tenants};
  std::vector<std::thread> threads;
  const auto t0 = std::chrono::steady_clock::now();
  for (int t = 0; t < tenants; ++t) {
    threads.emplace_back([&, t] {
      const bool abusive = abuse != nullptr && t == tenants - 1;
      runs[static_cast<std::size_t>(t)] = run_tenant(
          ep, (abusive ? "abusive-" : "tenant-") + std::to_string(t),
          0x5EED + static_cast<std::uint64_t>(t) * 977,
          records_per_tenant, batch, 400, !abusive);
      --live;
    });
  }
  while (live.load() > 0) router.pump(2ms);
  for (auto& th : threads) th.join();
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  if (!router.finish()) {
    std::cerr << "router finish failed\n";
    std::exit(2);
  }
  if (router.stats().records_dropped != 0) {
    std::cerr << "front door dropped "
              << router.stats().records_dropped << " admitted records\n";
    std::exit(2);
  }

  Cell c;
  c.tenants = tenants;
  std::vector<double> all_us;
  std::uint64_t admitted_records = 0;
  for (const auto& r : runs) {
    if (!r.ok()) {
      std::cerr << "client failed: " << r.fail << "\n";
      std::exit(2);
    }
    if (r.offered != r.admitted + r.rejected) c.ledger_ok = false;
    c.admitted += r.admitted;
    c.rejected += r.rejected;
    admitted_records += r.admitted_records;
    all_us.insert(all_us.end(), r.ack_us.begin(), r.ack_us.end());
  }
  // Router-side ledger must agree with the sum of the client ledgers.
  const auto& tstats = router.frontdoor()->stats().tenants;
  std::uint64_t fd_admitted = 0, fd_rejected = 0;
  for (const auto& [name, ts] : tstats) {
    if (ts.offered_requests != ts.admitted_requests + ts.rejected_requests) {
      c.ledger_ok = false;
    }
    fd_admitted += ts.admitted_requests;
    fd_rejected += ts.rejected_requests;
  }
  if (fd_admitted != c.admitted || fd_rejected != c.rejected) {
    c.ledger_ok = false;
  }
  c.admitted_rps = static_cast<double>(admitted_records) / wall;
  c.p50_us = pct(all_us, 0.50);
  c.p999_us = pct(all_us, 0.999);
  return c;
}

int run(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  const double scale = cli_scale(cli);
  const auto records = static_cast<std::uint64_t>(
      cli.get_int("records", 20'000) * scale);
  const auto batch =
      static_cast<std::uint32_t>(cli.get_int("batch", 256));

  banner("Perf",
         "serving front door: multi-tenant ingest→ack over real sockets");
  std::cout << "records/tenant=" << records << " batch=" << batch
            << "  (override with records=N batch=B scale=X)\n\n";

  Table t({"tenants", "admitted rec/s", "ack p50 us", "ack p99.9 us",
           "admitted", "rejected", "ledger"});
  std::ostringstream cells;
  bool all_ok = true;
  bool first = true;
  for (const int tenants : {1, 2, 4}) {
    const Cell c = run_cell(tenants, records, batch, nullptr);
    all_ok = all_ok && c.ledger_ok && c.rejected == 0;
    t.add_row({static_cast<std::int64_t>(c.tenants), c.admitted_rps,
               c.p50_us, c.p999_us, static_cast<std::int64_t>(c.admitted),
               static_cast<std::int64_t>(c.rejected),
               std::string(c.ledger_ok ? "exact" : "BROKEN")});
    if (!first) cells << ",\n";
    first = false;
    cells << "    {\"tenants\": " << c.tenants
          << ", \"admitted_records_per_sec\": "
          << static_cast<std::uint64_t>(c.admitted_rps)
          << ", \"ack_p50_us\": " << c.p50_us
          << ", \"ack_p999_us\": " << c.p999_us
          << ", \"admitted_requests\": " << c.admitted
          << ", \"rejected_requests\": " << c.rejected
          << ", \"ledger_exact\": " << (c.ledger_ok ? "true" : "false")
          << "}";
  }

  // Abuse cell: a tight bucket (one batch per burst, ~8 batches/s of
  // refill), one polite tenant + one hammering tenant.
  AdmissionKnobs tight;
  tight.burst = server::append_payload_bytes(batch);
  tight.rate = 8 * server::append_payload_bytes(batch);
  const Cell abuse = run_cell(2, records / 4, batch, &tight);
  const bool abuse_ok = abuse.ledger_ok && abuse.rejected > 0;
  all_ok = all_ok && abuse_ok;
  t.add_row({static_cast<std::int64_t>(-2), abuse.admitted_rps,
             abuse.p50_us, abuse.p999_us,
             static_cast<std::int64_t>(abuse.admitted),
             static_cast<std::int64_t>(abuse.rejected),
             std::string(abuse.ledger_ok ? "exact" : "BROKEN")});
  t.print(std::cout);
  std::cout << "(tenants=-2 row: abuse cell — 1 polite + 1 hammering "
               "tenant under a tight bucket)\n";
  std::cout << "\nacceptance: ledgers exact, zero drops, abuse rejects "
            << abuse.rejected << " (must be > 0): "
            << (all_ok ? "ok" : "FAIL") << "\n";

  std::ostringstream workload;
  workload << "records_per_tenant=" << records << " batch=" << batch
           << " tenants={1,2,4}+abuse workers=2 keys=400"
           << " checkpoint_every=5000";
  const std::string meta = json_meta(workload.str());
  std::ofstream json("BENCH_serving_frontdoor.json");
  json << "{\n  \"bench\": \"serving_frontdoor\",\n  "
       << meta << ",\n"
       << "  \"records_per_tenant\": " << records << ",\n"
       << "  \"batch\": " << batch << ",\n"
       << "  \"cells\": [\n"
       << cells.str() << "\n  ],\n"
       << "  \"abuse\": {\"admitted_requests\": " << abuse.admitted
       << ", \"rejected_requests\": " << abuse.rejected
       << ", \"polite_ack_p50_us\": " << abuse.p50_us
       << ", \"ledger_exact\": " << (abuse.ledger_ok ? "true" : "false")
       << "}\n}\n";
  std::cout << "wrote BENCH_serving_frontdoor.json\n";
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace fastjoin::bench

int main(int argc, char** argv) {
  // Worker re-entry: the router execs this same binary with
  // --multiproc-worker; hand those straight to the worker loop.
  const int rc = fastjoin::multiproc_worker_maybe_run(argc, argv);
  if (rc >= 0) return rc;
  return fastjoin::bench::run(argc, argv);
}
