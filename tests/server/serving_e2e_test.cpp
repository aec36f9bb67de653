// Serving front door end-to-end: real clients over real sockets into a
// real multi-process router, verified byte-identical against the
// in-process engine replaying the router's own log.
//
// The log replay is the only possible ground truth here: front-door
// records get their seq/ts stamps inside the router (clients cannot
// forge stream positions), so the expected match set is defined by
// what the router logged, not by what the clients offered.
//
// This binary is its own worker: the router spawns /proc/self/exe with
// --multiproc-worker and main() (below) routes those invocations into
// the worker loop before gtest initializes.
#include "runtime/multiproc.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "net/connection.hpp"
#include "net/frame.hpp"
#include "runtime/live_engine.hpp"
#include "server/protocol.hpp"

namespace fastjoin {
namespace {

using namespace std::chrono_literals;

constexpr std::uint16_t wire(server::ClientMsgType t) {
  return static_cast<std::uint16_t>(t);
}

std::string temp_sock_path(const char* tag) {
  return "/tmp/fastjoin-e2e-" + std::string(tag) + "-" +
         std::to_string(::getpid()) + ".sock";
}

MultiprocConfig serve_config(std::uint32_t workers, const char* tag) {
  MultiprocConfig cfg;
  cfg.workers = workers;
  cfg.worker_command = {"/proc/self/exe"};
  cfg.collect_matches = true;  // the router-side half of the comparison
  cfg.truncate_log = false;    // dump_log() must hold the full history
  cfg.checkpoint_every = 512;  // keep query snapshots fresh
  cfg.serve = true;
  cfg.serve_cfg.endpoint.kind = net::Endpoint::Kind::kUnix;
  cfg.serve_cfg.endpoint.path = temp_sock_path(tag);
  return cfg;
}

using PairKey = std::tuple<KeyId, std::uint64_t, std::uint64_t>;

std::vector<PairKey> canonical(std::vector<MatchPair> pairs) {
  std::vector<PairKey> out;
  out.reserve(pairs.size());
  for (const auto& p : pairs) out.emplace_back(p.key, p.r_seq, p.s_seq);
  std::sort(out.begin(), out.end());
  return out;
}

/// Replay the router's log through the in-process laned plane.
std::vector<PairKey> replay_log(const std::vector<LogRecord>& log,
                                std::uint32_t instances) {
  LiveConfig lc;
  lc.instances = instances;
  lc.balancer = false;
  LiveEngine engine(lc);
  std::mutex mu;
  std::vector<MatchPair> pairs;
  engine.set_on_match([&](const MatchPair& p) {
    std::lock_guard<std::mutex> lk(mu);
    pairs.push_back(p);
  });
  engine.start();
  for (const LogRecord& lr : log) engine.push(lr.rec);
  engine.finish();
  return canonical(std::move(pairs));
}

/// An acked append: the log offset its ack named, and the record the
/// client sent first in it.
struct AckedAppend {
  std::uint64_t first_offset = 0;
  server::ClientRecord first;
};

/// What one client thread did, for the accounting assertions.
struct ClientOutcome {
  std::uint64_t offered = 0;   ///< append requests sent (incl. retries)
  std::uint64_t admitted = 0;  ///< kAppendAck received
  std::uint64_t rejected = 0;  ///< kRejected received
  std::uint64_t admitted_records = 0;
  std::uint64_t queries_answered = 0;
  std::vector<AckedAppend> acked;
  std::string fail;  ///< first client-side failure, empty if none
  bool ok() const { return fail.empty(); }
};

bool client_hello(net::FrameConn& fc, const std::string& tenant) {
  server::ClientHelloMsg h;
  h.tenant = tenant;
  if (!fc.write_frame(wire(server::ClientMsgType::kClientHello),
                      encode(h))) {
    return false;
  }
  net::Frame f;
  server::ClientHelloAckMsg ack;
  return fc.read_frame(f) &&
         f.type == wire(server::ClientMsgType::kClientHelloAck) &&
         decode(f.payload, ack) && ack.ok == 1;
}

/// One tenant's whole session: `batches` batches of `batch` records.
/// Polite clients retry a refused batch after honoring retry_after (so
/// every batch lands eventually); abusive clients never retry and never
/// wait — each refusal is final and the next batch goes out at once.
ClientOutcome run_client(const net::Endpoint& ep, const std::string& tenant,
                         std::uint64_t seed, int batches, int batch,
                         int num_keys, bool polite, int queries) {
  ClientOutcome out;
  std::string err;
  net::FrameConn fc = net::FrameConn::connect(ep, 10'000ms, &err);
  if (!fc.valid()) {
    out.fail = "connect: " + err;
    return out;
  }
  if (!client_hello(fc, tenant)) {
    out.fail = "hello refused";
    return out;
  }
  Xoshiro256 rng(seed);
  std::uint64_t req_id = 1;
  for (int b = 0; b < batches && out.ok(); ++b) {
    server::AppendMsg m;
    m.records.resize(batch);
    for (auto& r : m.records) {
      r.side = rng.next_below(2) != 0 ? Side::kS : Side::kR;
      r.key = static_cast<KeyId>(rng.next_below(num_keys));
      r.payload = rng();
    }
    for (int attempt = 0; attempt < 200; ++attempt) {
      m.req_id = req_id++;
      if (!fc.write_frame(wire(server::ClientMsgType::kAppend),
                          encode(m))) {
        out.fail = "append write failed";
        break;
      }
      ++out.offered;
      net::Frame f;
      if (!fc.read_frame(f)) {
        out.fail = "append reply missing";
        break;
      }
      if (f.type == wire(server::ClientMsgType::kAppendAck)) {
        server::AppendAckMsg ack;
        if (!decode(f.payload, ack)) {
          out.fail = "bad append ack";
          break;
        }
        ++out.admitted;
        out.admitted_records += ack.appended + ack.parked;
        if (ack.appended > 0) {
          out.acked.push_back(AckedAppend{ack.first_offset, m.records[0]});
        }
        break;
      }
      if (f.type != wire(server::ClientMsgType::kRejected)) {
        out.fail = "unexpected append reply type";
        break;
      }
      server::RejectedMsg rej;
      if (!decode(f.payload, rej)) {
        out.fail = "bad reject";
        break;
      }
      ++out.rejected;
      if (!polite) break;  // abusive: drop the batch, hammer the next
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::max<std::uint32_t>(1, rej.retry_after_ms)));
    }
  }
  for (int q = 0; q < queries && out.ok(); ++q) {
    server::QueryMsg qm;
    qm.req_id = 1'000'000 + static_cast<std::uint64_t>(q);
    qm.key = static_cast<KeyId>(q % num_keys);
    qm.max_recent = 8;
    if (!fc.write_frame(wire(server::ClientMsgType::kQuery), encode(qm))) {
      out.fail = "query write failed";
      break;
    }
    net::Frame f;
    server::QueryResultMsg res;
    if (!fc.read_frame(f) ||
        f.type != wire(server::ClientMsgType::kQueryResult) ||
        !decode(f.payload, res) || res.req_id != qm.req_id ||
        res.key != qm.key) {
      out.fail = "query result broken";
      break;
    }
    ++out.queries_answered;
  }
  fc.write_frame(wire(server::ClientMsgType::kClientBye), {});
  return out;
}

/// Each ack's first_offset is the log offset of its append's first
/// record. No migration runs in these tests, so nothing is parked and
/// the first record sent is the first one appended. `log` is the whole
/// history (truncate_log = false), so entry i has offset i.
void expect_first_offsets(const std::vector<LogRecord>& log,
                          const ClientOutcome& c) {
  EXPECT_EQ(c.acked.size(), c.admitted);
  for (const AckedAppend& a : c.acked) {
    ASSERT_LT(a.first_offset, log.size());
    const LogRecord& lr = log[a.first_offset];
    EXPECT_EQ(lr.offset, a.first_offset);
    EXPECT_EQ(lr.rec.key, a.first.key) << "offset " << a.first_offset;
    EXPECT_EQ(lr.rec.payload, a.first.payload) << "offset " << a.first_offset;
    EXPECT_EQ(lr.rec.side, a.first.side) << "offset " << a.first_offset;
  }
}

TEST(ServingE2E, ByteIdenticalThroughFrontDoor) {
  auto cfg = serve_config(2, "ident");
  MultiprocRouter router(std::move(cfg));
  std::string err;
  ASSERT_TRUE(router.start(&err)) << err;
  const net::Endpoint ep = router.frontdoor()->endpoint();

  ClientOutcome alice, bob;
  std::atomic<int> live{2};
  std::thread ta([&] {
    alice = run_client(ep, "alice", 0xA11CE, 30, 40, 64, true, 5);
    --live;
  });
  std::thread tb([&] {
    bob = run_client(ep, "bob", 0xB0B, 30, 40, 64, true, 0);
    --live;
  });
  while (live.load() > 0) router.pump(5ms);
  ta.join();
  tb.join();
  EXPECT_TRUE(alice.ok()) << alice.fail;
  EXPECT_TRUE(bob.ok()) << bob.fail;

  const auto log = router.dump_log();
  ASSERT_TRUE(router.finish());

  // Nothing admitted may be dropped, and the multi-process output must
  // be byte-identical to the in-process replay of the router's log.
  EXPECT_EQ(router.stats().records_dropped, 0u);
  const auto expected = replay_log(log, 2);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(canonical(router.take_matches()), expected);

  // Per-tenant ledger: offered == admitted + rejected, exactly; with
  // default (generous) admission nothing was refused at all.
  const auto& tenants = router.frontdoor()->stats().tenants;
  for (const char* name : {"alice", "bob"}) {
    const server::TenantStats& ts = tenants.at(name);
    EXPECT_EQ(ts.offered_requests,
              ts.admitted_requests + ts.rejected_requests)
        << name;
    EXPECT_EQ(ts.admitted_requests, 30u) << name;
    EXPECT_EQ(ts.admitted_records, 30u * 40u) << name;
  }
  EXPECT_EQ(alice.admitted_records + bob.admitted_records,
            static_cast<std::uint64_t>(log.size()));
  EXPECT_EQ(alice.queries_answered, 5u);
  expect_first_offsets(log, alice);
  expect_first_offsets(log, bob);
}

TEST(ServingE2E, AbusiveTenantShedOthersUnharmed) {
  auto cfg = serve_config(2, "abuse");
  // Tight per-tenant budget: one 32-record batch per burst, ~30 batches
  // per second of refill — an honest client glides, a hammering one
  // bounces off the bucket.
  cfg.serve_cfg.admission.tenant_burst_bytes =
      server::append_payload_bytes(32);
  cfg.serve_cfg.admission.tenant_rate_bytes_per_sec =
      30 * server::append_payload_bytes(32);
  MultiprocRouter router(std::move(cfg));
  std::string err;
  ASSERT_TRUE(router.start(&err)) << err;
  const net::Endpoint ep = router.frontdoor()->endpoint();

  ClientOutcome polite, abusive;
  std::atomic<int> live{2};
  std::thread tp([&] {
    polite = run_client(ep, "polite", 0x90117E, 12, 32, 48, true, 0);
    --live;
  });
  std::thread tx([&] {
    abusive = run_client(ep, "abusive", 0xAB05E, 120, 32, 48, false, 0);
    --live;
  });
  while (live.load() > 0) router.pump(5ms);
  tp.join();
  tx.join();
  EXPECT_TRUE(polite.ok()) << polite.fail;
  EXPECT_TRUE(abusive.ok()) << abusive.fail;

  const auto log = router.dump_log();
  ASSERT_TRUE(router.finish());

  // The abuse was real and the refusals explicit.
  EXPECT_GT(abusive.rejected, 0u);
  // The polite tenant landed every batch by honoring retry_after.
  EXPECT_EQ(polite.admitted, 12u);
  // Ledgers balance on both sides of the wire, for both tenants.
  const auto& tenants = router.frontdoor()->stats().tenants;
  for (const auto* c : {&polite, &abusive}) {
    EXPECT_EQ(c->offered, c->admitted + c->rejected);
  }
  const server::TenantStats& pt = tenants.at("polite");
  const server::TenantStats& at = tenants.at("abusive");
  EXPECT_EQ(pt.offered_requests,
            pt.admitted_requests + pt.rejected_requests);
  EXPECT_EQ(at.offered_requests,
            at.admitted_requests + at.rejected_requests);
  EXPECT_EQ(pt.admitted_requests, polite.admitted);
  EXPECT_EQ(at.rejected_requests, abusive.rejected);

  // Shedding the abuser must not cost a single admitted record: the
  // output is still byte-identical to the log replay, with zero drops.
  EXPECT_EQ(router.stats().records_dropped, 0u);
  EXPECT_EQ(canonical(router.take_matches()), replay_log(log, 2));
  EXPECT_EQ(polite.admitted_records + abusive.admitted_records,
            static_cast<std::uint64_t>(log.size()));
  expect_first_offsets(log, polite);
  expect_first_offsets(log, abusive);
}

}  // namespace
}  // namespace fastjoin

int main(int argc, char** argv) {
  // Worker re-entry: the router execs this same binary with
  // --multiproc-worker; hand those straight to the worker loop.
  const int rc = fastjoin::multiproc_worker_maybe_run(argc, argv);
  if (rc >= 0) return rc;
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
