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
#include <signal.h>
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
  cfg.checkpoint_every = 512;  // flush rounds run during the sessions
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

/// An acked append: the log offset its ack named, how many records it
/// logged, and the record the client sent first in it.
struct AckedAppend {
  std::uint64_t first_offset = 0;
  std::uint64_t appended = 0;
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
  std::vector<server::QueryResultMsg> answers;
  std::string fail;  ///< first client-side failure, empty if none
  bool ok() const { return fail.empty(); }
};

/// One kQuery round trip; false on any transport or protocol failure.
bool query_key(net::FrameConn& fc, std::uint64_t req_id, KeyId key,
               server::QueryResultMsg* res) {
  server::QueryMsg qm;
  qm.req_id = req_id;
  qm.key = key;
  qm.max_recent = 8;
  net::Frame f;
  return fc.write_frame(wire(server::ClientMsgType::kQuery), encode(qm)) &&
         fc.read_frame(f) &&
         f.type == wire(server::ClientMsgType::kQueryResult) &&
         decode(f.payload, *res) && res->req_id == req_id && res->key == key;
}

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
          out.acked.push_back(
              AckedAppend{ack.first_offset, ack.appended, m.records[0]});
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
    server::QueryResultMsg res;
    if (!query_key(fc, 1'000'000 + static_cast<std::uint64_t>(q),
                   static_cast<KeyId>(q % num_keys), &res)) {
      out.fail = "query result broken";
      break;
    }
    ++out.queries_answered;
    out.answers.push_back(std::move(res));
  }
  fc.write_frame(wire(server::ClientMsgType::kClientBye), {});
  return out;
}

/// Each ack's first_offset is the log offset of its append's first
/// record. No migration runs in these tests, so nothing is parked and
/// the first record sent is the first one appended. `log` is the whole
/// history, so entry i has offset i.
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

/// Logged records of `key` per side (R, S) among the first `end`
/// entries of the log.
std::pair<std::uint64_t, std::uint64_t> logged_counts(
    const std::vector<LogRecord>& log, KeyId key, std::uint64_t end) {
  std::pair<std::uint64_t, std::uint64_t> n{0, 0};
  for (std::uint64_t i = 0; i < end && i < log.size(); ++i) {
    if (log[i].rec.key != key) continue;
    ++(log[i].rec.side == Side::kR ? n.first : n.second);
  }
  return n;
}

/// Each answer counts exactly the key's logged records below its as_of,
/// per side, and as_of covers the client's own last acked append (its
/// queries follow its appends).
void expect_exact_answers(const std::vector<LogRecord>& log,
                          const ClientOutcome& c) {
  ASSERT_FALSE(c.acked.empty());
  const AckedAppend& last = c.acked.back();
  for (const server::QueryResultMsg& res : c.answers) {
    EXPECT_LE(res.as_of, log.size()) << "key " << res.key;
    EXPECT_GE(res.as_of, last.first_offset + last.appended)
        << "key " << res.key;
    const auto [r, s] = logged_counts(log, res.key, res.as_of);
    EXPECT_EQ(res.r_tuples, r) << "key " << res.key;
    EXPECT_EQ(res.s_tuples, s) << "key " << res.key;
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
  expect_exact_answers(log, alice);
}

TEST(ServingE2E, QueryCountsStayExactAcrossCountTableGrowth) {
  // ~260k distinct keys, ~63 per shard of the router's count table:
  // nearly every shard outgrows its first 64 slots while appends run.
  auto cfg = serve_config(2, "wide");
  cfg.collect_matches = false;
  cfg.serve_cfg.admission.tenant_rate_bytes_per_sec = 64 << 20;
  MultiprocRouter router(std::move(cfg));
  std::string err;
  ASSERT_TRUE(router.start(&err)) << err;
  const net::Endpoint ep = router.frontdoor()->endpoint();

  ClientOutcome carol;
  std::atomic<bool> done{false};
  std::thread tc([&] {
    carol = run_client(ep, "carol", 0xCA201, 1400, 256, 1 << 19, true, 256);
    done = true;
  });
  while (!done.load()) router.pump(5ms);
  tc.join();
  ASSERT_TRUE(carol.ok()) << carol.fail;

  const auto log = router.dump_log();
  ASSERT_TRUE(router.finish());
  EXPECT_EQ(router.stats().records_dropped, 0u);
  EXPECT_EQ(carol.admitted_records, 1400u * 256u);
  EXPECT_EQ(carol.queries_answered, 256u);
  expect_exact_answers(log, carol);
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

TEST(ServingE2E, QueryCountsAParkedKeyOnceItIsLogged) {
  MultiprocRouter router(serve_config(2, "park"));
  std::string err;
  ASSERT_TRUE(router.start(&err)) << err;
  const net::Endpoint ep = router.frontdoor()->endpoint();
  constexpr KeyId kKey = 5;
  const std::uint32_t from = router.owner(Side::kR, kKey);
  const pid_t from_pid = router.worker_pid(from);
  // The migration's source is stopped while the key moves, so the move
  // waits on its kExtract reply and the key stays parked meanwhile.
  struct Resume {
    pid_t pid;
    ~Resume() { ::kill(pid, SIGCONT); }
  } resume{from_pid};

  // Client script, one step at a time; the test thread drives the
  // router between steps.
  std::atomic<int> step{0};
  std::string fail;
  server::AppendAckMsg ack1, ack2;
  server::QueryResultMsg before, parked, after;
  auto wait_step = [&step](int want) {
    for (int i = 0; i < 10'000 && step.load() != want; ++i) {
      std::this_thread::sleep_for(1ms);
    }
    return step.load() == want;
  };
  auto batch = [](std::uint64_t req_id, std::uint64_t salt) {
    server::AppendMsg m;
    m.req_id = req_id;
    for (std::uint64_t i = 0; i < 16; ++i) {
      m.records.push_back(server::ClientRecord{
          i % 3 == 0 ? Side::kS : Side::kR, kKey, salt + i});
    }
    return m;
  };
  auto append = [](net::FrameConn& fc, const server::AppendMsg& m,
                   server::AppendAckMsg* ack) {
    net::Frame f;
    return fc.write_frame(wire(server::ClientMsgType::kAppend), encode(m)) &&
           fc.read_frame(f) &&
           f.type == wire(server::ClientMsgType::kAppendAck) &&
           decode(f.payload, *ack) && ack->req_id == m.req_id;
  };
  std::thread client([&] {
    std::string cerr;
    net::FrameConn fc = net::FrameConn::connect(ep, 10'000ms, &cerr);
    if (!fc.valid() || !client_hello(fc, "parker")) {
      fail = "connect/hello: " + cerr;
    } else if (!append(fc, batch(1, 100), &ack1) ||
               !query_key(fc, 2, kKey, &before)) {
      fail = "first append/query";
    } else if (step = 1; !wait_step(2)) {
      fail = "migration never started";
    } else if (!append(fc, batch(3, 200), &ack2) ||
               !query_key(fc, 4, kKey, &parked)) {
      fail = "parked append/query";
    } else if (step = 3; !wait_step(4)) {
      fail = "migration never finished";
    } else if (!query_key(fc, 5, kKey, &after)) {
      fail = "last query";
    }
    if (fc.valid()) fc.write_frame(wire(server::ClientMsgType::kClientBye), {});
    step = 5;
  });
  while (step.load() != 5) {
    router.pump(2ms);
    if (step.load() == 1) {
      ASSERT_EQ(::kill(from_pid, SIGSTOP), 0);
      ASSERT_TRUE(
          router.request_migration(Side::kR, from, 1 - from, {kKey}));
      step = 2;
    } else if (step.load() == 3) {
      ::kill(from_pid, SIGCONT);
      for (int i = 0; i < 5'000 && !router.migration_idle(); ++i) {
        router.pump(1ms);
      }
      step = 4;
    }
  }
  client.join();
  ASSERT_TRUE(fail.empty()) << fail;
  const auto log = router.dump_log();
  ASSERT_TRUE(router.finish());

  // batch() puts 10 R-side and 6 S-side records in each append.
  EXPECT_EQ(ack1.appended, 16u);
  EXPECT_EQ(before.as_of, 16u);
  EXPECT_EQ(before.r_tuples, 10u);
  EXPECT_EQ(before.s_tuples, 6u);
  // Parked records are acked but not logged, so they do not count yet.
  EXPECT_EQ(ack2.parked, 16u);
  EXPECT_EQ(ack2.appended, 0u);
  EXPECT_EQ(parked.as_of, before.as_of);
  EXPECT_EQ(parked.r_tuples, before.r_tuples);
  EXPECT_EQ(parked.s_tuples, before.s_tuples);
  // Once the move completes they are logged behind the flip, and count.
  EXPECT_EQ(router.stats().migrations_completed, 1u);
  EXPECT_EQ(after.as_of, log.size());
  EXPECT_EQ(after.owner_r, 1 - from);
  const auto [r, s] = logged_counts(log, kKey, log.size());
  EXPECT_EQ(after.r_tuples, r);
  EXPECT_EQ(after.s_tuples, s);
  EXPECT_EQ(r + s, 32u);
  EXPECT_EQ(router.stats().records_dropped, 0u);
  EXPECT_EQ(canonical(router.take_matches()), replay_log(log, 2));
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
