// FrontDoor over real loopback sockets: protocol discipline (hello
// gating, explicit refusals, clean byes), the admission boundary as a
// client actually experiences it, backpressure refusal + refund,
// slow/abusive clients (mid-request EOF, slowloris vs the idle sweep,
// connection-capacity refusal), and the per-tenant accounting
// invariant offered == admitted + rejected.
//
// Shape: the gtest main thread IS the event-loop thread (it pumps
// run_once), while a blocking FrameConn client runs in a std::thread.
// Client-side failures are collected into a string and asserted after
// the join — ASSERT aborts only the thread function, so the client
// reports rather than asserts.
#include "server/frontdoor.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "server/protocol.hpp"

namespace fastjoin::server {
namespace {

using namespace std::chrono_literals;

std::string temp_sock_path(const char* tag) {
  return "/tmp/fastjoin-serve-" + std::string(tag) + "-" +
         std::to_string(::getpid()) + ".sock";
}

net::Endpoint unix_ep(const char* tag) {
  net::Endpoint ep;
  ep.kind = net::Endpoint::Kind::kUnix;
  ep.path = temp_sock_path(tag);
  return ep;
}

constexpr std::uint16_t wire(ClientMsgType t) {
  return static_cast<std::uint16_t>(t);
}

/// FrontDoor plus stub data plane: the sink assigns consecutive
/// offsets (refusing when `refuse_sink`), the query handler returns
/// fixed state, the load probe reports `inflight`.
struct DoorHarness {
  net::EventLoop loop;
  FrontDoor door;
  std::uint64_t next_offset = 0;
  std::uint64_t sunk_records = 0;
  std::uint64_t inflight = 0;
  bool refuse_sink = false;

  explicit DoorHarness(FrontDoorConfig cfg) : door(loop, std::move(cfg)) {}

  bool start(std::string* err) {
    return door.start(
        [this](const std::string&, const std::vector<ClientRecord>& recs,
               AppendAckMsg* ack) {
          if (refuse_sink) return false;
          ack->first_offset = next_offset;
          next_offset += recs.size();
          ack->appended = recs.size();
          sunk_records += recs.size();
          return true;
        },
        [](const QueryMsg& q, QueryResultMsg* out) {
          out->r_tuples = 3;
          out->s_tuples = 4;
          out->owner_r = 1;
          out->as_of = 7;
          out->matches_total = 12;
          out->recent.resize(std::min<std::uint32_t>(q.max_recent, 2));
        },
        [this] { return inflight; }, err);
  }

  template <typename Pred>
  bool pump_until(Pred done, std::chrono::milliseconds timeout = 15'000ms) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (!done()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      loop.run_once(2ms);
    }
    return true;
  }
};

FrontDoorConfig door_cfg(const char* tag) {
  FrontDoorConfig cfg;
  cfg.endpoint = unix_ep(tag);
  return cfg;
}

/// Client-thread failure collector: first failure wins, later steps
/// are skipped by the callers checking ok().
struct ClientLog {
  std::atomic<bool> done{false};
  std::string fail;
  bool ok() const { return fail.empty(); }
  void expect(bool cond, const std::string& what) {
    if (!cond && fail.empty()) fail = what;
  }
};

bool hello(net::FrameConn& fc, const std::string& tenant,
           ClientHelloAckMsg& ack) {
  ClientHelloMsg h;
  h.tenant = tenant;
  if (!fc.write_frame(wire(ClientMsgType::kClientHello), encode(h))) {
    return false;
  }
  net::Frame f;
  if (!fc.read_frame(f)) return false;
  if (f.type != wire(ClientMsgType::kClientHelloAck)) return false;
  return decode(f.payload, ack);
}

/// Append `records` records; returns the reply frame type (kAppendAck
/// or kRejected, decoded into whichever out-param matches), 0 on error.
std::uint16_t append(net::FrameConn& fc, std::uint64_t req_id,
                     std::size_t records, AppendAckMsg* ack,
                     RejectedMsg* rej) {
  AppendMsg m;
  m.req_id = req_id;
  m.records.resize(records);
  for (std::size_t i = 0; i < records; ++i) {
    m.records[i].side = (i % 2 != 0) ? Side::kS : Side::kR;
    m.records[i].key = static_cast<KeyId>(i % 5);
    m.records[i].payload = req_id * 1000 + i;
  }
  if (!fc.write_frame(wire(ClientMsgType::kAppend), encode(m))) return 0;
  net::Frame f;
  if (!fc.read_frame(f)) return 0;
  if (f.type == wire(ClientMsgType::kAppendAck) && ack != nullptr &&
      decode(f.payload, *ack)) {
    return f.type;
  }
  if (f.type == wire(ClientMsgType::kRejected) && rej != nullptr &&
      decode(f.payload, *rej)) {
    return f.type;
  }
  return 0;
}

TEST(FrontDoor, HelloAppendQueryByeHappyPath) {
  DoorHarness h(door_cfg("happy"));
  std::string err;
  ASSERT_TRUE(h.start(&err)) << err;

  ClientLog log;
  std::thread client([&] {
    std::string cerr;
    net::FrameConn fc =
        net::FrameConn::connect(h.door.endpoint(), 5'000ms, &cerr);
    log.expect(fc.valid(), "connect: " + cerr);
    if (log.ok()) {
      ClientHelloAckMsg hack;
      log.expect(hello(fc, "alice", hack) && hack.ok == 1, "hello refused");
      log.expect(hack.max_batch_records > 0, "hello ack missing limits");
    }
    if (log.ok()) {
      AppendAckMsg a1, a2;
      log.expect(append(fc, 1, 10, &a1, nullptr) ==
                     wire(ClientMsgType::kAppendAck),
                 "append 1 not acked");
      log.expect(append(fc, 2, 5, &a2, nullptr) ==
                     wire(ClientMsgType::kAppendAck),
                 "append 2 not acked");
      log.expect(a1.req_id == 1 && a2.req_id == 2, "req_id echo broken");
      log.expect(a1.first_offset == 0 && a1.appended == 10,
                 "ack 1 offsets wrong");
      log.expect(a2.first_offset == 10 && a2.appended == 5,
                 "ack 2 offsets wrong");
    }
    if (log.ok()) {
      QueryMsg q;
      q.req_id = 9;
      q.key = 3;
      q.max_recent = 8;
      fc.write_frame(wire(ClientMsgType::kQuery), encode(q));
      net::Frame f;
      QueryResultMsg res;
      log.expect(fc.read_frame(f) &&
                     f.type == wire(ClientMsgType::kQueryResult) &&
                     decode(f.payload, res),
                 "query result missing");
      log.expect(res.req_id == 9 && res.key == 3, "query echo broken");
      log.expect(res.r_tuples == 3 && res.s_tuples == 4 &&
                     res.matches_total == 12 && res.as_of == 7,
                 "query state wrong");
    }
    if (log.ok()) {
      fc.write_frame(wire(ClientMsgType::kClientBye), {});
    }
    log.done = true;
  });

  ASSERT_TRUE(h.pump_until([&] { return log.done.load(); }));
  client.join();
  EXPECT_TRUE(log.ok()) << log.fail;
  // The bye closes server-side; drain until the slot is gone.
  ASSERT_TRUE(h.pump_until([&] { return h.door.open_connections() == 0; }));

  const FrontDoorStats& s = h.door.stats();
  EXPECT_EQ(s.accepted, 1u);
  EXPECT_EQ(s.closed, 1u);
  EXPECT_EQ(s.protocol_errors, 0u);
  const TenantStats& ts = s.tenants.at("alice");
  EXPECT_EQ(ts.offered_requests, 2u);
  EXPECT_EQ(ts.admitted_requests, 2u);
  EXPECT_EQ(ts.rejected_requests, 0u);
  EXPECT_EQ(ts.admitted_records, 15u);
  EXPECT_EQ(ts.queries, 1u);
  EXPECT_EQ(h.sunk_records, 15u);
  ::unlink(h.door.endpoint().path.c_str());
}

TEST(FrontDoor, AppendBeforeHelloIsProtocolError) {
  DoorHarness h(door_cfg("nohello"));
  std::string err;
  ASSERT_TRUE(h.start(&err)) << err;

  ClientLog log;
  std::thread client([&] {
    std::string cerr;
    net::FrameConn fc =
        net::FrameConn::connect(h.door.endpoint(), 5'000ms, &cerr);
    log.expect(fc.valid(), "connect: " + cerr);
    if (log.ok()) {
      AppendMsg m;
      m.records.resize(1);
      fc.write_frame(wire(ClientMsgType::kAppend), encode(m));
      net::Frame f;
      // The server answers with a close, not a frame.
      log.expect(!fc.read_frame(f), "expected close, got a frame");
    }
    log.done = true;
  });

  ASSERT_TRUE(h.pump_until([&] {
    return log.done.load() && h.door.open_connections() == 0;
  }));
  client.join();
  EXPECT_TRUE(log.ok()) << log.fail;
  EXPECT_EQ(h.door.stats().protocol_errors, 1u);
  EXPECT_EQ(h.door.stats().closed, 1u);
  EXPECT_EQ(h.sunk_records, 0u);
  ::unlink(h.door.endpoint().path.c_str());
}

TEST(FrontDoor, EmptyTenantRefusedThenCorrectedHelloWorks) {
  DoorHarness h(door_cfg("badtenant"));
  std::string err;
  ASSERT_TRUE(h.start(&err)) << err;

  ClientLog log;
  std::thread client([&] {
    std::string cerr;
    net::FrameConn fc =
        net::FrameConn::connect(h.door.endpoint(), 5'000ms, &cerr);
    log.expect(fc.valid(), "connect: " + cerr);
    if (log.ok()) {
      ClientHelloAckMsg hack;
      // Refused, not dropped: an explicit nack naming the reason, and
      // the connection survives for a corrected hello.
      log.expect(hello(fc, "", hack), "no nack for empty tenant");
      log.expect(hack.ok == 0 &&
                     hack.reason ==
                         static_cast<std::uint8_t>(RejectReason::kBadTenant),
                 "nack reason wrong");
      log.expect(hello(fc, "alice", hack) && hack.ok == 1,
                 "corrected hello refused");
      fc.write_frame(wire(ClientMsgType::kClientBye), {});
    }
    log.done = true;
  });

  ASSERT_TRUE(h.pump_until([&] {
    return log.done.load() && h.door.open_connections() == 0;
  }));
  client.join();
  EXPECT_TRUE(log.ok()) << log.fail;
  EXPECT_EQ(h.door.stats().protocol_errors, 0u);
  ::unlink(h.door.endpoint().path.c_str());
}

TEST(FrontDoor, RateLimitBoundaryOverWire) {
  // Burst sized to exactly one 8-record append under a VirtualClock
  // (no refill): the first batch admits, the next 1-record batch is an
  // explicit kTenantRate reject with a retry hint — and the tenant's
  // ledger balances to the record.
  VirtualClock vclk;
  FrontDoorConfig cfg = door_cfg("boundary");
  cfg.admission.clock = &vclk;
  cfg.admission.tenant_burst_bytes = append_payload_bytes(8);
  cfg.admission.tenant_rate_bytes_per_sec = 1024;
  DoorHarness h(cfg);
  std::string err;
  ASSERT_TRUE(h.start(&err)) << err;

  ClientLog log;
  std::thread client([&] {
    std::string cerr;
    net::FrameConn fc =
        net::FrameConn::connect(h.door.endpoint(), 5'000ms, &cerr);
    log.expect(fc.valid(), "connect: " + cerr);
    ClientHelloAckMsg hack;
    if (log.ok()) log.expect(hello(fc, "bob", hack), "hello failed");
    if (log.ok()) {
      AppendAckMsg ack;
      log.expect(
          append(fc, 1, 8, &ack, nullptr) == wire(ClientMsgType::kAppendAck),
          "burst exactly at capacity must admit");
      RejectedMsg rej;
      log.expect(
          append(fc, 2, 1, nullptr, &rej) == wire(ClientMsgType::kRejected),
          "over-capacity append must be rejected");
      log.expect(rej.req_id == 2, "reject req_id echo broken");
      log.expect(rej.reason ==
                     static_cast<std::uint8_t>(RejectReason::kTenantRate),
                 "reject reason not kTenantRate");
      log.expect(rej.retry_after_ms >= 1, "retry_after must be nonzero");
      fc.write_frame(wire(ClientMsgType::kClientBye), {});
    }
    log.done = true;
  });

  ASSERT_TRUE(h.pump_until([&] {
    return log.done.load() && h.door.open_connections() == 0;
  }));
  client.join();
  EXPECT_TRUE(log.ok()) << log.fail;
  const TenantStats& ts = h.door.stats().tenants.at("bob");
  EXPECT_EQ(ts.offered_requests, 2u);
  EXPECT_EQ(ts.admitted_requests, 1u);
  EXPECT_EQ(ts.rejected_requests, 1u);
  EXPECT_EQ(ts.admitted_requests + ts.rejected_requests,
            ts.offered_requests);
  EXPECT_EQ(ts.admitted_records, 8u);
  EXPECT_EQ(ts.rejected_records, 1u);
  EXPECT_EQ(h.sunk_records, 8u);
  ::unlink(h.door.endpoint().path.c_str());
}

TEST(FrontDoor, BackpressureRefusalIsExplicitAndRefunded) {
  // Bucket fits exactly one 8-record batch and never refills: if the
  // backpressure path failed to refund, the retry after the sink
  // recovers would bounce off an empty bucket as kTenantRate.
  VirtualClock vclk;
  FrontDoorConfig cfg = door_cfg("backpressure");
  cfg.admission.clock = &vclk;
  cfg.admission.tenant_burst_bytes = append_payload_bytes(8);
  cfg.admission.tenant_rate_bytes_per_sec = 1024;
  DoorHarness h(cfg);
  h.refuse_sink = true;
  std::string err;
  ASSERT_TRUE(h.start(&err)) << err;

  ClientLog log;
  std::atomic<bool> saw_reject{false};
  std::atomic<bool> sink_open{false};
  std::thread client([&] {
    std::string cerr;
    net::FrameConn fc =
        net::FrameConn::connect(h.door.endpoint(), 5'000ms, &cerr);
    log.expect(fc.valid(), "connect: " + cerr);
    ClientHelloAckMsg hack;
    if (log.ok()) log.expect(hello(fc, "carol", hack), "hello failed");
    if (log.ok()) {
      RejectedMsg rej;
      log.expect(
          append(fc, 1, 8, nullptr, &rej) == wire(ClientMsgType::kRejected),
          "refusing sink must surface as a reject");
      log.expect(rej.reason ==
                     static_cast<std::uint8_t>(RejectReason::kBackpressure),
                 "reason not kBackpressure");
      log.expect(rej.retry_after_ms > 0, "backpressure retry hint missing");
      saw_reject = true;
      while (!sink_open.load()) std::this_thread::sleep_for(1ms);
      AppendAckMsg ack;
      log.expect(
          append(fc, 2, 8, &ack, nullptr) == wire(ClientMsgType::kAppendAck),
          "retry after refund must admit (tokens were not returned?)");
      fc.write_frame(wire(ClientMsgType::kClientBye), {});
    }
    log.done = true;
  });

  ASSERT_TRUE(h.pump_until([&] { return saw_reject.load(); }));
  h.refuse_sink = false;  // loop thread owns the flag; flip it here
  sink_open = true;
  ASSERT_TRUE(h.pump_until([&] {
    return log.done.load() && h.door.open_connections() == 0;
  }));
  client.join();
  EXPECT_TRUE(log.ok()) << log.fail;
  EXPECT_EQ(h.door.stats().backpressure_rejects, 1u);
  const TenantStats& ts = h.door.stats().tenants.at("carol");
  EXPECT_EQ(ts.offered_requests, 2u);
  EXPECT_EQ(ts.admitted_requests, 1u);
  EXPECT_EQ(ts.rejected_requests, 1u);
  ::unlink(h.door.endpoint().path.c_str());
}

TEST(FrontDoor, OversizedBatchRejectedConnectionStaysUsable) {
  FrontDoorConfig cfg = door_cfg("bigbatch");
  cfg.admission.max_batch_records = 8;
  DoorHarness h(cfg);
  std::string err;
  ASSERT_TRUE(h.start(&err)) << err;

  ClientLog log;
  std::thread client([&] {
    std::string cerr;
    net::FrameConn fc =
        net::FrameConn::connect(h.door.endpoint(), 5'000ms, &cerr);
    log.expect(fc.valid(), "connect: " + cerr);
    ClientHelloAckMsg hack;
    if (log.ok()) log.expect(hello(fc, "dave", hack), "hello failed");
    if (log.ok()) {
      RejectedMsg rej;
      log.expect(
          append(fc, 1, 9, nullptr, &rej) == wire(ClientMsgType::kRejected),
          "oversized batch must be rejected");
      log.expect(rej.reason ==
                     static_cast<std::uint8_t>(RejectReason::kBatchTooLarge),
                 "reason not kBatchTooLarge");
      log.expect(rej.retry_after_ms == 0,
                 "kBatchTooLarge means resize, not wait");
      AppendAckMsg ack;
      log.expect(
          append(fc, 2, 8, &ack, nullptr) == wire(ClientMsgType::kAppendAck),
          "right-sized retry on the same connection must admit");
      fc.write_frame(wire(ClientMsgType::kClientBye), {});
    }
    log.done = true;
  });

  ASSERT_TRUE(h.pump_until([&] {
    return log.done.load() && h.door.open_connections() == 0;
  }));
  client.join();
  EXPECT_TRUE(log.ok()) << log.fail;
  EXPECT_EQ(h.door.stats().protocol_errors, 0u);
  const TenantStats& ts = h.door.stats().tenants.at("dave");
  EXPECT_EQ(ts.offered_requests, 2u);
  EXPECT_EQ(ts.admitted_requests + ts.rejected_requests,
            ts.offered_requests);
  ::unlink(h.door.endpoint().path.c_str());
}

TEST(FrontDoor, MidRequestEofIsAccountedNotDropped) {
  DoorHarness h(door_cfg("eof"));
  std::string err;
  ASSERT_TRUE(h.start(&err)) << err;

  std::atomic<bool> sent{false};
  std::thread client([&] {
    std::string cerr;
    net::Socket s = net::connect_with_retry(h.door.endpoint(), 5'000ms,
                                            &cerr);
    ASSERT_TRUE(s.valid()) << cerr;
    AppendMsg m;
    m.records.resize(64);
    const auto buf =
        net::encode_frame(wire(ClientMsgType::kAppend), encode(m));
    // Half the request, then vanish — the SIGKILL-mid-write client.
    ASSERT_TRUE(net::send_all(s, buf.data(), buf.size() / 2));
    sent = true;
    // Socket closes on scope exit.
  });
  client.join();
  ASSERT_TRUE(sent.load());

  ASSERT_TRUE(h.pump_until([&] {
    return h.door.stats().closed == 1 && h.door.open_connections() == 0;
  }));
  EXPECT_EQ(h.door.stats().protocol_errors, 1u);  // torn frame != clean
  EXPECT_EQ(h.sunk_records, 0u);  // the half-batch never reached the sink
  ::unlink(h.door.endpoint().path.c_str());
}

TEST(FrontDoor, SlowlorisClosedByIdleSweep) {
  // A slowloris holds the connection with a forever-incomplete frame.
  // Virtual time drives the sweep deterministically: no real waiting.
  VirtualClock vclk;
  FrontDoorConfig cfg = door_cfg("loris");
  cfg.clock = &vclk;
  cfg.idle_timeout = 1'000ms;
  DoorHarness h(cfg);
  std::string err;
  ASSERT_TRUE(h.start(&err)) << err;

  std::atomic<bool> reaped{false};
  ClientLog log;
  std::thread client([&] {
    std::string cerr;
    net::Socket s = net::connect_with_retry(h.door.endpoint(), 5'000ms,
                                            &cerr);
    log.expect(s.valid(), "connect: " + cerr);
    if (log.ok()) {
      ClientHelloMsg m;
      m.tenant = "loris";
      const auto buf =
          net::encode_frame(wire(ClientMsgType::kClientHello), encode(m));
      // A teasing prefix: enough to buffer, never a complete frame.
      log.expect(net::send_all(s, buf.data(), buf.size() / 2),
                 "partial send failed");
      log.done = true;
      // Hold the socket open until the server has swept us.
      while (!reaped.load()) std::this_thread::sleep_for(1ms);
    } else {
      log.done = true;
    }
  });

  // Let the partial frame arrive, then age the connection past the
  // timeout and sweep.
  ASSERT_TRUE(h.pump_until([&] {
    return log.done.load() && h.door.stats().accepted == 1;
  }));
  for (int i = 0; i < 20; ++i) h.loop.run_once(1ms);
  vclk.advance(2'000ms);
  h.door.sweep_idle();
  ASSERT_TRUE(h.pump_until([&] { return h.door.open_connections() == 0; }));
  reaped = true;
  client.join();
  EXPECT_TRUE(log.ok()) << log.fail;
  EXPECT_EQ(h.door.stats().idle_closed, 1u);
  ::unlink(h.door.endpoint().path.c_str());
}

TEST(FrontDoor, CapacityLimitRefusesExtraClients) {
  FrontDoorConfig cfg = door_cfg("capacity");
  cfg.max_connections = 1;
  DoorHarness h(cfg);
  std::string err;
  ASSERT_TRUE(h.start(&err)) << err;

  ClientLog log;
  std::thread client([&] {
    std::string cerr;
    net::FrameConn a =
        net::FrameConn::connect(h.door.endpoint(), 5'000ms, &cerr);
    log.expect(a.valid(), "client A connect: " + cerr);
    ClientHelloAckMsg hack;
    if (log.ok()) log.expect(hello(a, "alice", hack), "A hello failed");
    if (log.ok()) {
      // B is over capacity: the server closes its socket instead of
      // serving it, so B's hello never gets an ack.
      net::FrameConn b =
          net::FrameConn::connect(h.door.endpoint(), 5'000ms, &cerr);
      log.expect(b.valid(), "client B connect: " + cerr);
      if (log.ok()) {
        ClientHelloMsg m;
        m.tenant = "bob";
        b.write_frame(wire(ClientMsgType::kClientHello), encode(m));
        net::Frame f;
        log.expect(!b.read_frame(f), "over-capacity client got served");
      }
      a.write_frame(wire(ClientMsgType::kClientBye), {});
    }
    log.done = true;
  });

  ASSERT_TRUE(h.pump_until([&] {
    return log.done.load() && h.door.open_connections() == 0;
  }));
  client.join();
  EXPECT_TRUE(log.ok()) << log.fail;
  EXPECT_EQ(h.door.stats().accepted, 1u);
  EXPECT_EQ(h.door.stats().refused_capacity, 1u);
  ::unlink(h.door.endpoint().path.c_str());
}

}  // namespace
}  // namespace fastjoin::server
