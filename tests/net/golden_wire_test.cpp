// Wire stability: committed hex dumps of every message type. A failure
// here means the byte layout changed — that is a protocol break, not a
// refactor. Bump the frame magic / add a version field before changing
// any golden constant, or old workers and clients will mis-decode.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/wire.hpp"
#include "server/protocol.hpp"

namespace fastjoin::net {
namespace {

std::string to_hex(const std::vector<std::byte>& v) {
  static const char* d = "0123456789abcdef";
  std::string s;
  s.reserve(v.size() * 2);
  for (std::byte b : v) {
    const auto u = static_cast<unsigned>(b);
    s += d[u >> 4];
    s += d[u & 0xF];
  }
  return s;
}

std::vector<std::byte> from_hex(const std::string& s) {
  std::vector<std::byte> v;
  v.reserve(s.size() / 2);
  for (std::size_t i = 0; i + 1 < s.size(); i += 2) {
    const auto hi = std::stoul(s.substr(i, 2), nullptr, 16);
    v.push_back(static_cast<std::byte>(hi));
  }
  return v;
}

// Asserts encode(msg) matches the committed bytes AND the committed
// bytes decode back to something that re-encodes identically — so both
// directions of the codec are pinned.
template <typename M>
void expect_golden(const M& msg, const std::string& golden) {
  const auto enc = encode(msg);
  EXPECT_EQ(to_hex(enc), golden)
      << "encode() layout changed: protocol break";
  M back;
  ASSERT_TRUE(decode(from_hex(golden), back))
      << "committed golden bytes no longer decode";
  EXPECT_EQ(to_hex(encode(back)), golden)
      << "decode() no longer inverts the committed bytes";
}

Record sample_record(std::uint64_t i) {
  Record r;
  r.key = 100 + i;
  r.seq = i;
  r.payload = i * 31;
  r.ts = static_cast<SimTime>(i * 7);
  r.side = (i & 1) ? Side::kS : Side::kR;
  return r;
}

WireTuple sample_tuple(std::uint64_t i) {
  WireTuple t;
  t.side = (i & 1) ? Side::kS : Side::kR;
  t.key = 7'000 + i;
  t.tuple = StoredTuple{i, i * 13, static_cast<SimTime>(i), 2};
  return t;
}

TEST(GoldenWire, Hello) {
  HelloMsg m;
  m.worker_id = 3;
  m.pid = 4242;
  expect_golden(m, "030000009210000000000000");
}

TEST(GoldenWire, HelloAck) {
  HelloAckMsg m;
  m.worker_id = 1;
  m.workers = 8;
  m.collect_matches = 1;
  expect_golden(m, "010000000800000001");
}

TEST(GoldenWire, DataBatch) {
  DataBatchMsg m;
  m.entries.push_back(DataEntry{10, kDeliverStore, sample_record(0)});
  m.entries.push_back(DataEntry{
      11, static_cast<std::uint8_t>(kDeliverStore | kDeliverProbe),
      sample_record(1)});
  expect_golden(
      m,
      "020000000a000000000000000164000000000000000000000000000000"
      "00000000000000000000000000000000000b0000000000000003650000"
      "000000000001000000000000001f000000000000000700000000000000"
      "01");
}

TEST(GoldenWire, Extract) {
  ExtractMsg m;
  m.mig_id = 17;
  m.side = Side::kS;
  m.keys = {1, 2, 99};
  expect_golden(m,
                "110000000000000001030000000100000000000000"
                "02000000000000006300000000000000");
}

TEST(GoldenWire, ExtractBatch) {
  ExtractBatchMsg m;
  m.mig_id = 5;
  m.consumed_offset = 777;
  m.tuples = {sample_tuple(0), sample_tuple(1)};
  expect_golden(
      m,
      "050000000000000009030000000000000200000000581b000000000000"
      "000000000000000000000000000000000000000000000000020000000159"
      "1b00000000000001000000000000000d0000000000000001000000000000"
      "0002000000");
}

TEST(GoldenWire, Absorb) {
  AbsorbMsg m;
  m.mig_id = 0;
  m.tuples = {sample_tuple(1)};
  expect_golden(m,
                "00000000000000000100000001591b0000000000000100000000"
                "0000000d00000000000000010000000000000002000000");
}

TEST(GoldenWire, AbsorbAck) {
  AbsorbAckMsg m;
  m.mig_id = 9;
  expect_golden(m, "0900000000000000");
}

TEST(GoldenWire, Checkpoint) {
  CheckpointMsg m;
  m.ckpt_id = 12;
  expect_golden(m, "0c00000000000000");
}

TEST(GoldenWire, Snapshot) {
  SnapshotMsg m;
  m.ckpt_id = 12;
  m.consumed_offset = 100;
  m.emit_offset = 100;
  m.tuples = {sample_tuple(2)};
  expect_golden(m,
                "0c0000000000000064000000000000006400000000000000"
                "01000000005a1b00000000000002000000000000001a000000000000"
                "00020000000000000002000000");
}

TEST(GoldenWire, MatchBatch) {
  MatchBatchMsg m;
  m.emit_offset = 55;
  m.count = 2;
  m.pairs = {MatchPair{1, 2, 3}, MatchPair{4, 5, 6}};
  expect_golden(m,
                "370000000000000002000000000000000200000001000000000000"
                "0002000000000000000300000000000000040000000000000005000000"
                "000000000600000000000000");
}

TEST(GoldenWire, Final) {
  FinalMsg m;
  m.stores = 1;
  m.probes = 2;
  m.matches = 3;
  m.dedup_skipped = 5;
  m.absorbed = 6;
  expect_golden(m,
                "010000000000000002000000000000000300000000000000"
                "05000000000000000600000000000000");
}

TEST(GoldenWire, ClientHello) {
  server::ClientHelloMsg m;
  m.tenant = "tenant-a";
  m.proto_version = 1;
  expect_golden(m, "0800000074656e616e742d6101000000");
}

TEST(GoldenWire, ClientHelloAck) {
  server::ClientHelloAckMsg m;
  m.ok = 1;
  m.reason = 0;
  m.max_batch_records = 512;
  m.rate_bytes_per_sec = 1 << 20;
  m.burst_bytes = 1 << 16;
  expect_golden(m, "01000002000000001000000000000000010000000000");
}

TEST(GoldenWire, Append) {
  server::AppendMsg m;
  m.req_id = 42;
  server::ClientRecord a;
  a.side = Side::kR;
  a.key = 100;
  a.payload = 0;
  server::ClientRecord b;
  b.side = Side::kS;
  b.key = 101;
  b.payload = 7;
  m.records = {a, b};
  expect_golden(m,
                "2a00000000000000020000000064000000000000000000000000"
                "0000000165000000000000000700000000000000");
}

TEST(GoldenWire, AppendAck) {
  server::AppendAckMsg m;
  m.req_id = 7;
  m.first_offset = 100;
  m.appended = 3;
  m.parked = 1;
  expect_golden(m,
                "07000000000000006400000000000000"
                "03000000000000000100000000000000");
}

TEST(GoldenWire, Rejected) {
  server::RejectedMsg m;
  m.req_id = 7;
  m.reason = 1;
  m.retry_after_ms = 250;
  expect_golden(m, "070000000000000001fa000000");
}

TEST(GoldenWire, Query) {
  server::QueryMsg m;
  m.req_id = 9;
  m.key = 1234;
  m.max_recent = 16;
  expect_golden(m, "0900000000000000d20400000000000010000000");
}

TEST(GoldenWire, QueryResult) {
  server::QueryResultMsg m;
  m.req_id = 9;
  m.key = 1234;
  m.r_tuples = 10;
  m.s_tuples = 20;
  m.owner_r = 1;
  m.owner_s = 2;
  m.as_of = 5;
  m.matches_total = 200;
  m.recent = {MatchPair{1, 2, 3}, MatchPair{4, 5, 6}};
  expect_golden(m,
                "0900000000000000d2040000000000000a00000000000000140000"
                "000000000001000000020000000500000000000000c8000000000000"
                "0002000000010000000000000002000000000000000300000000000000"
                "040000000000000005000000000000000600000000000000");
}

// The full framed form: magic, type, flags, length, CRC32C, payload.
// Pins the frame header layout and the CRC polynomial/seed together.
TEST(GoldenWire, FramedHello) {
  HelloMsg m;
  m.worker_id = 3;
  m.pid = 4242;
  const auto framed =
      encode_frame(static_cast<std::uint16_t>(MsgType::kHello),
                   encode(m));
  EXPECT_EQ(to_hex(framed),
            "314e4a46010000000c0000003556a6c6030000009210000000000000");

  FrameDecoder dec;
  std::vector<Frame> out;
  ASSERT_TRUE(dec.feed(framed.data(), framed.size(), out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type, static_cast<std::uint16_t>(MsgType::kHello));
  HelloMsg back;
  ASSERT_TRUE(decode(out[0].payload, back));
  EXPECT_EQ(back.pid, 4242u);
}

}  // namespace
}  // namespace fastjoin::net
