// Client protocol codecs: every type roundtrips; truncations, trailing
// garbage, oversized tenants, bad sides and lying counts are rejected
// at exact boundaries (the fuzz harnesses sweep the same properties
// over random bytes; these pin the edges deterministically).
#include "server/protocol.hpp"

#include <gtest/gtest.h>

#include "net/wire.hpp"

namespace fastjoin::server {
namespace {

template <typename M>
void expect_rejects_mutations(const M& msg) {
  const auto full = encode(msg);
  for (std::size_t len = 0; len < full.size(); ++len) {
    std::vector<std::byte> cut(full.begin(),
                               full.begin() + static_cast<long>(len));
    M out;
    EXPECT_FALSE(decode(cut, out)) << "accepted truncation at " << len;
  }
  auto extended = full;
  extended.push_back(std::byte{0xEE});
  M out;
  EXPECT_FALSE(decode(extended, out)) << "accepted trailing garbage";
}

template <typename M>
bool decode_with_count(std::vector<std::byte> buf, std::size_t off,
                       std::uint32_t count) {
  for (int i = 0; i < 4; ++i) {
    buf[off + static_cast<std::size_t>(i)] =
        static_cast<std::byte>((count >> (8 * i)) & 0xFF);
  }
  M out;
  return decode(buf, out);
}

TEST(ClientProtocol, HelloRoundtrip) {
  ClientHelloMsg m;
  m.tenant = "tenant-a";
  m.proto_version = 1;
  ClientHelloMsg d;
  ASSERT_TRUE(decode(encode(m), d));
  EXPECT_EQ(d.tenant, "tenant-a");
  EXPECT_EQ(d.proto_version, 1u);
  expect_rejects_mutations(m);

  ClientHelloMsg empty;  // empty tenant is wire-legal (FrontDoor rejects)
  ClientHelloMsg de;
  ASSERT_TRUE(decode(encode(empty), de));
  EXPECT_TRUE(de.tenant.empty());
}

TEST(ClientProtocol, HelloTenantAtSizeCap) {
  ClientHelloMsg m;
  m.tenant.assign(256, 'x');
  ClientHelloMsg d;
  ASSERT_TRUE(decode(encode(m), d));
  EXPECT_EQ(d.tenant.size(), 256u);

  m.tenant.assign(257, 'x');
  EXPECT_FALSE(decode(encode(m), d));
}

TEST(ClientProtocol, HelloAckRoundtrip) {
  ClientHelloAckMsg m;
  m.ok = 1;
  m.reason = 0;
  m.max_batch_records = 512;
  m.rate_bytes_per_sec = 1 << 20;
  m.burst_bytes = 1 << 16;
  ClientHelloAckMsg d;
  ASSERT_TRUE(decode(encode(m), d));
  EXPECT_EQ(d.max_batch_records, 512u);
  EXPECT_EQ(d.burst_bytes, 1u << 16);
  expect_rejects_mutations(m);
}

TEST(ClientProtocol, AppendRoundtrip) {
  AppendMsg m;
  m.req_id = 42;
  for (std::uint64_t i = 0; i < 3; ++i) {
    ClientRecord rec;
    rec.side = (i & 1) ? Side::kS : Side::kR;
    rec.key = 100 + i;
    rec.payload = i * 7;
    m.records.push_back(rec);
  }
  AppendMsg d;
  ASSERT_TRUE(decode(encode(m), d));
  EXPECT_EQ(d.req_id, 42u);
  ASSERT_EQ(d.records.size(), 3u);
  EXPECT_EQ(d.records[2].key, 102u);
  EXPECT_EQ(d.records[1].side, Side::kS);
  expect_rejects_mutations(m);
  EXPECT_EQ(encode(m).size(), append_payload_bytes(3));
}

TEST(ClientProtocol, AppendCountBoundary) {
  AppendMsg m;
  m.req_id = 1;
  for (int i = 0; i < 3; ++i) m.records.push_back(ClientRecord{});
  const auto buf = encode(m);
  ASSERT_EQ(buf.size(), 12u + 3 * 17u);  // req_id + count + 17B records
  EXPECT_TRUE(decode_with_count<AppendMsg>(buf, 8, 3));
  EXPECT_FALSE(decode_with_count<AppendMsg>(buf, 8, 4));
  EXPECT_FALSE(decode_with_count<AppendMsg>(buf, 8, 2));  // done() fails
  EXPECT_FALSE(decode_with_count<AppendMsg>(buf, 8, 0xFFFF'FFFFu));
}

TEST(ClientProtocol, AppendBadSideRejected) {
  AppendMsg m;
  m.req_id = 1;
  m.records.push_back(ClientRecord{});
  auto buf = encode(m);
  buf[12] = std::byte{2};  // side byte of record 0
  AppendMsg d;
  EXPECT_FALSE(decode(buf, d));
}

TEST(ClientProtocol, AppendAckAndRejectedRoundtrip) {
  AppendAckMsg a;
  a.req_id = 7;
  a.first_offset = 100;
  a.appended = 3;
  a.parked = 1;
  AppendAckMsg ad;
  ASSERT_TRUE(decode(encode(a), ad));
  EXPECT_EQ(ad.first_offset, 100u);
  EXPECT_EQ(ad.parked, 1u);
  expect_rejects_mutations(a);

  RejectedMsg rj;
  rj.req_id = 7;
  rj.reason = static_cast<std::uint8_t>(RejectReason::kTenantRate);
  rj.retry_after_ms = 250;
  RejectedMsg rd;
  ASSERT_TRUE(decode(encode(rj), rd));
  EXPECT_EQ(rd.retry_after_ms, 250u);
  expect_rejects_mutations(rj);
}

TEST(ClientProtocol, QueryRoundtrip) {
  QueryMsg m;
  m.req_id = 9;
  m.key = 1234;
  m.max_recent = 16;
  QueryMsg d;
  ASSERT_TRUE(decode(encode(m), d));
  EXPECT_EQ(d.key, 1234u);
  expect_rejects_mutations(m);
}

TEST(ClientProtocol, QueryResultRoundtrip) {
  QueryResultMsg m;
  m.req_id = 9;
  m.key = 1234;
  m.r_tuples = 10;
  m.s_tuples = 20;
  m.owner_r = 1;
  m.owner_s = 2;
  m.as_of = 5;
  m.matches_total = 200;
  m.recent = {MatchPair{1, 2, 3}, MatchPair{4, 5, 6}};
  QueryResultMsg d;
  ASSERT_TRUE(decode(encode(m), d));
  EXPECT_EQ(d.matches_total, 200u);
  ASSERT_EQ(d.recent.size(), 2u);
  EXPECT_EQ(d.recent[1].s_seq, 6u);
  expect_rejects_mutations(m);
}

TEST(ClientProtocol, QueryResultCountBoundary) {
  QueryResultMsg m;
  m.recent = {MatchPair{1, 2, 3}, MatchPair{4, 5, 6}};
  const auto buf = encode(m);
  ASSERT_EQ(buf.size(), 60u + 2 * 24u);  // fixed header + 24B pairs
  EXPECT_TRUE(decode_with_count<QueryResultMsg>(buf, 56, 2));
  EXPECT_FALSE(decode_with_count<QueryResultMsg>(buf, 56, 3));
  EXPECT_FALSE(decode_with_count<QueryResultMsg>(buf, 56, 0xFFFF'FFFFu));
}

TEST(ClientProtocol, Names) {
  EXPECT_STREQ(client_msg_type_name(ClientMsgType::kAppend), "Append");
  EXPECT_STREQ(reject_reason_name(RejectReason::kBadTenant),
               "bad-tenant");
}

}  // namespace
}  // namespace fastjoin::server
