// Wire message codecs: every type roundtrips; every malformed payload
// (truncated, trailing garbage, bad enum, lying count) is rejected.
#include "net/wire.hpp"

#include <gtest/gtest.h>

namespace fastjoin::net {
namespace {

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

template <typename M>
void expect_rejects_mutations(const M& msg) {
  // Truncation at every prefix length must fail, as must one byte of
  // trailing garbage. (done() + bounds-checked reads.)
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

TEST(Wire, HelloRoundtrip) {
  HelloMsg m;
  m.worker_id = 3;
  m.pid = 4242;
  HelloMsg d;
  ASSERT_TRUE(decode(encode(m), d));
  EXPECT_EQ(d.worker_id, 3u);
  EXPECT_EQ(d.pid, 4242u);
  expect_rejects_mutations(m);
}

TEST(Wire, HelloAckRoundtrip) {
  HelloAckMsg m;
  m.worker_id = 1;
  m.workers = 8;
  m.collect_matches = 1;
  HelloAckMsg d;
  ASSERT_TRUE(decode(encode(m), d));
  EXPECT_EQ(d.workers, 8u);
  EXPECT_EQ(d.collect_matches, 1);
  expect_rejects_mutations(m);
}

TEST(Wire, DataBatchRoundtrip) {
  DataBatchMsg m;
  for (std::uint64_t i = 0; i < 5; ++i) {
    std::uint8_t flags = i % 3 == 0 ? kDeliverProbe : kDeliverStore;
    if (i % 2) flags |= kDeliverStore | kDeliverProbe;
    m.entries.push_back(DataEntry{i * 10, flags, sample_record(i)});
  }
  DataBatchMsg d;
  ASSERT_TRUE(decode(encode(m), d));
  ASSERT_EQ(d.entries.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(d.entries[i].offset, i * 10);
    EXPECT_EQ(d.entries[i].flags, m.entries[i].flags);
    EXPECT_EQ(d.entries[i].rec.key, m.entries[i].rec.key);
    EXPECT_EQ(d.entries[i].rec.seq, m.entries[i].rec.seq);
    EXPECT_EQ(d.entries[i].rec.ts, m.entries[i].rec.ts);
    EXPECT_EQ(d.entries[i].rec.side, m.entries[i].rec.side);
  }
  expect_rejects_mutations(m);
}

TEST(Wire, DataEntryWithoutDeliverBitsRejected) {
  DataBatchMsg m;
  m.entries.push_back(DataEntry{0, 0, sample_record(1)});
  DataBatchMsg d;
  EXPECT_FALSE(decode(encode(m), d));
}

TEST(Wire, DataEntryWithOtherFlagBitsRejected) {
  // Bits 4 and 8 once marked suppressed probes and deduplicated
  // stores; a peer still sending them must fail loudly, not join.
  for (const std::uint8_t extra : {4, 8, 128}) {
    DataBatchMsg m;
    m.entries.push_back(DataEntry{
        0, static_cast<std::uint8_t>(kDeliverStore | extra),
        sample_record(1)});
    DataBatchMsg d;
    EXPECT_FALSE(decode(encode(m), d)) << int{extra};
  }
}

TEST(Wire, ExtractRoundtrip) {
  ExtractMsg m;
  m.mig_id = 17;
  m.side = Side::kS;
  m.keys = {1, 2, 99};
  ExtractMsg d;
  ASSERT_TRUE(decode(encode(m), d));
  EXPECT_EQ(d.mig_id, 17u);
  EXPECT_EQ(d.side, Side::kS);
  EXPECT_EQ(d.keys, m.keys);
  expect_rejects_mutations(m);
}

TEST(Wire, ExtractBatchRoundtrip) {
  ExtractBatchMsg m;
  m.mig_id = 5;
  m.consumed_offset = 777;
  for (std::uint64_t i = 0; i < 4; ++i) m.tuples.push_back(sample_tuple(i));
  ExtractBatchMsg d;
  ASSERT_TRUE(decode(encode(m), d));
  EXPECT_EQ(d.consumed_offset, 777u);
  ASSERT_EQ(d.tuples.size(), 4u);
  EXPECT_EQ(d.tuples[3].key, m.tuples[3].key);
  EXPECT_EQ(d.tuples[3].tuple.seq, m.tuples[3].tuple.seq);
  EXPECT_EQ(d.tuples[3].tuple.subwindow, m.tuples[3].tuple.subwindow);
  expect_rejects_mutations(m);
}

TEST(Wire, AbsorbAndAckRoundtrip) {
  AbsorbMsg m;
  m.mig_id = 0;  // re-inject form
  m.tuples = {sample_tuple(1), sample_tuple(2)};
  AbsorbMsg d;
  ASSERT_TRUE(decode(encode(m), d));
  EXPECT_EQ(d.mig_id, 0u);
  EXPECT_EQ(d.tuples.size(), 2u);
  expect_rejects_mutations(m);

  AbsorbAckMsg a;
  a.mig_id = 9;
  AbsorbAckMsg ad;
  ASSERT_TRUE(decode(encode(a), ad));
  EXPECT_EQ(ad.mig_id, 9u);
  expect_rejects_mutations(a);
}

TEST(Wire, SnapshotRoundtrip) {
  SnapshotMsg m;
  m.ckpt_id = 12;
  m.consumed_offset = 100;
  m.emit_offset = 100;
  for (std::uint64_t i = 0; i < 7; ++i) m.tuples.push_back(sample_tuple(i));
  SnapshotMsg d;
  ASSERT_TRUE(decode(encode(m), d));
  EXPECT_EQ(d.ckpt_id, 12u);
  EXPECT_EQ(d.consumed_offset, 100u);
  ASSERT_EQ(d.tuples.size(), 7u);
  expect_rejects_mutations(m);

  CheckpointMsg c;
  c.ckpt_id = 12;
  CheckpointMsg cd;
  ASSERT_TRUE(decode(encode(c), cd));
  EXPECT_EQ(cd.ckpt_id, 12u);
  expect_rejects_mutations(c);
}

TEST(Wire, MatchBatchRoundtrip) {
  MatchBatchMsg m;
  m.emit_offset = 55;
  m.count = 2;
  m.pairs = {MatchPair{1, 2, 3}, MatchPair{4, 5, 6}};
  MatchBatchMsg d;
  ASSERT_TRUE(decode(encode(m), d));
  EXPECT_EQ(d.emit_offset, 55u);
  EXPECT_EQ(d.count, 2u);
  ASSERT_EQ(d.pairs.size(), 2u);
  EXPECT_EQ(d.pairs[1].key, 4u);
  EXPECT_EQ(d.pairs[1].s_seq, 6u);
  expect_rejects_mutations(m);

  // Counts-only mode: count without pairs is legal.
  MatchBatchMsg counts;
  counts.emit_offset = 9;
  counts.count = 1'000'000;
  MatchBatchMsg cd;
  ASSERT_TRUE(decode(encode(counts), cd));
  EXPECT_EQ(cd.count, 1'000'000u);
  EXPECT_TRUE(cd.pairs.empty());
}

TEST(Wire, FinalRoundtrip) {
  FinalMsg m;
  m.stores = 1;
  m.probes = 2;
  m.matches = 3;
  m.dedup_skipped = 5;
  m.absorbed = 6;
  FinalMsg d;
  ASSERT_TRUE(decode(encode(m), d));
  EXPECT_EQ(d.absorbed, 6u);
  expect_rejects_mutations(m);
}

TEST(Wire, BadSideRejected) {
  ExtractMsg m;
  m.mig_id = 1;
  m.keys = {5};
  auto buf = encode(m);
  // side is the u8 right after the u64 mig_id.
  buf[8] = std::byte{2};
  ExtractMsg d;
  EXPECT_FALSE(decode(buf, d));
}

TEST(Wire, LyingCountCannotDriveAllocation) {
  // Hand-craft an ExtractMsg claiming 2^31 keys with no key bytes:
  // the decoder must reject it (count * elem > remaining) instead of
  // resizing a vector to gigabytes.
  ByteWriter w;
  w.u64(1);                 // mig_id
  w.u8(0);                  // side
  w.u32(0x8000'0000u);      // key count
  const auto buf = w.take();
  ExtractMsg d;
  EXPECT_FALSE(decode(buf, d));
}

// Overwrite the little-endian u32 count field at `off` in an encoded
// payload, then decode. The guard divides (n <= remaining / elem), so
// the exact boundary must pass and count+1 / saturated counts must
// fail without any large allocation.
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

TEST(Wire, DataBatchCountBoundary) {
  DataBatchMsg m;
  for (std::uint64_t i = 0; i < 3; ++i) {
    m.entries.push_back(DataEntry{i, kDeliverStore, sample_record(i)});
  }
  const auto buf = encode(m);
  ASSERT_EQ(buf.size(), 4u + 3 * 42u);  // count + 3 fixed-width entries
  EXPECT_TRUE(decode_with_count<DataBatchMsg>(buf, 0, 3));
  EXPECT_FALSE(decode_with_count<DataBatchMsg>(buf, 0, 4));
  EXPECT_FALSE(decode_with_count<DataBatchMsg>(buf, 0, 2));  // done() fails
  EXPECT_FALSE(decode_with_count<DataBatchMsg>(buf, 0, 0xFFFF'FFFFu));
}

TEST(Wire, ExtractBatchCountBoundary) {
  ExtractBatchMsg m;
  m.mig_id = 1;
  m.consumed_offset = 2;
  for (std::uint64_t i = 0; i < 3; ++i) m.tuples.push_back(sample_tuple(i));
  const auto buf = encode(m);
  ASSERT_EQ(buf.size(), 20u + 3 * 37u);  // mig+offset+count, 37B tuples
  EXPECT_TRUE(decode_with_count<ExtractBatchMsg>(buf, 16, 3));
  EXPECT_FALSE(decode_with_count<ExtractBatchMsg>(buf, 16, 4));
  EXPECT_FALSE(decode_with_count<ExtractBatchMsg>(buf, 16, 0xFFFF'FFFFu));
}

TEST(Wire, MsgTypeNames) {
  EXPECT_STREQ(msg_type_name(MsgType::kHello), "Hello");
  EXPECT_STREQ(msg_type_name(MsgType::kFinal), "Final");
}

}  // namespace
}  // namespace fastjoin::net
