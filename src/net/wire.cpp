// FASTJOIN_PARSE_FILE — worker wire codecs; decoders must stay total
// over arbitrary bytes (see parse-surface lint rule).
#include "net/wire.hpp"

namespace fastjoin::net {
namespace {

// Per-element sizes used for pre-reserving and for sanity-checking
// vector counts against the remaining payload before allocating.
constexpr std::size_t kWireTupleBytes = 1 + 8 + 8 + 8 + 8 + 4;
constexpr std::size_t kDataEntryBytes = 8 + 1 + 8 + 8 + 8 + 8 + 1;
constexpr std::size_t kMatchPairBytes = 8 + 8 + 8;

/// Bytes of a message made of a `head`-byte prefix and `n` elements of
/// `elem_bytes` each — the size an encoder reserves once. Like
/// read_count's bound, the arithmetic cannot wrap: on overflow the
/// result saturates, so the reservation fails rather than coming up
/// short.
std::size_t array_payload_bytes(std::size_t head, std::size_t n,
                                std::size_t elem_bytes) {
  std::size_t bytes = 0;
  if (__builtin_mul_overflow(n, elem_bytes, &bytes) ||
      __builtin_add_overflow(bytes, head, &bytes)) {
    return SIZE_MAX;
  }
  return bytes;
}

void put_tuple(ByteWriter& w, const WireTuple& t) {
  w.u8(static_cast<std::uint8_t>(t.side));
  w.u64(t.key);
  w.u64(t.tuple.seq);
  w.u64(t.tuple.payload);
  w.i64(t.tuple.ts);
  w.u32(t.tuple.subwindow);
}

bool get_tuple(ByteReader& r, WireTuple& t) {
  std::uint8_t side = 0;
  if (!r.u8(side) || side > 1) return false;
  t.side = static_cast<Side>(side);
  return r.u64(t.key) && r.u64(t.tuple.seq) && r.u64(t.tuple.payload) &&
         r.i64(t.tuple.ts) && r.u32(t.tuple.subwindow);
}

void put_record(ByteWriter& w, const Record& rec) {
  w.u64(rec.key);
  w.u64(rec.seq);
  w.u64(rec.payload);
  w.i64(rec.ts);
  w.u8(static_cast<std::uint8_t>(rec.side));
}

bool get_record(ByteReader& r, Record& rec) {
  std::uint8_t side = 0;
  if (!(r.u64(rec.key) && r.u64(rec.seq) && r.u64(rec.payload) &&
        r.i64(rec.ts) && r.u8(side))) {
    return false;
  }
  if (side > 1) return false;
  rec.side = static_cast<Side>(side);
  return true;
}

}  // namespace

const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kHello: return "Hello";
    case MsgType::kHelloAck: return "HelloAck";
    case MsgType::kData: return "Data";
    case MsgType::kExtract: return "Extract";
    case MsgType::kExtractBatch: return "ExtractBatch";
    case MsgType::kAbsorb: return "Absorb";
    case MsgType::kAbsorbAck: return "AbsorbAck";
    case MsgType::kCheckpoint: return "Checkpoint";
    case MsgType::kCheckpointDone: return "CheckpointDone";
    case MsgType::kRestore: return "Restore";
    case MsgType::kMatches: return "Matches";
    case MsgType::kFinish: return "Finish";
    case MsgType::kFinal: return "Final";
  }
  return "?";
}

std::vector<std::byte> encode(const HelloMsg& m) {
  ByteWriter w;
  w.u32(m.worker_id);
  w.u64(m.pid);
  return w.take();
}

bool decode(const std::vector<std::byte>& p, HelloMsg& m) {
  ByteReader r(p);
  return r.u32(m.worker_id) && r.u64(m.pid) && r.done();
}

std::vector<std::byte> encode(const HelloAckMsg& m) {
  ByteWriter w;
  w.u32(m.worker_id);
  w.u32(m.workers);
  w.u8(m.collect_matches);
  return w.take();
}

bool decode(const std::vector<std::byte>& p, HelloAckMsg& m) {
  ByteReader r(p);
  return r.u32(m.worker_id) && r.u32(m.workers) &&
         r.u8(m.collect_matches) && r.done();
}

std::vector<std::byte> encode(const DataBatchMsg& m) {
  ByteWriter w(array_payload_bytes(4, m.entries.size(), kDataEntryBytes));
  w.u32(static_cast<std::uint32_t>(m.entries.size()));
  for (const DataEntry& e : m.entries) {
    w.u64(e.offset);
    w.u8(e.flags);
    put_record(w, e.rec);
  }
  return w.take();
}

bool decode(const std::vector<std::byte>& p, DataBatchMsg& m) {
  ByteReader r(p);
  std::uint32_t n = 0;
  if (!read_count(r, kDataEntryBytes, n)) return false;
  m.entries.resize(n);
  for (DataEntry& e : m.entries) {
    if (!r.u64(e.offset) || !r.u8(e.flags) || !get_record(r, e.rec)) {
      return false;
    }
    if ((e.flags & (kDeliverStore | kDeliverProbe)) == 0) return false;
  }
  return r.done();
}

std::vector<std::byte> encode(const ExtractMsg& m) {
  ByteWriter w;
  w.u64(m.mig_id);
  w.u8(static_cast<std::uint8_t>(m.side));
  w.u32(static_cast<std::uint32_t>(m.keys.size()));
  for (KeyId k : m.keys) w.u64(k);
  return w.take();
}

bool decode(const std::vector<std::byte>& p, ExtractMsg& m) {
  ByteReader r(p);
  std::uint8_t side = 0;
  std::uint32_t n = 0;
  if (!r.u64(m.mig_id) || !r.u8(side) || side > 1 ||
      !read_count(r, 8, n)) {
    return false;
  }
  m.side = static_cast<Side>(side);
  m.keys.resize(n);
  for (KeyId& k : m.keys) {
    if (!r.u64(k)) return false;
  }
  return r.done();
}

std::vector<std::byte> encode(const ExtractBatchMsg& m) {
  ByteWriter w;
  w.u64(m.mig_id);
  w.u64(m.consumed_offset);
  w.u32(static_cast<std::uint32_t>(m.tuples.size()));
  for (const WireTuple& t : m.tuples) put_tuple(w, t);
  return w.take();
}

bool decode(const std::vector<std::byte>& p, ExtractBatchMsg& m) {
  ByteReader r(p);
  std::uint32_t n = 0;
  if (!r.u64(m.mig_id) || !r.u64(m.consumed_offset) ||
      !read_count(r, kWireTupleBytes, n)) {
    return false;
  }
  m.tuples.resize(n);
  for (WireTuple& t : m.tuples) {
    if (!get_tuple(r, t)) return false;
  }
  return r.done();
}

std::vector<std::byte> encode(const AbsorbMsg& m) {
  ByteWriter w;
  w.u64(m.mig_id);
  w.u32(static_cast<std::uint32_t>(m.tuples.size()));
  for (const WireTuple& t : m.tuples) put_tuple(w, t);
  return w.take();
}

bool decode(const std::vector<std::byte>& p, AbsorbMsg& m) {
  ByteReader r(p);
  std::uint32_t n = 0;
  if (!r.u64(m.mig_id) || !read_count(r, kWireTupleBytes, n)) return false;
  m.tuples.resize(n);
  for (WireTuple& t : m.tuples) {
    if (!get_tuple(r, t)) return false;
  }
  return r.done();
}

std::vector<std::byte> encode(const AbsorbAckMsg& m) {
  ByteWriter w;
  w.u64(m.mig_id);
  return w.take();
}

bool decode(const std::vector<std::byte>& p, AbsorbAckMsg& m) {
  ByteReader r(p);
  return r.u64(m.mig_id) && r.done();
}

std::vector<std::byte> encode(const CheckpointMsg& m) {
  ByteWriter w;
  w.u64(m.ckpt_id);
  return w.take();
}

bool decode(const std::vector<std::byte>& p, CheckpointMsg& m) {
  ByteReader r(p);
  return r.u64(m.ckpt_id) && r.done();
}

std::vector<std::byte> encode(const SnapshotMsg& m) {
  ByteWriter w;
  w.u64(m.ckpt_id);
  w.u64(m.consumed_offset);
  w.u64(m.emit_offset);
  w.u32(static_cast<std::uint32_t>(m.tuples.size()));
  for (const WireTuple& t : m.tuples) put_tuple(w, t);
  return w.take();
}

bool decode(const std::vector<std::byte>& p, SnapshotMsg& m) {
  ByteReader r(p);
  std::uint32_t n = 0;
  if (!r.u64(m.ckpt_id) || !r.u64(m.consumed_offset) ||
      !r.u64(m.emit_offset) || !read_count(r, kWireTupleBytes, n)) {
    return false;
  }
  m.tuples.resize(n);
  for (WireTuple& t : m.tuples) {
    if (!get_tuple(r, t)) return false;
  }
  return r.done();
}

std::vector<std::byte> encode(const MatchBatchMsg& m) {
  ByteWriter w;
  w.u64(m.emit_offset);
  w.u64(m.count);
  w.u32(static_cast<std::uint32_t>(m.pairs.size()));
  for (const MatchPair& pr : m.pairs) {
    w.u64(pr.key);
    w.u64(pr.r_seq);
    w.u64(pr.s_seq);
  }
  return w.take();
}

bool decode(const std::vector<std::byte>& p, MatchBatchMsg& m) {
  ByteReader r(p);
  std::uint32_t n = 0;
  if (!r.u64(m.emit_offset) || !r.u64(m.count) ||
      !read_count(r, kMatchPairBytes, n)) {
    return false;
  }
  m.pairs.resize(n);
  for (MatchPair& pr : m.pairs) {
    if (!r.u64(pr.key) || !r.u64(pr.r_seq) || !r.u64(pr.s_seq)) {
      return false;
    }
  }
  return r.done();
}

std::vector<std::byte> encode(const FinalMsg& m) {
  ByteWriter w;
  w.u64(m.stores);
  w.u64(m.probes);
  w.u64(m.matches);
  w.u64(m.suppressed);
  w.u64(m.dedup_skipped);
  w.u64(m.absorbed);
  return w.take();
}

bool decode(const std::vector<std::byte>& p, FinalMsg& m) {
  ByteReader r(p);
  return r.u64(m.stores) && r.u64(m.probes) && r.u64(m.matches) &&
         r.u64(m.suppressed) && r.u64(m.dedup_skipped) &&
         r.u64(m.absorbed) && r.done();
}

}  // namespace fastjoin::net
