// FASTJOIN_PARSE_FILE — client protocol codecs; decoders must stay
// total over arbitrary bytes (see parse-surface lint rule).
#include "server/protocol.hpp"

namespace fastjoin::server {
namespace {

using net::ByteReader;
using net::ByteWriter;
using net::read_count;

constexpr std::size_t kClientRecordBytes = 1 + 8 + 8;
constexpr std::size_t kMatchPairBytes = 8 + 8 + 8;
/// Tenant ids are routing/accounting keys, not documents.
constexpr std::size_t kMaxTenantBytes = 256;

void put_string(ByteWriter& w, const std::string& s) {
  w.u32(static_cast<std::uint32_t>(s.size()));
  for (const char c : s) w.u8(static_cast<std::uint8_t>(c));
}

bool get_string(ByteReader& r, std::string& s) {
  std::uint32_t n = 0;
  if (!r.u32(n) || n > kMaxTenantBytes || n > r.remaining()) return false;
  s.clear();
  s.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint8_t c = 0;
    if (!r.u8(c)) return false;
    s.push_back(static_cast<char>(c));
  }
  return true;
}

}  // namespace

const char* client_msg_type_name(ClientMsgType t) {
  switch (t) {
    case ClientMsgType::kClientHello: return "ClientHello";
    case ClientMsgType::kClientHelloAck: return "ClientHelloAck";
    case ClientMsgType::kAppend: return "Append";
    case ClientMsgType::kAppendAck: return "AppendAck";
    case ClientMsgType::kRejected: return "Rejected";
    case ClientMsgType::kQuery: return "Query";
    case ClientMsgType::kQueryResult: return "QueryResult";
    case ClientMsgType::kClientBye: return "ClientBye";
  }
  return "?";
}

const char* reject_reason_name(RejectReason r) {
  switch (r) {
    case RejectReason::kNone: return "none";
    case RejectReason::kTenantRate: return "tenant-rate";
    case RejectReason::kGlobalBytes: return "global-bytes";
    case RejectReason::kBatchTooLarge: return "batch-too-large";
    case RejectReason::kBackpressure: return "backpressure";
    case RejectReason::kBadTenant: return "bad-tenant";
  }
  return "?";
}

std::vector<std::byte> encode(const ClientHelloMsg& m) {
  ByteWriter w;
  put_string(w, m.tenant);
  w.u32(m.proto_version);
  return w.take();
}

bool decode(const std::vector<std::byte>& p, ClientHelloMsg& m) {
  ByteReader r(p);
  return get_string(r, m.tenant) && r.u32(m.proto_version) && r.done();
}

std::vector<std::byte> encode(const ClientHelloAckMsg& m) {
  ByteWriter w;
  w.u8(m.ok);
  w.u8(m.reason);
  w.u32(m.max_batch_records);
  w.u64(m.rate_bytes_per_sec);
  w.u64(m.burst_bytes);
  return w.take();
}

bool decode(const std::vector<std::byte>& p, ClientHelloAckMsg& m) {
  ByteReader r(p);
  return r.u8(m.ok) && r.u8(m.reason) && r.u32(m.max_batch_records) &&
         r.u64(m.rate_bytes_per_sec) && r.u64(m.burst_bytes) && r.done();
}

std::vector<std::byte> encode(const AppendMsg& m) {
  ByteWriter w;
  w.u64(m.req_id);
  w.u32(static_cast<std::uint32_t>(m.records.size()));
  for (const ClientRecord& rec : m.records) {
    w.u8(static_cast<std::uint8_t>(rec.side));
    w.u64(rec.key);
    w.u64(rec.payload);
  }
  return w.take();
}

bool decode(const std::vector<std::byte>& p, AppendMsg& m) {
  ByteReader r(p);
  std::uint32_t n = 0;
  if (!r.u64(m.req_id) || !read_count(r, kClientRecordBytes, n)) {
    return false;
  }
  m.records.clear();
  m.records.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ClientRecord rec;
    std::uint8_t side = 0;
    if (!r.u8(side) || side > 1 || !r.u64(rec.key) || !r.u64(rec.payload)) {
      return false;
    }
    rec.side = static_cast<Side>(side);
    m.records.push_back(rec);
  }
  return r.done();
}

std::size_t append_payload_bytes(std::size_t n) {
  return 8 + 4 + n * kClientRecordBytes;
}

std::vector<std::byte> encode(const AppendAckMsg& m) {
  ByteWriter w;
  w.u64(m.req_id);
  w.u64(m.first_offset);
  w.u64(m.appended);
  w.u64(m.parked);
  return w.take();
}

bool decode(const std::vector<std::byte>& p, AppendAckMsg& m) {
  ByteReader r(p);
  return r.u64(m.req_id) && r.u64(m.first_offset) && r.u64(m.appended) &&
         r.u64(m.parked) && r.done();
}

std::vector<std::byte> encode(const RejectedMsg& m) {
  ByteWriter w;
  w.u64(m.req_id);
  w.u8(m.reason);
  w.u32(m.retry_after_ms);
  return w.take();
}

bool decode(const std::vector<std::byte>& p, RejectedMsg& m) {
  ByteReader r(p);
  return r.u64(m.req_id) && r.u8(m.reason) && r.u32(m.retry_after_ms) &&
         r.done();
}

std::vector<std::byte> encode(const QueryMsg& m) {
  ByteWriter w;
  w.u64(m.req_id);
  w.u64(m.key);
  w.u32(m.max_recent);
  return w.take();
}

bool decode(const std::vector<std::byte>& p, QueryMsg& m) {
  ByteReader r(p);
  return r.u64(m.req_id) && r.u64(m.key) && r.u32(m.max_recent) && r.done();
}

std::vector<std::byte> encode(const QueryResultMsg& m) {
  ByteWriter w;
  w.u64(m.req_id);
  w.u64(m.key);
  w.u64(m.r_tuples);
  w.u64(m.s_tuples);
  w.u32(m.owner_r);
  w.u32(m.owner_s);
  w.u64(m.as_of);
  w.u64(m.matches_total);
  w.u32(static_cast<std::uint32_t>(m.recent.size()));
  for (const MatchPair& p : m.recent) {
    w.u64(p.key);
    w.u64(p.r_seq);
    w.u64(p.s_seq);
  }
  return w.take();
}

bool decode(const std::vector<std::byte>& p, QueryResultMsg& m) {
  ByteReader r(p);
  std::uint32_t n = 0;
  if (!(r.u64(m.req_id) && r.u64(m.key) && r.u64(m.r_tuples) &&
        r.u64(m.s_tuples) && r.u32(m.owner_r) && r.u32(m.owner_s) &&
        r.u64(m.as_of) && r.u64(m.matches_total) &&
        read_count(r, kMatchPairBytes, n))) {
    return false;
  }
  m.recent.clear();
  m.recent.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    MatchPair mp;
    if (!r.u64(mp.key) || !r.u64(mp.r_seq) || !r.u64(mp.s_seq)) {
      return false;
    }
    m.recent.push_back(mp);
  }
  return r.done();
}

}  // namespace fastjoin::server
