// FASTJOIN_PARSE_FILE — client-facing byte decoders at the trust
// boundary; every decode() must be total over arbitrary bytes
// (fastjoin-lint `parse-surface` enforces the construct bans and the
// one-fuzz-harness-per-type parity check).
//
// Client-facing wire protocol of the serving front door.
//
// Clients (tools/fastjoin_client, external load generators) speak the
// same length-prefixed CRC frames as the worker fabric (net/frame.hpp)
// but a disjoint message taxonomy, carried on a separate listener — a
// client can never inject worker-protocol frames and vice versa. The
// type space starts at 100 so a frame from the wrong port is
// unmistakably a protocol error, not a lucky alias.
//
// Direction legend: C→S client to server, S→C server to client.
//
//   kClientHello    C→S  tenant id; first frame after connect
//   kClientHelloAck S→C  admission parameters for this tenant
//   kAppend         C→S  a batch of records to ingest (side/key/payload;
//                        seq and ts are stamped by the router — the
//                        single ingest point owns the stream order)
//   kAppendAck      S→C  assigned offsets for an admitted batch
//   kRejected       S→C  admission refusal with an explicit retry_after
//                        (the front door never silently drops)
//   kQuery          C→S  per-key read over JoinStore snapshot state
//   kQueryResult    S→C  stored-tuple counts, owners, recent matches
//   kClientBye      C→S  clean goodbye; the server closes after this
//
// Serialization is the ByteWriter/ByteReader idiom from net/wire.hpp:
// field-by-field little-endian, decoders fail the whole message on any
// truncation or trailing garbage and the connection is torn down.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "datagen/record.hpp"
#include "engine/tuple.hpp"
#include "net/wire.hpp"

namespace fastjoin::server {

enum class ClientMsgType : std::uint16_t {
  kClientHello = 100,
  kClientHelloAck = 101,
  kAppend = 102,
  kAppendAck = 103,
  kRejected = 104,
  kQuery = 105,
  kQueryResult = 106,
  kClientBye = 107,
};

const char* client_msg_type_name(ClientMsgType t);

/// Why an append was refused. Carried in RejectedMsg::reason.
enum class RejectReason : std::uint8_t {
  kNone = 0,
  kTenantRate = 1,     ///< per-tenant token bucket empty
  kGlobalBytes = 2,    ///< global in-flight byte budget exhausted
  kBatchTooLarge = 3,  ///< more records than max_batch_records
  kBackpressure = 4,   ///< downstream (worker fabric / log) not draining
  kBadTenant = 5,      ///< empty or oversized tenant id at hello
};

const char* reject_reason_name(RejectReason r);

struct ClientHelloMsg {
  /// Tenant identity — the admission-control and SLO-accounting key.
  /// Authentication is by assertion (the fabric binds 127.0.0.1 only;
  /// see docs/architecture.md "Serving front door").
  std::string tenant;
  std::uint32_t proto_version = 1;
};

struct ClientHelloAckMsg {
  std::uint8_t ok = 0;          ///< 0 => the hello was refused; reason set
  std::uint8_t reason = 0;      ///< RejectReason when ok == 0
  std::uint32_t max_batch_records = 0;
  std::uint64_t rate_bytes_per_sec = 0;  ///< this tenant's refill rate
  std::uint64_t burst_bytes = 0;         ///< this tenant's bucket capacity
};

/// One record as a client offers it. The router stamps seq (per side)
/// and ts (global arrival order) at admission — clients cannot forge
/// stream positions.
struct ClientRecord {
  Side side = Side::kR;
  KeyId key = 0;
  std::uint64_t payload = 0;
};

struct AppendMsg {
  std::uint64_t req_id = 0;  ///< echoed in the ack/reject
  std::vector<ClientRecord> records;
};

struct AppendAckMsg {
  std::uint64_t req_id = 0;
  /// StreamLog offset of the first record of this batch that was
  /// appended immediately. Records parked by an in-flight migration
  /// receive offsets when the migration resolves; they are counted in
  /// `parked` and no offset is promised for them here.
  std::uint64_t first_offset = 0;
  std::uint64_t appended = 0;  ///< records logged immediately
  std::uint64_t parked = 0;    ///< records held by a migration park
};

struct RejectedMsg {
  std::uint64_t req_id = 0;
  std::uint8_t reason = 0;  ///< RejectReason
  /// Milliseconds until the tenant's bucket (or the global budget) can
  /// cover a batch of this size again. 0 means "retry immediately"
  /// (e.g. kBatchTooLarge wants a smaller batch, not a wait).
  std::uint32_t retry_after_ms = 0;
};

struct QueryMsg {
  std::uint64_t req_id = 0;
  KeyId key = 0;
  /// Maximum recent matches to return (server caps this further).
  std::uint32_t max_recent = 0;
};

struct QueryResultMsg {
  std::uint64_t req_id = 0;
  KeyId key = 0;
  /// Logged records of the key per side, counted up to `as_of`.
  std::uint64_t r_tuples = 0;
  std::uint64_t s_tuples = 0;
  std::uint32_t owner_r = 0;  ///< worker owning the key's R-side store
  std::uint32_t owner_s = 0;
  /// Log end offset (exclusive) the counts reflect: the router's
  /// admitted cut. Parked records count once they are logged.
  std::uint64_t as_of = 0;
  std::uint64_t matches_total = 0;  ///< cluster-wide emitted matches
  std::vector<MatchPair> recent;    ///< recent matches for this key
};

std::vector<std::byte> encode(const ClientHelloMsg& m);
bool decode(const std::vector<std::byte>& p, ClientHelloMsg& m);
std::vector<std::byte> encode(const ClientHelloAckMsg& m);
bool decode(const std::vector<std::byte>& p, ClientHelloAckMsg& m);
std::vector<std::byte> encode(const AppendMsg& m);
bool decode(const std::vector<std::byte>& p, AppendMsg& m);
std::vector<std::byte> encode(const AppendAckMsg& m);
bool decode(const std::vector<std::byte>& p, AppendAckMsg& m);
std::vector<std::byte> encode(const RejectedMsg& m);
bool decode(const std::vector<std::byte>& p, RejectedMsg& m);
std::vector<std::byte> encode(const QueryMsg& m);
bool decode(const std::vector<std::byte>& p, QueryMsg& m);
std::vector<std::byte> encode(const QueryResultMsg& m);
bool decode(const std::vector<std::byte>& p, QueryResultMsg& m);

/// Exact encoded payload size of an AppendMsg with `n` records —
/// admission cost accounting and the rate-limit boundary tests both
/// need the byte-exact figure.
std::size_t append_payload_bytes(std::size_t n);

}  // namespace fastjoin::server
