// FASTJOIN_PARSE_FILE — byte decoders at the trust boundary: every
// decode() here must be total over arbitrary bytes (fastjoin-lint
// `parse-surface` bans asserts/throws, unchecked reads and unguarded
// multiplied length arithmetic, and requires a fuzz harness per type).
//
// Wire message taxonomy for the multi-process runtime.
//
// The router and its workers exchange exactly these messages, each
// carried in one frame (frame.hpp). Serialization is field-by-field
// little-endian memcpy (the log_record.hpp idiom) via ByteWriter /
// ByteReader; decode never trusts lengths — a reader that runs out of
// bytes fails the whole message and the connection is torn down.
//
// Direction legend: W→R worker to router, R→W router to worker.
//
//   kHello          W→R  worker_id + pid, first frame after connect
//   kHelloAck       R→W  cluster shape + match-collection mode
//   kData           R→W  a batch of log-stamped deliveries
//   kExtract        R→W  migration: remove these keys' tuples (one side)
//   kExtractBatch   W→R  the extracted tuples + consumed watermark
//   kAbsorb         R→W  merge these tuples (migration or re-inject)
//   kAbsorbAck      W→R  merge done
//   kCheckpoint     R→W  snapshot request
//   kCheckpointDone W→R  store snapshot + consumed/emitted watermarks
//   kRestore        R→W  respawn: reload this snapshot before any data
//   kMatches        W→R  match results up to an emit watermark
//   kFinish         R→W  drain and report
//   kFinal          W→R  final per-worker counters; worker exits after
//
// See docs/migration_protocol.md ("Wire mapping") for how these
// correspond to the in-process supervised-migration phases.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "datagen/record.hpp"
#include "engine/tuple.hpp"

namespace fastjoin::net {

enum class MsgType : std::uint16_t {
  kHello = 1,
  kHelloAck = 2,
  kData = 3,
  kExtract = 4,
  kExtractBatch = 5,
  kAbsorb = 6,
  kAbsorbAck = 7,
  kCheckpoint = 8,
  kCheckpointDone = 9,
  kRestore = 10,
  kMatches = 11,
  kFinish = 12,
  kFinal = 13,
};

const char* msg_type_name(MsgType t);

// --------------------------------------------------------------------------
// Byte cursor helpers
// --------------------------------------------------------------------------

class ByteWriter {
 public:
  ByteWriter() = default;
  /// Reserve `bytes` up front: an encoder that knows its message size
  /// sizes the buffer once instead of regrowing it field by field.
  explicit ByteWriter(std::size_t bytes) { buf_.reserve(bytes); }

  void u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }
  void u16(std::uint16_t v) { raw(&v, 2); }
  void u32(std::uint32_t v) { raw(&v, 4); }
  void u64(std::uint64_t v) { raw(&v, 8); }
  void i64(std::int64_t v) { raw(&v, 8); }
  std::vector<std::byte> take() { return std::move(buf_); }

 private:
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::byte*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  std::vector<std::byte> buf_;
};

class ByteReader {
 public:
  ByteReader(const std::byte* data, std::size_t len)
      : p_(data), end_(data + len) {}
  explicit ByteReader(const std::vector<std::byte>& v)
      : ByteReader(v.data(), v.size()) {}

  bool u8(std::uint8_t& v) { return raw(&v, 1); }
  bool u16(std::uint16_t& v) { return raw(&v, 2); }
  bool u32(std::uint32_t& v) { return raw(&v, 4); }
  bool u64(std::uint64_t& v) { return raw(&v, 8); }
  bool i64(std::int64_t& v) { return raw(&v, 8); }
  bool done() const { return p_ == end_; }
  std::size_t remaining() const {
    return static_cast<std::size_t>(end_ - p_);
  }

 private:
  bool raw(void* out, std::size_t n) {
    if (static_cast<std::size_t>(end_ - p_) < n) return false;
    std::memcpy(out, p_, n);
    p_ += n;
    return true;
  }
  const std::byte* p_;
  const std::byte* end_;
};

/// Read a u32 element count and admit it only when the remaining bytes
/// can hold `n` elements of `elem_bytes` each. The bound divides instead
/// of multiplying so a hostile count can never overflow std::size_t or
/// drive a huge reserve() before truncation is detected.
inline bool read_count(ByteReader& r, std::size_t elem_bytes,
                       std::uint32_t& n) {
  if (!r.u32(n)) return false;
  return static_cast<std::size_t>(n) <= r.remaining() / elem_bytes;
}

// --------------------------------------------------------------------------
// Messages
// --------------------------------------------------------------------------

/// One stored tuple with its full identity — what migrations and
/// checkpoints ship.
struct WireTuple {
  Side side = Side::kR;
  KeyId key = 0;
  StoredTuple tuple;
};

/// Delivery-half flags on a DataEntry.
inline constexpr std::uint8_t kDeliverStore = 1;   ///< insert rec into rec.side's store
inline constexpr std::uint8_t kDeliverProbe = 2;   ///< probe other_side(rec.side)'s store
inline constexpr std::uint8_t kSuppressEmit = 4;   ///< probe half: count but
                                                   ///< do not emit (matches
                                                   ///< already delivered by a
                                                   ///< dead incarnation)
inline constexpr std::uint8_t kDedupStore = 8;     ///< store half: skip if a
                                                   ///< tuple with this seq is
                                                   ///< already in the bucket

struct DataEntry {
  std::uint64_t offset = 0;  ///< StreamLog partition offset
  std::uint8_t flags = 0;    ///< kDeliver*/kSuppressEmit/kDedupStore
  Record rec;
};

struct HelloMsg {
  std::uint32_t worker_id = 0;
  std::uint64_t pid = 0;
};

struct HelloAckMsg {
  std::uint32_t worker_id = 0;
  std::uint32_t workers = 0;
  std::uint8_t collect_matches = 0;  ///< ship pairs (1) or counts only (0)
};

struct DataBatchMsg {
  std::vector<DataEntry> entries;
};

struct ExtractMsg {
  std::uint64_t mig_id = 0;
  Side side = Side::kR;
  std::vector<KeyId> keys;
};

struct ExtractBatchMsg {
  std::uint64_t mig_id = 0;
  /// The worker's processed watermark (exclusive) when the batch was
  /// cut: every delivery for the extracted keys below this offset is
  /// covered by `tuples` (connection FIFO: the worker had processed
  /// its whole inbound queue before answering).
  std::uint64_t consumed_offset = 0;
  std::vector<WireTuple> tuples;
};

/// Migration transfer and crash-recovery re-injection share this
/// shape; mig_id == 0 marks a re-inject (no ack expected).
struct AbsorbMsg {
  std::uint64_t mig_id = 0;
  std::vector<WireTuple> tuples;
};

struct AbsorbAckMsg {
  std::uint64_t mig_id = 0;
};

struct CheckpointMsg {
  std::uint64_t ckpt_id = 0;
};

/// CheckpointDone (W→R) and Restore (R→W) carry the same snapshot
/// shape: the full store plus the watermarks that anchor replay.
struct SnapshotMsg {
  std::uint64_t ckpt_id = 0;
  /// Exclusive: deliveries of log offsets below this are reflected in
  /// `tuples` (0 = nothing consumed yet).
  std::uint64_t consumed_offset = 0;
  /// Exclusive: matches of probe deliveries below this offset were
  /// flushed to the router before the snapshot was cut (equal to
  /// consumed_offset by the flush-before-checkpoint rule).
  std::uint64_t emit_offset = 0;
  std::vector<WireTuple> tuples;
};

struct MatchBatchMsg {
  /// Exclusive: all matches produced by probe deliveries below this
  /// offset are contained in match frames up to and including this one.
  std::uint64_t emit_offset = 0;
  /// Matches this frame accounts for (== pairs.size() when pairs are
  /// collected; the count stands alone in counts-only mode).
  std::uint64_t count = 0;
  std::vector<MatchPair> pairs;
};

struct FinalMsg {
  std::uint64_t stores = 0;
  std::uint64_t probes = 0;
  std::uint64_t matches = 0;
  std::uint64_t suppressed = 0;    ///< probe halves with kSuppressEmit
  std::uint64_t dedup_skipped = 0; ///< store halves / absorb tuples skipped
  std::uint64_t absorbed = 0;      ///< tuples merged via kAbsorb
};

// Encode/decode pairs. Decoders return false on any truncation or
// trailing garbage; the caller must treat that as a fatal protocol
// error on the connection.

std::vector<std::byte> encode(const HelloMsg& m);
bool decode(const std::vector<std::byte>& p, HelloMsg& m);
std::vector<std::byte> encode(const HelloAckMsg& m);
bool decode(const std::vector<std::byte>& p, HelloAckMsg& m);
std::vector<std::byte> encode(const DataBatchMsg& m);
bool decode(const std::vector<std::byte>& p, DataBatchMsg& m);
std::vector<std::byte> encode(const ExtractMsg& m);
bool decode(const std::vector<std::byte>& p, ExtractMsg& m);
std::vector<std::byte> encode(const ExtractBatchMsg& m);
bool decode(const std::vector<std::byte>& p, ExtractBatchMsg& m);
std::vector<std::byte> encode(const AbsorbMsg& m);
bool decode(const std::vector<std::byte>& p, AbsorbMsg& m);
std::vector<std::byte> encode(const AbsorbAckMsg& m);
bool decode(const std::vector<std::byte>& p, AbsorbAckMsg& m);
std::vector<std::byte> encode(const CheckpointMsg& m);
bool decode(const std::vector<std::byte>& p, CheckpointMsg& m);
std::vector<std::byte> encode(const SnapshotMsg& m);
bool decode(const std::vector<std::byte>& p, SnapshotMsg& m);
std::vector<std::byte> encode(const MatchBatchMsg& m);
bool decode(const std::vector<std::byte>& p, MatchBatchMsg& m);
std::vector<std::byte> encode(const FinalMsg& m);
bool decode(const std::vector<std::byte>& p, FinalMsg& m);

}  // namespace fastjoin::net
