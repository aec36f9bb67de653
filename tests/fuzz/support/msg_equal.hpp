// Structural equality over every wire-visible message, for the
// decode(encode(m)) == m roundtrip assertions. Free functions rather
// than operator== so the product headers stay untouched.
#pragma once

#include "net/wire.hpp"
#include "server/protocol.hpp"

namespace fastjoin::fuzz {

inline bool eq(const Record& a, const Record& b) {
  return a.key == b.key && a.seq == b.seq && a.payload == b.payload &&
         a.ts == b.ts && a.side == b.side;
}

inline bool eq(const StoredTuple& a, const StoredTuple& b) {
  return a.seq == b.seq && a.payload == b.payload && a.ts == b.ts &&
         a.subwindow == b.subwindow;
}

inline bool eq(const MatchPair& a, const MatchPair& b) {
  return a.key == b.key && a.r_seq == b.r_seq && a.s_seq == b.s_seq;
}

inline bool eq(const net::WireTuple& a, const net::WireTuple& b) {
  return a.side == b.side && a.key == b.key && eq(a.tuple, b.tuple);
}

inline bool eq(const net::DataEntry& a, const net::DataEntry& b) {
  return a.offset == b.offset && a.flags == b.flags && eq(a.rec, b.rec);
}

inline bool eq(const server::ClientRecord& a, const server::ClientRecord& b) {
  return a.side == b.side && a.key == b.key && a.payload == b.payload;
}

template <typename T>
bool eq_vec(const std::vector<T>& a, const std::vector<T>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!eq(a[i], b[i])) return false;
  }
  return true;
}

// ---- worker wire messages (net/wire.hpp) ----

inline bool eq(const net::HelloMsg& a, const net::HelloMsg& b) {
  return a.worker_id == b.worker_id && a.pid == b.pid;
}

inline bool eq(const net::HelloAckMsg& a, const net::HelloAckMsg& b) {
  return a.worker_id == b.worker_id && a.workers == b.workers &&
         a.collect_matches == b.collect_matches;
}

inline bool eq(const net::DataBatchMsg& a, const net::DataBatchMsg& b) {
  return eq_vec(a.entries, b.entries);
}

inline bool eq(const net::ExtractMsg& a, const net::ExtractMsg& b) {
  return a.mig_id == b.mig_id && a.side == b.side && a.keys == b.keys;
}

inline bool eq(const net::ExtractBatchMsg& a, const net::ExtractBatchMsg& b) {
  return a.mig_id == b.mig_id && a.consumed_offset == b.consumed_offset &&
         eq_vec(a.tuples, b.tuples);
}

inline bool eq(const net::AbsorbMsg& a, const net::AbsorbMsg& b) {
  return a.mig_id == b.mig_id && eq_vec(a.tuples, b.tuples);
}

inline bool eq(const net::AbsorbAckMsg& a, const net::AbsorbAckMsg& b) {
  return a.mig_id == b.mig_id;
}

inline bool eq(const net::CheckpointMsg& a, const net::CheckpointMsg& b) {
  return a.ckpt_id == b.ckpt_id;
}

inline bool eq(const net::SnapshotMsg& a, const net::SnapshotMsg& b) {
  return a.ckpt_id == b.ckpt_id && a.consumed_offset == b.consumed_offset &&
         a.emit_offset == b.emit_offset && eq_vec(a.tuples, b.tuples);
}

inline bool eq(const net::MatchBatchMsg& a, const net::MatchBatchMsg& b) {
  return a.emit_offset == b.emit_offset && a.count == b.count &&
         eq_vec(a.pairs, b.pairs);
}

inline bool eq(const net::FinalMsg& a, const net::FinalMsg& b) {
  return a.stores == b.stores && a.probes == b.probes &&
         a.matches == b.matches && a.dedup_skipped == b.dedup_skipped &&
         a.absorbed == b.absorbed;
}

// ---- client protocol messages (server/protocol.hpp) ----

inline bool eq(const server::ClientHelloMsg& a,
               const server::ClientHelloMsg& b) {
  return a.tenant == b.tenant && a.proto_version == b.proto_version;
}

inline bool eq(const server::ClientHelloAckMsg& a,
               const server::ClientHelloAckMsg& b) {
  return a.ok == b.ok && a.reason == b.reason &&
         a.max_batch_records == b.max_batch_records &&
         a.rate_bytes_per_sec == b.rate_bytes_per_sec &&
         a.burst_bytes == b.burst_bytes;
}

inline bool eq(const server::AppendMsg& a, const server::AppendMsg& b) {
  return a.req_id == b.req_id && eq_vec(a.records, b.records);
}

inline bool eq(const server::AppendAckMsg& a, const server::AppendAckMsg& b) {
  return a.req_id == b.req_id && a.first_offset == b.first_offset &&
         a.appended == b.appended && a.parked == b.parked;
}

inline bool eq(const server::RejectedMsg& a, const server::RejectedMsg& b) {
  return a.req_id == b.req_id && a.reason == b.reason &&
         a.retry_after_ms == b.retry_after_ms;
}

inline bool eq(const server::QueryMsg& a, const server::QueryMsg& b) {
  return a.req_id == b.req_id && a.key == b.key &&
         a.max_recent == b.max_recent;
}

inline bool eq(const server::QueryResultMsg& a,
               const server::QueryResultMsg& b) {
  return a.req_id == b.req_id && a.key == b.key &&
         a.r_tuples == b.r_tuples && a.s_tuples == b.s_tuples &&
         a.owner_r == b.owner_r && a.owner_s == b.owner_s &&
         a.as_of == b.as_of &&
         a.matches_total == b.matches_total && eq_vec(a.recent, b.recent);
}

}  // namespace fastjoin::fuzz
