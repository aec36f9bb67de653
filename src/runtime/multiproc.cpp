#include "runtime/multiproc.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "common/hash.hpp"
#include "common/logging.hpp"
#include "engine/join_store.hpp"

namespace fastjoin {
namespace {

using net::MsgType;

/// Entries at which a worker's pending deliveries are framed.
constexpr std::size_t kDataFrameEntries = 256;
/// Records per StreamLog::append_batch: a full stage commits.
constexpr std::size_t kStageRecords = 64;
/// How long start() waits for every spawned worker's handshake.
constexpr std::chrono::milliseconds kSpawnConnectTimeout{10'000};
/// A migration phase (extract or absorb) unanswered this long aborts.
constexpr std::chrono::milliseconds kMigrationTimeout{5'000};

std::uint16_t wire_type(MsgType t) { return static_cast<std::uint16_t>(t); }

std::string default_socket_path() {
  static std::atomic<std::uint64_t> counter{0};
  return "/tmp/fastjoin-mp-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed)) +
         ".sock";
}

std::uint32_t deliver_halves(std::uint8_t flags) {
  return ((flags & net::kDeliverStore) ? 1u : 0u) +
         ((flags & net::kDeliverProbe) ? 1u : 0u);
}

}  // namespace

// ===========================================================================
// Router
// ===========================================================================

MultiprocRouter::MultiprocRouter(MultiprocConfig cfg)
    : cfg_(std::move(cfg)) {}

MultiprocRouter::~MultiprocRouter() {
  // Connections must die before the loop; workers_ is declared after
  // loop_, so default member destruction order already does that. The
  // supervisor SIGKILLs any child still running.
  if (endpoint_.kind == net::Endpoint::Kind::kUnix &&
      !endpoint_.path.empty()) {
    ::unlink(endpoint_.path.c_str());
  }
}

std::uint32_t MultiprocRouter::owner(Side side, KeyId key) const {
  const auto& ov = overrides_[static_cast<int>(side)];
  const auto it = ov.find(key);
  if (it != ov.end()) return it->second;
  return instance_of(key, cfg_.workers);
}

bool MultiprocRouter::start(std::string* err) {
  auto fail = [err](const std::string& why) {
    if (err) *err = why;
    return false;
  };
  if (started_) return true;
  if (cfg_.workers == 0) return fail("workers must be > 0");
  if (cfg_.worker_command.empty()) {
    return fail("worker_command is empty: no way to spawn workers");
  }
  if (!loop_.ok()) return fail("event loop init failed");

  std::string ep_str = cfg_.endpoint;
  if (ep_str == "unix:" || ep_str == "unix") {
    ep_str = "unix:" + default_socket_path();
  }
  net::Endpoint ep;
  if (!net::Endpoint::parse(ep_str, ep)) {
    return fail("bad endpoint: " + cfg_.endpoint);
  }
  acceptor_ = std::make_unique<net::Acceptor>(
      loop_, ep, [this](net::Socket peer) { on_accept(std::move(peer)); });
  if (!acceptor_->ok()) return fail("bind failed: " + acceptor_->error());
  endpoint_ = ep;
  endpoint_str_ = ep.to_string();

  IngestConfig ic = cfg_.ingest;
  ic.enabled = true;
  ic.partitions = 1;  // the router is the log's only producer
  log_ = std::make_unique<StreamLog>(ic);
  stage_.reserve(kStageRecords);

  workers_.resize(cfg_.workers);
  for (std::uint32_t i = 0; i < cfg_.workers; ++i) workers_[i].id = i;
  started_ = true;  // handshake paths (crash handling) need this

  for (std::uint32_t i = 0; i < cfg_.workers; ++i) {
    std::string serr;
    const pid_t pid = sup_.spawn(worker_argv(i), &serr);
    if (pid < 0) return fail("spawn worker " + std::to_string(i) + ": " + serr);
    workers_[i].pid = pid;
  }

  const auto deadline =
      std::chrono::steady_clock::now() + kSpawnConnectTimeout;
  for (;;) {
    bool all = true;
    for (const WorkerSlot& s : workers_) {
      if (!s.alive) {
        all = false;
        break;
      }
    }
    if (all) break;
    if (std::chrono::steady_clock::now() >= deadline) {
      return fail("timed out waiting for worker handshakes");
    }
    pump(std::chrono::milliseconds(5));
  }

  if (cfg_.serve) {
    frontdoor_ = std::make_unique<server::FrontDoor>(loop_, cfg_.serve_cfg);
    std::string ferr;
    if (!frontdoor_->start(
            [this](const std::string& tenant,
                   const std::vector<server::ClientRecord>& recs,
                   server::AppendAckMsg* ack) {
              return serve_sink(tenant, recs, ack);
            },
            [this](const server::QueryMsg& q, server::QueryResultMsg* out) {
              serve_query(q, out);
            },
            [this] { return serve_inflight_bytes(); }, &ferr)) {
      frontdoor_.reset();
      return fail("front door: " + ferr);
    }
  }
  return true;
}

std::vector<std::string> MultiprocRouter::worker_argv(
    std::uint32_t w) const {
  std::vector<std::string> v = cfg_.worker_command;
  v.push_back("--multiproc-worker");
  v.push_back("--worker-id");
  v.push_back(std::to_string(w));
  v.push_back("--connect");
  v.push_back(endpoint_str_);
  return v;
}

// --------------------------------------------------------------------------
// Data plane
// --------------------------------------------------------------------------

void MultiprocRouter::publish(const Record& rec) {
  park_or_stage(rec);
  if (cfg_.checkpoint_every != 0 &&
      ++records_since_ckpt_ >= cfg_.checkpoint_every) {
    records_since_ckpt_ = 0;
    checkpoint_round();
  }
  if (++pump_credit_ >= 512) {
    pump_credit_ = 0;
    pump();
    wait_writable();
  }
}

bool MultiprocRouter::park_or_stage(const Record& rec) {
  if (!park_keys_.empty() && park_keys_.count(rec.key) != 0) {
    // One of this record's delivery halves lands on the migrating
    // (side, key) ownership; hold the whole record (pre-log) so its
    // final routing stamp matches where it is actually delivered.
    parked_.push_back(rec);
    ++stats_.records_parked;
    return false;
  }
  stage(rec);
  return true;
}

void MultiprocRouter::stage(const Record& rec) {
  stage_.push_back(LogRecord{rec, owner(rec.side, rec.key),
                             owner(other_side(rec.side), rec.key), 0});
  ++stats_.records_published;
  if (stage_.size() >= kStageRecords) commit_stage();
}

void MultiprocRouter::commit_stage() {
  if (stage_.empty()) return;
  // Take the batch out first: framing below can re-enter crash
  // handling, which may unpark, stage and commit records behind it.
  std::vector<LogRecord> batch;
  batch.swap(stage_);
  const std::uint64_t base =
      log_->append_batch(0, batch.data(), batch.size());
  if (cfg_.serve) serve_counts_.add(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const LogRecord& lr = batch[i];
    const std::uint64_t off = base + i;
    if (lr.store_dst == lr.probe_dst) {
      deliver(lr.store_dst, off, lr.rec,
              net::kDeliverStore | net::kDeliverProbe);
    } else {
      deliver(lr.store_dst, off, lr.rec, net::kDeliverStore);
      deliver(lr.probe_dst, off, lr.rec, net::kDeliverProbe);
    }
  }
  // Frame only once the whole batch is queued, so records committed by
  // a re-entered crash handler queue behind it and every worker's
  // stream stays in log order.
  for (std::uint32_t w = 0; w < workers_.size(); ++w) {
    if (workers_[w].pending.entries.size() >= kDataFrameEntries) {
      flush_pending(w);
    }
  }
  batch.clear();
  if (stage_.empty()) stage_.swap(batch);  // keep the capacity
}

void MultiprocRouter::deliver(std::uint32_t w, std::uint64_t offset,
                              const Record& rec, std::uint8_t flags) {
  WorkerSlot& s = workers_[w];
  if (s.dead_forever) {
    stats_.records_dropped += deliver_halves(flags);
    return;
  }
  if (!s.alive) return;  // sits in the log; replay covers it at reconnect
  s.pending.entries.push_back(net::DataEntry{offset, flags, rec});
  stats_.deliveries_sent += deliver_halves(flags);
}

void MultiprocRouter::flush_pending(std::uint32_t w) {
  // Every frame queued to a worker follows a flush: commit first, so no
  // frame carries or overtakes a record that is not yet in the log.
  commit_stage();
  WorkerSlot& s = workers_[w];
  if (s.pending.entries.empty()) return;
  if (!s.alive || !s.conn) {
    s.pending.entries.clear();
    return;
  }
  // Swap out first: a send failure can re-enter crash handling, which
  // (after respawn + replay) repopulates the pending queue.
  net::DataBatchMsg msg;
  msg.entries.swap(s.pending.entries);
  s.conn->send(wire_type(MsgType::kData), net::encode(msg));
}

bool MultiprocRouter::send_control(std::uint32_t w, MsgType type,
                                   const std::vector<std::byte>& payload) {
  flush_pending(w);
  // The flush can fail a write, and crash handling runs inside it.
  WorkerSlot& s = workers_[w];
  if (!s.alive || !s.conn) return false;
  s.conn->send(wire_type(type), payload);
  return true;
}

void MultiprocRouter::flush_all_pending() {
  for (std::uint32_t w = 0; w < workers_.size(); ++w) flush_pending(w);
}

void MultiprocRouter::wait_writable() {
  for (;;) {
    bool blocked = false;
    for (const WorkerSlot& s : workers_) {
      // A closed connection can never drain; waiting on it would spin
      // forever. Its close/exit handling will flip the slot state.
      if (s.alive && s.conn && !s.conn->closed() && !s.conn->writable()) {
        blocked = true;
        break;
      }
    }
    if (!blocked) return;
    pump(std::chrono::milliseconds(1));
  }
}

void MultiprocRouter::pump(std::chrono::milliseconds wait) {
  commit_stage();
  loop_.run_once(wait);
  // Off the ack path: the pass above already acked its appends.
  if (cfg_.serve) serve_counts_.settle();
  for (const auto& ev : sup_.poll_exits()) {
    for (WorkerSlot& s : workers_) {
      if (s.pid != ev.pid) continue;
      s.pid = -1;
      if (s.finished) break;  // clean exit after kFinal
      if (s.alive && s.conn) {
        // Death noticed via waitpid before the socket drained. Do NOT
        // close here: the kernel still holds frames the worker sent
        // before dying (possibly its kFinal), and behind them the EOF
        // that drives crash handling through the normal read path.
      } else if (!s.alive && !s.dead_forever) {
        // No connection to EOF (died before the handshake) — this is
        // the only place that can notice.
        handle_crash(s.id, "process exited before handshake");
      }
      break;
    }
  }
}

// --------------------------------------------------------------------------
// Serving front door
// --------------------------------------------------------------------------

std::uint64_t MultiprocRouter::serve_inflight_bytes() const {
  // "Admitted but not yet drained downstream" maps to the bytes still
  // queued on the worker connections: what admission protects is the
  // fabric's outbound queues, not the log (which has its own
  // backpressure bound).
  std::uint64_t total = 0;
  for (const WorkerSlot& s : workers_) {
    if (s.alive && s.conn && !s.conn->closed()) {
      total += s.conn->queued_bytes();
    }
  }
  return total;
}

bool MultiprocRouter::serve_sink(
    const std::string& tenant, const std::vector<server::ClientRecord>& recs,
    server::AppendAckMsg* ack) {
  (void)tenant;  // admission already charged the tenant; routing is global
  // This runs inside an event-loop dispatch callback, so the blocking
  // publish() path (pump + wait_writable) is off-limits — re-entering
  // run_once() from a handler is undefined. Refuse instead of blocking;
  // the front door answers kRejected{kBackpressure, retry_after} and
  // the loop keeps draining the very queues that caused the refusal.
  for (const WorkerSlot& s : workers_) {
    if (s.alive && s.conn && !s.conn->closed() && !s.conn->writable()) {
      return false;
    }
  }
  // Staged records commit in order at the log's end, so the first
  // record this append stages lands at `next`.
  const std::uint64_t next = log_->end_offset(0) + stage_.size();
  for (const server::ClientRecord& cr : recs) {
    Record rec;
    rec.key = cr.key;
    rec.payload = cr.payload;
    rec.side = cr.side;
    // The single ingest point stamps the stream position: per-side seq
    // and global arrival ts. This is what makes the log the ground
    // truth — clients cannot forge an order.
    rec.seq = serve_next_seq_[static_cast<int>(cr.side)]++;
    rec.ts = serve_next_ts_++;
    if (park_or_stage(rec)) {
      if (ack->appended == 0) ack->first_offset = next;
      ++ack->appended;
    } else {
      ++ack->parked;
    }
  }
  // Acked batches must not sit in the stage or the per-worker pending
  // buffers until the next threshold: the ack promises the records are
  // logged and on their way.
  commit_stage();
  flush_all_pending();
  if (cfg_.checkpoint_every != 0) {
    records_since_ckpt_ += recs.size();
    if (records_since_ckpt_ >= cfg_.checkpoint_every) {
      records_since_ckpt_ = 0;
      checkpoint_round();
    }
  }
  return true;
}

void MultiprocRouter::serve_query(const server::QueryMsg& q,
                                  server::QueryResultMsg* out) {
  out->key = q.key;
  out->owner_r = owner(Side::kR, q.key);
  out->owner_s = owner(Side::kS, q.key);
  out->matches_total = stats_.matches_total;
  // The cut is the log's end: counts move at commit, and the loop
  // dispatches only with the stage empty, so they cover every logged
  // record of the key and nothing parked or staged.
  const auto n = serve_counts_.get(q.key);
  out->r_tuples = n[static_cast<int>(Side::kR)];
  out->s_tuples = n[static_cast<int>(Side::kS)];
  out->as_of = log_->end_offset(0);
  if (q.max_recent > 0) {
    for (auto it = serve_recent_.rbegin();
         it != serve_recent_.rend() && out->recent.size() < q.max_recent;
         ++it) {
      if (it->key == q.key) out->recent.push_back(*it);
    }
  }
}

void MultiprocRouter::KeyCounts::grow(Shard& sh) {
  const Shard old = std::move(sh);
  sh.bits = old.slots ? old.bits + 1 : 6;
  sh.slots = std::make_unique<Slot[]>(std::size_t{1} << sh.bits);
  sh.used = old.used;
  const std::size_t old_size = old.slots ? std::size_t{1} << old.bits : 0;
  for (std::size_t i = 0; i < old_size; ++i) {
    const Slot& s = old.slots[i];
    if (!is_free(s)) sh.slots[probe(sh, s.key)] = s;
  }
}

std::size_t MultiprocRouter::KeyCounts::probe(const Shard& sh, KeyId key) {
  // No slot is ever freed, so linear probing from the key's home meets
  // its slot before any free one. The home takes the hash bits below
  // the ones that chose the shard.
  const std::size_t mask = (std::size_t{1} << sh.bits) - 1;
  std::size_t i = (hash(key) << kShardBits) >> (64 - sh.bits);
  while (sh.slots[i].key != key && !is_free(sh.slots[i])) {
    i = (i + 1) & mask;
  }
  return i;
}

void MultiprocRouter::KeyCounts::add(const std::vector<LogRecord>& batch) {
  for (const LogRecord& lr : batch) {
    unsettled_.emplace_back(lr.rec.key, lr.rec.side);
  }
  // Bounds the scan in get() when no pump() runs between commits.
  if (unsettled_.size() >= 4096) settle();
}

void MultiprocRouter::KeyCounts::settle() {
  for (const auto& [key, side] : unsettled_) {
    Shard& sh = shards_[shard_of(key)];
    const std::size_t size = sh.slots ? std::size_t{1} << sh.bits : 0;
    if (4 * (sh.used + 1) > 3 * size) grow(sh);
    Slot& s = sh.slots[probe(sh, key)];
    if (is_free(s)) {
      s.key = key;
      ++sh.used;
    }
    std::uint32_t& n = s.n[static_cast<int>(side)];
    if (n != UINT32_MAX) ++n;
  }
  unsettled_.clear();
}

std::array<std::uint64_t, 2> MultiprocRouter::KeyCounts::get(
    KeyId key) const {
  std::array<std::uint64_t, 2> n{};
  const Shard& sh = shards_[shard_of(key)];
  if (sh.slots) {
    const Slot& s = sh.slots[probe(sh, key)];  // a free slot's counts are zero
    n = {s.n[0], s.n[1]};
  }
  for (const auto& [k, side] : unsettled_) {
    if (k == key) ++n[static_cast<int>(side)];
  }
  return n;
}

std::vector<LogRecord> MultiprocRouter::dump_log() {
  std::vector<LogRecord> out;
  if (!log_) return out;
  commit_stage();
  const std::uint64_t from = log_->start_offset(0);
  const std::uint64_t end = log_->end_offset(0);
  if (end > from) {
    out.reserve(end - from);
    log_->read(0, from, static_cast<std::size_t>(end - from), out);
  }
  return out;
}

// --------------------------------------------------------------------------
// Connection plumbing
// --------------------------------------------------------------------------

void MultiprocRouter::on_accept(net::Socket peer) {
  auto conn = std::make_unique<net::Connection>(loop_, std::move(peer),
                                                net::Connection::Options{});
  net::Connection* raw = conn.get();
  limbo_.push_back(std::move(conn));
  raw->start(
      [this, raw](net::Frame& f) {
        net::HelloMsg hello;
        if (f.type != wire_type(MsgType::kHello) ||
            !net::decode(f.payload, hello) ||
            hello.worker_id >= workers_.size()) {
          raw->close("handshake: expected a valid Hello", /*clean=*/false);
          return;
        }
        const std::uint32_t w = hello.worker_id;
        // Attach outside this callback: attach replaces the handlers
        // of the very connection that is dispatching us.
        loop_.defer([this, raw, w] {
          for (auto it = limbo_.begin(); it != limbo_.end(); ++it) {
            if (it->get() != raw) continue;
            std::unique_ptr<net::Connection> owned = std::move(*it);
            limbo_.erase(it);
            attach_worker(w, std::move(owned));
            return;
          }
        });
      },
      [this, raw](const std::string&, bool) {
        loop_.defer([this, raw] {
          for (auto it = limbo_.begin(); it != limbo_.end(); ++it) {
            if (it->get() == raw) {
              limbo_.erase(it);
              return;
            }
          }
        });
      });
}

void MultiprocRouter::attach_worker(std::uint32_t w,
                                    std::unique_ptr<net::Connection> conn) {
  WorkerSlot& s = workers_[w];
  if (conn->closed()) {
    // The worker sent its Hello and died in the same dispatch pass: the
    // close already fired under the limbo handler, so this connection
    // can never signal again. Drop it — the exit is observed via
    // waitpid and recovery respawns through the normal crash path.
    return;
  }
  if (s.alive && s.conn) {
    conn->close("duplicate connection for worker " + std::to_string(w),
                /*clean=*/false);
    return;
  }
  // Commit while the slot is still down: a staged record reaches a
  // restored worker through the log pass, never also directly.
  commit_stage();
  s.conn = std::move(conn);
  s.alive = true;
  s.finished = false;
  s.final.reset();
  ++s.incarnations;
  net::Connection* raw = s.conn.get();
  raw->start(
      [this, w](net::Frame& f) { on_worker_frame(w, f); },
      [this, w](const std::string& reason, bool clean) {
        on_worker_close(w, reason, clean);
      });
  net::HelloAckMsg ack;
  ack.worker_id = w;
  ack.workers = cfg_.workers;
  ack.collect_matches = ship_pairs() ? 1 : 0;
  raw->send(wire_type(MsgType::kHelloAck), net::encode(ack));
  if (s.incarnations > 1) restore_from_log(w);
  if (finishing_) send_control(w, MsgType::kFinish, {});
  start_next_migration();  // a queued move may have waited on this worker
}

void MultiprocRouter::on_worker_frame(std::uint32_t w, net::Frame& f) {
  switch (static_cast<MsgType>(f.type)) {
    case MsgType::kMatches: {
      net::MatchBatchMsg m;
      if (!net::decode(f.payload, m)) {
        protocol_error(w, "bad Matches payload");
        return;
      }
      stats_.matches_total += m.count;
      WorkerSlot& s = workers_[w];
      s.emit_watermark = std::max(s.emit_watermark, m.emit_offset);
      if (cfg_.collect_matches) {
        matches_.insert(matches_.end(), m.pairs.begin(), m.pairs.end());
      }
      if (cfg_.serve) {
        for (const MatchPair& p : m.pairs) {
          serve_recent_.push_back(p);
          if (serve_recent_.size() > kServeRecentCap) {
            serve_recent_.pop_front();
          }
        }
      }
      return;
    }
    case MsgType::kCheckpointDone: {
      // The worker flushed its matches ahead of this answer, so E
      // already moved with them.
      net::CheckpointMsg m;
      if (!net::decode(f.payload, m)) {
        protocol_error(w, "bad CheckpointDone payload");
        return;
      }
      ++stats_.checkpoints_completed;
      return;
    }
    case MsgType::kExtractBatch: {
      net::ExtractBatchMsg m;
      if (!net::decode(f.payload, m)) {
        protocol_error(w, "bad ExtractBatch payload");
        return;
      }
      on_extract_batch(w, std::move(m));
      return;
    }
    case MsgType::kAbsorbAck: {
      net::AbsorbAckMsg m;
      if (!net::decode(f.payload, m)) {
        protocol_error(w, "bad AbsorbAck payload");
        return;
      }
      on_absorb_ack(w, m);
      return;
    }
    case MsgType::kFinal: {
      net::FinalMsg m;
      if (!net::decode(f.payload, m)) {
        protocol_error(w, "bad Final payload");
        return;
      }
      WorkerSlot& s = workers_[w];
      s.final = m;
      s.finished = true;
      return;
    }
    default:
      protocol_error(w, std::string("unexpected frame type ") +
                            std::to_string(f.type));
      return;
  }
}

bool MultiprocRouter::protocol_error(std::uint32_t w,
                                     const std::string& what) {
  FJ_WARN("multiproc") << "worker " << w << " protocol error: " << what;
  WorkerSlot& s = workers_[w];
  if (s.conn) s.conn->close("protocol error: " + what, /*clean=*/false);
  return false;
}

void MultiprocRouter::on_worker_close(std::uint32_t w,
                                      const std::string& reason,
                                      bool clean) {
  WorkerSlot& s = workers_[w];
  if (s.finished) {
    // Expected: the worker closes after its kFinal.
    s.alive = false;
    if (s.conn) {
      net::Connection* raw = s.conn.release();
      loop_.defer([raw] { delete raw; });
    }
    return;
  }
  // EOF-as-crash: any close before kFinal — even a tidy FIN at a frame
  // boundary — means the worker is gone and must be recovered.
  handle_crash(w, reason + (clean ? " (clean eof)" : ""));
}

// --------------------------------------------------------------------------
// Crash handling and flush rounds
// --------------------------------------------------------------------------

template <typename F>
std::uint64_t MultiprocRouter::walk_log_for(std::uint32_t w, F&& f) {
  const std::uint64_t E = workers_[w].emit_watermark;
  const std::uint64_t end = log_->end_offset(0);
  std::uint64_t skipped = 0;
  std::vector<LogRecord> buf;
  std::uint64_t from = log_->start_offset(0);
  while (from < end) {
    buf.clear();
    if (log_->read(0, from, 4096, buf) == 0) break;
    for (const LogRecord& lr : buf) {
      from = lr.offset + 1;
      std::uint8_t flags = 0;
      // Keys move whole, so w's store is every record of the (side, key)s
      // it owns now, whatever owner the record was stamped with.
      if (owner(lr.rec.side, lr.rec.key) == w) flags |= net::kDeliverStore;
      if (lr.probe_dst == w) {
        if (lr.offset >= E) {
          flags |= net::kDeliverProbe;
        } else {
          ++skipped;
        }
      }
      if (flags != 0) f(lr, flags);
    }
  }
  return skipped;
}

void MultiprocRouter::handle_crash(std::uint32_t w,
                                   const std::string& reason) {
  WorkerSlot& s = workers_[w];
  if (s.dead_forever) return;
  ++stats_.worker_crashes;
  FJ_WARN("multiproc") << "worker " << w << " crashed (" << reason
                       << "), incarnation " << s.incarnations;
  s.alive = false;
  s.pending.entries.clear();
  if (s.conn) {
    // We may be inside this connection's own close callback; destroy
    // it after the dispatch pass.
    net::Connection* raw = s.conn.release();
    loop_.defer([raw] { delete raw; });
  }

  if (mig_ && (w == mig_->from || w == mig_->to)) {
    abort_migration("participant " + std::to_string(w) + " crashed");
  }

  if (await_extract_.active && w == await_extract_.from) {
    // The in-flight extract reply died with the source. No route
    // flipped, so the source's rebuild from the log restores the
    // extracted tuples in place — safe to unpark now.
    await_extract_.active = false;
    park_keys_.clear();
    unpark();
    start_next_migration();
  }

  if (s.pid > 0) {
    sup_.signal_and_reap(s.pid, SIGKILL, std::chrono::milliseconds(5000));
    s.pid = -1;
  }

  if (!cfg_.respawn) {
    // Records committed from here on count as dropped in deliver();
    // the ledger below covers the log up to now.
    s.dead_forever = true;
    walk_log_for(w, [this](const LogRecord&, std::uint8_t flags) {
      stats_.records_dropped += deliver_halves(flags);
    });
    return;
  }

  std::string err;
  if (!respawn_worker(w, &err)) {
    FJ_ERROR("multiproc") << "respawn of worker " << w << " failed: " << err;
    s.dead_forever = true;
  }
}

bool MultiprocRouter::respawn_worker(std::uint32_t w, std::string* err) {
  WorkerSlot& s = workers_[w];
  const pid_t pid = sup_.spawn(worker_argv(w), err);
  if (pid < 0) return false;
  s.pid = pid;
  ++stats_.respawns;
  return true;
}

void MultiprocRouter::restore_from_log(std::uint32_t w) {
  WorkerSlot& s = workers_[w];
  FJ_INFO("multiproc") << "rebuilding worker " << w
                       << " from the log, emit watermark "
                       << s.emit_watermark;
  stats_.skipped_probes += walk_log_for(
      w, [this, w, &s](const LogRecord& lr, std::uint8_t flags) {
        s.pending.entries.push_back(net::DataEntry{lr.offset, flags, lr.rec});
        ++stats_.replayed_entries;
        if (s.pending.entries.size() >= kDataFrameEntries) flush_pending(w);
      });
  flush_pending(w);
}

void MultiprocRouter::checkpoint_round() {
  for (const WorkerSlot& s : workers_) {
    if (!s.alive || s.finished) continue;
    net::CheckpointMsg m;
    m.ckpt_id = next_ckpt_id_++;
    send_control(s.id, MsgType::kCheckpoint, net::encode(m));
  }
}

// --------------------------------------------------------------------------
// Migrations
// --------------------------------------------------------------------------

bool MultiprocRouter::request_migration(Side side, std::uint32_t from,
                                        std::uint32_t to,
                                        std::vector<KeyId> keys) {
  if (!started_ || from >= workers_.size() || to >= workers_.size() ||
      from == to || keys.empty()) {
    return false;
  }
  mig_queue_.push_back(QueuedMigration{side, from, to, std::move(keys)});
  start_next_migration();
  return true;
}

void MultiprocRouter::start_next_migration() {
  // An aborted-but-unresolved extract still owns the park; starting a
  // new migration would repurpose it and unpark too early.
  while (!mig_ && !await_extract_.active && !mig_queue_.empty()) {
    QueuedMigration& q = mig_queue_.front();
    WorkerSlot& f = workers_[q.from];
    WorkerSlot& t = workers_[q.to];
    if (f.dead_forever || t.dead_forever) {
      ++stats_.migrations_aborted;
      mig_queue_.pop_front();
      continue;
    }
    if (!f.alive || !t.alive) return;  // retried when they reconnect
    QueuedMigration next = std::move(q);
    mig_queue_.pop_front();
    // Only keys this worker still owns move (an earlier migration may
    // have taken some).
    next.keys.erase(std::remove_if(next.keys.begin(), next.keys.end(),
                                   [&](KeyId k) {
                                     return owner(next.side, k) != next.from;
                                   }),
                    next.keys.end());
    if (next.keys.empty()) continue;
    start_migration(std::move(next));
  }
}

void MultiprocRouter::start_migration(QueuedMigration q) {
  mig_.emplace();
  mig_->id = next_mig_id_++;
  mig_->side = q.side;
  mig_->from = q.from;
  mig_->to = q.to;
  mig_->keys = std::move(q.keys);
  mig_->phase = Migration::Phase::kExtractWait;
  ++stats_.migrations_started;
  park_keys_.clear();
  park_keys_.insert(mig_->keys.begin(), mig_->keys.end());
  FJ_INFO("multiproc") << "migration " << mig_->id << ": "
                       << mig_->keys.size() << " keys of side "
                       << side_name(mig_->side) << " from worker "
                       << mig_->from << " to " << mig_->to;
  const std::uint64_t id = mig_->id;
  net::ExtractMsg m;
  m.mig_id = id;
  m.side = mig_->side;
  m.keys = mig_->keys;
  // A crash inside the send's flush aborts this migration on the spot.
  if (send_control(mig_->from, MsgType::kExtract, net::encode(m)) && mig_ &&
      mig_->id == id) {
    arm_migration_timer();
  }
}

void MultiprocRouter::arm_migration_timer() {
  const std::uint64_t id = mig_->id;
  mig_->timer = loop_.add_timer(
      std::chrono::steady_clock::now() + kMigrationTimeout,
      [this, id] {
        if (mig_ && mig_->id == id) abort_migration("timeout");
      });
}

void MultiprocRouter::on_extract_batch(std::uint32_t w,
                                       net::ExtractBatchMsg msg) {
  if (!mig_ || mig_->phase != Migration::Phase::kExtractWait ||
      w != mig_->from || msg.mig_id != mig_->id) {
    // A reply that outlived its migration (timeout/abort raced the
    // worker). The tuples left a store — put them back where they
    // came from.
    return_to_source(w, std::move(msg.tuples));
    if (await_extract_.active && w == await_extract_.from &&
        msg.mig_id == await_extract_.mig_id) {
      // The aborted migration's tuples are home again, queued ahead of
      // whatever we unpark now, so probes can't miss.
      await_extract_.active = false;
      park_keys_.clear();
      unpark();
      start_next_migration();
    }
    return;
  }
  loop_.cancel_timer(mig_->timer);
  stats_.tuples_migrated += msg.tuples.size();
  mig_->batch = std::move(msg);
  // From here an abort returns the batch to the source.
  mig_->phase = Migration::Phase::kAbsorbWait;
  const std::uint64_t id = mig_->id;
  net::AbsorbMsg ab;
  ab.mig_id = id;
  ab.tuples = mig_->batch.tuples;  // the router keeps its copy until the ack
  if (!send_control(mig_->to, MsgType::kAbsorb, net::encode(ab))) {
    // A target crash inside the send's flush has aborted it already.
    if (mig_ && mig_->id == id) abort_migration("target offline at absorb");
    return;
  }
  if (mig_ && mig_->id == id) arm_migration_timer();
}

void MultiprocRouter::on_absorb_ack(std::uint32_t w,
                                    net::AbsorbAckMsg msg) {
  if (!mig_ || mig_->phase != Migration::Phase::kAbsorbWait ||
      w != mig_->to || msg.mig_id != mig_->id) {
    // Stale ack: the migration was aborted meanwhile. The target keeps
    // the absorbed tuples as inert duplicates (no probes are routed to
    // it for these keys) — any later migration of the same keys
    // deduplicates them away.
    return;
  }
  loop_.cancel_timer(mig_->timer);
  // The flip. The target now holds the keys' whole history, and the
  // records parked meanwhile are logged behind it with its stamps.
  const int side = static_cast<int>(mig_->side);
  for (KeyId k : mig_->keys) overrides_[side][k] = mig_->to;
  ++stats_.migrations_completed;
  mig_.reset();
  park_keys_.clear();
  unpark();
  start_next_migration();
}

void MultiprocRouter::abort_migration(const std::string& why) {
  if (!mig_) return;
  ++stats_.migrations_aborted;
  FJ_WARN("multiproc") << "migration " << mig_->id << " aborted: " << why;
  loop_.cancel_timer(mig_->timer);
  const std::uint64_t id = mig_->id;
  const std::uint32_t from = mig_->from;
  const bool extract_in_flight =
      mig_->phase == Migration::Phase::kExtractWait && workers_[from].alive;
  std::vector<net::WireTuple> tuples;
  if (mig_->phase == Migration::Phase::kAbsorbWait) {
    tuples = std::move(mig_->batch.tuples);
  }
  mig_.reset();
  if (extract_in_flight) {
    // The source has already been told to extract; its store no longer
    // holds the keys, and the tuples are somewhere between its stream
    // position and ours. Keep the keys parked until the reply lands
    // (on_extract_batch stale path) or the source crashes (no route
    // flipped, so its rebuild from the log restores the tuples).
    await_extract_ = AwaitExtract{id, from, true};
    return;
  }
  park_keys_.clear();
  // No route flip. Extracted tuples (if any) go back to the source;
  // parked records route to their original owners. FIFO on the source
  // connection orders the return before the unparked records.
  return_to_source(from, std::move(tuples));
  unpark();
  start_next_migration();
}

void MultiprocRouter::unpark() {
  if (parked_.empty()) return;
  std::vector<Record> held;
  held.swap(parked_);
  for (const Record& rec : held) stage(rec);
  // Unparking runs inside event-loop dispatch (and finish()): commit, so
  // the stage is empty again before any other handler runs.
  commit_stage();
}

void MultiprocRouter::return_to_source(std::uint32_t w,
                                       std::vector<net::WireTuple> tuples) {
  if (tuples.empty()) return;
  net::AbsorbMsg m;
  m.mig_id = 0;
  m.tuples = std::move(tuples);
  // A source that is down gets the tuples back from its rebuild, or its
  // drop ledger counts them with the rest of its store.
  send_control(w, MsgType::kAbsorb, net::encode(m));
}

// --------------------------------------------------------------------------
// Chaos + shutdown
// --------------------------------------------------------------------------

bool MultiprocRouter::kill_worker(std::uint32_t w) {
  if (w >= workers_.size()) return false;
  WorkerSlot& s = workers_[w];
  if (s.pid <= 0) return false;
  // terminate() blocks until the process is dead (zombie, unreaped),
  // so on return the crash is already observable: socket HUP pending,
  // exit visible to the next pump()'s poll_exits().
  return sup_.terminate(s.pid);
}

pid_t MultiprocRouter::worker_pid(std::uint32_t w) const {
  return w < workers_.size() ? workers_[w].pid : -1;
}

bool MultiprocRouter::finish(std::chrono::milliseconds timeout) {
  // Serving stops first: finish() drains and closes the worker fabric,
  // and an append admitted after this point could never be delivered.
  if (frontdoor_) frontdoor_->stop();
  commit_stage();
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  // Let in-flight migrations resolve (they unpark records); force the
  // issue at the deadline.
  while (!migration_idle() &&
         std::chrono::steady_clock::now() < deadline) {
    pump(std::chrono::milliseconds(2));
  }
  mig_queue_.clear();
  if (mig_) abort_migration("finish requested");
  // The abort may leave an extract reply in flight; its keys stay
  // parked until it lands, so keep pumping for it.
  while (await_extract_.active &&
         std::chrono::steady_clock::now() < deadline) {
    pump(std::chrono::milliseconds(2));
  }
  if (!parked_.empty() || !park_keys_.empty()) {
    // Deadline fallback: publish what is still parked rather than drop
    // it (matches through the unresolved extract hole may be missed,
    // but no record vanishes from the log).
    await_extract_.active = false;
    park_keys_.clear();
    unpark();
  }

  finishing_ = true;
  for (const WorkerSlot& s : workers_) {
    // A worker that is down gets its kFinish when it re-attaches.
    if (!s.finished) send_control(s.id, MsgType::kFinish, {});
  }
  bool all = false;
  for (;;) {
    all = true;
    for (const WorkerSlot& s : workers_) {
      if (!s.dead_forever && !s.final.has_value()) {
        all = false;
        break;
      }
    }
    if (all || std::chrono::steady_clock::now() >= deadline) break;
    pump(std::chrono::milliseconds(2));
  }
  stats_.worker_finals.clear();
  for (const WorkerSlot& s : workers_) {
    stats_.worker_finals.push_back(s.final.value_or(net::FinalMsg{}));
  }
  // Reap clean exits.
  pump(std::chrono::milliseconds(0));
  pump(std::chrono::milliseconds(0));
  return all;
}

// ===========================================================================
// Worker process
// ===========================================================================

namespace {

struct WorkerState {
  JoinStore stores[2] = {JoinStore(0), JoinStore(0)};
  std::uint64_t consumed = 0;  ///< exclusive offset watermark
  bool collect = false;
  net::MatchBatchMsg out;
  net::FinalMsg fin;
};

/// Ship the pending matches with emit watermark E = consumed. A flush
/// round and an extract flush even when none are pending, so that E
/// reaches the consumed offset there.
bool flush_matches(net::FrameConn& conn, WorkerState& st,
                   bool always = false) {
  if (st.out.count == 0 && !always) return true;
  st.out.emit_offset = st.consumed;
  const bool ok = conn.write_frame(wire_type(MsgType::kMatches),
                                   net::encode(st.out));
  st.out = net::MatchBatchMsg{};
  return ok;
}

void process_entry(WorkerState& st, const net::DataEntry& e) {
  const Record& rec = e.rec;
  if (e.flags & net::kDeliverStore) {
    st.stores[static_cast<int>(rec.side)].insert(
        rec.key, StoredTuple{rec.seq, rec.payload, rec.ts, 0});
    ++st.fin.stores;
  }
  if (e.flags & net::kDeliverProbe) {
    ++st.fin.probes;
    // probe_each walks the whole bucket. probe_count would be exact here
    // too (every bucket holds its key's records in log order); the
    // switch waits for a benchmark run long enough to show it.
    const JoinStore& store =
        st.stores[static_cast<int>(other_side(rec.side))];
    const std::uint64_t n =
        st.collect ? store.probe_each(rec,
                                      [&st](const MatchPair& p) {
                                        st.out.pairs.push_back(p);
                                      })
                   : store.probe_each(rec, [](const MatchPair&) {});
    st.fin.matches += n;
    st.out.count += n;
  }
  st.consumed = e.offset + 1;
}

void absorb_tuples(WorkerState& st, const net::AbsorbMsg& m) {
  for (const net::WireTuple& t : m.tuples) {
    JoinStore& store = st.stores[static_cast<int>(t.side)];
    if (store.contains(t.key, t.tuple.seq)) {
      ++st.fin.dedup_skipped;
      continue;
    }
    store.insert(t.key, t.tuple);
    ++st.fin.absorbed;
  }
}

}  // namespace

int multiproc_worker_run(std::uint32_t worker_id,
                         const std::string& endpoint) {
  net::Endpoint ep;
  if (!net::Endpoint::parse(endpoint, ep)) {
    std::fprintf(stderr, "worker %u: bad endpoint '%s'\n", worker_id,
                 endpoint.c_str());
    return 64;
  }
  std::string err;
  net::FrameConn conn = net::FrameConn::connect(
      ep, std::chrono::milliseconds(10'000), &err);
  if (!conn.valid()) {
    std::fprintf(stderr, "worker %u: connect failed: %s\n", worker_id,
                 err.c_str());
    return 2;
  }
  net::HelloMsg hello;
  hello.worker_id = worker_id;
  hello.pid = static_cast<std::uint64_t>(::getpid());
  if (!conn.write_frame(wire_type(MsgType::kHello), net::encode(hello))) {
    return 2;
  }
  net::Frame f;
  if (!conn.read_frame(f) || f.type != wire_type(MsgType::kHelloAck)) {
    return 2;
  }
  net::HelloAckMsg ack;
  if (!net::decode(f.payload, ack) || ack.worker_id != worker_id) {
    std::fprintf(stderr, "worker %u: bad HelloAck\n", worker_id);
    return 3;
  }

  WorkerState st;
  st.collect = ack.collect_matches != 0;
  constexpr std::uint64_t kMatchFlushThreshold = 16 * 1024;

  while (conn.read_frame(f)) {
    switch (static_cast<MsgType>(f.type)) {
      case MsgType::kData: {
        net::DataBatchMsg m;
        if (!net::decode(f.payload, m)) return 3;
        for (const net::DataEntry& e : m.entries) process_entry(st, e);
        if (st.out.count >= kMatchFlushThreshold) {
          if (!flush_matches(conn, st)) return 2;
        }
        break;
      }
      case MsgType::kExtract: {
        net::ExtractMsg m;
        if (!net::decode(f.payload, m)) return 3;
        // Flush first: the emit watermark must cover every probe this
        // worker processed for the departing keys.
        if (!flush_matches(conn, st, /*always=*/true)) return 2;
        net::ExtractBatchMsg resp;
        resp.mig_id = m.mig_id;
        resp.consumed_offset = st.consumed;
        JoinStore& store = st.stores[static_cast<int>(m.side)];
        for (KeyId k : m.keys) {
          for (StoredTuple& t : store.extract_key(k)) {
            resp.tuples.push_back(net::WireTuple{m.side, k, t});
          }
        }
        if (!conn.write_frame(wire_type(MsgType::kExtractBatch),
                              net::encode(resp))) {
          return 2;
        }
        break;
      }
      case MsgType::kAbsorb: {
        net::AbsorbMsg m;
        if (!net::decode(f.payload, m)) return 3;
        absorb_tuples(st, m);
        if (m.mig_id != 0) {
          net::AbsorbAckMsg a;
          a.mig_id = m.mig_id;
          if (!conn.write_frame(wire_type(MsgType::kAbsorbAck),
                                net::encode(a))) {
            return 2;
          }
        }
        break;
      }
      case MsgType::kCheckpoint: {
        net::CheckpointMsg m;
        if (!net::decode(f.payload, m)) return 3;
        // A flush round: E reaches the consumed offset, and the answer
        // carries only the round id.
        if (!flush_matches(conn, st, /*always=*/true) ||
            !conn.write_frame(wire_type(MsgType::kCheckpointDone),
                              net::encode(m))) {
          return 2;
        }
        break;
      }
      case MsgType::kFinish: {
        if (!flush_matches(conn, st)) return 2;
        conn.write_frame(wire_type(MsgType::kFinal), net::encode(st.fin));
        return 0;
      }
      default:
        std::fprintf(stderr, "worker %u: unexpected frame type %u\n",
                     worker_id, f.type);
        return 3;
    }
  }
  // EOF/stream error before kFinish: the router went away.
  if (!conn.error().empty()) {
    std::fprintf(stderr, "worker %u: stream error: %s\n", worker_id,
                 conn.error().c_str());
    return 3;
  }
  return 1;
}

int multiproc_worker_maybe_run(int argc, char** argv) {
  bool is_worker = false;
  std::uint32_t id = 0;
  std::string endpoint;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--multiproc-worker") {
      is_worker = true;
    } else if (a == "--worker-id" && i + 1 < argc) {
      id = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (a == "--connect" && i + 1 < argc) {
      endpoint = argv[++i];
    }
  }
  if (!is_worker) return -1;
  if (endpoint.empty()) {
    std::fprintf(stderr, "--multiproc-worker requires --connect\n");
    return 64;
  }
  return multiproc_worker_run(id, endpoint);
}

}  // namespace fastjoin
