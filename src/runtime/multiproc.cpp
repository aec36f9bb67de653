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
/// A migration still short of its epilogue after this long aborts.
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
    serve_snap_.assign(cfg_.workers, ServeSnap{});
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
  // The answer's consistency floor: every worker's counts come from its
  // latest completed checkpoint, and as_of_ckpt is the weakest of them.
  std::uint64_t as_of = UINT64_MAX;
  for (std::uint32_t w = 0; w < workers_.size(); ++w) {
    if (workers_[w].dead_forever) continue;
    const ServeSnap& snap = serve_snap_[w];
    as_of = std::min(as_of, snap.ckpt_id);
    const auto r = snap.counts[static_cast<int>(Side::kR)].find(q.key);
    if (r != snap.counts[static_cast<int>(Side::kR)].end()) {
      out->r_tuples += r->second;
    }
    const auto s = snap.counts[static_cast<int>(Side::kS)].find(q.key);
    if (s != snap.counts[static_cast<int>(Side::kS)].end()) {
      out->s_tuples += s->second;
    }
  }
  out->as_of_ckpt = as_of == UINT64_MAX ? 0 : as_of;
  if (q.max_recent > 0) {
    for (auto it = serve_recent_.rbegin();
         it != serve_recent_.rend() && out->recent.size() < q.max_recent;
         ++it) {
      if (it->key == q.key) out->recent.push_back(*it);
    }
  }
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
  if (s.incarnations > 1) restore_and_replay(w);
  if (finishing_ && s.alive) {
    flush_pending(w);
    s.conn->send(wire_type(MsgType::kFinish), nullptr, 0);
  }
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
      net::SnapshotMsg m;
      if (!net::decode(f.payload, m)) {
        protocol_error(w, "bad CheckpointDone payload");
        return;
      }
      on_checkpoint_done(w, std::move(m));
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
// Crash handling
// --------------------------------------------------------------------------

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
    if (mig_->phase == Migration::Phase::kEpilogue) {
      // The crashed participant's post-migration checkpoint will never
      // land; its recovery path re-injects the batch instead, so stop
      // waiting for it.
      for (auto it = mig_->epilogue_ckpts.begin();
           it != mig_->epilogue_ckpts.end();) {
        it = (it->second == w) ? mig_->epilogue_ckpts.erase(it)
                               : std::next(it);
      }
      finish_migration_if_epilogue_done();
    } else {
      abort_migration("participant " + std::to_string(w) + " crashed");
    }
  }

  if (await_extract_.active && w == await_extract_.from) {
    // The in-flight extract reply died with the source. Its last
    // snapshot predates the extract (the reply is FIFO-ordered before
    // any later CheckpointDone), so restore + replay regenerate the
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
    s.dead_forever = true;
    // Account what is now unrecoverable: log entries stamped for this
    // worker above its checkpoint, plus uncheckpointed batch tuples.
    const std::uint64_t end = log_->end_offset(0);
    std::vector<LogRecord> buf;
    std::uint64_t from = s.snapshot.consumed_offset;
    while (from < end) {
      buf.clear();
      if (log_->read(0, from, 4096, buf) == 0) break;
      for (const LogRecord& lr : buf) {
        from = lr.offset + 1;
        stats_.records_dropped +=
            (lr.store_dst == w ? 1 : 0) + (lr.probe_dst == w ? 1 : 0);
      }
    }
    for (const auto& r : s.reinject) {
      stats_.records_dropped += r.batch.tuples.size();
    }
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

void MultiprocRouter::restore_and_replay(std::uint32_t w) {
  WorkerSlot& s = workers_[w];
  FJ_INFO("multiproc") << "restoring worker " << w << " from offset "
                       << s.snapshot.consumed_offset << ", emit watermark "
                       << s.emit_watermark;
  // 1. Checkpoint snapshot (possibly empty: replay-from-zero).
  s.conn->send(wire_type(MsgType::kRestore), net::encode(s.snapshot));
  // 2. Absorbed-but-uncheckpointed migration batches. Deduplicated at
  //    the worker, so overlap with the snapshot or the replay below is
  //    harmless.
  for (const WorkerSlot::Reinject& r : s.reinject) {
    s.conn->send(wire_type(MsgType::kAbsorb), net::encode(r.batch));
    stats_.reinjected_tuples += r.batch.tuples.size();
  }
  // 3. Replay log entries stamped for this worker above the snapshot's
  //    consumed watermark — including anything published while the
  //    worker was down (deliver() skips dead workers; the log doesn't).
  const std::uint64_t C = s.snapshot.consumed_offset;
  const std::uint64_t E = s.emit_watermark;
  const std::uint64_t end = log_->end_offset(0);
  std::vector<LogRecord> buf;
  std::uint64_t from = C;
  while (from < end) {
    buf.clear();
    if (log_->read(0, from, 4096, buf) == 0) break;
    for (const LogRecord& lr : buf) {
      from = lr.offset + 1;
      std::uint8_t flags = 0;
      if (lr.store_dst == w) flags |= net::kDeliverStore | net::kDedupStore;
      if (lr.probe_dst == w) {
        flags |= net::kDeliverProbe;
        if (lr.offset < E) {
          flags |= net::kSuppressEmit;
          ++stats_.suppressed_probes;
        }
      }
      if ((flags & (net::kDeliverStore | net::kDeliverProbe)) == 0) continue;
      s.pending.entries.push_back(net::DataEntry{lr.offset, flags, lr.rec});
      ++stats_.replayed_entries;
      if (s.pending.entries.size() >= kDataFrameEntries) flush_pending(w);
    }
  }
  flush_pending(w);
}

// --------------------------------------------------------------------------
// Checkpoints
// --------------------------------------------------------------------------

std::uint64_t MultiprocRouter::request_checkpoint_id(std::uint32_t w) {
  const std::uint64_t id = next_ckpt_id_++;
  WorkerSlot& s = workers_[w];
  if (s.alive && s.conn) {
    flush_pending(w);
    net::CheckpointMsg m;
    m.ckpt_id = id;
    s.conn->send(wire_type(MsgType::kCheckpoint), net::encode(m));
  }
  return id;
}

void MultiprocRouter::checkpoint_round() {
  for (const WorkerSlot& s : workers_) {
    if (s.alive && !s.finished) request_checkpoint_id(s.id);
  }
}

void MultiprocRouter::on_checkpoint_done(std::uint32_t w,
                                         net::SnapshotMsg msg) {
  WorkerSlot& s = workers_[w];
  ++stats_.checkpoints_completed;
  const std::uint64_t id = msg.ckpt_id;
  s.emit_watermark = std::max(s.emit_watermark, msg.emit_offset);
  if (cfg_.serve && id >= serve_snap_[w].ckpt_id) {
    // Rebuild the query surface's per-key counts from this snapshot —
    // a consistent cut of the worker's stores at consumed_offset.
    ServeSnap& snap = serve_snap_[w];
    snap.ckpt_id = id;
    snap.counts[0].clear();
    snap.counts[1].clear();
    for (const net::WireTuple& t : msg.tuples) {
      ++snap.counts[static_cast<int>(t.side)][t.key];
    }
  }
  if (id >= s.snapshot.ckpt_id) s.snapshot = std::move(msg);
  // Batches absorbed before this checkpoint was requested are now
  // inside the snapshot — stop carrying them.
  s.reinject.erase(
      std::remove_if(s.reinject.begin(), s.reinject.end(),
                     [id](const WorkerSlot::Reinject& r) {
                       return id >= r.safe_after;
                     }),
      s.reinject.end());
  if (mig_ && mig_->phase == Migration::Phase::kEpilogue &&
      mig_->epilogue_ckpts.erase(id) != 0) {
    finish_migration_if_epilogue_done();
  }
  maybe_truncate_log();
}

void MultiprocRouter::maybe_truncate_log() {
  if (!cfg_.truncate_log) return;
  std::uint64_t floor = UINT64_MAX;
  for (const WorkerSlot& s : workers_) {
    if (s.dead_forever) continue;
    floor = std::min(floor, s.snapshot.consumed_offset);
  }
  if (floor != UINT64_MAX && floor > 0) log_->truncate_before(0, floor);
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
  flush_pending(mig_->from);
  net::ExtractMsg m;
  m.mig_id = mig_->id;
  m.side = mig_->side;
  m.keys = mig_->keys;
  workers_[mig_->from].conn->send(wire_type(MsgType::kExtract),
                                  net::encode(m));
  arm_migration_timer();
}

void MultiprocRouter::arm_migration_timer() {
  const std::uint64_t id = mig_->id;
  mig_->timer = loop_.add_timer(
      std::chrono::steady_clock::now() + kMigrationTimeout,
      [this, id] {
        if (mig_ && mig_->id == id &&
            mig_->phase != Migration::Phase::kEpilogue) {
          abort_migration("timeout");
        }
      });
}

void MultiprocRouter::on_extract_batch(std::uint32_t w,
                                       net::ExtractBatchMsg msg) {
  if (!mig_ || mig_->phase != Migration::Phase::kExtractWait ||
      w != mig_->from || msg.mig_id != mig_->id) {
    // A reply that outlived its migration (timeout/abort raced the
    // worker). The tuples left a store — put them back where they
    // came from; dedup at the worker absorbs any overlap.
    reinject_into(w, std::move(msg.tuples));
    if (await_extract_.active && w == await_extract_.from &&
        msg.mig_id == await_extract_.mig_id) {
      // The aborted migration's tuples are home again; the reinject is
      // queued ahead of whatever we unpark now, so probes can't miss.
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
  WorkerSlot& t = workers_[mig_->to];
  if (!t.alive || !t.conn) {
    abort_migration("target offline at absorb");
    return;
  }
  flush_pending(mig_->to);
  net::AbsorbMsg ab;
  ab.mig_id = mig_->id;
  ab.tuples = mig_->batch.tuples;  // router keeps the original for crash safety
  t.conn->send(wire_type(MsgType::kAbsorb), net::encode(ab));
  mig_->phase = Migration::Phase::kAbsorbWait;
  arm_migration_timer();
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
  WorkerSlot& t = workers_[mig_->to];
  // Crash window: absorbed but not yet covered by a target checkpoint.
  t.reinject.push_back(WorkerSlot::Reinject{
      net::AbsorbMsg{0, std::move(mig_->batch.tuples)}, next_ckpt_id_});
  const int side = static_cast<int>(mig_->side);
  for (KeyId k : mig_->keys) overrides_[side][k] = mig_->to;
  park_keys_.clear();
  unpark();
  mig_->phase = Migration::Phase::kEpilogue;
  ++stats_.migrations_completed;
  // Post-migration checkpoints pin both participants' replay floors
  // above the move, so a later crash replays tuples from snapshots,
  // never from entries that predate the flip.
  for (std::uint32_t p : {mig_->from, mig_->to}) {
    if (workers_[p].alive) {
      mig_->epilogue_ckpts[request_checkpoint_id(p)] = p;
    }
  }
  finish_migration_if_epilogue_done();
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
    // (on_extract_batch stale path) or the source crashes (its restore
    // snapshot predates the extract, regenerating the tuples in place).
    await_extract_ = AwaitExtract{id, from, true};
    return;
  }
  park_keys_.clear();
  // No route flip. Extracted tuples (if any) go back to the source;
  // parked records route to their original owners. FIFO on the source
  // connection orders the reinject before the unparked records.
  if (!tuples.empty()) reinject_into(from, std::move(tuples));
  unpark();
  start_next_migration();
}

void MultiprocRouter::finish_migration_if_epilogue_done() {
  if (!mig_ || mig_->phase != Migration::Phase::kEpilogue ||
      !mig_->epilogue_ckpts.empty()) {
    return;
  }
  mig_.reset();
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

void MultiprocRouter::reinject_into(std::uint32_t w,
                                    std::vector<net::WireTuple> tuples) {
  if (tuples.empty()) return;
  WorkerSlot& s = workers_[w];
  if (s.dead_forever) {
    stats_.records_dropped += tuples.size();
    return;
  }
  net::AbsorbMsg m;
  m.mig_id = 0;
  m.tuples = std::move(tuples);
  if (s.alive && s.conn) {
    flush_pending(w);
    s.conn->send(wire_type(MsgType::kAbsorb), net::encode(m));
    stats_.reinjected_tuples += m.tuples.size();
  }
  // Carried until a checkpoint covers it (re-sent after any crash).
  s.reinject.push_back(WorkerSlot::Reinject{std::move(m), next_ckpt_id_});
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
  for (WorkerSlot& s : workers_) {
    if (!s.dead_forever && s.alive && !s.finished && s.conn) {
      flush_pending(s.id);
      s.conn->send(wire_type(MsgType::kFinish), nullptr, 0);
    }
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

bool flush_matches(net::FrameConn& conn, WorkerState& st) {
  if (st.out.count == 0) return true;
  st.out.emit_offset = st.consumed;
  const bool ok = conn.write_frame(wire_type(MsgType::kMatches),
                                   net::encode(st.out));
  st.out = net::MatchBatchMsg{};
  return ok;
}

void process_entry(WorkerState& st, const net::DataEntry& e) {
  const Record& rec = e.rec;
  if (e.flags & net::kDeliverStore) {
    JoinStore& store = st.stores[static_cast<int>(rec.side)];
    if ((e.flags & net::kDedupStore) && store.contains(rec.key, rec.seq)) {
      ++st.fin.dedup_skipped;
    } else {
      store.insert(rec.key, StoredTuple{rec.seq, rec.payload, rec.ts, 0});
      ++st.fin.stores;
    }
  }
  if (e.flags & net::kDeliverProbe) {
    ++st.fin.probes;
    // probe_each walks the whole bucket. probe_count would be exact here
    // too; it waits for incremental checkpoints, because a faster worker
    // takes its whole-store snapshots sooner and raises peak RSS.
    const JoinStore& store =
        st.stores[static_cast<int>(other_side(rec.side))];
    const bool suppress = (e.flags & net::kSuppressEmit) != 0;
    const std::uint64_t n =
        st.collect && !suppress
            ? store.probe_each(rec,
                               [&st](const MatchPair& p) {
                                 st.out.pairs.push_back(p);
                               })
            : store.probe_each(rec, [](const MatchPair&) {});
    if (suppress) {
      st.fin.suppressed += n;
    } else {
      st.fin.matches += n;
      st.out.count += n;
    }
  }
  st.consumed = e.offset + 1;
}

void snapshot_stores(const WorkerState& st, net::SnapshotMsg& snap) {
  for (int side = 0; side < 2; ++side) {
    for (KeyId k : st.stores[side].keys()) {
      const JoinStore::Bucket* b = st.stores[side].find(k);
      if (b == nullptr) continue;
      for (const StoredTuple& t : *b) {
        snap.tuples.push_back(
            net::WireTuple{static_cast<Side>(side), k, t});
      }
    }
  }
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
        if (!flush_matches(conn, st)) return 2;
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
        // Flush-before-checkpoint: guarantees emit watermark >=
        // consumed watermark at every snapshot the router holds.
        if (!flush_matches(conn, st)) return 2;
        net::SnapshotMsg snap;
        snap.ckpt_id = m.ckpt_id;
        snap.consumed_offset = st.consumed;
        snap.emit_offset = st.consumed;
        snapshot_stores(st, snap);
        if (!conn.write_frame(wire_type(MsgType::kCheckpointDone),
                              net::encode(snap))) {
          return 2;
        }
        break;
      }
      case MsgType::kRestore: {
        net::SnapshotMsg m;
        if (!net::decode(f.payload, m)) return 3;
        st.stores[0] = JoinStore(0);
        st.stores[1] = JoinStore(0);
        for (const net::WireTuple& t : m.tuples) {
          st.stores[static_cast<int>(t.side)].insert(t.key, t.tuple);
        }
        st.consumed = m.consumed_offset;
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
