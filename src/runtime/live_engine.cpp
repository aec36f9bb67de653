// FASTJOIN_PROTOCOL_FILE: this file implements the supervised
// migration / replay protocol. Every wait that the protocol depends on
// (timeout deadlines, reply backoff, blocked producers, monitor timers)
// must go through the injectable Clock so the deterministic checker in
// src/protocol/ and virtual-time tests exercise the same code paths.
// fastjoin-lint's protocol-clock rule enforces this; wall-clock reads
// that are telemetry-only (latency stamps, recovery timing, simulated
// work) carry explicit allow() escapes.
#include "runtime/live_engine.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <optional>
#include <unordered_set>

#include "common/arena.hpp"
#include "common/logging.hpp"
#include "telemetry/telemetry.hpp"

namespace fastjoin {

namespace tel = telemetry;

namespace {
/// Cached handles into the global MetricRegistry: resolved once (first
/// use), then updated lock-free on the hot path.
struct LiveMetrics {
  tel::Counter& records_in;
  tel::Counter& batches;
  tel::Counter& records_dropped;
  tel::Counter& lane_backpressure;
  tel::Counter& migrations;
  tel::Counter& migrations_aborted;
  tel::Counter& crashes;
  tel::Counter& recoveries;
  tel::Counter& checkpoints;
  tel::Gauge& li_r;
  tel::Gauge& li_s;
  tel::ConcurrentHistogram& latency_ns;
};

LiveMetrics& live_metrics() {
  auto& reg = tel::MetricRegistry::global();
  static LiveMetrics m{
      reg.counter("live.records_in"),
      reg.counter("live.batches"),
      reg.counter("live.records_dropped"),
      reg.counter("live.lane_backpressure"),
      reg.counter("live.migrations"),
      reg.counter("live.migrations_aborted"),
      reg.counter("live.crashes"),
      reg.counter("live.recoveries"),
      reg.counter("live.checkpoints"),
      reg.gauge("live.li_r"),
      reg.gauge("live.li_s"),
      reg.histogram("live.latency_ns", HistogramParams{1.0, 1e12, 16}),
  };
  return m;
}
}  // namespace

namespace {
/// Busy-wait for `ns` nanoseconds (simulated per-match work).
void spin_for(std::uint64_t ns) {
  if (ns == 0) return;
  const auto end =  // fastjoin-lint: allow(protocol-clock) simulated work, not a protocol wait
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
  while (std::chrono::steady_clock::now() < end) {  // fastjoin-lint: allow(protocol-clock) simulated work
  }
}

constexpr std::chrono::steady_clock::time_point kUnsampled{};

/// Records popped from one lane per drain pass: large enough to amortize
/// the ring index update, small enough to keep control latency bounded.
constexpr std::size_t kDrainBatch = 128;

/// Capacity bound of each per-worker control queue.
constexpr std::size_t kControlQueueCapacity = 1 << 15;

/// Capacity of each data lane (records; a power of two). Full lanes
/// exert backpressure on the producer.
constexpr std::size_t kLaneCapacity = 1 << 12;

/// Longest the monitor sleeps between checks of `stopping_`, so
/// finish() never waits out a whole monitor period.
constexpr std::chrono::milliseconds kMonitorSlice{1};

/// Backstop for a parked worker's doorbell wait. Wake-ups are
/// event-driven (every producer push, control send, crash, and shutdown
/// rings the bell), so this only bounds the blast radius of a missed
/// edge; it is not a polling cadence.
constexpr std::chrono::milliseconds kParkBackstop{10};

/// Producer-side wait jitter: uniform in [base/2, base] from a
/// thread-local stream (producers are arbitrary caller threads, so the
/// monitor's rng cannot serve them). Spreads blocked-producer retries
/// so a crashed slot's waiters don't storm the respawned worker in
/// lockstep.
std::chrono::nanoseconds producer_jittered(std::chrono::nanoseconds base) {
  thread_local Xoshiro256 rng{
      0xda3e39cb94b95bdbULL ^
      std::hash<std::thread::id>{}(std::this_thread::get_id())};
  const auto half = static_cast<std::uint64_t>(base.count()) / 2;
  return std::chrono::nanoseconds(half + rng.next_below(half + 1));
}
}  // namespace

const char* migration_phase_name(MigrationPhase p) {
  switch (p) {
    case MigrationPhase::kSelected: return "selected";
    case MigrationPhase::kHeld: return "held";
    case MigrationPhase::kRouted: return "routed";
    case MigrationPhase::kForwarded: return "forwarded";
  }
  return "?";
}

/// One join instance on its own thread.
class LiveEngine::Worker {
 public:
  /// Store snapshot plus — in ingest mode — the per-partition consumed
  /// offsets it is consistent with: replaying the log from `offsets`
  /// on top of `tuples` reconstructs the worker.
  struct Checkpoint {
    std::vector<std::pair<KeyId, StoredTuple>> tuples;
    std::vector<std::uint64_t> offsets;
  };

  Worker(const LiveEngine& engine, InstanceId id, Side store_side,
         std::uint32_t max_subwindows, LaneSet& lanes,
         std::uint32_t ingest_partitions)
      : engine_(engine),
        id_(id),
        store_side_(store_side),
        queue_(kControlQueueCapacity),
        lanes_(lanes),
        store_(max_subwindows, &arena_),
        ingest_parts_(ingest_partitions) {
    if (ingest_parts_ > 0) {
      consumed_ =
          std::make_unique<std::atomic<std::uint64_t>[]>(ingest_parts_);
      for (std::uint32_t p = 0; p < ingest_parts_; ++p) {
        consumed_[p].store(0, std::memory_order_relaxed);
      }
    }
  }

  void start() {
    thread_ = std::thread([this] { loop(); });
  }

  void stop_and_join() {
    queue_.close();
    // Wake a parked worker so it sees closed-and-empty now rather than
    // at the park backstop.
    LiveEngine::ring_doorbell(lanes_);
    if (thread_.joinable()) thread_.join();
  }

  bool send(Msg msg, std::vector<std::uint64_t> barrier = {}) {
    const bool ok =
        queue_.push(Envelope{std::move(msg), std::move(barrier)});
    // Control messages ride a different channel than the doorbell's
    // lanes; a parked worker must still wake for them.
    if (ok) LiveEngine::ring_doorbell(lanes_);
    return ok;
  }

  /// Kill this worker: the thread exits at the next message boundary,
  /// discarding its queues; the store is lost. Thread-safe.
  void crash() {
    crashed_at_ = std::chrono::steady_clock::now();  // fastjoin-lint: allow(protocol-clock) recovery-time telemetry
    crashed_.store(true, std::memory_order_release);
    queue_.close();
    LiveEngine::ring_doorbell(lanes_);
  }

  bool crashed() const {
    return crashed_.load(std::memory_order_acquire);
  }
  /// Only meaningful after crashed() returned true.
  std::chrono::steady_clock::time_point crashed_at() const {
    return crashed_at_;
  }

  /// Latest queue-order-consistent snapshot (null if none was taken).
  std::shared_ptr<const Checkpoint> latest_checkpoint() const {
    MutexLock lock(ckpt_mutex_);
    return checkpoint_;
  }
  /// Carry a predecessor's snapshot into a respawned worker so a second
  /// crash before the next checkpoint round still has a restore point.
  void seed_checkpoint(std::shared_ptr<const Checkpoint> ckpt) {
    MutexLock lock(ckpt_mutex_);
    checkpoint_ = std::move(ckpt);
  }
  /// Pre-start restore of one checkpointed tuple (respawn path only;
  /// the worker thread must not be running).
  void restore_tuple(KeyId key, const StoredTuple& st) {
    store_.insert(key, st);
    stored_count_.store(store_.size(), std::memory_order_relaxed);
  }

  // --- ingest replay (respawn path; see LiveEngine::replay_worker) --
  /// Per-partition consumed watermarks (offset of the next expected
  /// record). Read by the supervisor after the thread is joined.
  std::vector<std::uint64_t> consumed_marks() const {
    std::vector<std::uint64_t> m(ingest_parts_);
    for (std::uint32_t p = 0; p < ingest_parts_; ++p) {
      m[p] = consumed_[p].load(std::memory_order_relaxed);
    }
    return m;
  }
  /// Pre-start only: position a partition's watermark (after a replay
  /// pass, so lane deliveries below it are recognized as covered).
  void set_consumed(std::uint32_t p, std::uint64_t v) {
    consumed_[p].store(v, std::memory_order_relaxed);
  }
  /// Records sitting in the forward/held migration buffers — the loss
  /// the log cannot replay. Read by the supervisor after join.
  std::uint64_t buffered_count() const {
    return buffered_.load(std::memory_order_relaxed);
  }
  /// Only while the thread is not running: the respawn compares a dead
  /// worker's store with its rebuilt successor's to charge
  /// absorbed-but-unreplayable tuples to the loss ledger.
  const JoinStore& store() const { return store_; }
  /// Re-process one store-side delivery during replay. Sequence-deduped
  /// against the restored store: a tuple that arrived via the
  /// checkpoint or a migration batch is not inserted twice (stored
  /// copies are always safe to re-merge, but counting them twice is
  /// not). `fresh` = the crashed worker verifiably never processed it,
  /// so the store counter advances.
  void replay_store(const Record& rec, bool fresh) {
    if (store_.contains(rec.key, rec.seq)) return;
    StoredTuple st;
    st.seq = rec.seq;
    st.payload = rec.payload;
    st.ts = rec.ts;
    store_.insert(rec.key, st);
    stored_count_.store(store_.size(), std::memory_order_relaxed);
    if (fresh) stores_done_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Pre-start re-installation of a migration hold (respawn path only;
  /// the worker thread must not be running). Used when the slot being
  /// rebuilt is the target of an in-flight migration: the hold must be
  /// back in place before replay runs and before the lanes reopen, so
  /// rerouted probes keep parking in the held buffer until the Absorb
  /// and Release arrive.
  void preinstall_hold(const std::vector<KeyId>& keys) {
    held_keys_.insert(keys.begin(), keys.end());
  }
  /// Re-deliver one logged record: a probe the crashed worker never
  /// served, or a delivery another worker's recovery redirected here.
  /// Rides the same divert checks as live data — with a re-installed
  /// hold a probe must wait in the held buffer for the migration batch,
  /// not race it, and a concurrent migration of the key still sees the
  /// record exactly once (the forward/held machinery ships it to
  /// wherever the key ends up).
  void redeliver(const Record& rec) {
    if (!divert(rec)) apply(rec);
  }
  /// After stop_and_join() on a crashed worker: count the records that
  /// died unprocessed in its control queue. Absorb / release / abort
  /// payloads carry records that were already extracted into migration
  /// machinery. ReplayReq payloads are NOT a loss: they came out of the
  /// log during a dead peer's recovery and are idempotent to re-deliver
  /// (store-side records seq-dedup, probe-side ones were verifiably
  /// never served), so a double fault — this worker dying while a
  /// peer's replay deliveries sat in its queue — hands them back to the
  /// supervisor via `salvaged` and the respawn re-enters replay through
  /// the retarget backlog.
  void drain_dead_queue(std::uint64_t& buffered_records,
                        std::vector<Record>& salvaged) {
    while (auto env = queue_.try_pop()) {
      if (const auto* a = std::get_if<AbsorbReq>(&env->msg)) {
        // A dead Absorb loses the batch's stored tuples too, not just
        // its pending probes: the routing table already points at this
        // worker, the log entries still carry the *source's* id, and
        // the source's restore filter skips keys routed away — so
        // neither side's replay will resurrect them. Charge them to the
        // ledger or the drop accounting under-counts in the window
        // between a committed migration and the absorb being served.
        buffered_records +=
            a->batch->pending.size() + a->batch->stored.size();
      } else if (const auto* r = std::get_if<ReleaseReq>(&env->msg)) {
        if (r->forwarded) buffered_records += r->forwarded->size();
      } else if (const auto* ab =
                     std::get_if<AbortMigrationReq>(&env->msg)) {
        if (ab->replay_pending) {
          buffered_records += ab->batch->pending.size();
        }
        if (ab->forwarded) buffered_records += ab->forwarded->size();
      } else if (auto* rp = std::get_if<ReplayReq>(&env->msg)) {
        salvaged.insert(salvaged.end(), rp->records.begin(),
                        rp->records.end());
      }
    }
  }

  // --- monitor-visible statistics (atomics) -------------------------
  std::uint64_t stored_count() const {
    return stored_count_.load(std::memory_order_relaxed);
  }
  std::uint64_t probes_done() const {
    return probes_done_.load(std::memory_order_relaxed);
  }
  std::uint64_t stores_done() const {
    return stores_done_.load(std::memory_order_relaxed);
  }
  std::uint64_t results() const {
    return results_.load(std::memory_order_relaxed);
  }
  std::uint64_t evicted() const {
    return evicted_.load(std::memory_order_relaxed);
  }
  /// Pending work: control-queue depth plus the data backlog across
  /// every lane feeding this worker. This is the paper's φ input.
  std::size_t queue_length() const {
    std::size_t n = queue_.size();
    for (const auto& lane : lanes_.lanes) {
      const auto pushed = lane->pushed.load(std::memory_order_acquire);
      const auto popped = lane->popped.load(std::memory_order_relaxed);
      n += pushed >= popped ? pushed - popped : 0;
    }
    return n;
  }

  /// Only valid after stop_and_join().
  const LogHistogram& latency_hist() const { return latency_; }

  InstanceId id() const { return id_; }

 private:
  /// This worker's identity packed for flight-recorder arguments.
  std::uint64_t fid() const {
    return tel::flight_id(static_cast<int>(store_side_), id_);
  }

  /// Micro-batch drains over the SPSC lanes, control envelopes polled
  /// between batches, watermark barriers honored. An idle worker
  /// spins/yields per the engine's SpinPolicy (zero spins when
  /// oversubscribed), then parks on the lane-set doorbell until a
  /// producer or control sender rings it — event-driven idling instead
  /// of sleep-polling, which on an oversubscribed box burned the very
  /// quantum the producers needed.
  void loop() {
    char label[32];
    std::snprintf(label, sizeof(label), "worker-%s%u",
                  side_name(store_side_),
                  static_cast<unsigned>(id_));
    tel::set_thread_label(label);
    std::vector<DataMsg> scratch(kDrainBatch);
    const std::uint32_t spin_budget = engine_.spin_.spin_iters;
    const std::uint32_t yield_budget =
        spin_budget + engine_.spin_.yield_iters;
    std::uint32_t idles = 0;
    for (;;) {
      if (crashed_.load(std::memory_order_acquire)) break;
      std::size_t progress = drain_lanes(scratch.data());
      while (auto env = queue_.try_pop()) {
        if (!env->barrier.empty()) {
          drain_past(env->barrier, scratch.data());
          if (crashed_.load(std::memory_order_acquire)) return;
        }
        std::visit([this](auto&& m) { handle(std::move(m)); },
                   std::move(env->msg));
        ++progress;
      }
      if (crashed_.load(std::memory_order_acquire)) break;
      if (progress > 0) {
        idles = 0;
        continue;
      }
      if (queue_.closed() && lanes_drained()) break;
      ++idles;
      if (idles <= spin_budget) continue;
      if (idles <= yield_budget) {
        std::this_thread::yield();
        continue;
      }
      park();
    }
  }

  /// Anything for this worker to do right now? (Data in a lane, a
  /// control envelope, a crash/shutdown edge.) Used by park() to decide
  /// whether sleeping is safe; relaxed-ish loads are fine — the caller
  /// re-checks under the arm fence / the bell mutex.
  bool has_work() const {
    if (crashed_.load(std::memory_order_acquire)) return true;
    if (queue_.size() > 0 || queue_.closed()) return true;
    for (const auto& lane : lanes_.lanes) {
      if (lane->pushed.load(std::memory_order_acquire) !=
          lane->popped.load(std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  /// Block on the lane-set doorbell until a ringer wakes us (or the
  /// backstop fires). Arm-then-recheck pairs with ring_doorbell()'s
  /// publish-then-check: the seq_cst fences guarantee that either the
  /// ringer observes `armed` (and notifies under the mutex) or this
  /// re-check observes the rung-about work — no lost wakeup.
  void park() {
    LaneSet& ls = lanes_;
    ls.armed.fetch_add(1, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (!has_work()) {
      UniqueLock lk(ls.bell_mutex);
      // Re-check under the mutex: a ringer that saw `armed` is either
      // about to take this mutex (we will see its work next iteration
      // thanks to the mutex ordering) or already notified.
      if (!has_work()) {
        ls.bell.wait_for(lk, kParkBackstop);  // fastjoin-lint: allow(protocol-clock) data-plane idle parking, not a protocol wait
      }
    }
    ls.armed.fetch_sub(1, std::memory_order_relaxed);
  }

  /// One micro-batch pass over every lane. Returns records processed.
  std::size_t drain_lanes(DataMsg* scratch) {
    std::size_t total = 0;
    for (auto& lane : lanes_.lanes) {
      const std::size_t n =
          lane->ring.try_pop_batch(scratch, kDrainBatch);
      for (std::size_t i = 0; i < n; ++i) handle(std::move(scratch[i]));
      if (n > 0) {
        lane->popped.fetch_add(n, std::memory_order_release);
        total += n;
      }
    }
    return total;
  }

  /// Consume each lane up to its stamped watermark before a control
  /// action: everything routed to this worker before the watermark was
  /// captured is processed (or diverted to the forward/held buffers)
  /// first. Data and control ride different channels, so this barrier
  /// is what orders them.
  void drain_past(const std::vector<std::uint64_t>& barrier,
                  DataMsg* scratch) {
    const std::size_t n_lanes =
        std::min(barrier.size(), lanes_.lanes.size());
    for (std::size_t i = 0; i < n_lanes; ++i) {
      DataLane& lane = *lanes_.lanes[i];
      while (lane.popped.load(std::memory_order_relaxed) < barrier[i]) {
        if (crashed_.load(std::memory_order_acquire)) return;
        const std::uint64_t want =
            barrier[i] - lane.popped.load(std::memory_order_relaxed);
        const std::size_t k = lane.ring.try_pop_batch(
            scratch, std::min<std::uint64_t>(want, kDrainBatch));
        if (k == 0) {
          // The record is published to the ring before `pushed` is
          // bumped, so a short wait suffices; never indefinite.
          std::this_thread::yield();
          continue;
        }
        for (std::size_t j = 0; j < k; ++j) {
          handle(std::move(scratch[j]));
        }
        lane.popped.fetch_add(k, std::memory_order_release);
      }
    }
  }

  bool lanes_drained() const {
    for (const auto& lane : lanes_.lanes) {
      if (!lane->ring.closed() || !lane->ring.empty_approx()) {
        return false;
      }
    }
    return true;
  }

  void handle(DataMsg msg) {
    const Record& rec = msg.rec;
    if (ingest_parts_ > 0 && msg.partition != kNoIngestPartition) {
      // Consumed watermark: the log offset of the next delivery this
      // worker expects from that partition. A delivery below it was
      // already covered — processed before a crash, or re-processed by
      // the replay pass that positioned the watermark — so handling it
      // again would double-count (lane deliveries that raced a closed
      // slot land here after the replay already scanned them).
      auto& c = consumed_[msg.partition];
      if (msg.offset < c.load(std::memory_order_relaxed)) return;
      c.store(msg.offset + 1, std::memory_order_relaxed);
    }
    if (divert(rec)) return;
    process(rec, msg.pushed_at);
  }

  /// Replay deliveries redirected here from another worker's recovery.
  void handle(ReplayReq req) {
    for (const Record& rec : req.records) redeliver(rec);
  }

  /// Park a record whose key is migrating away (forward buffer) or in
  /// (held buffer) instead of applying it. True when it was parked.
  bool divert(const Record& rec) {
    if (!forwarding_keys_.empty() && forwarding_keys_.count(rec.key)) {
      forward_buffer_.push_back(rec);
    } else if (!held_keys_.empty() && held_keys_.count(rec.key)) {
      held_buffer_.push_back(rec);
    } else {
      return false;
    }
    note_buffered();
    return true;
  }

  /// Apply a record that comes out of a divert buffer or a replay.
  /// Store-side records merge seq-deduped — recovery retargets are
  /// at-least-once, so the tuple may already be here via a migration
  /// batch or an earlier ReplayReq; probes are processed in full.
  void apply(const Record& rec) {
    if (rec.side == store_side_) {
      replay_store(rec, /*fresh=*/true);
    } else {
      process(rec);
    }
  }

  /// Apply divert buffers in stream order, not arrival order: buffers
  /// collected on different paths interleave (a record diverted at the
  /// source can precede one that took the rerouted path), and a probe
  /// must see exactly the stores that precede it.
  void apply_in_stream_order(std::vector<Record> records) {
    std::stable_sort(records.begin(), records.end(),
                     [](const Record& a, const Record& b) {
                       return precedes(a, b);
                     });
    for (const auto& rec : records) apply(rec);
  }

  /// `pushed_at` == epoch means the record was not sampled for latency
  /// measurement (replays and non-sampled records); the clock is read
  /// only for sampled probes.
  void process(const Record& rec,
               std::chrono::steady_clock::time_point pushed_at =
                   kUnsampled) {
    if (rec.side == store_side_) {
      StoredTuple st;
      st.seq = rec.seq;
      st.payload = rec.payload;
      st.ts = rec.ts;
      store_.insert(rec.key, st);
      stored_count_.store(store_.size(), std::memory_order_relaxed);
      stores_done_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const std::uint64_t matches =
        engine_.on_match_ ? store_.probe_each(rec, engine_.on_match_)
                          : store_.probe_count(rec);
    spin_for(engine_.cfg_.work_per_match_ns * matches);
    ++probe_window_[rec.key];
    results_.fetch_add(matches, std::memory_order_relaxed);
    probes_done_.fetch_add(1, std::memory_order_relaxed);
    if (pushed_at != kUnsampled) {
      const auto dt =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - pushed_at)  // fastjoin-lint: allow(protocol-clock) latency telemetry
              .count();
      const auto ns =
          static_cast<double>(std::max<std::int64_t>(dt, 1));
      latency_.add(ns);
      live_metrics().latency_ns.record(ns);
    }
  }

  void handle(SelectExtractReq req) {
    KeySelectionInput in;
    in.src.stored = store_.size();
    in.dst = req.dst_load;
    in.theta_gap = engine_.cfg_.planner.theta_gap;

    std::unordered_map<KeyId, KeyLoad> by_key;
    for (KeyId k : store_.keys()) {
      KeyLoad& kl = by_key[k];
      kl.key = k;
      kl.stored = store_.count_for(k);
    }
    std::uint64_t probe_total = 0;
    for (const auto& [k, n] : probe_window_) {
      KeyLoad& kl = by_key[k];
      kl.key = k;
      kl.queued = n;
      probe_total += n;
    }
    in.src.queued = probe_total;
    in.keys.reserve(by_key.size());
    for (auto& [_, kl] : by_key) in.keys.push_back(kl);
    std::sort(in.keys.begin(), in.keys.end(),
              [](const KeyLoad& a, const KeyLoad& b) {
                return a.key < b.key;
              });

    const KeySelectionResult sel = select_keys(in, engine_.cfg_.planner);

    // Shadow copy of what this extraction removes from the store
    // ("checkpoint shadowing"): a checkpoint cut between the extraction
    // and the migration's commit/abort would otherwise snapshot a store
    // missing the batch, and a crash in that window restores from that
    // snapshot while replay suppresses the batch's deliveries (they sit
    // below the consumed watermarks). Folded into every checkpoint;
    // cleared by the abort re-merge or the next extraction. A stale
    // shadow after a committed migration is harmless: the restore
    // filter skips keys routed away, and re-merges seq-dedup.
    pending_extract_.clear();
    ++extract_epoch_;
    auto batch = std::make_shared<MigrationBatch>();
    batch->extract_epoch = extract_epoch_;
    for (const auto& kl : sel.selection) {
      batch->keys.push_back(kl.key);
      for (auto& st : store_.extract_key(kl.key)) {
        batch->stored.emplace_back(kl.key, st);
        pending_extract_.emplace_back(kl.key, st);
      }
      forwarding_keys_.insert(kl.key);
      probe_window_.erase(kl.key);
    }
    stored_count_.store(store_.size(), std::memory_order_relaxed);
    tel::flight_record(tel::FlightEvent::kCtrlSelect, fid(),
                       batch->keys.size());
    req.reply.set_value(std::move(batch));
  }

  void handle(TakeForwardReq req) {
    if (req.extract_epoch != extract_epoch_) {
      // Stale request from a migration this slot no longer remembers
      // (the slot was rebuilt, or a newer extraction installed the
      // current forwarding set). Clearing the set here would strand the
      // records the NEWER migration is diverting — strict no-op, but
      // still answer so a waiting monitor is not left hanging.
      req.reply.set_value(std::make_shared<std::vector<Record>>());
      return;
    }
    forwarding_keys_.clear();
    auto out = std::make_shared<std::vector<Record>>();
    out->swap(forward_buffer_);
    note_buffered();
    tel::flight_record(tel::FlightEvent::kCtrlTakeForward, fid(),
                       out->size());
    req.reply.set_value(std::move(out));
  }

  void handle(HoldReq req) {
    held_keys_.insert(req.keys.begin(), req.keys.end());
    tel::flight_record(tel::FlightEvent::kCtrlHold, fid(),
                       req.keys.size());
    // Acknowledge: the monitor must see the hold installed before it
    // publishes the routing table that diverts records this way.
    req.reply.set_value(std::make_shared<HoldAck>());
    tel::flight_record(tel::FlightEvent::kCtrlHoldAck, fid());
  }

  /// Merge one migrated/aborted batch tuple, deduplicated by sequence
  /// number. A migration batch lives in monitor memory while the
  /// protocol runs; if the source (or a previous owner) crashes in that
  /// window, its respawn regenerates the extracted tuples from
  /// checkpoint + log replay. Re-injecting the batch afterwards —
  /// Absorb at the target, or the Abort re-merge at the source — would
  /// then leave two copies of the same tuple in one store, and every
  /// later probe of that key would emit duplicate matches.
  void merge_tuple(KeyId key, const StoredTuple& st) {
    if (!store_.contains(key, st.seq)) store_.insert(key, st);
  }

  void handle(AbsorbReq req) {
    tel::flight_record(tel::FlightEvent::kCtrlAbsorb, fid(),
                       req.batch->stored.size());
    for (const auto& [key, st] : req.batch->stored) {
      merge_tuple(key, st);
    }
    stored_count_.store(store_.size(), std::memory_order_relaxed);
    for (const auto& rec : req.batch->pending) process(rec);
  }

  void handle(ReleaseReq req) {
    tel::flight_record(tel::FlightEvent::kCtrlRelease, fid(),
                       req.forwarded->size());
    held_keys_.clear();
    // The forwarded batch and the held buffer, merged in stream order.
    std::vector<Record> flush;
    flush.reserve(req.forwarded->size() + held_buffer_.size());
    flush.insert(flush.end(), req.forwarded->begin(),
                 req.forwarded->end());
    flush.insert(flush.end(), held_buffer_.begin(), held_buffer_.end());
    held_buffer_.clear();
    note_buffered();
    apply_in_stream_order(std::move(flush));
  }

  /// Source-side migration abort. Per-key order is preserved: batch
  /// pending (oldest, only when the target never received the batch) ->
  /// collected-forwarded -> local forward buffer -> records routed back
  /// here after the rollback (they drain behind this message's barrier).
  void handle(AbortMigrationReq req) {
    tel::flight_record(tel::FlightEvent::kCtrlAbort, fid(),
                       req.replay_pending ? 1 : 0);
    for (const auto& [key, st] : req.batch->stored) {
      merge_tuple(key, st);
    }
    stored_count_.store(store_.size(), std::memory_order_relaxed);
    pending_extract_.clear();  // the batch is back in the store
    forwarding_keys_.clear();
    if (req.replay_pending) {
      for (const auto& rec : req.batch->pending) process(rec);
    }
    // Collected-forwarded and the local forward buffer, merged in
    // stream order like the Release flush.
    std::vector<Record> flush;
    if (req.forwarded) flush = *req.forwarded;
    flush.insert(flush.end(), forward_buffer_.begin(),
                 forward_buffer_.end());
    forward_buffer_.clear();
    note_buffered();
    apply_in_stream_order(std::move(flush));
  }

  void handle(CheckpointReq) {
    auto snap = std::make_shared<Checkpoint>();
    snap->tuples.reserve(store_.size());
    std::vector<KeyId> keys = store_.keys();
    std::sort(keys.begin(), keys.end());  // deterministic snapshot order
    for (KeyId k : keys) {
      if (const auto* bucket = store_.find(k)) {
        for (const auto& st : *bucket) snap->tuples.emplace_back(k, st);
      }
    }
    // Fold in the extraction shadow: tuples cut for an in-flight
    // migration are out of the store but not yet safe anywhere else —
    // a snapshot without them plus replay's consumed-watermark
    // suppression would lose them if the migration aborts into a crash.
    // Seq-deduped against the live store (the abort re-merge clears the
    // shadow, but a Release-committed batch leaves it populated until
    // the next extraction).
    for (const auto& [k, st] : pending_extract_) {
      if (!store_.contains(k, st.seq)) snap->tuples.emplace_back(k, st);
    }
    // The offsets are captured in-thread with the store snapshot, so
    // the pair is exactly consistent: the store reflects precisely the
    // deliveries below these watermarks (plus migration transfers).
    if (ingest_parts_ > 0) {
      snap->offsets.resize(ingest_parts_);
      for (std::uint32_t p = 0; p < ingest_parts_; ++p) {
        snap->offsets[p] = consumed_[p].load(std::memory_order_relaxed);
      }
    }
    tel::flight_record(tel::FlightEvent::kCtrlCheckpoint, fid(),
                       snap->tuples.size());
    MutexLock lock(ckpt_mutex_);
    checkpoint_ = std::move(snap);
  }

  void handle(AdvanceWindowReq) {
    tel::flight_record(tel::FlightEvent::kCtrlWindow, fid());
    evicted_.fetch_add(store_.advance_subwindow(),
                       std::memory_order_relaxed);
    stored_count_.store(store_.size(), std::memory_order_relaxed);
  }

  /// Keep the monitor-readable count of records parked in the
  /// forward/held buffers current (they are what a crash loses beyond
  /// what the log can replay).
  void note_buffered() {
    buffered_.store(forward_buffer_.size() + held_buffer_.size(),
                    std::memory_order_relaxed);
  }

  const LiveEngine& engine_;
  InstanceId id_;
  Side store_side_;
  BoundedQueue<Envelope> queue_;  ///< control messages
  LaneSet& lanes_;                ///< engine-owned data lanes
  std::thread thread_;

  /// Worker-private allocation arena backing store_'s buckets and hash
  /// nodes. Declared before store_ (store_ keeps a pointer into it and
  /// must be destroyed first). Single-threaded by the engine's rule
  /// that only the owning worker touches its store.
  Arena arena_;
  JoinStore store_;
  std::unordered_map<KeyId, std::uint64_t> probe_window_;
  std::unordered_set<KeyId> forwarding_keys_;
  std::vector<Record> forward_buffer_;
  std::unordered_set<KeyId> held_keys_;
  std::vector<Record> held_buffer_;
  /// Shadow of the last extracted batch (see handle(SelectExtractReq));
  /// folded into checkpoints, cleared by abort or the next extraction.
  std::vector<std::pair<KeyId, StoredTuple>> pending_extract_;
  /// Monotone extraction counter; TakeForwardReq must echo it.
  std::uint64_t extract_epoch_ = 0;
  LogHistogram latency_{1.0, 1e12, 16};

  std::atomic<bool> crashed_{false};
  std::chrono::steady_clock::time_point crashed_at_{};
  mutable Mutex ckpt_mutex_;
  std::shared_ptr<const Checkpoint> checkpoint_ GUARDED_BY(ckpt_mutex_);

  std::atomic<std::uint64_t> stored_count_{0};
  std::atomic<std::uint64_t> probes_done_{0};
  std::atomic<std::uint64_t> stores_done_{0};
  std::atomic<std::uint64_t> results_{0};
  std::atomic<std::uint64_t> evicted_{0};

  /// Ingest mode only (ingest_parts_ > 0): per-StreamLog-partition
  /// consumed watermarks and the migration-buffer occupancy, both
  /// relaxed atomics — the worker thread writes, the supervisor reads
  /// after joining the thread (or before starting it).
  const std::uint32_t ingest_parts_ = 0;
  std::unique_ptr<std::atomic<std::uint64_t>[]> consumed_;
  std::atomic<std::uint64_t> buffered_{0};
};

LiveEngine::LiveEngine(const LiveConfig& cfg)
    : cfg_(cfg),
      clk_(cfg.clock != nullptr ? cfg.clock : &real_clock()),
      // Always-on threads: one worker per instance per side + monitor.
      spin_(SpinPolicy::derive(Topology::detect(), 2 * cfg.instances + 1)) {
  route_table_.store(new RouteTable{}, std::memory_order_release);
  const std::size_t n_slots = cfg_.max_producers + 1;  // +1 fallback
  producer_slots_ = std::vector<ProducerSlot>(n_slots);
  for (auto& slot : producer_slots_) {
    // One staging run per destination worker; capacities are retained
    // across batches, so steady state allocates nothing here.
    slot.stages.resize(2 * static_cast<std::size_t>(cfg_.instances));
  }
  if (cfg_.ingest.enabled) {
    // One partition per producer lane: a partition's append order then
    // equals its lane's FIFO order (both happen inside the producer's
    // push path), which is what lets replay reconstruct per-key order.
    cfg_.ingest.partitions = static_cast<std::uint32_t>(n_slots);
    log_ = std::make_unique<StreamLog>(cfg_.ingest);
  }
  const std::uint32_t ingest_parts =
      log_ != nullptr ? log_->partitions() : 0;
  for (int g = 0; g < 2; ++g) {
    workers_[g].reserve(cfg_.instances);
    retarget_backlog_[g].resize(cfg_.instances);
    slot_gen_[g].assign(cfg_.instances, 0);
    lane_sets_[g].reserve(cfg_.instances);
    for (InstanceId i = 0; i < cfg_.instances; ++i) {
      auto set = std::make_unique<LaneSet>();
      set->lanes.reserve(n_slots);
      for (std::size_t p = 0; p < n_slots; ++p) {
        set->lanes.push_back(
            std::make_unique<DataLane>(kLaneCapacity));
      }
      workers_[g].push_back(std::make_unique<Worker>(
          *this, i, static_cast<Side>(g), cfg_.window_subwindows, *set,
          ingest_parts));
      lane_sets_[g].push_back(std::move(set));
    }
  }
}

LiveEngine::~LiveEngine() {
  if (running()) finish();
  delete route_table_.load(std::memory_order_acquire);
}

LiveEngine::Worker& LiveEngine::worker(Side group, InstanceId id) {
  return *workers_[static_cast<int>(group)][id];
}

void LiveEngine::start() {
  if (finished_.load(std::memory_order_acquire) ||
      started_.exchange(true, std::memory_order_acq_rel)) {
    FJ_ERROR("live") << "start() on an already-started or finished engine";
    return;
  }
  for (int g = 0; g < 2; ++g) {
    for (auto& w : workers_[g]) w->start();
  }
  // The monitor doubles as the supervisor and the window/checkpoint
  // driver, so it runs even when the balancer is off.
  monitor_thread_ = std::thread([this] { monitor_loop(); });
}

int LiveEngine::register_producer() {
  const std::uint32_t i =
      producers_registered_.fetch_add(1, std::memory_order_relaxed);
  if (i >= cfg_.max_producers) return kUnregistered;  // slots exhausted
  return static_cast<int>(i);
}

InstanceId LiveEngine::route(const RouteTable& table, Side group,
                             KeyId key) const {
  const auto& ov = table.overrides[static_cast<int>(group)];
  const auto it = ov.find(key);
  if (it != ov.end()) return it->second;
  return instance_of(key, cfg_.instances);
}

InstanceId LiveEngine::route_current(Side group, KeyId key) const {
  return route(*route_table_.load(std::memory_order_acquire), group, key);
}

void LiveEngine::note_drop(std::uint64_t n) {
  records_dropped_.fetch_add(n, std::memory_order_relaxed);
  live_metrics().records_dropped.add(n);
  if (!drop_warned_.exchange(true, std::memory_order_relaxed)) {
    FJ_WARN("live") << "dropping records (engine not running, or worker "
                       "crashed and not yet respawned); see "
                       "LiveStats::records_dropped for the total";
  }
}

void LiveEngine::ring_doorbell(LaneSet& ls) {
  // Pairs with Worker::park(). The caller's work is already published
  // (ring writes and `pushed` bumps, or the control-queue push) before
  // this fence; park() arms `armed` (seq_cst RMW), fences, then
  // re-checks for work. Whichever fence is later in the single seq_cst
  // order makes the other side's prior write visible: either this load
  // observes the arm — and we notify under the bell mutex, whose
  // ordering covers the parker's final under-lock re-check — or the
  // parker's re-check observes the work we just published. Either way
  // no wakeup is lost; the 10ms wait backstop covers nothing but
  // paranoia.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (ls.armed.load(std::memory_order_relaxed) == 0) return;
  MutexLock lock(ls.bell_mutex);
  ls.bell.notify_all();
}

void LiveEngine::lane_push_batch(Side group, InstanceId id,
                                 std::size_t lane_idx,
                                 ProducerSlot::Stage& stage,
                                 std::vector<std::uint8_t>& failed) {
  const std::size_t total = stage.msgs.size();
  if (total == 0) return;
  LaneSet& ls = *lane_sets_[static_cast<int>(group)][id];
  DataLane& lane = *ls.lanes[lane_idx];
  std::size_t done = 0;
  std::uint32_t tries = 0;
  bool closed_logged = false;
  while (done < total) {
    // The open flag is cleared while the slot's worker is crashed:
    // checked every retry so backpressure on a dead worker fails fast
    // instead of spinning until respawn.
    if (!ls.open.load(std::memory_order_acquire)) {
      if (!closed_logged) {
        tel::flight_record(tel::FlightEvent::kLaneClosedDrop,
                           tel::flight_id(static_cast<int>(group), id),
                           lane_idx);
        closed_logged = true;
      }
      if (log_ != nullptr && !finished_.load(std::memory_order_acquire)) {
        // Ingest mode: the records are already durable in the log.
        // Wait for the respawn instead of dropping — the recovery pass
        // replays every logged delivery up to the end-offset it reads
        // before this slot reopens, and anything this push lands
        // afterwards is consumed live (or recognized as covered by the
        // fresh worker's watermark). This wait is what turns bounded
        // loss into records_dropped == 0.
        clk_->sleep_for(producer_jittered(std::chrono::microseconds(50)));
        continue;
      }
      break;  // drop the undelivered suffix
    }
    const std::size_t m =
        lane.ring.try_push_batch(stage.msgs.data() + done, total - done);
    if (m > 0) {
      // Bumped only after the records are visible in the ring, so a
      // watermark captured from `pushed` is always drainable.
      lane.pushed.fetch_add(m, std::memory_order_release);
      ring_doorbell(ls);
      done += m;
      tries = 0;
      continue;
    }
    if (lane.ring.closed()) break;  // engine finishing: drop the rest
    // Full: backpressure. The consumer always makes progress (barrier
    // drains consume data; control handlers are finite), so this wait
    // is bounded.
    if (++tries < 64) {
      std::this_thread::yield();
    } else {
      if (tries == 64) {  // once per blocking episode
        live_metrics().lane_backpressure.add(1);
        tel::flight_record(tel::FlightEvent::kLaneBlocked,
                           tel::flight_id(static_cast<int>(group), id),
                           lane_idx);
      }
      clk_->sleep_for(producer_jittered(std::chrono::microseconds(50)));
    }
  }
  if (done < total) {
    note_drop(total - done);  // one drop per undelivered delivery
    for (std::size_t i = done; i < total; ++i) failed[stage.idx[i]] = 1;
  }
  stage.msgs.clear();
  stage.idx.clear();
}

std::size_t LiveEngine::push_batch(const Record* recs, std::size_t n,
                                   int producer) {
  if (n == 0) return 0;
  if (!running()) {
    note_drop(2 * n);  // both deliveries of every record are lost
    return 0;
  }
  records_in_.fetch_add(n, std::memory_order_relaxed);
  live_metrics().records_in.add(n);
  live_metrics().batches.add(1);

  std::size_t lane_idx;
  Mutex* fallback = nullptr;
  if (producer < 0 ||
      producer >= static_cast<int>(cfg_.max_producers)) {
    // Unregistered callers share the last lane, serialized by a mutex
    // (the SPSC contract needs one producer at a time per lane).
    fallback = &fallback_mutex_;
    lane_idx = cfg_.max_producers;
  } else {
    lane_idx = static_cast<std::size_t>(producer);
  }
  MutexLockMaybe fallback_lock(fallback);
  ProducerSlot& slot = producer_slots_[lane_idx];

  // Seqlock critical section (odd = inside): brackets the routing-table
  // read and every lane push for this batch, so the monitor's grace
  // period after a routing publish knows when all old-table routing
  // decisions have fully landed in the lanes. seq_cst on the bracket
  // and the table load pairs with publish_routes(); see
  // wait_for_producers() for the ordering argument.
  slot.cs.fetch_add(1, std::memory_order_seq_cst);
  const RouteTable* rt = route_table_.load(std::memory_order_seq_cst);
  const std::size_t insts = cfg_.instances;
  std::size_t delivered = 0;

  // Sampling stamp via countdown (no per-record divide). The slot is
  // owned by one producer thread (or the fallback mutex), so the plain
  // field is safe.
  const auto stamp_maybe = [&]() {
    auto stamp = kUnsampled;
    if (slot.sample_countdown == 0) {
      stamp = std::chrono::steady_clock::now();  // fastjoin-lint: allow(protocol-clock) latency telemetry
      slot.sample_countdown = kLatencySampleEvery - 1;
    } else {
      --slot.sample_countdown;
    }
    return stamp;
  };
  // Stage a delivery for destination worker (group, dst); `i` is the
  // record's index within the current chunk, for the drop ledger.
  const auto stage_to = [&](Side group, InstanceId dst, const DataMsg& msg,
                            std::size_t i) {
    auto& st =
        slot.stages[static_cast<std::size_t>(group) * insts + dst];
    st.msgs.push_back(msg);
    st.idx.push_back(static_cast<std::uint32_t>(i));
  };
  // Push every staged destination run with one batched lane operation
  // each, then count the chunk's records whose two deliveries both
  // landed. Per-lane FIFO and per-partition offset order survive the
  // regrouping: within a chunk records are staged in index order, and
  // chunks flush before the next one stages.
  const auto flush = [&](std::size_t k) {
    slot.failed.assign(k, 0);
    for (std::size_t d = 0; d < slot.stages.size(); ++d) {
      auto& st = slot.stages[d];
      if (st.msgs.empty()) continue;
      lane_push_batch(static_cast<Side>(d / insts),
                      static_cast<InstanceId>(d % insts), lane_idx, st,
                      slot.failed);
    }
    std::size_t ok = 0;
    for (std::size_t i = 0; i < k; ++i) {
      ok += slot.failed[i] == 0 ? 1u : 0u;
    }
    return ok;
  };

  constexpr std::size_t kStage = 128;
  if (log_ != nullptr) {
    // Durable before delivered, chunked: stage each chunk's routing
    // decisions, persist them with ONE append_batch (one partition-lock
    // acquisition and one backend write instead of per-record), then
    // push each destination's run with one batched ring operation. All
    // of it stays inside this critical section, so the logged
    // destinations are exactly where the pushes below go.
    LogRecord staged[kStage];
    const auto part = static_cast<std::uint32_t>(lane_idx);
    for (std::size_t r0 = 0; r0 < n; r0 += kStage) {
      const std::size_t k = std::min(kStage, n - r0);
      for (std::size_t i = 0; i < k; ++i) {
        const Record& rec = recs[r0 + i];
        staged[i] = LogRecord{rec, route(*rt, rec.side, rec.key),
                              route(*rt, other_side(rec.side), rec.key),
                              0};
      }
      const std::uint64_t base = log_->append_batch(part, staged, k);
      for (std::size_t i = 0; i < k; ++i) {
        const Record& rec = recs[r0 + i];
        const DataMsg msg{rec, stamp_maybe(), part, base + i};
        stage_to(rec.side, staged[i].store_dst, msg, i);
        // Both deliveries are always attempted — a full store lane must
        // not suppress the probe half (ex-`ok &= ...` semantics).
        stage_to(other_side(rec.side), staged[i].probe_dst, msg, i);
      }
      delivered += flush(k);
    }
    slot.cs.fetch_add(1, std::memory_order_seq_cst);
    tel::flight_record(tel::FlightEvent::kBatchPushed, n, delivered);
    return delivered;
  }
  for (std::size_t r0 = 0; r0 < n; r0 += kStage) {
    const std::size_t k = std::min(kStage, n - r0);
    for (std::size_t i = 0; i < k; ++i) {
      const Record& rec = recs[r0 + i];
      const DataMsg msg{rec, stamp_maybe(), kNoIngestPartition, 0};
      stage_to(rec.side, route(*rt, rec.side, rec.key), msg, i);
      stage_to(other_side(rec.side),
               route(*rt, other_side(rec.side), rec.key), msg, i);
    }
    delivered += flush(k);
  }
  slot.cs.fetch_add(1, std::memory_order_seq_cst);
  tel::flight_record(tel::FlightEvent::kBatchPushed, n, delivered);
  return delivered;
}

template <typename Mutate>
void LiveEngine::publish_routes(Mutate&& mutate) {
  // The monitor thread is the sole mutator, so the unsynchronized read
  // of the current table is safe.
  const RouteTable* old = route_table_.load(std::memory_order_acquire);
  auto* next = new RouteTable(*old);
  mutate(*next);
  {
    // route_mutex_ serializes writers and pins worker slots; producers
    // never take it.
    MutexLock lock(route_mutex_);
    route_table_.store(next, std::memory_order_seq_cst);
  }
  wait_for_producers();
  delete old;
}

void LiveEngine::wait_for_producers() {
  // Ordering: a producer enters its critical section (seq_cst RMW),
  // then loads the table (seq_cst); we stored the new table (seq_cst),
  // then load each counter (seq_cst). If a producer read the *old*
  // table, its table-load precedes our store in the single total order
  // of seq_cst operations, hence its cs-enter precedes our counter
  // load: we observe it in-section (odd, and wait it out) or already
  // exited (its exit RMW release-sequences with our acquire re-reads).
  // Either way every old-table routing decision — including the lane
  // pushes and `pushed` bumps inside the section — happens-before this
  // function returns, which is what makes both old-table reclamation
  // and post-grace watermark capture safe.
  for (auto& slot : producer_slots_) {
    const std::uint64_t c0 = slot.cs.load(std::memory_order_seq_cst);
    if ((c0 & 1) == 0) continue;  // outside a critical section
    std::uint32_t tries = 0;
    while (slot.cs.load(std::memory_order_acquire) == c0) {
      // In-section producers finish quickly unless backpressured on a
      // full lane; workers keep draining, so this terminates.
      if (++tries < 64) {
        std::this_thread::yield();
      } else {
        // Ingest mode blocks a producer on a crashed worker's closed
        // slot *inside* its critical section (the record is already
        // durable; the producer waits for the respawn). The supervisor
        // is this very thread — so respawn crashed workers while
        // waiting the section out, or neither side could progress when
        // a crash lands between a supervision pass and a routing
        // publish.
        if (log_ != nullptr) supervise();
        clk_->sleep_for(jittered(std::chrono::microseconds(50)));
      }
    }
  }
}

std::vector<std::uint64_t> LiveEngine::capture_watermarks(
    Side group, InstanceId id) const {
  const LaneSet& ls = *lane_sets_[static_cast<int>(group)][id];
  std::vector<std::uint64_t> wm(ls.lanes.size());
  for (std::size_t i = 0; i < ls.lanes.size(); ++i) {
    wm[i] = ls.lanes[i]->pushed.load(std::memory_order_acquire);
  }
  return wm;
}

void LiveEngine::crash(Side group, InstanceId id) {
  if (!running()) return;
  const int g = static_cast<int>(group);
  // The routing lock pins the worker slot against a concurrent respawn.
  MutexLock lock(route_mutex_);
  if (id >= workers_[g].size()) return;
  Worker& w = *workers_[g][id];
  if (w.crashed()) return;
  // Close the slot's lanes first so producers backpressured on them
  // fail fast instead of waiting for a consumer that just died.
  lane_sets_[g][id]->open.store(false, std::memory_order_release);
  w.crash();
  crashes_.fetch_add(1, std::memory_order_relaxed);
  live_metrics().crashes.add(1);
  tel::flight_record(tel::FlightEvent::kCrash,
                     tel::flight_id(g, id));
  tel::TraceLog::global().instant("crash", "fault");
  FJ_WARN("live") << side_name(group) << "-" << id << " crashed";
}

void LiveEngine::chaos_hook(Side group, InstanceId src, InstanceId dst,
                            MigrationPhase phase) {
  if (!cfg_.chaos) return;
  std::string name = "chaos:";
  name += migration_phase_name(phase);
  tel::TraceLog::global().instant(name, "migration");
  cfg_.chaos(group, src, dst, phase);
}

std::chrono::nanoseconds LiveEngine::jittered(
    std::chrono::nanoseconds base) {
  if (base.count() <= 1) return base;
  const auto half = static_cast<std::uint64_t>(base.count()) / 2;
  return std::chrono::nanoseconds(
      half + backoff_rng_.next_below(half + 1));
}

template <typename T>
std::shared_ptr<T> LiveEngine::await_reply(
    std::future<std::shared_ptr<T>>& fut, Side group, InstanceId id) {
  const auto deadline = clk_->now() + cfg_.migration_timeout;
  auto slice = std::chrono::milliseconds(1);
  for (;;) {
    // Jittered bounded exponential backoff: each wait slice is uniform
    // in [slice/2, slice], so repeated supervised waits cannot fall
    // into lockstep with worker-side periodic activity (synchronized
    // retry storms). Under a VirtualClock the future is only polled
    // and the slice elapses on virtual time — no wall-clock sleep.
    const auto wait = jittered(slice);
    const bool real_wait = clk_ == &real_clock();
    const auto status =
        fut.wait_for(real_wait ? wait : std::chrono::nanoseconds{0});
    if (status == std::future_status::ready) {
      try {
        return fut.get();
      } catch (const std::future_error&) {
        return nullptr;  // promise died unfulfilled with the worker
      }
    }
    if (!real_wait) clk_->sleep_for(wait);
    // Keep supervising while blocked: a backlogged worker can take
    // seconds to reach our request, and crashed workers elsewhere must
    // not wait for it. If the awaited worker itself crashed, respawning
    // it destroys its queue — and with it our request's promise — so
    // the future becomes ready with future_error above and the caller
    // runs its abort path (against the already-respawned worker, which
    // accepts the abort batch).
    supervise();
    if (clk_->now() >= deadline) {
      FJ_WARN("live") << side_name(group) << "-" << id
                      << " unresponsive for migration reply after "
                      << cfg_.migration_timeout.count()
                      << " ms; declaring it dead";
      crash(group, id);
      return nullptr;
    }
    slice = std::min(slice * 2, std::chrono::milliseconds(64));
  }
}

bool LiveEngine::try_migrate(Side group) {
  const int g = static_cast<int>(group);
  std::vector<InstanceLoad> loads;
  loads.reserve(workers_[g].size());
  double heaviest = 0.0;
  for (auto& w : workers_[g]) {
    InstanceLoad l;
    l.stored = w->stored_count();
    l.queued = w->queue_length();
    // The "incoming rate" half of the paper's phi: probes processed
    // since the previous monitor tick. A respawned worker restarts its
    // counter from zero, hence the clamp.
    const std::uint64_t done = w->probes_done();
    const std::uint64_t prev = probe_marks_[g].size() > w->id()
                                   ? probe_marks_[g][w->id()]
                                   : 0;
    l.queued += done >= prev ? done - prev : done;
    loads.push_back(l);
    heaviest = std::max(heaviest, l.load());
  }
  for (std::size_t i = 0; i < workers_[g].size(); ++i) {
    probe_marks_[g].resize(workers_[g].size(), 0);
    probe_marks_[g][i] = workers_[g][i]->probes_done();
  }

  last_li_ = load_imbalance(loads, cfg_.planner.floor_eps);
  (group == Side::kR ? live_metrics().li_r : live_metrics().li_s)
      .set(last_li_);
  const auto pair = pick_migration_pair(loads, cfg_.planner);
  if (!pair || heaviest < cfg_.min_heaviest_load) return false;

  // No Worker references are held across the supervised waits below: a
  // respawn (inside await_reply) replaces the slot's unique_ptr, so
  // every access re-reads the slot. The monitor is the only slot
  // mutator, making lock-free re-reads safe on this thread.
  if (worker(group, pair->src).crashed() ||
      worker(group, pair->dst).crashed()) {
    return false;
  }

  // Parent span over the whole protocol; each phase below opens a
  // child span on the same (monitor) track so the trace shows the
  // protocol's timeline: extract -> hold -> hold_ack -> route_publish
  // -> transfer -> absorb (or abort).
  tel::ScopedSpan mig_span("migrate", "migration");
  mig_span.arg("side", g);
  mig_span.arg("src", pair->src);
  mig_span.arg("dst", pair->dst);
  tel::flight_record(tel::FlightEvent::kMigrationStart,
                     tel::flight_id(g, pair->src),
                     tel::flight_id(g, pair->dst));

  // The source's respawn generation at extraction time. supervise()
  // runs inside every supervised wait below, so the source slot can be
  // rebuilt while the monitor holds the extracted batch; the generation
  // is re-checked before the routing publish (see below).
  const std::uint64_t src_gen = slot_gen_[g][pair->src];

  // 1. Select + extract at the source (supervised wait). The barrier
  // makes the selection see every record routed here before this
  // moment, like the old shared-FIFO enqueue did.
  std::shared_ptr<MigrationBatch> batch;
  {
    tel::ScopedSpan span("extract", "migration");
    SelectExtractReq sel;
    sel.dst_load = loads[pair->dst];
    auto sel_future = sel.reply.get_future();
    if (!worker(group, pair->src)
             .send(std::move(sel),
                   capture_watermarks(group, pair->src))) {
      return false;  // crashed; nothing started
    }
    batch = await_reply(sel_future, group, pair->src);
    span.arg("keys", batch ? static_cast<std::int64_t>(
                                 batch->keys.size())
                           : -1);
  }
  if (!batch) {
    // Source died before/during extraction. Nothing was installed at
    // the target and routing is untouched; the extracted tuples (if
    // any) died with the source and restore from its checkpoint.
    ++migrations_aborted_;
    live_metrics().migrations_aborted.add(1);
    tel::flight_record(tel::FlightEvent::kMigrationAbort,
                       tel::flight_id(g, pair->src),
                       tel::flight_id(g, pair->dst));
    return false;
  }
  if (batch->keys.empty()) {
    TakeForwardReq tf;  // clears the (empty) forwarding set
    tf.extract_epoch = batch->extract_epoch;
    auto f = tf.reply.get_future();
    if (worker(group, pair->src).send(std::move(tf))) {
      await_reply(f, group, pair->src);
    }
    return false;
  }

  // Abort-delivery accounting, mirroring the checker's abort_to_src.
  // A failed send loses the batch when the log cannot re-drive it, and
  // loses any collected-forwarded records either way (their offsets sit
  // below the consumed watermarks, so replay suppresses them). A send
  // that lands on a slot REBUILT since the extraction arrives after the
  // fresh slot may already have served probes against the missing
  // bucket; without the log nothing re-drives those pairs, so the batch
  // is superset-charged to the ledger (the re-merge itself still lands
  // and seq-dedups).
  const bool can_replay = log_ != nullptr;
  auto send_abort = [&](bool replay_pending,
                        std::shared_ptr<std::vector<Record>> fwd) {
    if (!worker(group, pair->src)
             .send(AbortMigrationReq{batch, replay_pending, fwd})) {
      if (!can_replay) {
        buffered_lost_ += batch->stored.size() +
                          (replay_pending ? batch->pending.size() : 0);
      }
      if (fwd) buffered_lost_ += fwd->size();
    } else if (!can_replay && slot_gen_[g][pair->src] != src_gen) {
      buffered_lost_ += batch->stored.size();
    }
  };

  chaos_hook(group, pair->src, pair->dst, MigrationPhase::kSelected);

  // 2. Target starts holding the migrating keys — *acknowledged*
  // before the routing publish. Control and data ride different
  // channels now, so "hold installed before any rerouted record" must
  // be enforced explicitly rather than by queue order.
  bool hold_sent;
  std::future<std::shared_ptr<HoldAck>> hold_future;
  {
    tel::ScopedSpan span("hold", "migration");
    span.arg("keys", static_cast<std::int64_t>(batch->keys.size()));
    HoldReq hold;
    hold.keys = batch->keys;
    hold_future = hold.reply.get_future();
    // Record the in-flight hold BEFORE the send: the target can crash
    // and be respawned (inside await_reply's supervise()) at any point
    // from here until the Release/Abort, and its rebuild must
    // re-install the hold. Cleared on every exit path below.
    inflight_hold_ = {true, g, pair->dst, batch->keys};
    hold_sent = worker(group, pair->dst).send(std::move(hold));
  }
  std::shared_ptr<HoldAck> ack;
  {
    tel::ScopedSpan span("hold_ack", "migration");
    ack = hold_sent ? await_reply(hold_future, group, pair->dst)
                    : nullptr;
  }
  if (!ack) {
    // Target crashed (or went unresponsive and was declared dead)
    // before the hold was installed: full rollback at the source.
    // Routing was never changed, so the source re-merges the batch and
    // replays pending plus its forward buffer locally. If the target
    // was already respawned inside the wait, its rebuild re-installed
    // the hold (the HoldReq itself may have died in the dead queue) —
    // release it with an empty buffer; on a worker without the hold
    // this is a no-op.
    tel::ScopedSpan span("abort", "migration");
    inflight_hold_.active = false;
    worker(group, pair->dst)
        .send(ReleaseReq{std::make_shared<std::vector<Record>>()});
    send_abort(/*replay_pending=*/true, nullptr);
    ++migrations_aborted_;
    live_metrics().migrations_aborted.add(1);
    tel::flight_record(tel::FlightEvent::kMigrationAbort,
                       tel::flight_id(g, pair->src),
                       tel::flight_id(g, pair->dst));
    FJ_WARN("live") << "aborted migration " << pair->src << "->"
                    << pair->dst << " (target died before Hold)";
    return false;
  }

  chaos_hook(group, pair->src, pair->dst, MigrationPhase::kHeld);

  // Last check before the point of no return: if the source slot was
  // rebuilt while the monitor waited (it crashed after extracting and
  // supervise() respawned it inside await_reply), the fresh source has
  // already regenerated the batch's tuples from checkpoint + log
  // replay — the log entries still carry its id and the keys still
  // route there. Publishing would fork the keys' history between the
  // monitor's batch copy and the restored copies: probes served at the
  // fresh source in the meantime saw a store the target will never
  // have. Abort instead: release the target's hold and hand the batch
  // back to the fresh source, whose merge seq-dedups against the
  // replay-restored tuples.
  if (slot_gen_[g][pair->src] != src_gen) {
    tel::ScopedSpan span("abort", "migration");
    inflight_hold_.active = false;
    worker(group, pair->dst)
        .send(ReleaseReq{std::make_shared<std::vector<Record>>()});
    send_abort(/*replay_pending=*/true, nullptr);
    ++migrations_aborted_;
    live_metrics().migrations_aborted.add(1);
    tel::flight_record(tel::FlightEvent::kMigrationAbort,
                       tel::flight_id(g, pair->src),
                       tel::flight_id(g, pair->dst));
    FJ_WARN("live") << "aborted migration " << pair->src << "->"
                    << pair->dst
                    << " (source slot rebuilt before RoutePublish)";
    return false;
  }

  // 3. Routing update: copy-on-write publish of a new table, then a
  // producer grace period, remembering the prior override state for
  // rollback.
  std::vector<std::pair<KeyId, std::optional<InstanceId>>> prev;
  prev.reserve(batch->keys.size());
  {
    tel::ScopedSpan span("route_publish", "migration");
    span.arg("keys", static_cast<std::int64_t>(batch->keys.size()));
    publish_routes([&](RouteTable& t) {
      auto& ov = t.overrides[g];
      for (KeyId k : batch->keys) {
        const auto it = ov.find(k);
        prev.emplace_back(
            k, it == ov.end() ? std::nullopt
                              : std::optional<InstanceId>(it->second));
        if (instance_of(k, cfg_.instances) == pair->dst) {
          ov.erase(k);
        } else {
          ov[k] = pair->dst;
        }
      }
    });
    tel::flight_record(tel::FlightEvent::kCtrlRoutePublish,
                       tel::flight_id(g, pair->dst),
                       batch->keys.size());
  }

  chaos_hook(group, pair->src, pair->dst, MigrationPhase::kRouted);

  // 4. Collect what the source diverted meanwhile (supervised wait).
  // The watermarks are captured *after* the publish + grace period, so
  // draining past them forwards every record that was routed to the
  // source under the old table before the forward buffer is returned.
  std::shared_ptr<std::vector<Record>> forwarded;
  {
    tel::ScopedSpan span("transfer", "migration");
    TakeForwardReq tf;
    tf.extract_epoch = batch->extract_epoch;
    auto fwd_future = tf.reply.get_future();
    if (worker(group, pair->src)
            .send(std::move(tf),
                  capture_watermarks(group, pair->src))) {
      forwarded = await_reply(fwd_future, group, pair->src);
    }
    span.arg("forwarded",
             forwarded ? static_cast<std::int64_t>(forwarded->size())
                       : -1);
  }
  if (!forwarded) {
    // Source died after the routing update: roll forward. The batch is
    // safe in monitor memory; only the forward buffer died with the
    // source (loss bounded by the migration window).
    forwarded = std::make_shared<std::vector<Record>>();
    FJ_WARN("live") << "migration " << pair->src << "->" << pair->dst
                    << ": source died before TakeForward; rolling "
                       "forward with an empty forward buffer";
  }

  chaos_hook(group, pair->src, pair->dst, MigrationPhase::kForwarded);

  // Completion barrier (the checker's enabled() gate on kAbsorb /
  // kRelease): never commit while the source slot is down. Its recovery
  // replay retargets records for the migrated keys to the target, and
  // respawning it HERE makes those retargets enqueue behind the hold —
  // they park in the target's held buffer and drain in the
  // Release-driven flush — instead of racing the commit after the hold
  // is gone.
  if (worker(group, pair->src).crashed()) supervise();

  // 5. Target merges and replays, preserving per-key order.
  bool absorb_ok, release_ok;
  {
    tel::ScopedSpan span("absorb", "migration");
    span.arg("tuples", static_cast<std::int64_t>(batch->stored.size()));
    absorb_ok = worker(group, pair->dst).send(AbsorbReq{batch});
    release_ok =
        absorb_ok && worker(group, pair->dst).send(ReleaseReq{forwarded});
  }
  if (!absorb_ok || !release_ok) {
    tel::ScopedSpan span("abort", "migration");
    // The target is dead and the routing is about to roll back, so its
    // eventual respawn must NOT re-install the hold: no rerouted
    // records will arrive and no Release would ever clear it.
    inflight_hold_.active = false;
    // Target crashed mid-absorb: roll back, in the order the checker
    // proved out. Routes first, so everything that happens next sees
    // the batch's keys back at the source. Then respawn the dead target
    // NOW — its recovery replay retargets the batch-keys' records to
    // the source, where the still-installed forwarding set diverts them
    // into the forward buffer. The abort goes out last and flushes that
    // buffer after the re-merge, so retargeted probes see the restored
    // bucket. (Any order of data vs the abort at the source is safe for
    // the same reason: pre-abort arrivals divert, post-abort arrivals
    // meet the re-merged store. When the absorb was already enqueued
    // the target may have served some pending records, so they are not
    // replayed; re-inserting *stored* tuples is always safe — they emit
    // nothing by themselves and re-merges seq-dedup.)
    publish_routes([&](RouteTable& t) {
      auto& ov = t.overrides[g];
      for (const auto& [k, p] : prev) {
        if (p) {
          ov[k] = *p;
        } else {
          ov.erase(k);
        }
      }
    });
    supervise();
    send_abort(/*replay_pending=*/!absorb_ok, forwarded);
    ++migrations_aborted_;
    live_metrics().migrations_aborted.add(1);
    tel::flight_record(tel::FlightEvent::kMigrationAbort,
                       tel::flight_id(g, pair->src),
                       tel::flight_id(g, pair->dst));
    FJ_WARN("live") << "aborted migration " << pair->src << "->"
                    << pair->dst << " (target died during Absorb); "
                       "routing rolled back";
    return false;
  }
  // Absorb + Release are enqueued: if the target dies before serving
  // them, the dead-queue drain ledgers their payloads — the hold no
  // longer needs re-installing on a rebuild.
  inflight_hold_.active = false;
  tuples_migrated_.fetch_add(batch->stored.size() + forwarded->size(),
                             std::memory_order_relaxed);
  ++migrations_;
  live_metrics().migrations.add(1);
  tel::flight_record(tel::FlightEvent::kMigrationDone,
                     tel::flight_id(g, pair->src),
                     batch->stored.size() + forwarded->size());
  return true;
}

void LiveEngine::broadcast_checkpoint() {
  tel::ScopedSpan span("checkpoint", "fault");
  for (int g = 0; g < 2; ++g) {
    for (auto& w : workers_[g]) w->send(CheckpointReq{});
  }
  ++checkpoints_;
  live_metrics().checkpoints.add(1);
}

void LiveEngine::supervise() {
  for (int g = 0; g < 2; ++g) {
    for (InstanceId i = 0; i < workers_[g].size(); ++i) {
      if (workers_[g][i]->crashed()) respawn(static_cast<Side>(g), i);
    }
  }
}

void LiveEngine::respawn(Side group, InstanceId id) {
  const int g = static_cast<int>(group);
  tel::ScopedSpan span("respawn", "fault");
  span.arg("side", g);
  span.arg("instance", id);
  const bool replaying = log_ != nullptr;
  Worker* old = workers_[g][id].get();
  old->stop_and_join();
  // Fold the dead worker's counters into the retired aggregate so the
  // final stats still cover its lifetime.
  retired_.results += old->results();
  retired_.probes += old->probes_done();
  retired_.stores += old->stores_done();
  retired_.evicted += old->evicted();
  retired_.latency.merge(old->latency_hist());
  const auto crashed_at = old->crashed_at();
  const auto ckpt = old->latest_checkpoint();
  // The dead worker's consumed watermarks: deliveries below them were
  // processed before the crash, so replay must not re-emit them.
  std::vector<std::uint64_t> marks;
  if (replaying) marks = old->consumed_marks();
  // Loss ledger for what the log cannot replay: records inside
  // migration machinery (forward/held buffers, absorb/release payloads
  // stuck in the control queue) died with the worker.
  buffered_lost_ += old->buffered_count();
  {
    std::uint64_t dead_buffered = 0;
    std::vector<Record> salvaged;
    old->drain_dead_queue(dead_buffered, salvaged);
    buffered_lost_ += dead_buffered;
    if (!salvaged.empty()) {
      if (replaying) {
        // Double fault: this worker died while a dead peer's replay
        // deliveries were still queued here. Re-enter replay cleanly —
        // re-route each delivery to the key's *current* owner (routing
        // may have rolled forward while it sat in the dead queue) and
        // either send it on or park it in that slot's retarget backlog
        // for its own respawn, instead of leaking the deliveries (or
        // leaving a wedged recovery for the migration_timeout
        // deadlock-breaker to clean up).
        std::vector<std::vector<Record>> by_owner(workers_[g].size());
        for (const Record& rec : salvaged) {
          by_owner[route_current(group, rec.key)].push_back(rec);
        }
        for (InstanceId t = 0; t < by_owner.size(); ++t) {
          auto& batch = by_owner[t];
          if (batch.empty()) continue;
          if (t != id && !workers_[g][t]->crashed()) {
            ReplayReq rr;
            rr.records = batch;  // copy: re-parked on a lost race
            if (workers_[g][t]->send(std::move(rr))) continue;
          }
          // This very slot (flushed to the fresh worker below), a dead
          // target, or a send that lost the race with a fresh crash.
          auto& backlog = retarget_backlog_[g][t];
          backlog.insert(backlog.end(),
                         std::make_move_iterator(batch.begin()),
                         std::make_move_iterator(batch.end()));
        }
      } else {
        buffered_lost_ += salvaged.size();
      }
    }
  }

  // Drain the lane residue from the crash window (acting as the lanes'
  // temporary consumer — the dead worker's thread is joined). Keeping
  // `popped` in step with the discarded records preserves the
  // watermark-barrier arithmetic across the respawn. With replay
  // enabled the residue is not a loss: every residue record was
  // appended to the log before it was laned, sits at an offset below
  // the end-offset the replay pass reads, and is at-or-above the dead
  // worker's watermark (it was never popped) — so the replay
  // re-processes it.
  LaneSet& ls = *lane_sets_[g][id];
  std::uint64_t residue = 0;
  for (auto& lane : ls.lanes) {
    std::uint64_t k = 0;
    while (lane->ring.try_pop()) ++k;
    if (k > 0) {
      lane->popped.fetch_add(k, std::memory_order_release);
      residue += k;
    }
  }
  if (residue > 0 && !replaying) note_drop(residue);

  const std::uint32_t ingest_parts =
      log_ != nullptr ? log_->partitions() : 0;
  auto fresh = std::make_unique<Worker>(*this, id, group,
                                        cfg_.window_subwindows, ls,
                                        ingest_parts);
  slot_gen_[g][id]++;
  if (inflight_hold_.active && inflight_hold_.group == g &&
      inflight_hold_.dst == id) {
    // This slot is the target of an in-flight migration: the hold died
    // with the old worker, but the routing table may already (or soon)
    // divert the batch's keys here while the Absorb is still on its
    // way. Re-install the hold before replay and before the lanes
    // reopen so those probes park in the held buffer instead of being
    // served against a store that does not have the batch yet.
    fresh->preinstall_hold(inflight_hold_.keys);
    FJ_INFO("live") << side_name(group) << "-" << id
                    << " respawned mid-migration; hold re-installed on "
                    << inflight_hold_.keys.size() << " keys";
  }
  std::uint64_t restored = 0;
  {
    // The routing lock both gives a stable routing view for the restore
    // filter and pins the slot against a concurrent crash().
    MutexLock lock(route_mutex_);
    if (ckpt) {
      for (const auto& [key, st] : ckpt->tuples) {
        // Keys that migrated away since the snapshot belong to another
        // instance now; resurrecting them here would leave unreachable
        // stale copies.
        if (route_current(group, key) != id) continue;
        fresh->restore_tuple(key, st);
        ++restored;
      }
      fresh->seed_checkpoint(ckpt);
    }
  }
  if (replaying) {
    // Replay on top of the checkpoint state, before the worker starts
    // and before its lanes reopen: blocked producers are still parked
    // on the closed slot, so the log's end-offsets read inside are a
    // stable upper bound on what the lanes will NOT deliver again.
    std::vector<std::uint64_t> from(ingest_parts, 0);
    if (ckpt && ckpt->offsets.size() == ingest_parts) {
      from = ckpt->offsets;
    }
    if (marks.size() != ingest_parts) marks.assign(ingest_parts, 0);
    replay_worker(group, id, *fresh, from, marks);
    // Crash-after-absorb accounting (the checker model's respawn
    // ledger): a tuple migrated INTO this slot is logged under its
    // ORIGINAL owner's id, so the replay pass above never scans it, and
    // the checkpoint image is its only other durable copy. Whatever the
    // rebuild did not resurrect is genuinely gone — the source is alive
    // (its log is not being replayed) and exactly-once replay cannot
    // re-read another worker's partitions. Charge it to the ledger so
    // the loss is bounded-and-explained, not silent; the window is
    // bounded by the checkpoint cadence.
    std::uint64_t absorbed_lost = 0;
    for (KeyId k : old->store().keys()) {
      if (route_current(group, k) != id) continue;
      if (const auto* bucket = old->store().find(k)) {
        for (const auto& st : *bucket) {
          if (!fresh->store().contains(k, st.seq)) ++absorbed_lost;
        }
      }
    }
    if (absorbed_lost > 0) {
      buffered_lost_ += absorbed_lost;
      FJ_WARN("live") << side_name(group) << "-" << id << ": "
                      << absorbed_lost
                      << " absorbed tuple(s) unrecoverable by replay "
                         "(migrated in after the last checkpoint)";
    }
  }
  {
    MutexLock lock(route_mutex_);
    workers_[g][id] = std::move(fresh);  // destroys the old worker
  }
  workers_[g][id]->start();
  ls.open.store(true, std::memory_order_release);
  if (probe_marks_[g].size() > id) probe_marks_[g][id] = 0;
  // Deliver replay records other recoveries parked for this slot while
  // it was down.
  if (replaying && !retarget_backlog_[g][id].empty()) {
    ReplayReq rr;
    rr.records = retarget_backlog_[g][id];  // copy: kept parked on a
                                            // lost race
    if (workers_[g][id]->send(std::move(rr))) {
      retarget_backlog_[g][id].clear();
    }
    // else: crashed again inside the send window; the backlog stays
    // parked and the next respawn re-enters replay with it.
  }
  ++recoveries_;
  tuples_restored_ += restored;
  recovery_time_total_ += std::chrono::steady_clock::now() - crashed_at;  // fastjoin-lint: allow(protocol-clock) recovery-time telemetry
  live_metrics().recoveries.add(1);
  span.arg("restored", static_cast<std::int64_t>(restored));
  tel::flight_record(tel::FlightEvent::kRespawn,
                     tel::flight_id(g, id), restored);
  FJ_INFO("live") << side_name(group) << "-" << id << " respawned, "
                  << restored << " tuples restored from checkpoint";
}

void LiveEngine::replay_worker(Side group, InstanceId id, Worker& fresh,
                               const std::vector<std::uint64_t>& from_offsets,
                               const std::vector<std::uint64_t>& marks) {
  const int g = static_cast<int>(group);
  tel::ScopedSpan span("replay", "fault");
  span.arg("side", g);
  span.arg("instance", id);
  const std::uint64_t replayed_before = records_replayed_;
  const std::uint32_t nparts = log_->partitions();
  // Per-partition read state: a chunked head buffer over [from, end).
  // `end` is read once, up front — the slot's lanes are still closed, so
  // every record appended after this point is delivered live, not
  // replayed, and nothing is covered twice.
  struct Head {
    std::vector<LogRecord> buf;
    std::size_t idx = 0;
    std::uint64_t next = 0;  // next offset to fetch
    std::uint64_t end = 0;   // exclusive replay bound
  };
  std::vector<Head> heads(nparts);
  for (std::uint32_t p = 0; p < nparts; ++p) {
    heads[p].next = std::max(from_offsets[p], log_->start_offset(p));
    heads[p].end = log_->end_offset(p);
  }
  constexpr std::size_t kChunk = 256;
  auto refill = [&](std::uint32_t p) -> bool {
    Head& h = heads[p];
    if (h.idx < h.buf.size()) return true;
    if (h.next >= h.end) return false;
    h.buf.clear();
    h.idx = 0;
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(kChunk, h.end - h.next));
    log_->read(p, h.next, want, h.buf);
    if (h.buf.empty()) return false;
    h.next = h.buf.back().offset + 1;
    return true;
  };
  // Retargeted deliveries, grouped by current owner and flushed in
  // batches so a long replay never builds one giant message.
  std::vector<std::vector<Record>> retarget(workers_[g].size());
  auto flush_retarget = [&](InstanceId tid) {
    auto& pending = retarget[tid];
    if (pending.empty()) return;
    Worker& tw = *workers_[g][tid];
    if (!tw.crashed()) {
      ReplayReq rr;
      rr.records = pending;  // copy: re-parked if the send loses the
                             // race with a fresh crash
      if (tw.send(std::move(rr))) {
        pending.clear();
        return;
      }
    }
    // The target is down too (or died inside the send window); park
    // the batch for its own respawn, which re-enters replay with it.
    auto& backlog = retarget_backlog_[g][tid];
    backlog.insert(backlog.end(),
                   std::make_move_iterator(pending.begin()),
                   std::make_move_iterator(pending.end()));
    pending.clear();
  };
  // The routing lock gives a stable view for the retarget decisions; the
  // monitor thread (migration orchestrator) is the caller, so routes
  // could not move under us anyway, but crash() can race.
  MutexLock lock(route_mutex_);
  for (;;) {
    // K-way merge: pick the globally next record in the `precedes` total
    // order so replay preserves the store/probe interleaving the live
    // run would have produced.
    std::uint32_t best = nparts;
    for (std::uint32_t p = 0; p < nparts; ++p) {
      if (!refill(p)) continue;
      if (best == nparts ||
          precedes(heads[p].buf[heads[p].idx].rec,
                   heads[best].buf[heads[best].idx].rec)) {
        best = p;
      }
    }
    if (best == nparts) break;
    Head& h = heads[best];
    const LogRecord& lr = h.buf[h.idx++];
    const Record& rec = lr.rec;
    // Deliveries below the dead worker's consumed watermark were fully
    // processed before the crash; the fresh band (at or above it) never
    // reached the worker and must be re-driven.
    const bool fresh_band = lr.offset >= marks[best];
    if (rec.side == group && lr.store_dst == id) {
      const InstanceId cur = route_current(group, rec.key);
      if (cur == id) {
        // Seq-dedup inside replay_store protects against the checkpoint
        // already holding the consumed-band copies.
        fresh.replay_store(rec, fresh_band);
        ++records_replayed_;
      } else {
        // The key migrated away. Retarget regardless of the consumed
        // band: a fresh-band delivery never reached this worker, and a
        // consumed-band stored copy USUALLY travelled in the migration
        // batch — but it may instead have died in the dead worker's
        // forward buffer (diverted after the extraction, collected by
        // no one). Re-merging at the current owner is idempotent
        // (ReplayReq store deliveries seq-dedup), so the at-least-once
        // retarget is safe; probes stay band-gated below because
        // re-serving one would mint duplicate emissions.
        retarget[cur].push_back(rec);
        ++replay_retargeted_;
        ++records_replayed_;
        if (retarget[cur].size() >= 1024) flush_retarget(cur);
      }
    } else if (rec.side != group && lr.probe_dst == id) {
      if (!fresh_band) {
        // Already probed — its matches were emitted before the crash;
        // re-probing would mint duplicate results.
        ++replay_suppressed_;
      } else {
        const InstanceId cur = route_current(group, rec.key);
        if (cur == id) {
          fresh.redeliver(rec);
          ++records_replayed_;
        } else {
          retarget[cur].push_back(rec);
          ++replay_retargeted_;
          ++records_replayed_;
          if (retarget[cur].size() >= 1024) flush_retarget(cur);
        }
      }
    }
  }
  for (InstanceId t = 0; t < retarget.size(); ++t) flush_retarget(t);
  // Start the fresh worker's watermarks at the replay bound: the live
  // copies of everything below it (lane residue, blocked producers'
  // in-flight batches) must be skipped when they arrive.
  for (std::uint32_t p = 0; p < nparts; ++p) {
    fresh.set_consumed(p, heads[p].end);
  }
  const std::uint64_t replayed = records_replayed_ - replayed_before;
  span.arg("replayed", static_cast<std::int64_t>(replayed));
  tel::flight_record(tel::FlightEvent::kReplay,
                     tel::flight_id(g, id), replayed);
}

void LiveEngine::truncate_ingest() {
  if (log_ == nullptr) return;
  const std::uint32_t nparts = log_->partitions();
  std::vector<std::uint64_t> safe(nparts,
                                  std::numeric_limits<std::uint64_t>::max());
  for (int g = 0; g < 2; ++g) {
    for (auto& w : workers_[g]) {
      const auto ckpt = w->latest_checkpoint();
      // Until every worker has checkpointed consumed offsets, nothing is
      // provably replay-free; keep the whole log.
      if (!ckpt || ckpt->offsets.size() != nparts) return;
      for (std::uint32_t p = 0; p < nparts; ++p) {
        safe[p] = std::min(safe[p], ckpt->offsets[p]);
      }
    }
  }
  // Records below every worker's checkpointed watermark can never be
  // needed again: any future replay starts at the crashed worker's own
  // checkpoint offsets, which are at or above this floor.
  for (std::uint32_t p = 0; p < nparts; ++p) {
    log_truncated_ += log_->truncate_before(p, safe[p]);
  }
}

void LiveEngine::monitor_loop() {
  tel::set_thread_label("monitor");
  auto next_window = clk_->now() + cfg_.subwindow_len;
  auto next_checkpoint = clk_->now() + cfg_.checkpoint_period;
  while (!stopping_.load(std::memory_order_relaxed)) {
    // One monitor period on the injected clock, in slices up to a
    // deadline: oversleeping a slice does not stretch the tick, a
    // virtual clock still advances by the whole period per tick, and
    // finish() wakes the monitor within one slice.
    const auto deadline = clk_->now() + cfg_.monitor_period;
    for (auto now = clk_->now();
         now < deadline && !stopping_.load(std::memory_order_relaxed);
         now = clk_->now()) {
      clk_->sleep_for(
          std::min<std::chrono::nanoseconds>(deadline - now, kMonitorSlice));
    }
    if (stopping_.load(std::memory_order_relaxed)) break;
    supervise();
    // Periodic aggregation: every registered metric's current value is
    // appended to its time series on the monitor's cadence.
    tel::MetricRegistry::global().sample();
    if (cfg_.balancer) {
      try_migrate(Side::kR);
      try_migrate(Side::kS);
    }
    const auto now = clk_->now();
    if (cfg_.window_subwindows > 0 && now >= next_window) {
      next_window += cfg_.subwindow_len;
      for (int g = 0; g < 2; ++g) {
        for (auto& w : workers_[g]) w->send(AdvanceWindowReq{});
      }
    }
    if (cfg_.checkpoint_period.count() > 0 && now >= next_checkpoint) {
      next_checkpoint += cfg_.checkpoint_period;
      // Retention first, against the previous round's checkpoints — one
      // round conservative, but needs no ack tracking.
      truncate_ingest();
      broadcast_checkpoint();
    }
  }
}

LiveStats LiveEngine::finish() {
  if (!started_.load(std::memory_order_acquire) ||
      finished_.exchange(true, std::memory_order_acq_rel)) {
    FJ_ERROR("live") << "finish() without a running engine (call start() "
                        "first; finish() only once)";
    return {};
  }
  stopping_.store(true, std::memory_order_release);
  if (monitor_thread_.joinable()) monitor_thread_.join();

  // With ingest enabled, recover any worker that died after the
  // monitor's last supervision pass so its log partition range gets
  // replayed and its lane residue is not silently discarded.
  if (log_ != nullptr) supervise();

  // Poison every data lane: producers fail from here on, workers drain
  // what is left and then see closed-and-empty. Ring each doorbell so a
  // parked worker re-evaluates closed-and-empty now instead of after
  // the 10ms backstop.
  for (int g = 0; g < 2; ++g) {
    for (auto& ls : lane_sets_[g]) {
      for (auto& lane : ls->lanes) lane->ring.close();
      ring_doorbell(*ls);
    }
  }

  LiveStats stats;
  LogHistogram merged(1.0, 1e12, 16);
  stats.results = retired_.results;
  stats.probes = retired_.probes;
  stats.stores = retired_.stores;
  stats.evicted = retired_.evicted;
  merged.merge(retired_.latency);
  for (int g = 0; g < 2; ++g) {
    for (auto& w : workers_[g]) {
      w->stop_and_join();
      stats.results += w->results();
      stats.probes += w->probes_done();
      stats.stores += w->stores_done();
      stats.evicted += w->evicted();
      merged.merge(w->latency_hist());
    }
  }
  stats.records_in = records_in_.load(std::memory_order_relaxed);
  stats.records_dropped = records_dropped_.load(std::memory_order_relaxed);
  stats.migrations = migrations_;
  stats.migrations_aborted = migrations_aborted_;
  stats.tuples_migrated = tuples_migrated_.load(std::memory_order_relaxed);
  stats.crashes = crashes_.load(std::memory_order_relaxed);
  stats.recoveries = recoveries_;
  stats.tuples_restored = tuples_restored_;
  stats.checkpoints = checkpoints_;
  if (log_ != nullptr) {
    const StreamLogStats log_stats = log_->stats();
    stats.ingest_appended = log_stats.appended_records;
    stats.ingest_backpressure = log_stats.backpressure_hits;
  }
  stats.log_truncated = log_truncated_;
  stats.records_replayed = records_replayed_;
  stats.replay_suppressed = replay_suppressed_;
  stats.replay_retargeted = replay_retargeted_;
  stats.buffered_lost = buffered_lost_;
  stats.mean_recovery_ms =
      recoveries_ > 0
          ? std::chrono::duration<double, std::milli>(recovery_time_total_)
                    .count() /
                static_cast<double>(recoveries_)
          : 0.0;
  stats.mean_latency_us = merged.mean() / 1e3;
  stats.p50_latency_us = merged.value_at_percentile(50) / 1e3;
  stats.p99_latency_us = merged.value_at_percentile(99) / 1e3;
  stats.p999_latency_us = merged.value_at_percentile(99.9) / 1e3;
  stats.latency_samples = merged.count();
  stats.final_li = last_li_;
  return stats;
}

}  // namespace fastjoin
