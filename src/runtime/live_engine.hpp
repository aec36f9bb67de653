// LiveEngine: the join biclique on real threads.
//
// Where SimJoinEngine executes the system in virtual time for
// reproducible experiments, LiveEngine runs the same logic — join
// instances, key-hash routing with a migration routing table, GreedyFit
// balancing, the hold/forward migration protocol — on OS threads. It is
// the deployment-shaped embodiment of the library and is what the
// examples drive.
//
// Data plane vs control plane (see docs/architecture.md):
//  * The hot path is lock-free. Routing reads go through an immutable
//    RouteTable snapshot published via an atomic pointer (copy-on-write
//    by the monitor under route_mutex_; producers never lock). Records
//    travel over per-(producer, worker) SpscRing lanes; producers
//    register with register_producer() for a private lane set, and a
//    mutex-serialized fallback lane covers unregistered callers.
//    push_batch() amortizes the snapshot load and counters over a whole
//    batch, and latency timestamps are sampled 1-in-N instead of taken
//    per record.
//  * Control messages (migration steps, checkpoints, window ticks) use
//    a per-worker BoundedQueue. Because control no longer shares a FIFO
//    with data, every control message that needs the old "all data
//    before signal X" queue-order guarantee carries per-lane sequence
//    *watermarks*: the worker drains each lane past the stamped
//    watermark before acting. Producers bracket route-read + enqueue in
//    a seqlock-style critical section; after publishing a new routing
//    table the monitor waits for a grace period (every producer's
//    critical section observed outside or re-entered), so watermarks
//    captured afterwards cover every record routed with the old table.
//
// Concurrency design (and why migration stays exactly-once):
//  * push() routes against the current snapshot and enqueues to the
//    destination lanes inside one producer critical section.
//  * Workers only ever touch their own state; every cross-worker action
//    is a control message, ordered against data by lane watermarks.
//  * The monitor thread orchestrates migrations:
//      1. SelectExtract at the source (stamped with the source's lane
//         watermarks, so selection sees everything routed before it;
//         the source then starts diverting selected keys to its
//         forward buffer);
//      2. Hold at the target — *acknowledged* before step 3, so the
//         hold is active before any record can be routed to the target
//         under the new table;
//      3. routing-table publish (copy-on-write under route_mutex_)
//         followed by a producer grace period;
//      4. TakeForward at the source, stamped with watermarks captured
//         after the grace period — every record routed to the source
//         under the old table is drained (hence forwarded) before the
//         forward buffer is returned;
//      5. Absorb(batch) then Release(forwarded) at the target; records
//         routed to the target after step 3 were held since step 2 and
//         replay after the forwarded ones, preserving per-key order.
//
// Fault tolerance (see docs/migration_protocol.md, "Failure
// interactions"):
//  * crash(side, id) kills a worker: its lanes stop accepting records
//    (subsequent pushes are dropped and counted), its thread exits
//    discarding whatever was queued, its store is lost.
//  * The monitor doubles as a supervisor: each tick it respawns crashed
//    workers, restoring their store from the latest checkpoint and
//    draining (dropping, counting) lane residue left from the crash
//    window before the fresh worker starts.
//  * With LiveConfig::ingest enabled, every published record is first
//    appended — together with its publish-time routing decision — to a
//    StreamLog partition (one per producer lane). Worker checkpoints
//    then carry per-partition consumed offsets, and a respawn *replays*
//    the crashed worker's deliveries from those offsets instead of
//    dropping the crash window: deliveries the dead worker had already
//    processed are suppressed (per-partition consumed watermarks), the
//    rest are re-processed or redirected to the instance that now owns
//    the key. Chaos runs report records_dropped == 0 in this mode; see
//    docs/migration_protocol.md, "Offset replay".
//  * Migrations are supervised: every wait on a worker reply uses
//    bounded exponential backoff up to migration_timeout; an
//    unresponsive worker is declared dead (force-crashed) and the
//    migration aborts — routing overrides roll back, the target
//    releases held keys, and the surviving source replays its forward
//    buffer locally, so joins are never duplicated by an abort.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/clock.hpp"
#include "common/hash.hpp"
#include "common/histogram.hpp"
#include "common/mutex.hpp"
#include "common/queues.hpp"
#include "common/rng.hpp"
#include "common/thread_safety.hpp"
#include "core/planner.hpp"
#include "engine/join_store.hpp"
#include "engine/tuple.hpp"
#include "ingest/stream_log.hpp"
#include "runtime/placement.hpp"

namespace fastjoin {

/// DataMsg::partition value when the record was not logged (ingest
/// disabled).
inline constexpr std::uint32_t kNoIngestPartition = 0xffffffffu;

/// Every Nth record per producer carries a latency timestamp; the
/// LiveStats latency figures cover that sampled population.
inline constexpr std::uint32_t kLatencySampleEvery = 64;

/// Points in the live migration protocol where the chaos hook fires
/// (monitor thread). Tests crash workers here to exercise every abort
/// path.
enum class MigrationPhase : std::uint8_t {
  kSelected,   ///< batch extracted at the source, before Hold
  kHeld,       ///< Hold acknowledged by the target, before routing update
  kRouted,     ///< routing table updated, before TakeForward
  kForwarded,  ///< forward buffer collected, before Absorb/Release
};

const char* migration_phase_name(MigrationPhase p);

struct LiveConfig {
  std::uint32_t instances = 4;  ///< join instances per biclique side
  bool balancer = true;         ///< FastJoin on, BiStream off
  PlannerConfig planner;        ///< theta etc.
  std::chrono::milliseconds monitor_period{20};
  double min_heaviest_load = 1000.0;
  /// Registered-producer slots (each gets a private SPSC lane per
  /// worker). Callers beyond this many, and unregistered callers, share
  /// the mutex-serialized fallback lane.
  std::uint32_t max_producers = 8;
  /// Artificial nanoseconds of work per match (lets small examples
  /// exhibit measurable load without gigantic inputs). 0 = none.
  std::uint64_t work_per_match_ns = 0;
  /// Sliding-window join: number of sub-windows kept (0 = full history)
  /// and the wall-clock length of one sub-window. The monitor thread
  /// drives window advancement (it always runs, even with the balancer
  /// disabled).
  std::uint32_t window_subwindows = 0;
  std::chrono::milliseconds subwindow_len{100};
  /// Fault tolerance: period between store snapshots (0 = off). The
  /// monitor broadcasts a CheckpointReq control message each period;
  /// each snapshot is a lane-prefix-consistent view of that worker's
  /// processed stream.
  std::chrono::milliseconds checkpoint_period{0};
  /// Supervised migrations: total time the monitor waits for one worker
  /// reply (select/extract, hold ack, or take-forward) before declaring
  /// the worker dead and aborting the migration. Waiting uses bounded
  /// exponential backoff slices so a concurrent crash is noticed early.
  /// This is a deadlock-breaker, not a latency bound: control replies
  /// queue behind the worker's data backlog, so keep it well above the
  /// worst queue drain time or a saturated-but-healthy worker gets
  /// force-crashed.
  std::chrono::milliseconds migration_timeout{30'000};
  /// Time source for every protocol wait: migration reply backoff,
  /// producer blocked-waits on a crashed slot, the grace-period and
  /// monitor-tick sleeps, and the migration_timeout deadline itself.
  /// Null selects the process-wide real clock. Tests and the protocol
  /// checker inject a VirtualClock so timeouts and backoff fire on
  /// virtual time with no wall-clock sleeps. Must outlive the engine.
  Clock* clock = nullptr;
  /// Chaos hook: called from the monitor thread at each migration phase
  /// transition. Tests use it to crash() workers at precise protocol
  /// points. Must be thread-compatible with calls into this engine's
  /// crash() only.
  std::function<void(Side group, InstanceId src, InstanceId dst,
                     MigrationPhase phase)>
      chaos;
  /// StreamLog ingest. When enabled, the engine owns a StreamLog with
  /// one partition per producer lane (max_producers + 1; the
  /// `partitions` field is overridden), every push is appended before
  /// it is laned, and crashed workers are replayed from their last
  /// checkpointed offsets instead of dropping the crash window.
  IngestConfig ingest;
};

struct LiveStats {
  std::uint64_t records_in = 0;
  /// Deliveries (a record makes two: store + probe) that were lost
  /// before reaching a live worker: pushes while the engine was not
  /// running, pushes to a crashed worker's closed lanes, and lane
  /// residue discarded at respawn.
  /// With ingest enabled, every one of those paths is covered by the
  /// log and this reads 0; the remaining (bounded, documented) loss
  /// is records that died *inside* migration machinery — see
  /// `buffered_lost`.
  std::uint64_t records_dropped = 0;
  std::uint64_t evicted = 0;     ///< window-expired tuples
  std::uint64_t results = 0;
  std::uint64_t probes = 0;
  std::uint64_t stores = 0;
  std::size_t migrations = 0;
  std::uint64_t tuples_migrated = 0;
  std::size_t migrations_aborted = 0;
  std::size_t crashes = 0;           ///< crash() calls that hit a live worker
  std::size_t recoveries = 0;        ///< supervisor respawns
  std::uint64_t tuples_restored = 0; ///< restored from checkpoints
  std::size_t checkpoints = 0;       ///< snapshot rounds broadcast
  double mean_recovery_ms = 0.0;     ///< crash -> respawned, mean
  /// Queue+service latency per probe, over the sampled records only
  /// (one in kLatencySampleEvery per producer). Percentiles come from
  /// the merged per-worker telemetry histogram (common/histogram
  /// geometry), not a raw sample vector.
  double mean_latency_us = 0.0;
  double p50_latency_us = 0.0;
  double p99_latency_us = 0.0;
  double p999_latency_us = 0.0;
  std::uint64_t latency_samples = 0;  ///< probes with a sampled timestamp
  double final_li = 1.0;         ///< last LI the monitor observed
  // --- StreamLog ingest (all 0 when LiveConfig::ingest is off) ------
  std::uint64_t ingest_appended = 0;    ///< records made durable in the log
  std::uint64_t ingest_backpressure = 0;///< appends refused by the
                                        ///< unflushed-bytes bound
  std::uint64_t log_truncated = 0;      ///< records retired by retention
  std::uint64_t records_replayed = 0;   ///< log deliveries re-processed
                                        ///< (or redirected) at respawn
  std::uint64_t replay_suppressed = 0;  ///< probe deliveries skipped at
                                        ///< replay because the crashed
                                        ///< worker had emitted them
  std::uint64_t replay_retargeted = 0;  ///< replay deliveries redirected
                                        ///< to the key's current owner
  /// Records that died inside migration machinery at a crash: the dead
  /// worker's forward/held buffers, and batch/release payloads stuck in
  /// its control queue. Bounded by the migration window; never
  /// duplicated; NOT covered by offset replay (the log replays lane
  /// deliveries, not cross-worker transfers).
  std::uint64_t buffered_lost = 0;
};

class LiveEngine {
 public:
  /// Producer id of unregistered callers: routes through the shared,
  /// mutex-serialized fallback lane.
  static constexpr int kUnregistered = -1;

  explicit LiveEngine(const LiveConfig& cfg);
  ~LiveEngine();

  LiveEngine(const LiveEngine&) = delete;
  LiveEngine& operator=(const LiveEngine&) = delete;

  /// Start worker and monitor threads. Calling twice (or after
  /// finish()) is an error: logged, ignored.
  void start();

  /// Claim a dedicated producer slot (a private SPSC lane to every
  /// worker, no locks on push). Returns the producer id to pass to
  /// push()/push_batch(), or kUnregistered once all
  /// LiveConfig::max_producers slots are taken (such callers fall back
  /// to the shared lane — correct, just slower). A slot must be used
  /// by one thread at a time; slots live for the engine's lifetime.
  int register_producer();

  /// Route one record (thread-safe; unregistered callers may share).
  /// Blocks (bounded backoff) on a full destination lane
  /// (backpressure). Returns false — and counts the record in
  /// LiveStats::records_dropped — when the engine is not running or a
  /// destination worker is crashed.
  bool push(const Record& rec) { return push(rec, kUnregistered); }
  bool push(const Record& rec, int producer) {
    return push_batch(&rec, 1, producer) == 1;
  }

  /// Route a batch of records under a single routing snapshot and
  /// producer critical section. Returns how many records were delivered
  /// to all of their destinations (partial deliveries are counted in
  /// records_dropped, as with push()).
  std::size_t push_batch(const Record* recs, std::size_t n,
                         int producer = kUnregistered);
  std::size_t push_batch(const std::vector<Record>& recs,
                         int producer = kUnregistered) {
    return push_batch(recs.data(), recs.size(), producer);
  }

  /// Close the feed, drain every queue, stop all threads, and return
  /// the final statistics. Calling before start() or twice is an
  /// error: logged, returns empty stats.
  LiveStats finish();

  /// Kill worker `id` of `group`: its store and queued records are
  /// lost. The supervisor (monitor thread) respawns it on the next tick
  /// and restores its store from the latest checkpoint. Thread-safe;
  /// callable from tests and from the chaos hook. No-op on an unknown
  /// or already-crashed worker.
  void crash(Side group, InstanceId id);

  /// Install a match callback (before start()); called from worker
  /// threads, must be thread-safe. Used by the completeness tests.
  void set_on_match(std::function<void(const MatchPair&)> fn) {
    on_match_ = std::move(fn);
  }

  std::uint32_t instances() const { return cfg_.instances; }
  /// The ingest log (null when LiveConfig::ingest is disabled). Owned
  /// by the engine; safe to read concurrently (offsets, stats).
  const StreamLog* ingest_log() const { return log_.get(); }
  bool running() const {
    return started_.load(std::memory_order_acquire) &&
           !finished_.load(std::memory_order_acquire);
  }

 private:
  struct SelectExtractReq {
    InstanceLoad dst_load;
    std::promise<std::shared_ptr<MigrationBatch>> reply;
  };
  struct TakeForwardReq {
    /// Must match the worker's current extraction epoch
    /// (MigrationBatch::extract_epoch of the batch this migration cut);
    /// a stale request is answered empty WITHOUT touching the
    /// forwarding set or the forward buffer — the diverted records
    /// belong to whichever migration installed the current set.
    std::uint64_t extract_epoch = 0;
    std::promise<std::shared_ptr<std::vector<Record>>> reply;
  };
  struct HoldAck {};
  struct HoldReq {
    std::vector<KeyId> keys;
    /// Acknowledged once the hold is installed: the monitor must not
    /// publish the new routing table before this fires (data and
    /// control travel on different channels, so "hold before rerouted
    /// records" is no longer implied by queue order).
    std::promise<std::shared_ptr<HoldAck>> reply;
  };
  struct AbsorbReq {
    std::shared_ptr<MigrationBatch> batch;
  };
  struct ReleaseReq {
    std::shared_ptr<std::vector<Record>> forwarded;
  };
  /// Migration abort at the source: re-merge the batch's stored tuples,
  /// optionally replay its pending records (only when the target never
  /// received the batch), then replay `forwarded` (when TakeForward
  /// already collected the forward buffer) and whatever is still in the
  /// local forward buffer, and stop diverting.
  struct AbortMigrationReq {
    std::shared_ptr<MigrationBatch> batch;
    bool replay_pending = false;
    std::shared_ptr<std::vector<Record>> forwarded;  ///< may be null
  };
  /// Snapshot the store for crash recovery (lane-prefix consistent).
  struct CheckpointReq {};
  struct AdvanceWindowReq {};
  /// Logged deliveries redirected during crash replay to the instance
  /// that now owns their keys (the crashed worker's replay pass found
  /// the keys migrated away). A record is a store delivery exactly when
  /// its side is the receiving worker's store side.
  struct ReplayReq {
    std::vector<Record> records;
  };
  /// A data record with its push() timestamp when it was sampled for
  /// latency measurement (pushed_at == epoch means unsampled). In
  /// ingest mode it also carries the record's StreamLog coordinates so
  /// the worker can advance its consumed watermark (and skip deliveries
  /// a replay already covered).
  struct DataMsg {
    Record rec;
    std::chrono::steady_clock::time_point pushed_at{};
    std::uint32_t partition = kNoIngestPartition;
    std::uint64_t offset = 0;
  };
  using Msg = std::variant<SelectExtractReq, TakeForwardReq, HoldReq,
                           AbsorbReq, ReleaseReq, AbortMigrationReq,
                           CheckpointReq, AdvanceWindowReq, ReplayReq>;
  /// Control envelope. A non-empty barrier holds one watermark per
  /// lane: the worker drains each lane until it has consumed at least
  /// that many records before handling the message.
  struct Envelope {
    Msg msg;
    std::vector<std::uint64_t> barrier;
  };

  /// One SPSC data lane plus the sequence counters backing the
  /// watermark barrier. `pushed` is bumped by the producer after each
  /// successful ring push; `popped` by the consumer after processing.
  struct DataLane {
    explicit DataLane(std::size_t cap) : ring(cap) {}
    SpscRing<DataMsg> ring;
    alignas(64) std::atomic<std::uint64_t> pushed{0};
    alignas(64) std::atomic<std::uint64_t> popped{0};
  };
  /// All lanes feeding one worker slot. Owned by the engine (not the
  /// Worker) so producers keep stable pointers across respawns; `open`
  /// is cleared while the slot's worker is down so pushes fail fast.
  ///
  /// The doorbell is the slot's idle wake-up channel: an idle worker
  /// arms it and parks on `bell`; a producer that lands records (or a
  /// control send, crash, or shutdown) rings it. It lives here — not in
  /// the Worker — because producers must hold a stable pointer across
  /// respawns. The arm/ring handshake uses seq_cst fences (Dekker): the
  /// worker arms, fences, and re-checks for work before sleeping; the
  /// ringer publishes work, fences, and reads `armed` — so either the
  /// ringer sees the arm and takes the mutex to notify, or the worker's
  /// re-check sees the work. A short timed backstop bounds the blast
  /// radius of any missed edge.
  struct LaneSet {
    std::vector<std::unique_ptr<DataLane>> lanes;  ///< [max_producers]+fallback
    std::atomic<bool> open{true};
    alignas(64) std::atomic<std::uint32_t> armed{0};
    Mutex bell_mutex;
    CondVar bell;
  };
  /// Seqlock-style producer critical-section counter (odd = inside
  /// push). The monitor's grace period waits these out after a routing
  /// publish; see wait_for_producers(). The rest of the slot is
  /// owner-thread-only state: the latency-sampling countdown (counts
  /// down to the next sampled record — no divide per record) and the
  /// per-destination staging buffers push_batch() reuses batch over
  /// batch, so the steady-state hot path performs no allocation.
  struct ProducerSlot {
    alignas(64) std::atomic<std::uint64_t> cs{0};
    std::uint32_t sample_countdown = 0;  ///< owner thread only
    /// One staging buffer per destination worker: the DataMsgs routed
    /// there this batch and the batch-local index of each source record
    /// (for exact per-record delivery accounting).
    struct Stage {
      std::vector<DataMsg> msgs;
      std::vector<std::uint32_t> idx;
    };
    std::vector<Stage> stages;         ///< [2 * instances]
    std::vector<std::uint8_t> failed;  ///< per-record scratch, [batch n]
  };
  /// Immutable routing snapshot; replaced wholesale on every change.
  struct RouteTable {
    std::unordered_map<KeyId, InstanceId> overrides[2];
  };

  class Worker;

  void monitor_loop();
  void supervise();
  void respawn(Side group, InstanceId id);
  /// Offset replay at respawn (ingest mode): scan the log from the
  /// checkpointed offsets, re-process the crashed worker's deliveries
  /// into `fresh` (not yet started), suppressing what the dead worker
  /// had already processed (`marks` = its consumed watermarks) and
  /// redirecting deliveries whose key has since migrated away.
  void replay_worker(Side group, InstanceId id, Worker& fresh,
                     const std::vector<std::uint64_t>& from_offsets,
                     const std::vector<std::uint64_t>& marks);
  /// Retention: drop log segments below the minimum checkpointed offset
  /// across all workers (nothing below it can ever be replayed).
  void truncate_ingest();
  void broadcast_checkpoint();
  bool try_migrate(Side group);
  /// Wait for a worker reply with bounded exponential backoff; returns
  /// nullptr when the worker crashed or the wait hit
  /// cfg_.migration_timeout (in which case the worker is declared dead
  /// and force-crashed).
  template <typename T>
  std::shared_ptr<T> await_reply(std::future<std::shared_ptr<T>>& fut,
                                 Side group, InstanceId id);
  void chaos_hook(Side group, InstanceId src, InstanceId dst,
                  MigrationPhase phase);
  /// Uniform duration in [base/2, base]: de-synchronizes the monitor's
  /// retry cadence from worker-side periodic activity so a whole fleet
  /// of waits cannot retry in lockstep. Monitor thread only (uses
  /// backoff_rng_).
  std::chrono::nanoseconds jittered(std::chrono::nanoseconds base);
  void note_drop(std::uint64_t n);
  Worker& worker(Side group, InstanceId id);

  /// Route against a snapshot (data plane) or the current table
  /// (monitor thread, which is the sole mutator).
  InstanceId route(const RouteTable& table, Side group, KeyId key) const;
  InstanceId route_current(Side group, KeyId key) const;
  /// Copy-on-write routing update: clone, mutate, publish (under
  /// route_mutex_), then wait a producer grace period and reclaim the
  /// old table. Monitor thread only.
  template <typename Mutate>
  void publish_routes(Mutate&& mutate);
  /// Grace period: returns once every producer critical section that
  /// could have read a routing table older than the current one has
  /// exited (seqlock counters observed even or advanced).
  void wait_for_producers();
  /// Per-lane pushed-counts of one worker slot, for barrier stamping.
  std::vector<std::uint64_t> capture_watermarks(Side group,
                                                InstanceId id) const;
  /// Push a run of DataMsgs — all bound for one destination lane, in
  /// batch order — with blocking backoff on a full ring. Marks the
  /// batch-local index of every message that could not be delivered
  /// (closed/crashed slot) in `failed`; `msgs` is moved-from on
  /// success. Rings the destination's doorbell when anything landed.
  void lane_push_batch(Side group, InstanceId id, std::size_t lane,
                       ProducerSlot::Stage& stage,
                       std::vector<std::uint8_t>& failed);
  /// Wake a parked worker after making new work visible to it. The
  /// seq_cst fence pairs with the arm sequence in the worker's park;
  /// see LaneSet.
  static void ring_doorbell(LaneSet& ls);

  LiveConfig cfg_;
  Clock* clk_;  ///< cfg_.clock or the real clock; never null
  /// How hard idle loops may spin before parking, derived once from the
  /// detected topology (collapsed to zero when the engine's threads
  /// outnumber the CPUs — the oversubscription regression).
  SpinPolicy spin_;
  /// Backoff jitter source for the monitor's supervised waits
  /// (monitor thread only; producers use a thread-local twin).
  Xoshiro256 backoff_rng_{0x9e3779b97f4a7c15ull};
  std::function<void(const MatchPair&)> on_match_;
  std::vector<std::unique_ptr<Worker>> workers_[2];
  std::vector<std::unique_ptr<LaneSet>> lane_sets_[2];
  std::vector<ProducerSlot> producer_slots_;  ///< [max_producers]+fallback
  std::atomic<std::uint32_t> producers_registered_{0};
  /// Serializes unregistered producers. A pure serialization capability
  /// (it guards the fallback lane's producer side and the fallback
  /// ProducerSlot, which are indexed, not named, so GUARDED_BY cannot
  /// express them); see docs/static_analysis.md.
  Mutex fallback_mutex_;

  /// Current routing table; readers load the pointer (no lock) inside
  /// their producer critical section, the monitor swaps it under
  /// route_mutex_ and reclaims after a grace period. route_mutex_ also
  /// pins worker slots against concurrent crash()/respawn().
  /// route_table_ itself is deliberately
  /// NOT GUARDED_BY(route_mutex_): the data plane reads it lock-free by
  /// design; the mutex only serializes writers.
  std::atomic<const RouteTable*> route_table_;
  mutable Mutex route_mutex_;

  std::thread monitor_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> records_in_{0};
  std::atomic<std::uint64_t> records_dropped_{0};
  std::atomic<bool> drop_warned_{false};
  std::atomic<std::uint64_t> tuples_migrated_{0};
  std::atomic<std::size_t> crashes_{0};
  std::size_t migrations_ = 0;          // monitor thread only
  std::size_t migrations_aborted_ = 0;  // monitor thread only
  std::size_t recoveries_ = 0;          // monitor thread only
  std::uint64_t tuples_restored_ = 0;   // monitor thread only
  std::size_t checkpoints_ = 0;         // monitor thread only
  /// StreamLog ingest. log_ is created in the constructor and never
  /// reassigned, so lock-free producer reads of the pointer are safe.
  /// The remaining fields are monitor-thread-only (finish() reads them
  /// after joining the monitor).
  std::unique_ptr<StreamLog> log_;
  std::vector<std::vector<Record>> retarget_backlog_[2];
  std::uint64_t records_replayed_ = 0;
  std::uint64_t replay_suppressed_ = 0;
  std::uint64_t replay_retargeted_ = 0;
  std::uint64_t buffered_lost_ = 0;
  std::uint64_t log_truncated_ = 0;
  std::chrono::nanoseconds recovery_time_total_{0};  // monitor only
  /// Counters of workers that crashed and were replaced, folded into
  /// the final stats (monitor thread writes, finish() reads after join).
  struct RetiredCounters {
    std::uint64_t results = 0;
    std::uint64_t probes = 0;
    std::uint64_t stores = 0;
    std::uint64_t evicted = 0;
    LogHistogram latency{1.0, 1e12, 16};
  } retired_;
  std::vector<std::uint64_t> probe_marks_[2];
  /// Per-slot respawn generation, bumped by respawn(). try_migrate
  /// records the source's generation at extraction time and re-checks
  /// it before the routing publish: a source slot rebuilt in between
  /// (supervise() runs inside the supervised waits) has already
  /// regenerated the extracted tuples from checkpoint + log replay, so
  /// publishing would fork the key's history between the monitor's
  /// batch copy and the fresh source's restored copy. Monitor thread
  /// only.
  std::vector<std::uint64_t> slot_gen_[2];
  /// The one migration hold that may be installed at a target right now
  /// (set when the HoldReq is sent, cleared when the target is released
  /// or the migration aborts). respawn() consults it so a target
  /// rebuilt mid-migration gets the hold re-installed before its lanes
  /// reopen — without it the fresh target serves rerouted probes
  /// against a store that does not have the batch yet (the Absorb
  /// arrives later), silently missing pairs with nothing in the drop
  /// ledger to explain them. Monitor thread only.
  struct InflightHold {
    bool active = false;
    int group = 0;
    InstanceId dst = 0;
    std::vector<KeyId> keys;
  } inflight_hold_;
  double last_li_ = 1.0;
  std::atomic<bool> started_{false};
  std::atomic<bool> finished_{false};
};

}  // namespace fastjoin
