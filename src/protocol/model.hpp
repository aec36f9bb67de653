// FASTJOIN_PROTOCOL_FILE: deterministic model of the supervised
// migration / offset-replay protocol.
//
// This is the side-effect-free twin of LiveEngine's control plane
// (src/runtime/live_engine.cpp), with docs/migration_protocol.md as
// the spec: the same events (SelectExtract, Hold/HoldAck,
// RoutePublish, TakeForward, Absorb/Release, Abort, Checkpoint,
// Crash, Respawn, Replay), the same guards, and the same
// recovery arithmetic (consumed watermarks, checkpoint+log replay,
// retarget backlog), but over pure value-type state on virtual time.
// Every decision the live monitor or a worker thread can make is an
// explicit Event; the explorer (explorer.hpp) enumerates event
// interleavings and checks the protocol's invariants after every
// step.
//
// Modeling scope (documented in docs/migration_protocol.md,
// "Checked model"):
//  * One biclique group is modeled (the R-store group): store-side
//    records are stored, probe-side records probe it. The S group is
//    the mirror image and adds no protocol behavior.
//  * Producers are key-affine (key k always rides partition k mod P),
//    so per-key delivery order — the property the protocol must
//    preserve — is well-defined independent of the schedule.
//  * The routing publish is atomic (the seqlock producer critical
//    section and grace period live below this abstraction; they are
//    verified by the TSan chaos suite, not here).
//  * Log retention (truncate_ingest) is not modeled; the virtual log
//    keeps every record.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace fastjoin::protocol {

// ---------------------------------------------------------------------
// Records and streams

/// One modeled record. `seq` is the record's global stream index and
/// doubles as its timestamp: the `precedes` total order of the engine
/// collapses to integer comparison.
struct PRecord {
  std::uint32_t key = 0;
  std::uint32_t seq = 0;
  bool store_side = false;  ///< true: stored; false: probes the store
};

/// A record delivered over a lane, with its virtual-log coordinates
/// (mirrors LiveEngine::DataMsg).
struct Delivery {
  PRecord rec;
  std::uint32_t partition = 0;
  std::uint64_t offset = 0;
};

/// A virtual StreamLog entry: the record plus its publish-time
/// destination (mirrors LogRecord's store_dst/probe_dst, collapsed to
/// one group).
struct LogEntry {
  PRecord rec;
  std::uint32_t dst = 0;
};

// ---------------------------------------------------------------------
// Control plane

/// Control-message vocabulary, one per LiveEngine request type that
/// participates in the migration/replay protocol.
enum class CtrlKind : std::uint8_t {
  kSelectExtract,
  kHold,
  kTakeForward,
  kAbsorb,
  kRelease,
  kAbort,
  kCheckpoint,
  kReplay,
};

struct Batch {
  std::vector<std::uint32_t> keys;
  std::vector<std::pair<std::uint32_t, PRecord>> stored;
};

struct Ctrl {
  CtrlKind kind = CtrlKind::kCheckpoint;
  /// Which migration this request belongs to (MonState::started at
  /// send time). A reply only lands if the epoch still matches — the
  /// model of the engine's per-request promise/future pair.
  std::uint32_t epoch = 0;
  /// Per-partition watermark barrier: the worker must have popped at
  /// least barrier[p] deliveries from lane p before handling this.
  std::vector<std::uint64_t> barrier;
  std::vector<std::uint32_t> keys;   ///< kHold
  Batch batch;                       ///< kAbsorb / kAbort
  bool replay_pending = false;       ///< kAbort
  bool has_forwarded = false;        ///< kRelease / kAbort
  std::vector<PRecord> forwarded;    ///< kRelease / kAbort
  std::vector<PRecord> replay;       ///< kReplay (retargeted deliveries)
};

// ---------------------------------------------------------------------
// Actors

struct Lane {
  std::deque<Delivery> q;
  std::uint64_t pushed = 0;
  std::uint64_t popped = 0;
};

struct WorkerState {
  bool crashed = false;
  bool lanes_open = true;
  /// Respawn generation: bumped every time the slot is rebuilt. The
  /// monitor compares it against the generation it extracted from to
  /// detect a source that died-and-respawned mid-migration.
  std::uint32_t gen = 0;
  std::deque<Ctrl> ctrl;
  std::vector<Lane> lanes;  ///< one per partition/producer
  /// key -> stored records, in arrival order.
  std::map<std::uint32_t, std::vector<PRecord>> store;
  std::set<std::uint32_t> forwarding;
  std::set<std::uint32_t> held;
  std::vector<PRecord> fwd_buf;
  std::vector<PRecord> held_buf;
  std::vector<std::uint64_t> consumed;  ///< per-partition watermark
  /// Shadow copy of the batch this worker extracted for an in-flight
  /// migration. A checkpoint taken after SelectExtract would otherwise
  /// snapshot a store *missing* the batch while its offsets already
  /// cover the batch's records ("checkpoint shadowing") — a crash then
  /// neither restores nor replays them. Folded (seq-deduped) into
  /// every checkpoint; cleared by the Abort re-merge or the next
  /// extract. A stale copy after a committed migration is harmless:
  /// restore filters by the current routing table, and re-merges
  /// seq-dedup.
  std::map<std::uint32_t, std::vector<PRecord>> pending_extract;
  bool has_ckpt = false;
  std::map<std::uint32_t, std::vector<PRecord>> ckpt_store;
  std::vector<std::uint64_t> ckpt_offsets;
};

/// Monitor phases. The *Wait phases are the supervised waits of
/// try_migrate (await_reply); kRouted and kAbsorb are the points where
/// the monitor acts without waiting.
enum class MonPhase : std::uint8_t {
  kIdle,
  kSelectWait,   ///< SelectExtract sent, awaiting the batch
  kHoldWait,     ///< Hold sent, awaiting the ack
  kRouted,       ///< routes published, TakeForward not yet sent
  kForwardWait,  ///< TakeForward sent, awaiting the forward buffer
  kAbsorb,       ///< forward buffer collected, Absorb send next
  kRelease,      ///< Absorb sent, Release send next (a crash can land
                 ///< between the two sends, exactly as in the engine)
};

const char* mon_phase_name(MonPhase p);

struct MonState {
  MonPhase phase = MonPhase::kIdle;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  Batch batch;
  bool have_batch = false;
  bool hold_acked = false;
  /// Set when the outstanding request died unprocessed in a crashed
  /// worker's queue (the model's "broken promise": in LiveEngine the
  /// respawn destroys the queue and the future throws future_error).
  bool reply_dead = false;
  std::vector<PRecord> forwarded;
  bool have_forwarded = false;
  /// Saved override state for rollback (route key -> prior override;
  /// UINT32_MAX = no override existed).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> prev_over;
  std::uint64_t deadline_ns = 0;
  /// Source generation at SelectExtract time: if the source slot was
  /// rebuilt before RoutePublish, the extracted batch belongs to a
  /// worker that no longer exists and the migration must abort (the
  /// fresh source's log replay restored the tuples; the abort re-merge
  /// seq-dedups against them).
  std::uint32_t src_gen = 0;
  std::uint32_t started = 0;
  std::uint32_t done = 0;
  std::uint32_t aborted = 0;
};

// ---------------------------------------------------------------------
// Events

enum class EvKind : std::uint8_t {
  kPush,        ///< producer `a` pushes its next record
  kData,        ///< worker `a` pops one delivery from lane `b`
  kCtrl,        ///< worker `a` handles its next control message
  kMonitor,     ///< the monitor advances the migration protocol
  kCheckpoint,  ///< the monitor broadcasts a checkpoint round
  kCrash,       ///< fault: worker `a` crashes
  kDelay,       ///< fault: the awaited reply stalls past the timeout
  kRespawn,     ///< the supervisor respawns crashed worker `a`
};

struct Event {
  EvKind kind = EvKind::kMonitor;
  std::uint32_t a = 0;
  std::uint32_t b = 0;

  bool operator==(const Event& o) const {
    return kind == o.kind && a == o.a && b == o.b;
  }
};

std::string event_name(const Event& e);

// ---------------------------------------------------------------------
// Model configuration and state

struct ModelConfig {
  std::uint32_t workers = 3;
  std::uint32_t producers = 1;   ///< also the partition count
  std::uint32_t num_keys = 4;
  std::uint32_t num_records = 10;
  /// Offset replay on: the engine's ingest-enabled mode. Off models
  /// an engine without the ingest log (checkpoint-only recovery).
  bool replay = true;
  std::uint32_t max_crashes = 1;
  std::uint32_t max_delays = 1;
  std::uint32_t max_checkpoints = 1;
  std::uint32_t max_migrations = 1;
  /// Virtual migration_timeout. Normal events advance time by 1 us, so
  /// with the 30 s default only an explicit kDelay event reaches it —
  /// timeouts are schedule choices, not accidents.
  std::uint64_t migration_timeout_ns = 30'000'000'000ull;
  std::uint64_t stream_seed = 1;
  // --- deliberately broken transitions (checker self-tests) ----------
  /// Publish the routing table without waiting for the HoldAck
  /// (violates generating rule 2; the checker must catch it).
  bool skip_hold_ack = false;
  /// Re-merge batches without sequence dedup (violates the "stored
  /// re-merge is always safe IF seq-deduped" abort rule).
  bool skip_absorb_dedup = false;
};

struct Violation {
  std::string invariant;  ///< stable name, e.g. "duplicate-emission"
  std::string detail;
};

struct State {
  std::vector<WorkerState> workers;
  MonState mon;
  std::vector<std::vector<LogEntry>> log;  ///< per partition
  std::vector<std::uint32_t> cursor;       ///< per-producer stream cursor
  /// Routing overrides for the modeled group (base route = key mod W).
  std::map<std::uint32_t, std::uint32_t> overrides;
  std::uint64_t now_ns = 0;
  /// Emitted match pairs (r.seq, s.seq); duplicates are violations.
  std::set<std::pair<std::uint32_t, std::uint32_t>> emitted;
  /// Exact drop ledger: global seqs of records whose deliveries died.
  std::set<std::uint32_t> lost;
  /// Replay deliveries parked for a crashed target's own respawn.
  std::vector<std::vector<PRecord>> backlog;
  std::uint32_t crashes = 0;
  std::uint32_t delays = 0;
  std::uint32_t checkpoints = 0;
  std::uint64_t replayed = 0;
  std::uint64_t suppressed = 0;
  std::uint64_t retargeted = 0;
};

// ---------------------------------------------------------------------
// The state machine

class Model {
 public:
  explicit Model(const ModelConfig& cfg);

  const ModelConfig& config() const { return cfg_; }
  const std::vector<PRecord>& stream() const { return stream_; }

  /// The initial state (no record pushed, everything idle).
  State initial() const;

  /// Events applicable in `s`. `drain` restricts to progress-only
  /// events (no new faults, checkpoints, or migrations) so a bounded
  /// schedule prefix can always be run to quiescence deterministically.
  std::vector<Event> enabled(const State& s, bool drain = false) const;

  /// Apply one event in place. Returns a violation if an invariant
  /// breaks during the step (duplicate emission, store duplicate,
  /// watermark regression). The event must be enabled.
  std::optional<Violation> apply(State& s, const Event& e) const;

  /// Deterministic quiescence driver: repeatedly applies the first
  /// enabled drain-mode event until none remains, then runs the final
  /// invariants (completeness against the drop ledger, abort-epoch
  /// consistency, routing/store consistency). Also fails if the system
  /// wedges (non-quiescent state with no enabled event).
  std::optional<Violation> drain_and_check(State& s) const;

  /// True when two events commute from any state (conservative actor-
  /// footprint disjointness); used for sleep-set pruning.
  bool independent(const Event& x, const Event& y) const;

  /// Order-sensitive FNV-1a digest of the protocol-relevant state,
  /// for visited-state deduplication.
  std::uint64_t digest(const State& s) const;

  /// Expected match pairs of the full stream (every (r, s) with equal
  /// key and r.seq < s.seq).
  std::set<std::pair<std::uint32_t, std::uint32_t>> expected_pairs() const;

 private:
  std::uint32_t route(const State& s, std::uint32_t key) const;
  std::vector<std::uint64_t> capture_barrier(const State& s,
                                             std::uint32_t w) const;
  bool send_ctrl(State& s, std::uint32_t w, Ctrl c) const;
  void ledger_batch(State& s, const Batch& b) const;
  void ledger_records(State& s, const std::vector<PRecord>& recs) const;
  std::optional<Violation> emit(State& s, std::uint32_t r_seq,
                                std::uint32_t s_seq) const;
  std::optional<Violation> worker_process(State& s, std::uint32_t w,
                                          const PRecord& rec) const;
  std::optional<Violation> worker_merge(State& s, std::uint32_t w,
                                        std::uint32_t key,
                                        const PRecord& rec,
                                        const char* what) const;
  std::optional<Violation> worker_handle_ctrl(State& s,
                                              std::uint32_t w) const;
  std::optional<Violation> apply_crash(State& s, std::uint32_t w) const;
  std::optional<Violation> apply_respawn(State& s, std::uint32_t w) const;
  std::optional<Violation> apply_monitor(State& s) const;
  std::optional<Violation> structural_check(const State& s) const;
  std::optional<Violation> final_check(const State& s) const;
  bool quiescent(const State& s) const;

  ModelConfig cfg_;
  std::vector<PRecord> stream_;                   ///< global order
  std::vector<std::vector<std::uint32_t>> by_producer_;  ///< stream idx
};

}  // namespace fastjoin::protocol
