// Multi-process plane: shared-nothing workers over a real socket
// transport.
//
// Topology is a star: one router process ingests records, makes every
// routing decision, and owns the durable StreamLog; W worker processes
// each own one shard of both sides' JoinStores and execute the join.
// Worker i exchanges frames with the router over a single framed
// socket connection (src/net/); workers never talk to each other —
// migrations relay tuples through the router.
//
// Every record the router publishes is appended to the StreamLog
// *first*, stamped with the publish-time routing decision
// (store_dst / probe_dst = worker ids), and only then framed to the
// workers. The log is therefore a complete, replayable account of what
// each worker was supposed to receive, which is what makes crash
// recovery exact:
//
//   crash    = socket EOF (or waitpid) on a worker connection
//   recover  = SIGKILL the remains, fork/exec a fresh worker,
//              kRestore its last checkpoint snapshot (consumed
//              watermark C), re-inject any absorbed-but-uncheckpointed
//              migration batches (kAbsorb, seq-deduplicated), then
//              replay log entries with offset >= C stamped for that
//              worker — store halves deduplicated, probe halves below
//              the emit watermark E flagged kSuppressEmit so already-
//              delivered matches are not emitted twice.
//
// Batch append: the router stages each routed record in publish order,
// its stamps and its park decision fixed at publish. A commit logs the
// whole stage with one StreamLog::append_batch (base offset B) and
// queues staged record i for delivery at offset B + i. The stage
// commits when it is full, and before any frame is queued to a worker
// (flush_pending), at every event-loop turn (pump), before a front-door
// ack (serve_sink), after unparking, and in finish() and dump_log().
// Invariant: a record is in the log before any frame carries it, and
// the stage is empty whenever the loop dispatches or a control frame
// goes out. So a staged record is logged and framed before any later
// control frame on the same connection; records stay staged only
// between the host's publish() calls.
//
// Exactness argument (full-history joins): the match-pair set is fixed
// by the `precedes` total order, independent of partitioning. A pair
// (r, s) is found iff the earlier tuple's store delivery is processed
// before the later tuple's probe delivery at their shared worker —
// guaranteed because the router is a single producer and each
// connection is FIFO. Workers flush kMatches (with an exclusive emit
// watermark) before answering kCheckpoint or kExtract, so E >= C
// always and replayed probes below E are exactly the already-emitted
// ones.
//
// Migration ("park at the router"): the single ingest point collapses
// the in-process Hold/TakeForward/Release machinery. While keys move,
// records touching them are parked *before* they are logged; on
// commit (route flip) or abort they are logged and delivered with
// their final stamps, preserving per-(side,key) FIFO. See
// docs/migration_protocol.md ("Wire mapping").
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "datagen/record.hpp"
#include "engine/tuple.hpp"
#include "ingest/stream_log.hpp"
#include "net/connection.hpp"
#include "net/event_loop.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "runtime/process_supervisor.hpp"
#include "server/frontdoor.hpp"

namespace fastjoin {

struct MultiprocConfig {
  std::uint32_t workers = 4;
  /// "unix:<path>" or "tcp:<port>". "unix:" (empty path) picks a
  /// per-process temp path; "tcp:0" picks a free port. The resolved
  /// endpoint is available from MultiprocRouter::endpoint() after
  /// start().
  std::string endpoint = "unix:";
  /// argv prefix used to spawn a worker; the router appends
  /// `--multiproc-worker --worker-id <i> --connect <endpoint>`.
  /// Test/bench binaries pass {"/proc/self/exe"} and dispatch via
  /// multiproc_worker_maybe_run() before gtest/bench main.
  std::vector<std::string> worker_command;
  /// Ship MatchPair tuples to the router (for output comparison); when
  /// false only counts travel.
  bool collect_matches = false;
  /// Broadcast a checkpoint round every N published records (0 = only
  /// the forced post-migration checkpoints).
  std::uint64_t checkpoint_every = 0;
  /// Respawn + replay crashed workers. When false a crash permanently
  /// loses the worker and its undelivered entries count as dropped.
  bool respawn = true;
  /// Drop log segments below the minimum checkpointed offset.
  bool truncate_log = true;
  /// StreamLog shape (partitions is forced to 1: the router is the
  /// only producer). backend kFile makes the substrate durable on
  /// disk; kMemory is enough for worker-crash replay since the log
  /// lives in the router, which is outside the fault model.
  IngestConfig ingest;
  /// Serving front door (src/server/): when true the router also
  /// accepts client connections on serve_cfg.endpoint from the same
  /// event loop. Clients ingest through the admission-controlled
  /// kAppend path (the router stamps seq/ts — it owns the stream
  /// order) and read per-key snapshot state with kQuery. Workers ship
  /// match pairs so the query surface can answer "recent matches".
  bool serve = false;
  server::FrontDoorConfig serve_cfg;
};

struct MultiprocStats {
  std::uint64_t records_published = 0;
  std::uint64_t deliveries_sent = 0;   ///< delivery halves framed
  std::uint64_t matches_total = 0;     ///< emitted matches (crash-deduped)
  std::uint64_t records_dropped = 0;   ///< delivery halves lost for good
  std::uint64_t records_parked = 0;    ///< records parked during migrations
  std::uint64_t worker_crashes = 0;
  std::uint64_t respawns = 0;
  std::uint64_t replayed_entries = 0;  ///< log entries re-sent after a crash
  std::uint64_t suppressed_probes = 0; ///< probe halves replayed suppressed
  std::uint64_t reinjected_tuples = 0; ///< tuples re-absorbed after a crash
  std::uint64_t migrations_started = 0;
  std::uint64_t migrations_completed = 0;
  std::uint64_t migrations_aborted = 0;
  std::uint64_t checkpoints_completed = 0;
  std::uint64_t tuples_migrated = 0;
  /// Per-worker finals from the kFinal frames (filled by finish()).
  std::vector<net::FinalMsg> worker_finals;
};

class MultiprocRouter {
 public:
  explicit MultiprocRouter(MultiprocConfig cfg);
  ~MultiprocRouter();
  MultiprocRouter(const MultiprocRouter&) = delete;
  MultiprocRouter& operator=(const MultiprocRouter&) = delete;

  /// Bind, spawn all workers, and complete their handshakes. False
  /// (with *err) when the bind fails, a spawn fails, or a worker does
  /// not check in within 10 s.
  bool start(std::string* err = nullptr);

  /// Resolved endpoint string (kernel-chosen port / temp path filled).
  const std::string& endpoint() const { return endpoint_str_; }

  /// Route and stage one record for logging and framing (or park it
  /// under an active migration). Applies backpressure: blocks pumping
  /// the loop while any worker's outbound queue is over its high
  /// watermark.
  void publish(const Record& rec);

  /// One event-loop turn + child reaping. Drives timers, reads worker
  /// frames, and handles crashes; publish()/finish() call it
  /// internally, long gaps between publishes should call it too.
  void pump(std::chrono::milliseconds wait = std::chrono::milliseconds(0));

  /// Move `keys` of `side` from worker `from` to worker `to` via the
  /// Extract/Absorb wire protocol. Queued when a migration is already
  /// in flight (one at a time, and the post-migration checkpoints of
  /// the previous one must land first — that ordering is what keeps
  /// crash replay and re-injection from overlapping).
  bool request_migration(Side side, std::uint32_t from, std::uint32_t to,
                         std::vector<KeyId> keys);
  bool migration_idle() const {
    return !mig_ && mig_queue_.empty() && !await_extract_.active;
  }

  /// Chaos primitive: SIGKILL worker `w` right now. Recovery happens
  /// on subsequent pump()s.
  bool kill_worker(std::uint32_t w);
  pid_t worker_pid(std::uint32_t w) const;

  /// Flush everything, send kFinish, and collect every worker's
  /// kFinal (respawning and replaying crashed workers as needed).
  /// False on timeout.
  bool finish(std::chrono::milliseconds timeout =
                  std::chrono::milliseconds(30'000));

  const MultiprocStats& stats() const { return stats_; }
  std::uint64_t matches_total() const { return stats_.matches_total; }
  /// Collected pairs (collect_matches mode); arrival order.
  std::vector<MatchPair> take_matches() { return std::move(matches_); }

  /// Current owner of (side, key) — base hash unless overridden by a
  /// completed migration.
  std::uint32_t owner(Side side, KeyId key) const;

  /// Serving front door (nullptr when cfg.serve is false or before
  /// start()). Admission stats and tenant accounting live here.
  server::FrontDoor* frontdoor() { return frontdoor_.get(); }

  /// Copy of the retained log (partition 0) in offset order — the
  /// replayable account of everything the router ingested. With
  /// truncate_log=false this is the full input history; the serving
  /// e2e test replays it through the in-process engine to obtain the
  /// byte-identical ground truth for front-door ingest, whose seq/ts
  /// stamps exist only in the router. Commits the stage first, so every
  /// published record is included.
  std::vector<LogRecord> dump_log();

 private:
  struct WorkerSlot {
    std::uint32_t id = 0;
    pid_t pid = -1;
    std::unique_ptr<net::Connection> conn;
    bool alive = false;          ///< handshake done, conn open
    bool dead_forever = false;   ///< crashed with respawn disabled
    bool finished = false;       ///< clean kFinal received
    std::uint32_t incarnations = 0;
    net::DataBatchMsg pending;   ///< entries not yet framed
    /// Latest checkpoint; consumed_offset is the exclusive replay
    /// floor C (0 = never checkpointed, replay from the log start).
    net::SnapshotMsg snapshot;
    /// Exclusive emit watermark E: matches of probe deliveries below
    /// this offset have been received by the router.
    std::uint64_t emit_watermark = 0;
    /// Absorbed batches not yet covered by a checkpoint: must be
    /// re-injected if this worker crashes before completing a
    /// checkpoint with id >= safe_after.
    struct Reinject {
      net::AbsorbMsg batch;
      std::uint64_t safe_after = 0;
    };
    std::vector<Reinject> reinject;
    std::optional<net::FinalMsg> final;
  };

  struct Migration {
    enum class Phase { kExtractWait, kAbsorbWait, kEpilogue };
    std::uint64_t id = 0;
    Side side = Side::kR;
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    std::vector<KeyId> keys;
    Phase phase = Phase::kExtractWait;
    net::ExtractBatchMsg batch;
    net::EventLoop::TimerId timer = 0;
    /// Pending post-migration checkpoint ids -> participant worker, so
    /// a participant crash can drop exactly its own pending entry.
    std::unordered_map<std::uint64_t, std::uint32_t> epilogue_ckpts;
  };

  struct QueuedMigration {
    Side side;
    std::uint32_t from, to;
    std::vector<KeyId> keys;
  };

  // Data plane.
  /// Park `rec` if a migration holds its key, else stage it. True when
  /// staged.
  bool park_or_stage(const Record& rec);
  void stage(const Record& rec);
  void commit_stage();
  void deliver(std::uint32_t w, std::uint64_t offset, const Record& rec,
               std::uint8_t flags);
  void flush_pending(std::uint32_t w);
  void flush_all_pending();
  void wait_writable();

  // Connection plumbing.
  void on_accept(net::Socket peer);
  void attach_worker(std::uint32_t w, std::unique_ptr<net::Connection> conn);
  void on_worker_frame(std::uint32_t w, net::Frame& f);
  void on_worker_close(std::uint32_t w, const std::string& reason,
                       bool clean);
  bool protocol_error(std::uint32_t w, const std::string& what);

  // Crash handling.
  void handle_crash(std::uint32_t w, const std::string& reason);
  bool respawn_worker(std::uint32_t w, std::string* err);
  void restore_and_replay(std::uint32_t w);
  std::vector<std::string> worker_argv(std::uint32_t w) const;

  // Checkpoints.
  /// Issue a checkpoint request to `w`; returns the assigned ckpt id.
  std::uint64_t request_checkpoint_id(std::uint32_t w);
  void checkpoint_round();
  void on_checkpoint_done(std::uint32_t w, net::SnapshotMsg msg);
  void maybe_truncate_log();

  // Serving front door. The sink/query callbacks run inside event-loop
  // dispatch, so they must never pump() (re-entrancy) — the sink
  // refuses with false (-> kBackpressure) instead of blocking when
  // worker queues are over their high watermark.
  bool serve_sink(const std::string& tenant,
                  const std::vector<server::ClientRecord>& recs,
                  server::AppendAckMsg* ack);
  void serve_query(const server::QueryMsg& q, server::QueryResultMsg* out);
  std::uint64_t serve_inflight_bytes() const;
  /// Workers ship pairs when the host wants them or the query surface
  /// needs its recent-matches ring.
  bool ship_pairs() const { return cfg_.collect_matches || cfg_.serve; }

  // Migrations.
  void start_migration(QueuedMigration q);
  void start_next_migration();
  void on_extract_batch(std::uint32_t w, net::ExtractBatchMsg msg);
  void on_absorb_ack(std::uint32_t w, net::AbsorbAckMsg msg);
  void abort_migration(const std::string& why);
  void finish_migration_if_epilogue_done();
  void unpark();
  void reinject_into(std::uint32_t w, std::vector<net::WireTuple> tuples);
  void arm_migration_timer();

  MultiprocConfig cfg_;
  net::EventLoop loop_;
  std::unique_ptr<net::Acceptor> acceptor_;
  net::Endpoint endpoint_;
  std::string endpoint_str_;
  std::unique_ptr<StreamLog> log_;
  ProcessSupervisor sup_;
  std::vector<WorkerSlot> workers_;
  /// Accepted but not yet identified by a kHello.
  std::vector<std::unique_ptr<net::Connection>> limbo_;

  /// Per-side routing overrides installed by completed migrations.
  std::unordered_map<KeyId, std::uint32_t> overrides_[2];

  /// Routed records waiting for one log append (see the invariant at
  /// the top of this file).
  std::vector<LogRecord> stage_;

  std::optional<Migration> mig_;
  std::deque<QueuedMigration> mig_queue_;
  std::vector<Record> parked_;
  std::unordered_set<KeyId> park_keys_;

  /// An aborted migration whose kExtract reply is still in flight. The
  /// source already removed the tuples from its store, and the reinject
  /// can only be queued once the reply lands — so the keys stay parked
  /// until then, or probes racing the reply lose matches forever. While
  /// active, no new migration may start (it would repurpose the park).
  struct AwaitExtract {
    std::uint64_t mig_id = 0;
    std::uint32_t from = 0;
    bool active = false;
  };
  AwaitExtract await_extract_;

  std::uint64_t next_mig_id_ = 1;
  std::uint64_t next_ckpt_id_ = 1;
  std::uint64_t records_since_ckpt_ = 0;
  std::uint64_t pump_credit_ = 0;
  bool finishing_ = false;
  bool started_ = false;

  MultiprocStats stats_;
  std::vector<MatchPair> matches_;

  // --- serving state (cfg_.serve only) ------------------------------
  std::unique_ptr<server::FrontDoor> frontdoor_;
  /// Stream stamps owned by the single ingest point: per-side seq and
  /// a global arrival ts. Clients cannot forge positions.
  std::uint64_t serve_next_seq_[2] = {0, 0};
  std::uint64_t serve_next_ts_ = 0;
  /// Per-worker per-key stored-tuple counts rebuilt from each completed
  /// checkpoint snapshot — the query surface's consistent cut.
  struct ServeSnap {
    std::unordered_map<KeyId, std::uint64_t> counts[2];
    std::uint64_t ckpt_id = 0;
  };
  std::vector<ServeSnap> serve_snap_;
  /// Bounded ring of the newest match pairs (query "recent matches").
  std::deque<MatchPair> serve_recent_;
  static constexpr std::size_t kServeRecentCap = 4096;
};

/// Worker-process entry point: connect to the router at `endpoint`,
/// serve frames until kFinish (or the router goes away). Returns the
/// process exit code.
int multiproc_worker_run(std::uint32_t worker_id,
                         const std::string& endpoint);

/// argv glue for binaries that double as their own worker child
/// (tests, benches, fastjoin_worker): when argv contains
/// `--multiproc-worker`, runs the worker and returns its exit code;
/// otherwise returns -1 and the caller proceeds as usual.
int multiproc_worker_maybe_run(int argc, char** argv);

}  // namespace fastjoin
