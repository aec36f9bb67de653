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
// each worker was supposed to receive, and a worker's store is a pure
// function of it: the store halves of the records whose (side, key)
// the worker owns now, in offset order. That is what makes crash
// recovery exact without any worker ever shipping its store:
//
//   crash    = socket EOF (or waitpid) on a worker connection
//   recover  = SIGKILL the remains, fork/exec a fresh worker, then one
//              pass over the log in offset order: the store half of
//              every record whose (side, key) the worker owns now
//              (owner(), not the publish-time stamp), and the probe
//              half of every record stamped for it at offset >= its
//              emit watermark E. Probes below E are skipped: their
//              matches already reached the router.
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
// watermark, even when no match is pending) before answering kCheckpoint
// or kExtract, so a flush round or an extract raises E to the worker's
// consumed offset. A probe at or above E replays to the same matches,
// because keys move whole (below) and any move away from a worker
// passes an extract, which lifts E past every probe the worker got for
// the moving keys. docs/migration_protocol.md ("Wire mapping") has the
// full argument.
//
// Migration ("park at the router"): the single ingest point collapses
// the in-process Hold/TakeForward/Release machinery. While keys move,
// records touching them are parked *before* they are logged; on
// commit (route flip) or abort they are logged and delivered with
// their final stamps, preserving per-(side,key) FIFO. See
// docs/migration_protocol.md ("Wire mapping").
#pragma once

#include <array>
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
  /// Broadcast a flush round (kCheckpoint) every N published records
  /// (0 = never). A round advances every worker's emit watermark, so a
  /// later restore replays fewer probes; no store state travels.
  std::uint64_t checkpoint_every = 0;
  /// Respawn + rebuild crashed workers. When false a crash permanently
  /// loses the worker and its store and undelivered halves count as
  /// dropped.
  bool respawn = true;
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
  std::uint64_t replayed_entries = 0;  ///< log entries re-sent by restores
  std::uint64_t skipped_probes = 0;    ///< restore probes below E, not re-sent
  std::uint64_t migrations_started = 0;
  std::uint64_t migrations_completed = 0;
  std::uint64_t migrations_aborted = 0;
  std::uint64_t checkpoints_completed = 0;  ///< flush rounds answered
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
  /// in flight (one at a time: a migration owns the park).
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

  /// Copy of the log (partition 0) in offset order — the full input
  /// history, since restores read it from its start. The serving e2e
  /// test replays it through the in-process engine to obtain the
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
    /// Exclusive emit watermark E: matches of probe deliveries below
    /// this offset have been received by the router. Kept across
    /// incarnations: it is what a restore skips.
    std::uint64_t emit_watermark = 0;
    std::optional<net::FinalMsg> final;
  };

  struct Migration {
    enum class Phase { kExtractWait, kAbsorbWait };
    std::uint64_t id = 0;
    Side side = Side::kR;
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    std::vector<KeyId> keys;
    Phase phase = Phase::kExtractWait;
    net::ExtractBatchMsg batch;
    net::EventLoop::TimerId timer = 0;
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
  /// Queue a control frame to `w` behind its pending deliveries. False
  /// when `w` is down, or went down (crash handling done) flushing them.
  bool send_control(std::uint32_t w, net::MsgType type,
                    const std::vector<std::byte>& payload);
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
  /// One offset-order pass over the log: f(record, flags) for each
  /// record with a half worker w needs after a crash — the store half
  /// when w owns its (side, key) now, the probe half when stamped for w
  /// at or above E. Returns the probes skipped below E.
  template <typename F>
  std::uint64_t walk_log_for(std::uint32_t w, F&& f);
  /// Rebuild a re-attached worker from one pass over the log.
  void restore_from_log(std::uint32_t w);
  std::vector<std::string> worker_argv(std::uint32_t w) const;

  /// Flush round: every live worker flushes its matches and answers.
  void checkpoint_round();

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
  void unpark();
  /// Return an aborted extract's tuples to a live source. A source that
  /// is down gets them back from its rebuild instead (no route flipped).
  void return_to_source(std::uint32_t w, std::vector<net::WireTuple> tuples);
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
  /// source already removed the tuples from its store, and they can
  /// only go back once the reply lands — so the keys stay parked until
  /// then, or probes racing the reply lose matches forever. While
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
  /// Logged records per key and side, counted at commit: the query
  /// surface's cut is the log's end, consistent by construction. A
  /// committed record counts at once, but the table update that costs
  /// a cache miss per record waits for settle(), which pump() runs after
  /// the dispatch pass that acked the append; until then get() finds
  /// the record in a short unsettled list. The table is 4096
  /// open-addressing shards of 16-byte slots, 64 slots each to start; a
  /// shard that fills rehashes alone, so growing moves 1/4096 of the
  /// keys and never stalls the loop for the whole table. A count
  /// saturates at 2^32 - 1 (200 GB of one key's side at 48 B a log
  /// record).
  class KeyCounts {
   public:
    void add(const std::vector<LogRecord>& batch);
    void settle();
    std::array<std::uint64_t, 2> get(KeyId key) const;

   private:
    struct Slot {
      KeyId key;
      std::array<std::uint32_t, 2> n;  ///< both zero: the slot is free
    };
    struct Shard {
      std::unique_ptr<Slot[]> slots;
      unsigned bits = 0;  ///< 2^bits slots once allocated
      std::size_t used = 0;
    };
    static constexpr unsigned kShardBits = 12;
    static bool is_free(const Slot& s) { return (s.n[0] | s.n[1]) == 0; }
    static std::uint64_t hash(KeyId key) {
      return key * 0x9E3779B97F4A7C15ull;
    }
    static std::size_t shard_of(KeyId key) {
      return hash(key) >> (64 - kShardBits);
    }
    /// The key's slot in `sh`, or the free slot where it would go.
    static std::size_t probe(const Shard& sh, KeyId key);
    static void grow(Shard& sh);

    std::array<Shard, std::size_t{1} << kShardBits> shards_;
    std::vector<std::pair<KeyId, Side>> unsettled_;
  };
  KeyCounts serve_counts_;
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
