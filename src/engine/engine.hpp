// SimJoinEngine: the end-to-end distributed stream join system on the
// discrete-event cluster.
//
// Wires together: a spout pulling from a RecordSource, the dispatching
// component (router + routing table), two groups of join instances (the
// join biclique), two monitors (one per group, paper Section III-A) and
// the metrics hub. Baselines are configurations:
//   BiStream           = kHash routing, balancer disabled
//   BiStream-ContRand  = kContRand routing, balancer disabled
//   FastJoin           = kHash routing, balancer enabled (GreedyFit/SAFit)
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/planner.hpp"
#include "datagen/trace.hpp"
#include "engine/cost_model.hpp"
#include "engine/dispatcher.hpp"
#include "engine/join_instance.hpp"
#include "engine/metrics.hpp"
#include "simnet/simulator.hpp"

namespace fastjoin {

/// Dynamic load-balancing configuration (the FastJoin addition).
struct BalancerConfig {
  bool enabled = true;
  PlannerConfig planner;                  ///< theta, selector, ...
  SimTime monitor_period = kNanosPerSec;  ///< load-statistics cadence
  /// Do not trigger when even the heaviest instance is this lightly
  /// loaded (avoids migration churn on an idle system; the paper's
  /// clusters are always saturated so it never mentions this guard).
  double min_heaviest_load = 1e4;
  /// Maximum concurrent migrations per group. 1 = the paper's protocol
  /// (one heaviest/lightest pair at a time); higher values pair the
  /// k heaviest with the k lightest instances in the same period.
  std::size_t max_concurrent_migrations = 1;
};

struct EngineConfig {
  std::uint32_t instances = 48;  ///< join instances per biclique side
  /// The dispatching component's pre-processing unit (the paper's
  /// "shuffler"): applied to every record before routing. Return
  /// nullopt to drop the record (filtering), or a modified record
  /// (e.g. re-timestamping, key normalization). Null = pass-through.
  std::function<std::optional<Record>(const Record&)> preprocess;
  PartitionStrategy strategy = PartitionStrategy::kHash;
  std::uint32_t contrand_group = 4;  ///< subgroup size for kContRand
  PhiSignal phi_signal = PhiSignal::kHybrid;  ///< load-model phi source
  /// Bound per-instance per-key probe statistics to this many tracked
  /// keys via a SpaceSaving sketch (0 = exact counters). Addresses the
  /// chi_k * K memory term of the paper's SGR analysis (Section IV-C).
  std::size_t stats_capacity = 0;
  BalancerConfig balancer;
  CostModel cost;
  MigrationCosts migration;
  SimTime dispatch_latency = 100 * kNanosPerMicro;  ///< router -> instance
  /// Sliding-window join (Section III-E): number of sub-windows kept
  /// (0 = full-history join) and the length of one sub-window.
  std::uint32_t window_subwindows = 0;
  SimTime subwindow_len = kNanosPerSec;
  /// Checkpointing for fault tolerance: every period, each instance
  /// snapshots its stored tuples (0 = off). A crashed instance restores
  /// from its latest checkpoint; tuples stored since then are lost.
  SimTime checkpoint_period = 0;
  MetricsConfig metrics;
  std::uint64_t seed = 1;
  /// After the feed ends, process the backlog to completion (true) or
  /// cut the simulation at the feed horizon (false).
  bool drain = false;
};

/// Everything a bench/test needs from one run.
struct RunReport {
  std::uint64_t records_in = 0;
  std::uint64_t results = 0;
  std::uint64_t probes = 0;
  std::uint64_t stores = 0;
  std::uint64_t evicted = 0;
  double mean_throughput = 0.0;   ///< results/sec, post-warmup
  double mean_latency_ms = 0.0;   ///< mean probe latency, post-warmup
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double mean_li = 1.0;           ///< mean of max(LI_R, LI_S) post-warmup
  std::size_t migrations = 0;
  std::uint64_t tuples_migrated = 0;
  std::size_t migrations_aborted = 0;  ///< unwound by a mid-flight crash
  std::size_t failures = 0;        ///< injected instance crashes
  std::size_t failures_skipped = 0;    ///< crash requests for unknown ids
  std::uint64_t tuples_recovered = 0;  ///< restored from checkpoints
  SimTime sim_end = 0;
  SimTime feed_end = 0;  ///< when the source ran dry (0 = never did)
  TimeSeries throughput_ts;
  TimeSeries latency_ts;
  TimeSeries li_r_ts;
  TimeSeries li_s_ts;
  std::vector<TimeSeries> instance_load_r;
  std::vector<TimeSeries> instance_load_s;
  std::vector<MigrationEvent> migration_log;
  std::vector<MatchPair> pairs;  ///< only when metrics.record_pairs
};

class SimJoinEngine {
 public:
  explicit SimJoinEngine(const EngineConfig& cfg);

  /// Feed records from `source` until its end or until a record's
  /// timestamp exceeds `duration`, run the cluster, and report.
  RunReport run(RecordSource& source, SimTime duration);

  /// Elastic scale-out (paper Section IV-C): at virtual time `at`,
  /// `add` fresh instances join each side of the biclique. They start
  /// empty; the balancer populates them by migrating keys (routing
  /// overrides), with no global rehash. Call before run(); requires
  /// kHash routing and the balancer enabled to have any effect.
  void schedule_scale_out(SimTime at, std::uint32_t add);

  /// Fault injection: crash instance `id` of `group` at time `at`. The
  /// instance loses its store and queue, then restores from its latest
  /// checkpoint (nothing, if checkpointing is off). If the instance is
  /// part of an active migration, the migration is aborted first:
  /// routing overrides roll back, the target releases its held keys,
  /// and the surviving endpoint re-absorbs whatever protocol state can
  /// still be replayed without double-processing (see
  /// docs/migration_protocol.md, "Failure interactions").
  void schedule_failure(SimTime at, Side group, InstanceId id);

  // --- test hooks ------------------------------------------------------
  Simulator& simulator() { return sim_; }
  Dispatcher& dispatcher() { return dispatcher_; }
  JoinInstance& instance(Side group, InstanceId id) {
    return *groups_[static_cast<int>(group)][id];
  }
  const EngineConfig& config() const { return cfg_; }
  MetricsHub& metrics() { return *metrics_; }

 private:
  /// How far an in-flight migration has progressed, for abort unwinding.
  enum class MigPhase : std::uint8_t {
    kSelecting,       ///< source quiescing / selecting keys
    kExtracted,       ///< batch extracted from the source
    kAbsorbed,        ///< target merged the batch (pending enqueued there)
    kRoutingUpdated,  ///< dispatcher overrides installed
  };
  /// One in-flight migration; both endpoints map to the same record so
  /// a crash of either can find and abort it.
  struct ActiveMigration {
    MigrationPair pair;
    MigPhase phase = MigPhase::kSelecting;
    bool aborted = false;
    bool hold_installed = false;
    std::shared_ptr<MigrationBatch> batch;
    /// Override state per key before this migration installed its own,
    /// for rollback (nullopt = no override, key was at its hash home).
    std::vector<std::pair<KeyId, std::optional<InstanceId>>> prev_overrides;
  };

  void feed_next(RecordSource& source, SimTime duration);
  void dispatch(const Record& rec);
  void monitor_tick(Side group, SimTime duration);
  void start_migration(Side group, const MigrationPair& pair);
  void abort_migration(Side group, const std::shared_ptr<ActiveMigration>& am,
                       InstanceId crashed);
  void end_migration(Side group, const ActiveMigration& am);
  void window_tick(SimTime duration);
  void checkpoint_tick(SimTime duration);

  EngineConfig cfg_;
  Simulator sim_;
  Dispatcher dispatcher_;
  std::unique_ptr<MetricsHub> metrics_;
  std::vector<std::unique_ptr<JoinInstance>> groups_[2];
  /// Busy src/dst ids -> their in-flight migration.
  std::unordered_map<InstanceId, std::shared_ptr<ActiveMigration>>
      migrating_[2];
  std::uint64_t records_in_ = 0;
  std::uint64_t evicted_ = 0;
  SimTime feed_end_ = 0;
  JoinInstance::Hooks instance_hooks_;
  std::uint64_t tuples_migrated_ = 0;
  std::size_t migrations_aborted_ = 0;
  std::size_t failures_ = 0;
  std::size_t failures_skipped_ = 0;
  std::uint64_t tuples_recovered_ = 0;
  std::vector<std::vector<std::pair<KeyId, StoredTuple>>> checkpoints_[2];
  std::vector<InstanceId> probe_dsts_;  // scratch
};

/// Convenience name for the three systems under comparison.
enum class SystemKind : std::uint8_t {
  kBiStream,
  kBiStreamContRand,
  kFastJoin,
  kFastJoinSA,
};

const char* system_name(SystemKind k);

/// Apply a system preset to a config (strategy + balancer settings).
void apply_system(EngineConfig& cfg, SystemKind kind);

}  // namespace fastjoin
