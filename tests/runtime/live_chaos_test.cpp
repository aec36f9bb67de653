// Chaos tests for the live runtime: workers are crashed at precise
// migration-protocol points (via LiveConfig::chaos) and at random, and
// the engine must (a) never emit a duplicate match, (b) lose at most a
// bounded window of records, (c) recover crashed workers from
// checkpoints, and (d) never deadlock the monitor thread.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "runtime/live_engine.hpp"

#include "datagen/keygen.hpp"
#include "telemetry/metrics.hpp"

namespace fastjoin {
namespace {

/// Snapshot of the global live.recoveries counter, taken before a
/// crash is injected so wait_for_recoveries can observe the delta (the
/// registry is process-global, so absolute values accumulate across
/// tests in the same binary).
std::uint64_t recoveries_now() {
  return telemetry::MetricRegistry::global().counter("live.recoveries").value();
}

/// Wait (bounded) until the supervisor has logged `want` respawns past
/// `before`. A fixed post-crash sleep is a race under sanitizer
/// slowdown: the 2ms-period monitor may not get scheduled, let alone
/// finish the store rebuild, before finish() closes the feed. With
/// FASTJOIN_NO_TELEMETRY the stub counter reads 0 forever, so fall
/// back to a fixed 100ms grace sleep — generous at native speed, and
/// the notel leg does not run under sanitizers.
void wait_for_recoveries(std::uint64_t before, std::uint64_t want = 1) {
#ifdef FASTJOIN_NO_TELEMETRY
  (void)before;
  (void)want;
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
#else
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (recoveries_now() >= before + want) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
#endif
  // Let the respawned worker re-enter its drain loop before the caller
  // proceeds (the counter ticks when the respawn is published).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

std::vector<Record> make_trace(std::uint64_t seed, int total,
                               int num_keys, double zipf) {
  KeyStreamSpec spec;
  spec.num_keys = num_keys;
  spec.zipf_s = zipf;
  spec.seed = seed;
  KeyGenerator gen(spec);
  Xoshiro256 rng(seed ^ 0xbeef);
  std::vector<Record> out;
  std::uint64_t r_seq = 0, s_seq = 0;
  for (int i = 0; i < total; ++i) {
    Record rec;
    rec.side = rng.next_below(2) ? Side::kS : Side::kR;
    rec.key = gen();
    rec.seq = rec.side == Side::kR ? r_seq++ : s_seq++;
    rec.ts = i;
    rec.payload = i;
    out.push_back(rec);
  }
  return out;
}

std::uint64_t expected_pairs(const std::vector<Record>& trace) {
  std::map<KeyId, std::pair<std::uint64_t, std::uint64_t>> counts;
  for (const auto& rec : trace) {
    auto& [r, s] = counts[rec.key];
    (rec.side == Side::kR ? r : s)++;
  }
  std::uint64_t total = 0;
  for (const auto& [_, rs] : counts) total += rs.first * rs.second;
  return total;
}

/// Duplicate detector shared by every chaos scenario. Pairs are folded
/// to 64-bit fingerprints (splitmix64 over key/r_seq/s_seq) so skewed
/// traces with millions of matches stay cheap to dedupe; a collision
/// falsely flagging a duplicate has probability ~n^2/2^64.
class MatchLog {
 public:
  void attach(LiveEngine& engine) {
    engine.set_on_match([this](const MatchPair& p) {
      const std::uint64_t fp =
          mix(mix(p.key) ^ mix(p.r_seq * 0x9e3779b97f4a7c15ull) ^
              mix(p.s_seq + 0xbf58476d1ce4e5b9ull));
      std::lock_guard<std::mutex> lock(mu_);
      if (!seen_.insert(fp).second) ++duplicates_;
    });
  }
  std::size_t duplicates() const {
    std::lock_guard<std::mutex> lock(mu_);
    return duplicates_;
  }
  std::size_t unique() const {
    std::lock_guard<std::mutex> lock(mu_);
    return seen_.size();
  }

 private:
  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  mutable std::mutex mu_;
  std::unordered_set<std::uint64_t> seen_;
  std::size_t duplicates_ = 0;
};

TEST(LiveChaos, CrashAndRecoverFromCheckpoint) {
  LiveConfig cfg;
  cfg.instances = 2;
  cfg.balancer = false;
  cfg.monitor_period = std::chrono::milliseconds(2);
  cfg.checkpoint_period = std::chrono::milliseconds(5);
  LiveEngine engine(cfg);
  MatchLog log;
  log.attach(engine);
  engine.start();

  const auto trace = make_trace(21, 20'000, 200, 1.0);
  const std::uint64_t expected = expected_pairs(trace);
  const std::uint64_t before = recoveries_now();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    engine.push(trace[i]);
    if (i == trace.size() / 2) {
      // Let a checkpoint land, then kill a worker mid-stream.
      std::this_thread::sleep_for(std::chrono::milliseconds(15));
      engine.crash(Side::kR, 0);
    }
    if (i % 2000 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  }
  // Let the supervisor respawn before the feed closes.
  wait_for_recoveries(before);
  const auto stats = engine.finish();

  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_GT(stats.checkpoints, 0u);
  EXPECT_GT(stats.tuples_restored, 0u);
  EXPECT_GT(stats.mean_recovery_ms, 0.0);
  EXPECT_EQ(log.duplicates(), 0u);
  // Bounded loss: everything outside the crash window survives.
  EXPECT_LE(log.unique(), expected);
  EXPECT_GE(log.unique(), expected / 2);
  EXPECT_EQ(stats.results, log.unique());
}

TEST(LiveChaos, CrashWithoutCheckpointLosesStoreButNoDuplicates) {
  LiveConfig cfg;
  cfg.instances = 2;
  cfg.balancer = false;
  cfg.monitor_period = std::chrono::milliseconds(2);
  cfg.checkpoint_period = std::chrono::milliseconds(0);  // off
  LiveEngine engine(cfg);
  MatchLog log;
  log.attach(engine);
  engine.start();

  const auto trace = make_trace(22, 10'000, 100, 1.0);
  const std::uint64_t before = recoveries_now();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    engine.push(trace[i]);
    if (i == trace.size() / 2) engine.crash(Side::kS, 1);
  }
  wait_for_recoveries(before);
  const auto stats = engine.finish();

  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_EQ(stats.tuples_restored, 0u);
  EXPECT_EQ(log.duplicates(), 0u);
  EXPECT_LE(log.unique(), expected_pairs(trace));
}

/// Crash one migration endpoint at one protocol phase; the engine must
/// finish with zero duplicates and recover the victim. `expect_abort`:
/// a dead target forces an explicit abort when the crash is discovered
/// at the next send to it (kSelected -> Hold fails, kForwarded ->
/// Absorb fails); at the other phases the supervisor may respawn the
/// target before Absorb, in which case the migration rolls forward.
/// With `with_ingest` the StreamLog replay path is on, which upgrades
/// the loss bound: records_dropped must be exactly 0 (residual loss is
/// confined to LiveStats::buffered_lost, records that died inside
/// migration machinery).
void run_phase_crash(MigrationPhase phase, bool crash_src,
                     bool expect_abort = false, bool with_ingest = false) {
  LiveConfig cfg;
  cfg.instances = 4;
  cfg.balancer = true;
  cfg.planner.theta = 1.2;
  cfg.min_heaviest_load = 10.0;
  cfg.monitor_period = std::chrono::milliseconds(1);
  cfg.checkpoint_period = std::chrono::milliseconds(5);
  // Injected crashes are discovered fast (closed queues); the timeout only
  // fires when a live worker is merely slow. Keep it generous so sanitizer
  // slowdown can't spuriously declare the source dead and roll the migration
  // forward before the injected crash lands — that would make the
  // expect_abort assertion below unsatisfiable.
  cfg.migration_timeout = std::chrono::milliseconds(10'000);
  cfg.ingest.enabled = with_ingest;

  LiveEngine* eng = nullptr;
  std::atomic<bool> fired{false};
  cfg.chaos = [&](Side group, InstanceId src, InstanceId dst,
                  MigrationPhase at) {
    // Firings after finish() began inject nothing (crash() is a no-op
    // then), so they must not satisfy the wait loop below.
    if (at != phase || !eng->running()) return;
    if (fired.exchange(true)) return;  // one crash per scenario
    eng->crash(group, crash_src ? src : dst);
  };

  LiveEngine engine(cfg);
  eng = &engine;
  MatchLog log;
  log.attach(engine);
  engine.start();

  // Moderate skew keeps the match volume (and so worker backlogs and
  // migration-reply latency) small while stored-count imbalance still
  // trips theta reliably.
  const auto trace = make_trace(23, 15'000, 200, 0.9);
  for (const auto& rec : trace) engine.push(rec);
  // Keep the engine alive until the targeted phase actually fires (the
  // monitor needs a few ticks of load statistics before it migrates).
  for (int i = 0; i < 1'000 && !fired.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Give the supervisor time to abort the migration and respawn.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto stats = engine.finish();

  SCOPED_TRACE(std::string("phase=") + migration_phase_name(phase) +
               " victim=" + (crash_src ? "src" : "dst") +
               (with_ingest ? " ingest" : ""));
  EXPECT_TRUE(fired.load()) << "no migration fired; chaos hook unused";
  // Exactly one injected crash; a heavily backlogged worker may also be
  // declared dead by the migration timeout, hence >= not ==.
  EXPECT_GE(stats.crashes, 1u);
  EXPECT_GE(stats.recoveries, 1u);
  EXPECT_EQ(log.duplicates(), 0u);
  const std::uint64_t expected = expected_pairs(trace);
  EXPECT_LE(log.unique(), expected);
  EXPECT_GE(log.unique(), expected / 2);  // bounded loss
  if (expect_abort) {
    EXPECT_GE(stats.migrations_aborted, 1u);
  }
  if (with_ingest) {
    // The replay upgrade: no delivery is ever dropped, at any protocol
    // phase. What the crash can still eat is records inside migration
    // machinery, reported (bounded) as buffered_lost, never duplicated.
    EXPECT_EQ(stats.records_dropped, 0u);
    EXPECT_EQ(stats.ingest_appended, stats.records_in);
  }
}

TEST(LiveChaos, SrcCrashBeforeHold) {
  run_phase_crash(MigrationPhase::kSelected, /*crash_src=*/true);
}
TEST(LiveChaos, DstCrashBeforeHold) {
  run_phase_crash(MigrationPhase::kSelected, /*crash_src=*/false,
                  /*expect_abort=*/true);
}
TEST(LiveChaos, SrcCrashBetweenHoldAndRouting) {
  run_phase_crash(MigrationPhase::kHeld, /*crash_src=*/true);
}
TEST(LiveChaos, DstCrashBetweenHoldAndRouting) {
  run_phase_crash(MigrationPhase::kHeld, /*crash_src=*/false);
}
TEST(LiveChaos, SrcCrashBetweenRoutingAndTakeForward) {
  run_phase_crash(MigrationPhase::kRouted, /*crash_src=*/true);
}
TEST(LiveChaos, DstCrashBetweenRoutingAndTakeForward) {
  run_phase_crash(MigrationPhase::kRouted, /*crash_src=*/false);
}
TEST(LiveChaos, SrcCrashDuringAbsorb) {
  run_phase_crash(MigrationPhase::kForwarded, /*crash_src=*/true);
}
TEST(LiveChaos, DstCrashDuringAbsorb) {
  run_phase_crash(MigrationPhase::kForwarded, /*crash_src=*/false,
                  /*expect_abort=*/true);
}

// The same eight protocol-point crashes with StreamLog replay enabled:
// every one must finish with records_dropped == 0 and zero duplicates.
TEST(LiveChaosReplay, SrcCrashBeforeHold) {
  run_phase_crash(MigrationPhase::kSelected, /*crash_src=*/true,
                  /*expect_abort=*/false, /*with_ingest=*/true);
}
TEST(LiveChaosReplay, DstCrashBeforeHold) {
  run_phase_crash(MigrationPhase::kSelected, /*crash_src=*/false,
                  /*expect_abort=*/true, /*with_ingest=*/true);
}
TEST(LiveChaosReplay, SrcCrashBetweenHoldAndRouting) {
  run_phase_crash(MigrationPhase::kHeld, /*crash_src=*/true,
                  /*expect_abort=*/false, /*with_ingest=*/true);
}
TEST(LiveChaosReplay, DstCrashBetweenHoldAndRouting) {
  run_phase_crash(MigrationPhase::kHeld, /*crash_src=*/false,
                  /*expect_abort=*/false, /*with_ingest=*/true);
}
TEST(LiveChaosReplay, SrcCrashBetweenRoutingAndTakeForward) {
  run_phase_crash(MigrationPhase::kRouted, /*crash_src=*/true,
                  /*expect_abort=*/false, /*with_ingest=*/true);
}
TEST(LiveChaosReplay, DstCrashBetweenRoutingAndTakeForward) {
  run_phase_crash(MigrationPhase::kRouted, /*crash_src=*/false,
                  /*expect_abort=*/false, /*with_ingest=*/true);
}
TEST(LiveChaosReplay, SrcCrashDuringAbsorb) {
  run_phase_crash(MigrationPhase::kForwarded, /*crash_src=*/true,
                  /*expect_abort=*/false, /*with_ingest=*/true);
}
TEST(LiveChaosReplay, DstCrashDuringAbsorb) {
  run_phase_crash(MigrationPhase::kForwarded, /*crash_src=*/false,
                  /*expect_abort=*/true, /*with_ingest=*/true);
}

// Regression: a migration batch lives in monitor memory while the
// protocol runs. If the source crashes in that window, its respawn
// regenerates the extracted tuples from checkpoint + log replay
// (routing still points at it); re-injecting the batch afterwards —
// the Absorb-failure abort re-merge here — must sequence-dedup against
// the regenerated store or every later probe of the migrated (hot)
// keys emits duplicate matches. Crash the source at Selected and the
// target at Held to force that ordering, then keep pushing so the
// re-merged keys are probed again.
TEST(LiveChaosReplay, AbortReinjectionAfterSourceRespawn) {
  LiveConfig cfg;
  cfg.instances = 4;
  cfg.balancer = true;
  cfg.planner.theta = 1.2;
  cfg.min_heaviest_load = 10.0;
  cfg.monitor_period = std::chrono::milliseconds(1);
  cfg.checkpoint_period = std::chrono::milliseconds(5);
  cfg.migration_timeout = std::chrono::milliseconds(2000);
  cfg.ingest.enabled = true;

  LiveEngine* eng = nullptr;
  std::atomic<bool> src_fired{false};
  std::atomic<bool> dst_fired{false};
  cfg.chaos = [&](Side group, InstanceId src, InstanceId dst,
                  MigrationPhase at) {
    if (!eng->running()) return;
    if (at == MigrationPhase::kSelected && !src_fired.exchange(true)) {
      eng->crash(group, src);
    } else if (at == MigrationPhase::kHeld &&
               !dst_fired.exchange(true)) {
      eng->crash(group, dst);
    }
  };

  LiveEngine engine(cfg);
  eng = &engine;
  MatchLog log;
  log.attach(engine);
  engine.start();

  const auto trace = make_trace(29, 20'000, 200, 0.9);
  const std::size_t first_wave = trace.size() * 3 / 4;
  for (std::size_t i = 0; i < first_wave; ++i) engine.push(trace[i]);
  for (int i = 0; i < 1'000 && !(src_fired.load() && dst_fired.load());
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Second wave: probes for the re-merged keys after the abort.
  for (std::size_t i = first_wave; i < trace.size(); ++i) {
    engine.push(trace[i]);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto stats = engine.finish();

  EXPECT_TRUE(src_fired.load()) << "no migration fired";
  EXPECT_GE(stats.crashes, 2u);
  EXPECT_GE(stats.recoveries, 2u);
  EXPECT_EQ(log.duplicates(), 0u);
  EXPECT_EQ(stats.records_dropped, 0u);
  const std::uint64_t expected = expected_pairs(trace);
  EXPECT_LE(log.unique(), expected);
  EXPECT_GE(log.unique(), expected / 2);
}

// --- Double-fault matrix: a second crash lands while the first one's
// recovery (replay or checkpoint) is still in flight. With ingest
// replay on, the drop ledger must stay exact through both faults:
// records_dropped == 0 (every delivery is either served once or
// re-driven from the log), zero duplicate emissions, and the
// supervisor must recover both victims without wedging. ---------------

enum class SecondFault {
  /// Crash the *other* migration endpoint at the same phase: the
  /// second victim dies while the supervisor is inside the first
  /// victim's respawn/replay (supervise() runs in the await loops), so
  /// replay deliveries retargeted at it die in its queue and must be
  /// salvaged, not leaked.
  kOtherEndpointDuringReplay,
  /// Crash a bystander after the next checkpoint round lands: the
  /// second recovery restores from a snapshot taken between the two
  /// faults, exercising checkpoint + replay layering.
  kBystanderDuringCheckpoint,
};

void run_double_fault(MigrationPhase phase, SecondFault mode) {
  LiveConfig cfg;
  cfg.instances = 4;
  cfg.balancer = true;
  cfg.planner.theta = 1.2;
  cfg.min_heaviest_load = 10.0;
  cfg.monitor_period = std::chrono::milliseconds(1);
  cfg.checkpoint_period = std::chrono::milliseconds(5);
  cfg.migration_timeout = std::chrono::milliseconds(2000);
  cfg.ingest.enabled = true;

  LiveEngine* eng = nullptr;
  std::atomic<bool> first_fired{false};
  std::atomic<bool> second_fired{false};
  std::atomic<int> victim_group{-1};
  std::atomic<std::uint32_t> bystander{0};
  cfg.chaos = [&](Side group, InstanceId src, InstanceId dst,
                  MigrationPhase at) {
    if (at != phase || !eng->running()) return;
    if (!first_fired.exchange(true)) {
      victim_group = static_cast<int>(group);
      for (InstanceId w = 0; w < cfg.instances; ++w) {
        if (w != src && w != dst) bystander = w;
      }
      eng->crash(group, dst);
      if (mode == SecondFault::kOtherEndpointDuringReplay &&
          !second_fired.exchange(true)) {
        // The monitor discovers the dead target inside its next
        // supervised wait and respawns it there; the source dies with
        // that recovery (and any replay deliveries re-routed to it)
        // in flight.
        eng->crash(group, src);
      }
    }
  };

  LiveEngine engine(cfg);
  eng = &engine;
  MatchLog log;
  log.attach(engine);
  engine.start();

  const auto trace = make_trace(27, 15'000, 200, 0.9);
  for (const auto& rec : trace) engine.push(rec);
  for (int i = 0; i < 1'000 && !first_fired.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (mode == SecondFault::kBystanderDuringCheckpoint &&
      first_fired.load() && !second_fired.exchange(true)) {
    // Let at least one checkpoint round land between the two faults.
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    engine.crash(static_cast<Side>(victim_group.load()),
                 bystander.load());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const auto stats = engine.finish();

  SCOPED_TRACE(std::string("phase=") + migration_phase_name(phase) +
               (mode == SecondFault::kOtherEndpointDuringReplay
                    ? " second=src-during-replay"
                    : " second=bystander-during-checkpoint"));
  EXPECT_TRUE(first_fired.load()) << "no migration fired";
  EXPECT_GE(stats.crashes, 2u);
  EXPECT_GE(stats.recoveries, 2u);
  EXPECT_EQ(log.duplicates(), 0u);
  // Ledger exactness through the double fault: the log re-drives every
  // delivery, so the only permissible loss is records that died inside
  // migration machinery (buffered_lost), never silent drops.
  EXPECT_EQ(stats.records_dropped, 0u);
  EXPECT_EQ(stats.ingest_appended, stats.records_in);
  const std::uint64_t expected = expected_pairs(trace);
  EXPECT_LE(log.unique(), expected);
  EXPECT_GE(log.unique(), expected / 2);
}

TEST(LiveChaosDoubleFault, SelectedThenSrcDuringReplay) {
  run_double_fault(MigrationPhase::kSelected,
                   SecondFault::kOtherEndpointDuringReplay);
}
TEST(LiveChaosDoubleFault, HeldThenSrcDuringReplay) {
  run_double_fault(MigrationPhase::kHeld,
                   SecondFault::kOtherEndpointDuringReplay);
}
TEST(LiveChaosDoubleFault, RoutedThenSrcDuringReplay) {
  run_double_fault(MigrationPhase::kRouted,
                   SecondFault::kOtherEndpointDuringReplay);
}
TEST(LiveChaosDoubleFault, ForwardedThenSrcDuringReplay) {
  run_double_fault(MigrationPhase::kForwarded,
                   SecondFault::kOtherEndpointDuringReplay);
}
TEST(LiveChaosDoubleFault, SelectedThenBystanderDuringCheckpoint) {
  run_double_fault(MigrationPhase::kSelected,
                   SecondFault::kBystanderDuringCheckpoint);
}
TEST(LiveChaosDoubleFault, HeldThenBystanderDuringCheckpoint) {
  run_double_fault(MigrationPhase::kHeld,
                   SecondFault::kBystanderDuringCheckpoint);
}
TEST(LiveChaosDoubleFault, RoutedThenBystanderDuringCheckpoint) {
  run_double_fault(MigrationPhase::kRouted,
                   SecondFault::kBystanderDuringCheckpoint);
}
TEST(LiveChaosDoubleFault, ForwardedThenBystanderDuringCheckpoint) {
  run_double_fault(MigrationPhase::kForwarded,
                   SecondFault::kBystanderDuringCheckpoint);
}

// Regression for the double-fault replay path in respawn(): a worker
// dies while a dead peer's replay deliveries (ReplayReq) are still
// queued at it. Those deliveries came out of the log and are
// idempotent, so the drain must salvage and re-route them to each
// key's current owner (or park them for the slot's own respawn) — not
// count them as losses and not leak them. Rapid same-side crash pairs
// under ingest make that window easy to hit; the ledger must stay
// exact regardless.
TEST(LiveChaosReplay, DoubleFaultSalvagesQueuedReplayDeliveries) {
  LiveConfig cfg;
  cfg.instances = 3;
  cfg.balancer = true;
  cfg.planner.theta = 1.2;
  cfg.min_heaviest_load = 10.0;
  cfg.monitor_period = std::chrono::milliseconds(1);
  cfg.checkpoint_period = std::chrono::milliseconds(4);
  cfg.migration_timeout = std::chrono::milliseconds(2000);
  cfg.ingest.enabled = true;
  LiveEngine engine(cfg);
  MatchLog log;
  log.attach(engine);
  engine.start();

  const auto trace = make_trace(28, 30'000, 200, 1.1);
  Xoshiro256 rng(77);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    engine.push(trace[i]);
    if (i % 6'000 == 5'999) {
      // Two crashes on the same side back to back: the second victim
      // is a prime retarget destination for the first one's replay.
      const Side side = static_cast<Side>(rng.next_below(2));
      const InstanceId a =
          static_cast<InstanceId>(rng.next_below(cfg.instances));
      const InstanceId b = static_cast<InstanceId>((a + 1) % cfg.instances);
      engine.crash(side, a);
      engine.crash(side, b);
      std::this_thread::sleep_for(std::chrono::milliseconds(8));
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const auto stats = engine.finish();

  EXPECT_GE(stats.crashes, 4u);
  EXPECT_EQ(stats.records_dropped, 0u);
  EXPECT_EQ(log.duplicates(), 0u);
  EXPECT_LE(log.unique(), expected_pairs(trace));
}

TEST(LiveChaosReplay, RandomCrashesUnderBalancerLoseNoDeliveries) {
  LiveConfig cfg;
  cfg.instances = 3;
  cfg.balancer = true;
  cfg.planner.theta = 1.2;
  cfg.min_heaviest_load = 10.0;
  cfg.monitor_period = std::chrono::milliseconds(1);
  cfg.checkpoint_period = std::chrono::milliseconds(4);
  cfg.migration_timeout = std::chrono::milliseconds(2000);
  cfg.ingest.enabled = true;
  LiveEngine engine(cfg);
  MatchLog log;
  log.attach(engine);
  engine.start();

  const auto trace = make_trace(26, 30'000, 200, 1.2);
  Xoshiro256 rng(101);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    engine.push(trace[i]);
    if (i % 5'000 == 4'999) {
      engine.crash(static_cast<Side>(rng.next_below(2)),
                   static_cast<InstanceId>(rng.next_below(cfg.instances)));
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const auto stats = engine.finish();

  EXPECT_GE(stats.crashes, 3u);
  EXPECT_EQ(stats.records_dropped, 0u);
  EXPECT_EQ(log.duplicates(), 0u);
  EXPECT_LE(log.unique(), expected_pairs(trace));
}

// --- Drop-ledger audits: every records_dropped path counts exact
// delivery units (a record = 2 deliveries, store + probe). -------------

TEST(LiveChaos, NotRunningPushDropsBothDeliveries) {
  LiveConfig cfg;
  cfg.instances = 2;
  cfg.balancer = false;
  LiveEngine engine(cfg);
  Record rec;
  rec.side = Side::kR;
  rec.key = 3;
  // k pre-start pushes: both deliveries of each record are lost.
  for (int i = 0; i < 5; ++i) {
    rec.seq = i;
    EXPECT_FALSE(engine.push(rec));
  }
  engine.start();
  const auto stats = engine.finish();
  EXPECT_EQ(stats.records_dropped, 10u);
  EXPECT_EQ(stats.records_in, 0u);
}

TEST(LiveChaos, DeadLaneDropsExactlyTheFailedDelivery) {
  LiveConfig cfg;
  cfg.instances = 2;
  cfg.balancer = false;
  // Slow supervisor: the crashed side stays down for the whole test.
  cfg.monitor_period = std::chrono::milliseconds(1000);
  LiveEngine engine(cfg);
  engine.start();
  engine.crash(Side::kR, 0);
  engine.crash(Side::kR, 1);  // whole R side down
  // k R-side records: each loses its store delivery (R side) but its
  // probe delivery (S side) still lands — exactly k drops.
  Record rec;
  rec.side = Side::kR;
  for (std::uint64_t i = 0; i < 100; ++i) {
    rec.key = i;
    rec.seq = i;
    EXPECT_FALSE(engine.push(rec));  // partial delivery = failure
  }
  const auto stats = engine.finish();
  EXPECT_EQ(stats.records_dropped, 100u);
  EXPECT_EQ(stats.records_in, 100u);
  EXPECT_EQ(stats.crashes, 2u);
}

TEST(LiveChaos, DropsAreCountedWhileWorkerIsDown) {
  LiveConfig cfg;
  cfg.instances = 2;
  cfg.balancer = false;
  // Slow supervisor: the dead worker stays down while we keep pushing.
  cfg.monitor_period = std::chrono::milliseconds(100);
  LiveEngine engine(cfg);
  engine.start();

  const auto trace = make_trace(24, 4'000, 50, 1.0);
  for (std::size_t i = 0; i < 2'000; ++i) engine.push(trace[i]);
  engine.crash(Side::kR, 0);
  engine.crash(Side::kR, 1);  // the whole R side is down
  std::size_t rejected = 0;
  for (std::size_t i = 2'000; i < trace.size(); ++i) {
    if (!engine.push(trace[i])) ++rejected;
  }
  const auto stats = engine.finish();
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(stats.records_dropped, 0u);
  EXPECT_EQ(stats.crashes, 2u);
}

TEST(LiveChaos, PushAndFinishGuards) {
  LiveConfig cfg;
  cfg.instances = 2;
  cfg.balancer = false;
  LiveEngine engine(cfg);

  Record rec;
  rec.side = Side::kR;
  rec.key = 7;
  rec.seq = 0;
  rec.ts = 0;

  // Before start(): push is rejected and counted, finish is an error
  // (logged, returns empty stats, does not poison the engine).
  EXPECT_FALSE(engine.push(rec));
  EXPECT_FALSE(engine.running());
  const auto empty = engine.finish();
  EXPECT_EQ(empty.records_in, 0u);

  engine.start();
  EXPECT_TRUE(engine.running());
  EXPECT_TRUE(engine.push(rec));
  engine.start();  // double start: logged, ignored
  const auto stats = engine.finish();
  EXPECT_EQ(stats.records_in, 1u);
  // The pre-start push: both of its deliveries were lost.
  EXPECT_EQ(stats.records_dropped, 2u);
  EXPECT_FALSE(engine.running());
  // After finish(): pushes are rejected, second finish returns empty,
  // and a late start() refuses to resurrect the engine.
  EXPECT_FALSE(engine.push(rec));
  const auto again = engine.finish();
  EXPECT_EQ(again.records_in, 0u);
  engine.start();
  EXPECT_FALSE(engine.running());
}

TEST(LiveChaos, SurvivesRepeatedRandomCrashes) {
  LiveConfig cfg;
  cfg.instances = 3;
  cfg.balancer = true;
  cfg.planner.theta = 1.2;
  cfg.min_heaviest_load = 10.0;
  cfg.monitor_period = std::chrono::milliseconds(1);
  cfg.checkpoint_period = std::chrono::milliseconds(4);
  cfg.migration_timeout = std::chrono::milliseconds(300);
  LiveEngine engine(cfg);
  MatchLog log;
  log.attach(engine);
  engine.start();

  const auto trace = make_trace(25, 30'000, 200, 1.2);
  Xoshiro256 rng(99);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    engine.push(trace[i]);
    if (i % 5'000 == 4'999) {
      engine.crash(static_cast<Side>(rng.next_below(2)),
                   static_cast<InstanceId>(rng.next_below(cfg.instances)));
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const auto stats = engine.finish();  // must not deadlock

  // A random pick can hit a not-yet-respawned worker (a no-op), so not
  // every one of the 6 injection points lands.
  EXPECT_GE(stats.crashes, 3u);
  // The supervisor may still be mid-abort for the final crash when the
  // engine stops; every earlier crash must have been recovered.
  EXPECT_GE(stats.recoveries, stats.crashes - 1);
  EXPECT_EQ(log.duplicates(), 0u);
  EXPECT_LE(log.unique(), expected_pairs(trace));
}

}  // namespace
}  // namespace fastjoin
