// Live multithreaded runtime: the same join/migration logic on real
// threads. Completeness must hold under concurrency and migrations.
#include "runtime/live_engine.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "datagen/keygen.hpp"
#include "runtime/placement.hpp"

namespace fastjoin {
namespace {

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
    rec.ts = i;  // strictly increasing: a total order over the feed
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

TEST(LiveRuntime, ProcessesAllRecords) {
  LiveConfig cfg;
  cfg.instances = 2;
  cfg.balancer = false;
  LiveEngine engine(cfg);
  engine.start();
  const auto trace = make_trace(1, 10'000, 100, 1.0);
  for (const auto& rec : trace) engine.push(rec);
  const auto stats = engine.finish();
  EXPECT_EQ(stats.records_in, trace.size());
  EXPECT_EQ(stats.stores + stats.probes, trace.size() * 2);
}

TEST(LiveRuntime, ExactlyOnceWithoutBalancer) {
  LiveConfig cfg;
  cfg.instances = 3;
  cfg.balancer = false;
  LiveEngine engine(cfg);
  engine.start();
  const auto trace = make_trace(2, 12'000, 500, 1.1);
  for (const auto& rec : trace) engine.push(rec);
  const auto stats = engine.finish();
  EXPECT_EQ(stats.results, expected_pairs(trace));
}

TEST(LiveRuntime, ExactlyOnceWithMigrations) {
  LiveConfig cfg;
  cfg.instances = 4;
  cfg.balancer = true;
  cfg.planner.theta = 1.2;
  cfg.min_heaviest_load = 10.0;
  cfg.monitor_period = std::chrono::milliseconds(2);
  LiveEngine engine(cfg);

  std::mutex mu;
  std::set<std::tuple<KeyId, std::uint64_t, std::uint64_t>> seen;
  std::size_t duplicates = 0;
  engine.set_on_match([&](const MatchPair& p) {
    std::lock_guard<std::mutex> lock(mu);
    if (!seen.insert({p.key, p.r_seq, p.s_seq}).second) ++duplicates;
  });

  engine.start();
  const auto trace = make_trace(3, 10'000, 1000, 1.0);
  for (const auto& rec : trace) engine.push(rec);
  const auto stats = engine.finish();

  EXPECT_EQ(duplicates, 0u);
  EXPECT_EQ(seen.size(), expected_pairs(trace));
  EXPECT_EQ(stats.results, expected_pairs(trace));
}

TEST(LiveRuntime, MigrationsFireUnderSkew) {
  LiveConfig cfg;
  cfg.instances = 4;
  cfg.balancer = true;
  cfg.planner.theta = 1.2;
  cfg.min_heaviest_load = 10.0;
  cfg.monitor_period = std::chrono::milliseconds(1);
  LiveEngine engine(cfg);
  engine.start();
  const auto trace = make_trace(4, 30'000, 300, 1.3);
  for (const auto& rec : trace) engine.push(rec);
  const auto stats = engine.finish();
  EXPECT_GT(stats.migrations, 0u);
  EXPECT_GT(stats.tuples_migrated, 0u);
  EXPECT_EQ(stats.results, expected_pairs(trace));
}

TEST(LiveRuntime, LatencyStatsPopulated) {
  LiveConfig cfg;
  cfg.instances = 2;
  cfg.balancer = false;
  LiveEngine engine(cfg);
  engine.start();
  for (const auto& rec : make_trace(5, 5'000, 50, 1.0)) engine.push(rec);
  const auto stats = engine.finish();
  EXPECT_GT(stats.probes, 0u);
  EXPECT_GT(stats.mean_latency_us, 0.0);
  EXPECT_GE(stats.p99_latency_us, 0.0);
}

TEST(LiveRuntime, DestructorWithoutFinishIsSafe) {
  LiveConfig cfg;
  cfg.instances = 2;
  {
    LiveEngine engine(cfg);
    engine.start();
    for (const auto& rec : make_trace(6, 1'000, 20, 1.0)) {
      engine.push(rec);
    }
    // finish() runs from the destructor.
  }
  SUCCEED();
}

TEST(LiveRuntime, FinishDoesNotWaitOutTheMonitorPeriod) {
  LiveConfig cfg;
  cfg.instances = 2;
  cfg.balancer = false;
  cfg.monitor_period = std::chrono::seconds(1);
  LiveEngine engine(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  engine.start();
  // Let the monitor enter its first tick's sleep before shutting down.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  (void)engine.finish();
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(500));
}

TEST(LiveRuntime, SlicedMonitorSleepStillAdvancesVirtualTime) {
  // Under a VirtualClock the monitor's sleep slices add up to whole
  // periods of virtual time, so window ticks keep firing and evicting.
  VirtualClock clock;
  LiveConfig cfg;
  cfg.instances = 2;
  cfg.balancer = false;
  cfg.clock = &clock;
  cfg.window_subwindows = 2;
  cfg.subwindow_len = std::chrono::milliseconds(100);
  LiveEngine engine(cfg);
  engine.start();
  for (const auto& rec : make_trace(9, 2'000, 50, 1.0)) engine.push(rec);
  const auto pushed_at = clock.now();
  while (clock.now() < pushed_at + std::chrono::seconds(1)) {
    std::this_thread::yield();
  }
  const auto stats = engine.finish();
  EXPECT_GT(stats.evicted, 0u);
}

TEST(LiveRuntime, WindowedJoinEvicts) {
  LiveConfig cfg;
  cfg.instances = 2;
  cfg.balancer = true;  // the monitor thread drives window ticks
  cfg.planner.theta = 1e12;  // no migrations, just windows
  cfg.monitor_period = std::chrono::milliseconds(1);
  cfg.window_subwindows = 2;
  cfg.subwindow_len = std::chrono::milliseconds(5);
  LiveEngine engine(cfg);
  engine.start();
  const auto trace = make_trace(8, 5'000, 100, 1.0);
  for (const auto& rec : trace) {
    engine.push(rec);
    // Slow feed so several sub-windows elapse mid-stream.
    if (rec.seq % 500 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  const auto stats = engine.finish();
  EXPECT_GT(stats.evicted, 0u);
  // Windowed results are a strict subset of the full-history join.
  EXPECT_LT(stats.results, expected_pairs(trace));
  EXPECT_GT(stats.results, 0u);
}

TEST(LiveRuntime, FullHistoryNeverEvicts) {
  LiveConfig cfg;
  cfg.instances = 2;
  cfg.balancer = true;
  cfg.planner.theta = 1e12;
  cfg.monitor_period = std::chrono::milliseconds(1);
  cfg.window_subwindows = 0;
  LiveEngine engine(cfg);
  engine.start();
  const auto trace = make_trace(9, 5'000, 100, 1.0);
  for (const auto& rec : trace) engine.push(rec);
  const auto stats = engine.finish();
  EXPECT_EQ(stats.evicted, 0u);
  EXPECT_EQ(stats.results, expected_pairs(trace));
}

TEST(LiveRuntime, RepeatedRunsConsistent) {
  const auto trace = make_trace(7, 10'000, 400, 1.1);
  const auto expected = expected_pairs(trace);
  for (int round = 0; round < 3; ++round) {
    LiveConfig cfg;
    cfg.instances = 3;
    cfg.balancer = (round % 2 == 1);
    cfg.planner.theta = 1.3;
    cfg.min_heaviest_load = 10.0;
    cfg.monitor_period = std::chrono::milliseconds(2);
    LiveEngine engine(cfg);
    engine.start();
    for (const auto& rec : trace) engine.push(rec);
    const auto stats = engine.finish();
    EXPECT_EQ(stats.results, expected) << "round " << round;
  }
}

TEST(SpinPolicy, CollapsesSpinningOnlyWhenOversubscribed) {
  Topology two_cpus;
  two_cpus.cpu_ids = {0, 1};

  // More always-on threads than CPUs: every spin steals the quantum of
  // the thread being waited on, so idle loops park almost at once.
  const SpinPolicy crowded = SpinPolicy::derive(two_cpus, 5);
  EXPECT_TRUE(crowded.oversubscribed);
  EXPECT_EQ(crowded.spin_iters, 0u);
  EXPECT_EQ(crowded.yield_iters, 2u);

  // One CPU per thread: keep the default spin and yield budget.
  const SpinPolicy roomy = SpinPolicy::derive(two_cpus, 2);
  EXPECT_FALSE(roomy.oversubscribed);
  EXPECT_EQ(roomy.spin_iters, 4u);
  EXPECT_EQ(roomy.yield_iters, 20u);
}

}  // namespace
}  // namespace fastjoin
