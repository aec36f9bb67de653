// Stress tests for the lock-free, batched data plane: multiple
// registered producers pushing batches concurrently with migrations and
// crashes. The watermark-barrier ordering invariant is what is under
// test — every scenario asserts zero duplicate matches, and the clean
// runs additionally assert exact completeness and per-key pair sets,
// which fail if any record is processed out of per-key order (a probe
// overtaking its matching store loses the match; a store overtaking an
// earlier probe mints an extra one).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "runtime/live_engine.hpp"

#include "datagen/keygen.hpp"

namespace fastjoin {
namespace {

/// Per-producer trace over a key space disjoint from every other
/// producer's (key = base * n_producers + producer), with globally
/// unique, per-producer-increasing timestamps (ts = i * n_producers +
/// producer). Disjoint keys make the union's expected pair set exactly
/// the sum of per-producer expectations regardless of interleaving.
std::vector<Record> make_producer_trace(int producer, int n_producers,
                                        int total, int num_keys,
                                        double zipf) {
  KeyStreamSpec spec;
  spec.num_keys = num_keys;
  spec.zipf_s = zipf;
  spec.seed = 77 + static_cast<std::uint64_t>(producer);
  KeyGenerator gen(spec);
  Xoshiro256 rng(spec.seed ^ 0xbeef);
  std::vector<Record> out;
  out.reserve(total);
  std::uint64_t r_seq = 0, s_seq = 0;
  for (int i = 0; i < total; ++i) {
    Record rec;
    rec.side = rng.next_below(2) ? Side::kS : Side::kR;
    rec.key = gen() * static_cast<KeyId>(n_producers) +
              static_cast<KeyId>(producer);
    rec.seq = rec.side == Side::kR ? r_seq++ : s_seq++;
    rec.ts = static_cast<std::uint64_t>(i) * n_producers + producer;
    rec.payload = rec.ts;
    out.push_back(rec);
  }
  return out;
}

std::uint64_t expected_pairs(const std::vector<std::vector<Record>>& traces) {
  std::map<KeyId, std::pair<std::uint64_t, std::uint64_t>> counts;
  for (const auto& trace : traces) {
    for (const auto& rec : trace) {
      auto& [r, s] = counts[rec.key];
      (rec.side == Side::kR ? r : s)++;
    }
  }
  std::uint64_t total = 0;
  for (const auto& [_, rs] : counts) total += rs.first * rs.second;
  return total;
}

std::uint64_t fingerprint(const MatchPair& p) {
  auto mix = [](std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  };
  return mix(mix(mix(p.key) ^ p.r_seq) ^ p.s_seq);
}

/// Thread-safe duplicate detector over match fingerprints.
class MatchLog {
 public:
  void add(const MatchPair& p) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!seen_.insert(fingerprint(p)).second) ++duplicates_;
  }
  std::uint64_t duplicates() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return duplicates_;
  }
  std::uint64_t unique() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return seen_.size();
  }
  bool contains(std::uint64_t fp) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return seen_.count(fp) > 0;
  }

 private:
  mutable std::mutex mutex_;
  std::unordered_set<std::uint64_t> seen_;
  std::uint64_t duplicates_ = 0;
};

/// Feed every trace from its own registered-producer thread in batches.
void feed_concurrently(LiveEngine& engine,
                       const std::vector<std::vector<Record>>& traces,
                       std::size_t batch_size) {
  std::vector<std::thread> producers;
  producers.reserve(traces.size());
  for (const auto& trace : traces) {
    producers.emplace_back([&engine, &trace, batch_size] {
      const int id = engine.register_producer();
      for (std::size_t i = 0; i < trace.size(); i += batch_size) {
        const std::size_t n = std::min(batch_size, trace.size() - i);
        engine.push_batch(trace.data() + i, n, id);
      }
    });
  }
  for (auto& t : producers) t.join();
}

TEST(LiveDataPlane, MultiProducerBatchedExactlyOnceWithMigrations) {
  LiveConfig cfg;
  cfg.instances = 4;
  cfg.balancer = true;
  cfg.planner.theta = 1.2;
  cfg.min_heaviest_load = 10.0;
  cfg.monitor_period = std::chrono::milliseconds(2);
  // No faults are injected here, so the supervisor's declare-dead
  // backstop must never fire: under TSan a backlogged worker can
  // legitimately take minutes to reach a migration reply, and a
  // spurious dead-declaration loses its store and breaks exactness.
  cfg.migration_timeout = std::chrono::minutes(10);
  LiveEngine engine(cfg);
  MatchLog log;
  engine.set_on_match([&](const MatchPair& p) { log.add(p); });
  engine.start();

  const int n_producers = 4;
  std::vector<std::vector<Record>> traces;
  for (int p = 0; p < n_producers; ++p) {
    traces.push_back(
        make_producer_trace(p, n_producers, 12'000, 400, 1.0));
  }
  feed_concurrently(engine, traces, 64);

  const auto stats = engine.finish();
  EXPECT_EQ(stats.records_in, 48'000u);
  EXPECT_EQ(stats.records_dropped, 0u);
  EXPECT_EQ(log.duplicates(), 0u);
  EXPECT_EQ(stats.results, expected_pairs(traces));
  EXPECT_EQ(log.unique(), stats.results);
}

TEST(LiveDataPlane, PerKeyOrderHoldsAcrossMigrations) {
  // Small enough to enumerate the full expected pair set: with globally
  // unique timestamps each (r, s) pair of a key is emitted exactly once
  // (by whichever record arrives later), so the emitted set must equal
  // the cross product per key — any out-of-order processing swaps a
  // real pair for a phantom and breaks set equality.
  LiveConfig cfg;
  cfg.instances = 3;
  cfg.balancer = true;
  cfg.planner.theta = 1.1;
  cfg.min_heaviest_load = 5.0;
  cfg.monitor_period = std::chrono::milliseconds(1);
  // No faults injected: keep the declare-dead backstop out of reach of
  // sanitizer slowdown (see MultiProducerBatchedExactlyOnceWithMigrations).
  cfg.migration_timeout = std::chrono::minutes(10);
  LiveEngine engine(cfg);
  MatchLog log;
  engine.set_on_match([&](const MatchPair& p) { log.add(p); });
  engine.start();

  const int n_producers = 2;
  std::vector<std::vector<Record>> traces;
  for (int p = 0; p < n_producers; ++p) {
    traces.push_back(make_producer_trace(p, n_producers, 3'000, 80, 0.6));
  }
  feed_concurrently(engine, traces, 32);
  const auto stats = engine.finish();

  // Enumerate the ground-truth pair set from the union trace.
  std::map<KeyId, std::pair<std::vector<std::uint64_t>,
                            std::vector<std::uint64_t>>>
      by_key;
  for (const auto& trace : traces) {
    for (const auto& rec : trace) {
      auto& [rs, ss] = by_key[rec.key];
      (rec.side == Side::kR ? rs : ss).push_back(rec.seq);
    }
  }
  std::uint64_t expected = 0;
  for (const auto& [key, rs_ss] : by_key) {
    for (std::uint64_t r : rs_ss.first) {
      for (std::uint64_t s : rs_ss.second) {
        ++expected;
        MatchPair p;
        p.key = key;
        p.r_seq = r;
        p.s_seq = s;
        EXPECT_TRUE(log.contains(fingerprint(p)))
            << "missing pair key=" << key << " r=" << r << " s=" << s;
      }
    }
  }
  EXPECT_EQ(log.duplicates(), 0u);
  EXPECT_EQ(log.unique(), expected);
  EXPECT_EQ(stats.results, expected);
}

TEST(LiveDataPlane, CrashesDuringBatchedPushesNeverDuplicate) {
  // Crashes + migrations concurrent with multi-producer batched pushes:
  // loss is allowed (bounded by checkpoint lag + lane residue), but a
  // duplicate match or a hung finish() is a protocol violation.
  LiveConfig cfg;
  cfg.instances = 3;
  cfg.balancer = true;
  cfg.planner.theta = 1.2;
  cfg.min_heaviest_load = 10.0;
  cfg.monitor_period = std::chrono::milliseconds(2);
  cfg.checkpoint_period = std::chrono::milliseconds(5);
  LiveEngine engine(cfg);
  MatchLog log;
  engine.set_on_match([&](const MatchPair& p) { log.add(p); });
  engine.start();

  std::atomic<bool> stop_chaos{false};
  std::thread chaos([&] {
    Xoshiro256 rng(4242);
    while (!stop_chaos.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(15));
      const Side g = rng.next_below(2) ? Side::kS : Side::kR;
      engine.crash(g, static_cast<InstanceId>(
                          rng.next_below(cfg.instances)));
    }
  });

  const int n_producers = 3;
  std::vector<std::vector<Record>> traces;
  for (int p = 0; p < n_producers; ++p) {
    traces.push_back(
        make_producer_trace(p, n_producers, 8'000, 300, 1.0));
  }
  feed_concurrently(engine, traces, 48);
  stop_chaos.store(true, std::memory_order_release);
  chaos.join();
  // Let the supervisor respawn any worker crashed after the feed so
  // finish() drains from a stable fleet.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const auto stats = engine.finish();
  EXPECT_EQ(log.duplicates(), 0u);
  EXPECT_LE(stats.results, expected_pairs(traces));
  EXPECT_GT(stats.results, 0u);
  EXPECT_GT(stats.crashes, 0u);
  EXPECT_EQ(stats.recoveries, stats.crashes);
}

TEST(LiveDataPlane, SampledLatencyStatsStayPopulated) {
  // 1-in-N sampling must keep mean/p99 populated (satellite of the
  // sampled-clock optimization).
  LiveConfig cfg;
  cfg.instances = 2;
  cfg.balancer = false;
  LiveEngine engine(cfg);
  engine.start();
  const int id = engine.register_producer();
  const auto trace = make_producer_trace(0, 1, 6'000, 200, 0.8);
  engine.push_batch(trace, id);
  const auto stats = engine.finish();
  // Samples are taken per record pushed; only probe-side deliveries
  // measure, so expect roughly half of n/N.
  EXPECT_GT(stats.latency_samples, 0u);
  EXPECT_LE(stats.latency_samples, trace.size() / kLatencySampleEvery + 1);
  EXPECT_GT(stats.mean_latency_us, 0.0);
  EXPECT_GT(stats.p99_latency_us, 0.0);
}

TEST(LiveDataPlane, ProducerRegistrationExhaustsToFallback) {
  LiveConfig cfg;
  cfg.instances = 2;
  cfg.balancer = false;
  cfg.max_producers = 2;
  LiveEngine engine(cfg);
  engine.start();
  EXPECT_EQ(engine.register_producer(), 0);
  EXPECT_EQ(engine.register_producer(), 1);
  // Slots exhausted: subsequent callers share the fallback lane.
  EXPECT_EQ(engine.register_producer(), LiveEngine::kUnregistered);

  // Unregistered pushes (single and batched) still deliver.
  const auto trace = make_producer_trace(0, 1, 2'000, 100, 0.8);
  EXPECT_EQ(engine.push_batch(trace, LiveEngine::kUnregistered),
            trace.size());
  EXPECT_TRUE(engine.push(trace.front()));
  const auto stats = engine.finish();
  EXPECT_EQ(stats.records_in, trace.size() + 1);
  EXPECT_EQ(stats.records_dropped, 0u);
}

}  // namespace
}  // namespace fastjoin
