// Engine-level StreamLog integration: with LiveConfig::ingest enabled,
// crash recovery replays the log instead of dropping the crash window.
// The headline assertions are records_dropped == 0, zero duplicate
// emissions, and — for single-producer runs without migrations — an
// exactly complete join result despite crashes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "runtime/live_engine.hpp"

#include "datagen/keygen.hpp"

namespace fastjoin {
namespace {

std::vector<Record> make_trace(std::uint64_t seed, int total,
                               int num_keys, double zipf,
                               std::uint64_t key_base = 0) {
  KeyStreamSpec spec;
  spec.num_keys = num_keys;
  spec.zipf_s = zipf;
  spec.seed = seed;
  KeyGenerator gen(spec);
  Xoshiro256 rng(seed ^ 0xbeef);
  std::vector<Record> out;
  std::uint64_t r_seq = seed << 32, s_seq = seed << 32;
  for (int i = 0; i < total; ++i) {
    Record rec;
    rec.side = rng.next_below(2) ? Side::kS : Side::kR;
    rec.key = gen() + key_base;
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

/// Duplicate detector (same fingerprint fold as the chaos tests).
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

LiveConfig replay_config() {
  LiveConfig cfg;
  cfg.instances = 2;
  cfg.balancer = false;  // no migrations: loss ledger must be all zero
  cfg.monitor_period = std::chrono::milliseconds(2);
  cfg.checkpoint_period = std::chrono::milliseconds(5);
  cfg.ingest.enabled = true;
  return cfg;
}

TEST(IngestReplay, CrashLosesNothingWithCheckpoints) {
  LiveConfig cfg = replay_config();
  LiveEngine engine(cfg);
  ASSERT_NE(engine.ingest_log(), nullptr);
  MatchLog log;
  log.attach(engine);
  engine.start();

  const auto trace = make_trace(31, 20'000, 200, 1.0);
  const std::uint64_t expected = expected_pairs(trace);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    engine.push(trace[i]);
    if (i == trace.size() / 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(15));
      engine.crash(Side::kR, 0);
    }
    if (i % 2000 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const auto stats = engine.finish();

  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_GT(stats.records_replayed, 0u);
  // The headline guarantees: no delivery lost, none duplicated, and the
  // join result is exactly complete.
  EXPECT_EQ(stats.records_dropped, 0u);
  EXPECT_EQ(stats.buffered_lost, 0u);
  EXPECT_EQ(log.duplicates(), 0u);
  EXPECT_EQ(log.unique(), expected);
  EXPECT_EQ(stats.results, expected);
  EXPECT_EQ(stats.ingest_appended, stats.records_in);
}

TEST(IngestReplay, CrashWithoutCheckpointsReplaysFromOrigin) {
  LiveConfig cfg = replay_config();
  cfg.checkpoint_period = std::chrono::milliseconds(0);  // off
  LiveEngine engine(cfg);
  MatchLog log;
  log.attach(engine);
  engine.start();

  const auto trace = make_trace(32, 10'000, 100, 1.0);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    engine.push(trace[i]);
    if (i == trace.size() / 2) engine.crash(Side::kS, 1);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto stats = engine.finish();

  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_EQ(stats.tuples_restored, 0u);  // no checkpoint existed
  EXPECT_EQ(stats.records_dropped, 0u);
  EXPECT_EQ(stats.buffered_lost, 0u);
  EXPECT_EQ(log.duplicates(), 0u);
  EXPECT_EQ(log.unique(), expected_pairs(trace));
}

TEST(IngestReplay, RepeatedCrashesStayExact) {
  LiveConfig cfg = replay_config();
  LiveEngine engine(cfg);
  MatchLog log;
  log.attach(engine);
  engine.start();

  const auto trace = make_trace(33, 24'000, 150, 1.0);
  Xoshiro256 rng(77);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    engine.push(trace[i]);
    if (i % 6'000 == 5'999) {
      engine.crash(static_cast<Side>(rng.next_below(2)),
                   static_cast<InstanceId>(rng.next_below(cfg.instances)));
      std::this_thread::sleep_for(std::chrono::milliseconds(8));
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  const auto stats = engine.finish();

  EXPECT_GE(stats.crashes, 3u);
  EXPECT_EQ(stats.recoveries, stats.crashes);
  EXPECT_EQ(stats.records_dropped, 0u);
  EXPECT_EQ(stats.buffered_lost, 0u);
  EXPECT_EQ(log.duplicates(), 0u);
  EXPECT_EQ(log.unique(), expected_pairs(trace));
  EXPECT_EQ(stats.results, expected_pairs(trace));
}

TEST(IngestReplay, MultiProducerDisjointKeysStayExact) {
  LiveConfig cfg = replay_config();
  cfg.max_producers = 3;
  LiveEngine engine(cfg);
  MatchLog log;
  log.attach(engine);
  engine.start();

  // Three producers with disjoint key ranges: per-key order is intact
  // within each producer's lane/partition, so the total must be exact.
  std::vector<std::vector<Record>> traces;
  std::uint64_t expected = 0;
  for (std::uint64_t t = 0; t < 3; ++t) {
    traces.push_back(
        make_trace(40 + t, 8'000, 80, 1.0, /*key_base=*/t * 1'000'000));
    expected += expected_pairs(traces.back());
  }
  std::atomic<bool> crash_fired{false};
  std::vector<std::thread> producers;
  for (std::uint64_t t = 0; t < 3; ++t) {
    producers.emplace_back([&, t] {
      const int producer = engine.register_producer();
      EXPECT_NE(producer, LiveEngine::kUnregistered);
      const auto& trace = traces[t];
      for (std::size_t i = 0; i < trace.size(); ++i) {
        engine.push(trace[i], producer);
        if (t == 0 && i == trace.size() / 2 &&
            !crash_fired.exchange(true)) {
          engine.crash(Side::kR, 1);
        }
      }
    });
  }
  for (auto& p : producers) p.join();
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  const auto stats = engine.finish();

  EXPECT_GE(stats.crashes, 1u);
  EXPECT_EQ(stats.records_dropped, 0u);
  EXPECT_EQ(stats.buffered_lost, 0u);
  EXPECT_EQ(log.duplicates(), 0u);
  EXPECT_EQ(log.unique(), expected);
  EXPECT_EQ(stats.results, expected);
}

TEST(IngestReplay, CheckpointsDriveRetention) {
  LiveConfig cfg = replay_config();
  cfg.checkpoint_period = std::chrono::milliseconds(3);
  cfg.ingest.segment_bytes = 64 * kLogRecordBytes;  // tiny: many rolls
  LiveEngine engine(cfg);
  MatchLog log;
  log.attach(engine);
  engine.start();

  const auto trace = make_trace(34, 30'000, 100, 1.0);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    engine.push(trace[i]);
    if (i % 1'000 == 999) {
      std::this_thread::sleep_for(std::chrono::milliseconds(4));
    }
    if (i == 20'000) engine.crash(Side::kR, 0);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const auto stats = engine.finish();

  // Retention kicked in (checkpoints advanced the safe floor) yet the
  // crash still replayed exactly — truncation never eats replayable
  // records.
  EXPECT_GT(stats.log_truncated, 0u);
  EXPECT_EQ(stats.records_dropped, 0u);
  EXPECT_EQ(log.duplicates(), 0u);
  EXPECT_EQ(log.unique(), expected_pairs(trace));
}

TEST(IngestReplay, BackpressureBoundsUnflushedBytes) {
  LiveConfig cfg = replay_config();
  cfg.checkpoint_period = std::chrono::milliseconds(0);
  cfg.ingest.segment_bytes = 256 * kLogRecordBytes;
  cfg.ingest.max_unflushed_bytes = 8 * kLogRecordBytes;  // very tight
  LiveEngine engine(cfg);
  engine.start();
  const auto trace = make_trace(35, 5'000, 50, 1.0);
  for (const auto& rec : trace) engine.push(rec);
  const auto stats = engine.finish();
  // The tight bound forced flush-and-retry cycles, but admission
  // control never lost a record.
  EXPECT_GT(stats.ingest_backpressure, 0u);
  EXPECT_EQ(stats.ingest_appended, trace.size());
  EXPECT_EQ(stats.records_dropped, 0u);
}

TEST(IngestReplay, FileBackendSurvivesCrashReplay) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() /
       ("fastjoin_replay_file_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  LiveConfig cfg = replay_config();
  cfg.ingest.backend = SegmentBackend::kFile;
  cfg.ingest.dir = dir;
  LiveEngine engine(cfg);
  MatchLog log;
  log.attach(engine);
  engine.start();
  const auto trace = make_trace(36, 8'000, 80, 1.0);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    engine.push(trace[i]);
    if (i == trace.size() / 2) engine.crash(Side::kS, 0);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const auto stats = engine.finish();
  EXPECT_EQ(stats.records_dropped, 0u);
  EXPECT_EQ(log.duplicates(), 0u);
  EXPECT_EQ(log.unique(), expected_pairs(trace));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace fastjoin
