// Multi-process plane end-to-end: real fork/exec workers over real
// sockets must produce byte-identical join output to the in-process
// laned plane — through clean runs, live migrations, and SIGKILL
// chaos with offset replay.
//
// This binary is its own worker: the router spawns /proc/self/exe with
// --multiproc-worker, and main() (below) routes those invocations into
// multiproc_worker_run before gtest ever initializes.
#include "runtime/multiproc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <mutex>

#include "datagen/keygen.hpp"
#include "runtime/live_engine.hpp"

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

using PairKey = std::tuple<KeyId, std::uint64_t, std::uint64_t>;

std::vector<PairKey> canonical(std::vector<MatchPair> pairs) {
  std::vector<PairKey> out;
  out.reserve(pairs.size());
  for (const auto& p : pairs) out.emplace_back(p.key, p.r_seq, p.s_seq);
  std::sort(out.begin(), out.end());
  return out;
}

/// The ground-truth pair set: with strictly increasing ts, every (r, s)
/// record pair sharing a key matches exactly once.
std::vector<PairKey> expected_pair_set(const std::vector<Record>& trace) {
  std::map<KeyId, std::pair<std::vector<std::uint64_t>,
                            std::vector<std::uint64_t>>> by_key;
  for (const auto& rec : trace) {
    auto& [r, s] = by_key[rec.key];
    (rec.side == Side::kR ? r : s).push_back(rec.seq);
  }
  std::vector<PairKey> out;
  for (const auto& [k, rs] : by_key) {
    for (const auto r : rs.first) {
      for (const auto s : rs.second) out.emplace_back(k, r, s);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// In-process laned plane on the same trace, pairs collected.
std::vector<PairKey> inproc_reference(const std::vector<Record>& trace,
                                      std::uint32_t instances) {
  LiveConfig cfg;
  cfg.instances = instances;
  cfg.balancer = false;
  LiveEngine engine(cfg);
  std::mutex mu;
  std::vector<MatchPair> pairs;
  engine.set_on_match([&](const MatchPair& p) {
    std::lock_guard<std::mutex> lk(mu);
    pairs.push_back(p);
  });
  engine.start();
  for (const auto& rec : trace) engine.push(rec);
  engine.finish();
  return canonical(std::move(pairs));
}

/// Records published but not yet logged and queued for delivery: the
/// router stages routed records for one log append. Exact while every
/// worker is alive, since each delivered record counts two delivery
/// halves. The chaos and migration calls below land while it is > 0.
std::uint64_t staged(const MultiprocRouter& router) {
  const auto& st = router.stats();
  return st.records_published - st.deliveries_sent / 2;
}

MultiprocConfig base_config(std::uint32_t workers) {
  MultiprocConfig cfg;
  cfg.workers = workers;
  cfg.worker_command = {"/proc/self/exe"};
  cfg.collect_matches = true;
  return cfg;
}

TEST(Multiproc, ByteIdenticalToInprocFourWorkers) {
  const auto trace = make_trace(11, 12'000, 400, 1.1);
  const auto expected = expected_pair_set(trace);
  const auto inproc = inproc_reference(trace, 4);
  ASSERT_EQ(inproc, expected) << "in-process plane disagrees with ground truth";

  MultiprocRouter router(base_config(4));
  std::string err;
  ASSERT_TRUE(router.start(&err)) << err;
  for (const auto& rec : trace) router.publish(rec);

  // dump_log() commits the stage: the log holds every published record
  // in publish order, stamped with its owners.
  ASSERT_GT(staged(router), 0u);
  const auto log = router.dump_log();
  EXPECT_EQ(staged(router), 0u);
  ASSERT_EQ(log.size(), trace.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    const LogRecord& lr = log[i];
    const Record& rec = trace[i];
    ASSERT_EQ(lr.offset, i);
    ASSERT_TRUE(lr.rec.key == rec.key && lr.rec.seq == rec.seq &&
                lr.rec.side == rec.side && lr.rec.ts == rec.ts &&
                lr.rec.payload == rec.payload)
        << "log entry " << i << " is not the record published " << i;
    ASSERT_EQ(lr.store_dst, router.owner(rec.side, rec.key)) << i;
    ASSERT_EQ(lr.probe_dst, router.owner(other_side(rec.side), rec.key))
        << i;
  }

  ASSERT_TRUE(router.finish());
  EXPECT_EQ(router.stats().records_dropped, 0u);
  EXPECT_EQ(canonical(router.take_matches()), inproc);
}

TEST(Multiproc, TcpTransportSmoke) {
  const auto trace = make_trace(13, 4'000, 200, 1.0);
  auto cfg = base_config(2);
  cfg.endpoint = "tcp:0";
  MultiprocRouter router(std::move(cfg));
  std::string err;
  ASSERT_TRUE(router.start(&err)) << err;
  EXPECT_EQ(router.endpoint().rfind("tcp:", 0), 0u);
  EXPECT_NE(router.endpoint(), "tcp:0") << "resolved port expected";
  for (const auto& rec : trace) router.publish(rec);
  ASSERT_TRUE(router.finish());
  EXPECT_EQ(router.stats().records_dropped, 0u);
  EXPECT_EQ(canonical(router.take_matches()), expected_pair_set(trace));
}

/// The most frequent key of `trace`.
KeyId hottest_key(const std::vector<Record>& trace) {
  std::map<KeyId, std::size_t> count;
  for (const auto& rec : trace) ++count[rec.key];
  return std::max_element(count.begin(), count.end(),
                          [](const auto& a, const auto& b) {
                            return a.second < b.second;
                          })
      ->first;
}

TEST(Multiproc, SigkillMidRunReplaysExactly) {
  // Both worker modes: shipping pairs, and count-only (what mp_hotkeys
  // and a default fastjoin_router run).
  const auto trace = make_trace(17, 10'000, 300, 1.1);
  const auto expected = expected_pair_set(trace);
  for (const bool collect : {true, false}) {
    SCOPED_TRACE(collect ? "collect_matches" : "count-only");
    auto cfg = base_config(4);
    cfg.collect_matches = collect;
    cfg.checkpoint_every = 1'500;
    MultiprocRouter router(std::move(cfg));
    std::string err;
    ASSERT_TRUE(router.start(&err)) << err;
    // The third kill hits the owner of the hottest key late in the run,
    // after letting it catch up: its probes fill several match batches
    // between two flush rounds, so its emit watermark is well into the
    // log and the restore must skip the probes below it.
    const std::uint32_t hot = router.owner(Side::kR, hottest_key(trace));
    std::size_t i = 0;
    for (const auto& rec : trace) {
      router.publish(rec);
      if (++i == trace.size() / 3) {
        EXPECT_GT(staged(router), 0u);
        router.kill_worker(1);
      }
      if (i == 2 * trace.size() / 3) router.kill_worker(3);
      if (i == 17 * trace.size() / 20) {
        for (int k = 0; k < 50; ++k) router.pump(std::chrono::milliseconds(2));
        router.kill_worker(hot);
      }
    }
    ASSERT_TRUE(router.finish());
    const auto& st = router.stats();
    EXPECT_EQ(st.worker_crashes, 3u);
    EXPECT_EQ(st.respawns, 3u);
    EXPECT_EQ(st.records_dropped, 0u);
    EXPECT_GT(st.replayed_entries, 0u);
    EXPECT_EQ(st.matches_total, expected.size());
    if (collect) {
      // The strong claim: despite the SIGKILLs, the emitted pair set is
      // exactly the ground truth — the restore re-sent what was lost,
      // and skipped the probes whose matches were already delivered.
      EXPECT_EQ(canonical(router.take_matches()), expected);
    } else {
      // Count-only exactness runs through the skip: the restores left
      // out probes below the emit watermark, whose matches were already
      // in the match total.
      EXPECT_GT(st.skipped_probes, 0u);
    }
  }
}

TEST(Multiproc, RepeatedSigkillOfSameWorker) {
  const auto trace = make_trace(19, 8'000, 200, 1.2);
  auto cfg = base_config(2);
  cfg.checkpoint_every = 1'000;
  MultiprocRouter router(std::move(cfg));
  std::string err;
  ASSERT_TRUE(router.start(&err)) << err;
  std::size_t i = 0;
  for (const auto& rec : trace) {
    router.publish(rec);
    // Kill worker 0 three times, between checkpoint rounds and with
    // records staged; it must come back each time.
    if (++i % 2'000 == 1'037 && i < 7'000) {
      if (i < 2'000) {
        EXPECT_GT(staged(router), 0u);
      }
      ASSERT_TRUE(router.kill_worker(0)) << "kill " << i;
    }
  }
  ASSERT_TRUE(router.finish());
  EXPECT_EQ(router.stats().worker_crashes, 3u);
  EXPECT_EQ(router.stats().records_dropped, 0u);
  EXPECT_EQ(canonical(router.take_matches()), expected_pair_set(trace));
}

TEST(Multiproc, MigrationMovesOwnershipExactly) {
  const auto trace = make_trace(23, 10'000, 300, 1.2);
  MultiprocRouter router(base_config(4));
  std::string err;
  ASSERT_TRUE(router.start(&err)) << err;

  KeyStreamSpec spec;
  spec.num_keys = 300;
  spec.zipf_s = 1.2;
  spec.seed = 23;
  KeyGenerator gen(spec);

  std::size_t i = 0;
  std::vector<std::pair<Side, KeyId>> moved;
  for (const auto& rec : trace) {
    router.publish(rec);
    if (++i == trace.size() / 2) {
      // Migrate the 6 hottest keys (both sides for the first two) off
      // their owners mid-stream. The first move starts at once: its
      // kExtract follows a commit of the staged records.
      EXPECT_GT(staged(router), 0u);
      for (std::uint64_t rank = 1; rank <= 6; ++rank) {
        const KeyId k = gen.key_for_rank(rank);
        const Side side = rank <= 2 ? Side::kS : Side::kR;
        const std::uint32_t from = router.owner(side, k);
        ASSERT_TRUE(router.request_migration(side, from, (from + 1) % 4,
                                             {k}));
        EXPECT_EQ(staged(router), 0u);
        moved.emplace_back(side, k);
      }
    }
  }
  ASSERT_TRUE(router.finish());
  const auto& st = router.stats();
  EXPECT_EQ(st.migrations_completed, 6u);
  EXPECT_GT(st.tuples_migrated, 0u);
  EXPECT_EQ(st.records_dropped, 0u);
  for (const auto& [side, k] : moved) {
    EXPECT_NE(router.owner(side, k), instance_of(k, 4))
        << "override not installed for key " << k;
  }
  EXPECT_EQ(canonical(router.take_matches()), expected_pair_set(trace));
}

TEST(Multiproc, SigkillDuringMigrationWindow) {
  const auto trace = make_trace(29, 10'000, 250, 1.2);
  auto cfg = base_config(4);
  cfg.checkpoint_every = 1'200;
  MultiprocRouter router(std::move(cfg));
  std::string err;
  ASSERT_TRUE(router.start(&err)) << err;

  KeyStreamSpec spec;
  spec.num_keys = 250;
  spec.zipf_s = 1.2;
  spec.seed = 29;
  KeyGenerator gen(spec);
  const KeyId hot = gen.key_for_rank(1);

  std::size_t i = 0;
  for (const auto& rec : trace) {
    router.publish(rec);
    ++i;
    if (i == trace.size() / 2) {
      EXPECT_GT(staged(router), 0u);
      const std::uint32_t from = router.owner(Side::kR, hot);
      ASSERT_TRUE(
          router.request_migration(Side::kR, from, (from + 1) % 4, {hot}));
      // Immediately SIGKILL the migration target: the move must abort
      // or complete, and either way no record may be lost.
      router.kill_worker((from + 1) % 4);
    }
  }
  ASSERT_TRUE(router.finish());
  const auto& st = router.stats();
  EXPECT_GE(st.worker_crashes, 1u);
  EXPECT_EQ(st.records_dropped, 0u);
  EXPECT_EQ(canonical(router.take_matches()), expected_pair_set(trace));
}

TEST(Multiproc, NoRespawnAccountsDrops) {
  const auto trace = make_trace(31, 4'000, 100, 1.0);
  auto cfg = base_config(2);
  cfg.respawn = false;
  MultiprocRouter router(std::move(cfg));
  std::string err;
  ASSERT_TRUE(router.start(&err)) << err;
  std::size_t i = 0;
  for (const auto& rec : trace) {
    router.publish(rec);
    if (++i == trace.size() / 2) {
      EXPECT_GT(staged(router), 0u);
      router.kill_worker(1);
    }
  }
  router.finish();
  const auto& st = router.stats();
  EXPECT_EQ(st.worker_crashes, 1u);
  EXPECT_EQ(st.respawns, 0u);
  // Honest accounting: without respawn the dead shard's deliveries are
  // gone and must be counted, not hidden.
  EXPECT_GT(st.records_dropped, 0u);
}

/// One run of the kill sweep: 2 workers, a flush round every 200
/// records, and `hook(router, i)` after the i-th publish (1-based). The
/// run must end exact: no delivery half dropped, and the ground-truth
/// pair set (its size, in count-only mode).
void run_sweep_case(
    const std::vector<Record>& trace, const std::vector<PairKey>& expected,
    bool collect,
    const std::function<void(MultiprocRouter&, std::size_t)>& hook) {
  auto cfg = base_config(2);
  cfg.collect_matches = collect;
  cfg.checkpoint_every = 200;
  MultiprocRouter router(std::move(cfg));
  std::string err;
  ASSERT_TRUE(router.start(&err)) << err;
  std::size_t i = 0;
  for (const auto& rec : trace) {
    router.publish(rec);
    hook(router, ++i);
  }
  ASSERT_TRUE(router.finish());
  const auto& st = router.stats();
  EXPECT_EQ(st.worker_crashes, 1u);
  EXPECT_EQ(st.respawns, 1u);
  EXPECT_EQ(st.records_dropped, 0u);
  EXPECT_EQ(st.matches_total, expected.size());
  if (collect) {
    EXPECT_EQ(canonical(router.take_matches()), expected);
  }
}

TEST(Multiproc, SigkillSweepPublishPoints) {
  // Each worker, SIGKILLed at each of 10 evenly spaced publish points,
  // one kill per run. The worker comes back by one pass over the log.
  const auto trace = make_trace(43, 2'000, 60, 1.2);
  const auto expected = expected_pair_set(trace);
  int staged_kills = 0;
  for (const bool collect : {true, false}) {
    for (std::uint32_t victim = 0; victim < 2; ++victim) {
      for (std::size_t j = 1; j <= 10; ++j) {
        const std::size_t at = j * trace.size() / 11;
        SCOPED_TRACE(std::string(collect ? "collect_matches" : "count-only") +
                     ", worker " + std::to_string(victim) + " killed at " +
                     std::to_string(at));
        run_sweep_case(trace, expected, collect,
                       [&](MultiprocRouter& r, std::size_t i) {
                         if (i != at) return;
                         if (staged(r) > 0) ++staged_kills;
                         ASSERT_TRUE(r.kill_worker(victim));
                       });
      }
    }
  }
  // Most points fall between two log appends: records are staged when
  // the worker dies.
  EXPECT_GT(staged_kills, 20);
}

TEST(Multiproc, SigkillSweepMigrationPhases) {
  // The hottest key's R side moves between the two workers mid-feed;
  // the source, then the target, is SIGKILLed once in each phase: right
  // after request_migration (extract in flight), once the extracted
  // tuples reached the router (absorb in flight), and once the move
  // completed (route flipped).
  const auto trace = make_trace(47, 2'000, 60, 1.2);
  const auto expected = expected_pair_set(trace);
  const KeyId hot = hottest_key(trace);
  enum class Phase { kRequested, kTuplesMigrated, kCompleted };
  for (const bool collect : {true, false}) {
    for (const bool kill_source : {true, false}) {
      for (const Phase phase :
           {Phase::kRequested, Phase::kTuplesMigrated, Phase::kCompleted}) {
        SCOPED_TRACE(std::string(collect ? "collect_matches" : "count-only") +
                     (kill_source ? ", source" : ", target") +
                     " killed in phase " +
                     std::to_string(static_cast<int>(phase)));
        run_sweep_case(
            trace, expected, collect, [&](MultiprocRouter& r, std::size_t i) {
              if (i != trace.size() / 2) return;
              const std::uint32_t from = r.owner(Side::kR, hot);
              const std::uint32_t to = 1 - from;
              ASSERT_TRUE(r.request_migration(Side::kR, from, to, {hot}));
              const auto& st = r.stats();
              const auto deadline =
                  std::chrono::steady_clock::now() + std::chrono::seconds(5);
              auto reached = [&] {
                return phase == Phase::kRequested ||
                       (phase == Phase::kTuplesMigrated
                            ? st.tuples_migrated > 0
                            : st.migrations_completed > 0);
              };
              while (!reached() &&
                     std::chrono::steady_clock::now() < deadline) {
                r.pump(std::chrono::milliseconds(1));
              }
              ASSERT_TRUE(reached());
              ASSERT_TRUE(r.kill_worker(kill_source ? from : to));
            });
      }
    }
  }
}

TEST(Multiproc, FlushRoundsPastTheFrameCeilingStayExact) {
  // One worker stores all 1.9M records. A whole-store snapshot at the
  // second flush round would be ~70 MB, past the 64 MiB frame ceiling;
  // a flush round ships no store, so no round is mistaken for a crash.
  constexpr std::uint64_t kRecords = 1'900'000;
  constexpr std::uint64_t kKeys = 20'000;
  auto cfg = base_config(1);
  cfg.collect_matches = false;
  cfg.checkpoint_every = 950'000;
  MultiprocRouter router(std::move(cfg));
  std::string err;
  ASSERT_TRUE(router.start(&err)) << err;
  std::vector<std::uint64_t> per_key[2] = {std::vector<std::uint64_t>(kKeys),
                                           std::vector<std::uint64_t>(kKeys)};
  std::uint64_t seq[2] = {0, 0};
  Xoshiro256 rng(41);
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    Record rec;
    rec.side = rng.next_below(2) ? Side::kS : Side::kR;
    rec.key = rng.next_below(kKeys);
    rec.seq = seq[static_cast<int>(rec.side)]++;
    rec.ts = static_cast<SimTime>(i);
    rec.payload = i;
    ++per_key[static_cast<int>(rec.side)][rec.key];
    router.publish(rec);
  }
  ASSERT_TRUE(router.finish(std::chrono::milliseconds(120'000)));
  // Full history, strictly increasing ts: every (r, s) pair of a key
  // matches once.
  std::uint64_t expected = 0;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    expected += per_key[0][k] * per_key[1][k];
  }
  const auto& st = router.stats();
  EXPECT_EQ(st.worker_crashes, 0u);
  EXPECT_EQ(st.checkpoints_completed, 2u);
  EXPECT_EQ(st.records_dropped, 0u);
  EXPECT_EQ(st.matches_total, expected);
}

TEST(Multiproc, FileBackedLogSurvives) {
  const auto trace = make_trace(37, 5'000, 150, 1.1);
  auto cfg = base_config(2);
  cfg.ingest.backend = SegmentBackend::kFile;
  cfg.ingest.dir =
      ::testing::TempDir() + "fastjoin-mp-log-" + std::to_string(::getpid());
  cfg.checkpoint_every = 1'000;
  MultiprocRouter router(std::move(cfg));
  std::string err;
  ASSERT_TRUE(router.start(&err)) << err;
  std::size_t i = 0;
  for (const auto& rec : trace) {
    router.publish(rec);
    if (++i == trace.size() / 2) {
      EXPECT_GT(staged(router), 0u);
      router.kill_worker(0);
    }
  }
  ASSERT_TRUE(router.finish());
  EXPECT_EQ(router.stats().records_dropped, 0u);
  EXPECT_EQ(canonical(router.take_matches()), expected_pair_set(trace));
}

}  // namespace
}  // namespace fastjoin

int main(int argc, char** argv) {
  // Worker re-entry: the router execs this same binary with
  // --multiproc-worker; hand those straight to the worker loop.
  const int rc = fastjoin::multiproc_worker_maybe_run(argc, argv);
  if (rc >= 0) return rc;
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
