#include "engine/join_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include "common/rng.hpp"

namespace fastjoin {
namespace {

StoredTuple tuple(std::uint64_t seq, SimTime ts = 0) {
  StoredTuple st;
  st.seq = seq;
  st.ts = ts;
  st.payload = seq * 10;
  return st;
}

TEST(JoinStore, InsertAndFind) {
  JoinStore store;
  store.insert(5, tuple(1));
  store.insert(5, tuple(2));
  store.insert(7, tuple(3));
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.count_for(5), 2u);
  EXPECT_EQ(store.count_for(7), 1u);
  EXPECT_EQ(store.count_for(99), 0u);
  ASSERT_NE(store.find(5), nullptr);
  EXPECT_EQ(store.find(5)->size(), 2u);
  EXPECT_EQ(store.find(99), nullptr);
}

TEST(JoinStore, PreservesInsertionOrderPerKey) {
  JoinStore store;
  for (std::uint64_t i = 0; i < 10; ++i) store.insert(1, tuple(i, i));
  const auto* bucket = store.find(1);
  ASSERT_NE(bucket, nullptr);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ((*bucket)[i].seq, i);
}

TEST(JoinStore, KeysSnapshot) {
  JoinStore store;
  store.insert(1, tuple(1));
  store.insert(2, tuple(2));
  store.insert(1, tuple(3));
  auto keys = store.keys();
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys, (std::vector<KeyId>{1, 2}));
  EXPECT_EQ(store.num_keys(), 2u);
}

TEST(JoinStore, ExtractKeyRemovesAll) {
  JoinStore store;
  store.insert(1, tuple(1));
  store.insert(1, tuple(2));
  store.insert(2, tuple(3));
  const auto extracted = store.extract_key(1);
  EXPECT_EQ(extracted.size(), 2u);
  EXPECT_EQ(extracted[0].seq, 1u);
  EXPECT_EQ(extracted[1].seq, 2u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.find(1), nullptr);
  EXPECT_TRUE(store.extract_key(1).empty());  // second extract is empty
}

TEST(JoinStore, FullHistoryNeverEvicts) {
  JoinStore store(0);
  for (int i = 0; i < 100; ++i) {
    store.insert(static_cast<KeyId>(i % 3), tuple(i));
    if (i % 10 == 0) EXPECT_EQ(store.advance_subwindow(), 0u);
  }
  EXPECT_EQ(store.size(), 100u);
}

TEST(JoinStore, WindowEvictsOldestSubwindow) {
  JoinStore store(/*max_subwindows=*/3);
  // Sub-window 0: 2 tuples; 1: 3 tuples; 2: 1 tuple.
  store.insert(1, tuple(0));
  store.insert(2, tuple(1));
  EXPECT_EQ(store.advance_subwindow(), 0u);  // ring not yet full
  store.insert(1, tuple(2));
  store.insert(1, tuple(3));
  store.insert(3, tuple(4));
  EXPECT_EQ(store.advance_subwindow(), 0u);
  store.insert(2, tuple(5));
  EXPECT_EQ(store.size(), 6u);
  // Advancing now evicts sub-window 0 (2 tuples).
  EXPECT_EQ(store.advance_subwindow(), 2u);
  EXPECT_EQ(store.size(), 4u);
  EXPECT_EQ(store.count_for(1), 2u);  // seqs 2, 3 remain
  EXPECT_EQ(store.count_for(2), 1u);  // seq 5 remains
  EXPECT_EQ(store.count_for(3), 1u);
}

TEST(JoinStore, WindowEvictionEmptiesEventually) {
  JoinStore store(2);
  store.insert(1, tuple(0));
  store.advance_subwindow();
  store.advance_subwindow();  // evicts sw 0
  store.advance_subwindow();  // evicts sw 1 (empty)
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.find(1), nullptr);
}

TEST(JoinStore, EvictionToleratesMigratedKeys) {
  JoinStore store(2);
  store.insert(1, tuple(0));
  store.insert(2, tuple(1));
  store.extract_key(1);  // migrated away before expiry
  store.advance_subwindow();
  EXPECT_EQ(store.advance_subwindow(), 1u);  // only key 2 evicted
  EXPECT_EQ(store.size(), 0u);
}

TEST(JoinStore, SubwindowTagging) {
  JoinStore store(4);
  store.insert(1, tuple(0));
  store.advance_subwindow();
  store.insert(1, tuple(1));
  const auto* bucket = store.find(1);
  ASSERT_NE(bucket, nullptr);
  EXPECT_EQ((*bucket)[0].subwindow, 0u);
  EXPECT_EQ((*bucket)[1].subwindow, 1u);
}

// --- extract_key vs sub-window eviction: the prefix-pop invariant. ----
// extract_key removes whole keys but leaves their subwindow_log_
// entries stale; eviction must pop a bucket's front only when that
// front is actually tagged with the evicted sub-window.

TEST(JoinStore, ReinsertAfterExtractIsNotEvictedByStaleLogEntries) {
  JoinStore store(3);
  store.insert(1, tuple(0));  // sub-window 0
  store.advance_subwindow();
  // Key 1 migrates away (its sw-0 log entry goes stale), then migrates
  // back: the re-inserted tuple belongs to sub-window 1.
  auto out = store.extract_key(1);
  ASSERT_EQ(out.size(), 1u);
  store.insert(1, out[0]);  // re-merge, tagged sw 1
  // Advance until sw 0 expires. The stale log entry names key 1, but
  // the bucket front is tagged sw 1 — it must survive.
  store.advance_subwindow();
  EXPECT_EQ(store.advance_subwindow(), 0u);  // evicts sw 0: nothing
  EXPECT_EQ(store.count_for(1), 1u);
  // The re-inserted tuple expires with ITS sub-window, not its
  // original one.
  EXPECT_EQ(store.advance_subwindow(), 1u);  // evicts sw 1
  EXPECT_EQ(store.count_for(1), 0u);
  EXPECT_EQ(store.size(), 0u);
}

TEST(JoinStore, StaleLogEntryPopsAtMostOnePrefixTuple) {
  JoinStore store(4);
  // Two sw-0 tuples of key 9, both extracted, then two fresh sw-1
  // tuples re-inserted (a migrate-away-and-back round trip).
  store.insert(9, tuple(0));
  store.insert(9, tuple(1));
  store.advance_subwindow();
  store.extract_key(9);
  store.insert(9, tuple(2));
  store.insert(9, tuple(3));
  // sw 0 expiry walks two stale log entries for key 9; neither may pop
  // the sw-1 tuples.
  store.advance_subwindow();
  store.advance_subwindow();
  EXPECT_EQ(store.advance_subwindow(), 0u);  // evict sw 0
  EXPECT_EQ(store.count_for(9), 2u);
  EXPECT_EQ(store.advance_subwindow(), 2u);  // evict sw 1
  EXPECT_EQ(store.count_for(9), 0u);
}

TEST(JoinStore, ExtractBetweenInsertAndEvictionKeepsSizeConsistent) {
  JoinStore store(2);
  // Interleave inserts, extraction and eviction across sub-windows and
  // check size() stays exactly right at every step.
  store.insert(1, tuple(0));
  store.insert(2, tuple(1));
  store.advance_subwindow();  // sw -> 1
  store.insert(1, tuple(2));
  store.insert(3, tuple(3));
  EXPECT_EQ(store.size(), 4u);
  const auto got = store.extract_key(1);  // one sw-0 + one sw-1 tuple
  EXPECT_EQ(got.size(), 2u);
  EXPECT_EQ(store.size(), 2u);
  // Evicting sw 0 must remove only key 2's tuple (key 1 is gone).
  EXPECT_EQ(store.advance_subwindow(), 1u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.count_for(3), 1u);
  // And sw 1's eviction removes key 3's tuple; key 1's extracted sw-1
  // tuple must not be double-counted.
  EXPECT_EQ(store.advance_subwindow(), 1u);
  EXPECT_EQ(store.size(), 0u);
}

TEST(JoinStore, ExtractedTuplesKeepTheirSubwindowTags) {
  JoinStore store(3);
  store.insert(4, tuple(0));
  store.advance_subwindow();
  store.insert(4, tuple(1));
  const auto out = store.extract_key(4);
  ASSERT_EQ(out.size(), 2u);
  // Migration re-merges these at the target; the tags travel with them
  // (the target's insert() re-tags with ITS current sub-window, which
  // is the documented behavior — the batch is "fresh" at the target).
  EXPECT_EQ(out[0].subwindow, 0u);
  EXPECT_EQ(out[1].subwindow, 1u);
}

TEST(JoinStore, LargeChurnStaysConsistent) {
  JoinStore store(5);
  std::uint64_t inserted = 0, evicted = 0;
  for (int sw = 0; sw < 50; ++sw) {
    for (int i = 0; i < 20; ++i) {
      store.insert(static_cast<KeyId>(i % 7), tuple(inserted++));
    }
    evicted += store.advance_subwindow();
  }
  EXPECT_EQ(store.size(), inserted - evicted);
  // Steady state: 4 closed sub-windows x 20 tuples survive (the 5th live
  // sub-window was just opened by the final advance and is still empty).
  EXPECT_EQ(store.size(), 80u);
}

// --- The join kernel: probe_count, probe_each, contains. ---------------

using PairKey = std::tuple<KeyId, std::uint64_t, std::uint64_t>;

/// A random feed over few keys and few timestamps (so ts ties are
/// common, broken by side and then seq), sorted into `precedes` order.
std::vector<Record> precedes_ordered_feed(std::uint64_t seed, int n,
                                          int keys) {
  Xoshiro256 rng(seed);
  std::vector<Record> feed;
  std::uint64_t seqs[2] = {0, 0};
  for (int i = 0; i < n; ++i) {
    Record r;
    r.side = rng.next_below(2) ? Side::kS : Side::kR;
    r.key = rng.next_below(static_cast<std::uint64_t>(keys));
    r.seq = seqs[static_cast<int>(r.side)]++;
    r.ts = rng.next_below(static_cast<std::uint64_t>(n / 8));
    feed.push_back(r);
  }
  std::sort(feed.begin(), feed.end(),
            [](const Record& a, const Record& b) { return precedes(a, b); });
  return feed;
}

/// One store per side holding the whole feed, buckets in feed order.
struct SideStores {
  JoinStore by_side[2];
  explicit SideStores(const std::vector<Record>& feed) {
    for (const Record& r : feed) {
      by_side[static_cast<int>(r.side)].insert(
          r.key, StoredTuple{r.seq, r.payload, r.ts, 0});
    }
  }
  const JoinStore& against(const Record& probe) const {
    return by_side[static_cast<int>(other_side(probe.side))];
  }
};

/// Brute force over the feed itself: every (stored, probe) pair the
/// completeness rule joins.
std::set<PairKey> expected_pairs(const std::vector<Record>& feed,
                                 const Record& probe) {
  std::set<PairKey> out;
  for (const Record& r : feed) {
    if (r.side == probe.side || r.key != probe.key || !precedes(r, probe)) {
      continue;
    }
    out.emplace(probe.key, r.side == Side::kR ? r.seq : probe.seq,
                r.side == Side::kR ? probe.seq : r.seq);
  }
  return out;
}

TEST(JoinStoreKernel, ProbeEachReportsExactlyThePrecedingTuples) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto feed = precedes_ordered_feed(seed, 400, 6);
    const SideStores stores(feed);
    bool probed[2] = {false, false};
    for (const Record& probe : feed) {
      const JoinStore& store = stores.against(probe);
      std::multiset<PairKey> got;
      const std::uint64_t n =
          store.probe_each(probe, [&](const MatchPair& p) {
            got.emplace(p.key, p.r_seq, p.s_seq);
          });
      const auto want = expected_pairs(feed, probe);
      EXPECT_EQ(n, got.size()) << "seed " << seed;
      EXPECT_EQ(std::set<PairKey>(got.begin(), got.end()), want)
          << "seed " << seed;
      EXPECT_EQ(got.size(), want.size())
          << "seed " << seed << ": a pair was reported twice";
      EXPECT_EQ(store.probe_count(probe), want.size()) << "seed " << seed;
      if (n > 0) probed[static_cast<int>(probe.side)] = true;
    }
    EXPECT_TRUE(probed[0] && probed[1])
        << "seed " << seed << ": both sides must probe";
  }
}

TEST(JoinStoreKernel, ProbeMissesOnAbsentKey) {
  JoinStore store;
  store.insert(1, tuple(0, 0));
  Record probe;
  probe.side = Side::kS;  // the store holds R tuples
  probe.key = 2;
  probe.ts = 10;
  EXPECT_EQ(store.probe_count(probe), 0u);
  EXPECT_EQ(store.probe_each(probe, [](const MatchPair&) {
    ADD_FAILURE() << "no tuple of key 2 is stored";
  }), 0u);
}

TEST(JoinStoreKernel, ContainsPresentAbsentAndMissingKeys) {
  JoinStore store;
  store.insert(1, tuple(10));
  store.insert(1, tuple(11));
  store.insert(2, tuple(20));
  EXPECT_TRUE(store.contains(1, 10));
  EXPECT_TRUE(store.contains(1, 11));
  EXPECT_TRUE(store.contains(2, 20));
  EXPECT_FALSE(store.contains(1, 20));  // present key, absent seq
  EXPECT_FALSE(store.contains(2, 10));
  EXPECT_FALSE(store.contains(3, 10));  // missing key
  store.extract_key(1);
  EXPECT_FALSE(store.contains(1, 10));
}

TEST(JoinStoreKernel, ProbeEachIsExactOnAnOutOfOrderBucket) {
  // probe_count relies on the bucket being in `precedes` order; the
  // walk does not. On shuffled buckets probe_each still counts exactly,
  // so a caller that cannot promise the order (the multiproc worker
  // walks every probe) stays exact.
  Xoshiro256 rng(99);
  for (int round = 0; round < 20; ++round) {
    auto feed = precedes_ordered_feed(100 + round, 300, 3);
    for (std::size_t i = feed.size(); i > 1; --i) {
      std::swap(feed[i - 1], feed[rng.next_below(i)]);
    }
    const SideStores stores(feed);
    for (const Record& probe : feed) {
      const JoinStore& store = stores.against(probe);
      EXPECT_EQ(store.probe_each(probe, [](const MatchPair&) {}),
                expected_pairs(feed, probe).size());
    }
  }
}

}  // namespace
}  // namespace fastjoin
