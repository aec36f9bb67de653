// Per-instance tuple storage with optional sliding-window eviction,
// and the one join kernel every engine runs against it.
//
// Tuples are grouped by key; within a key they are kept in arrival
// order, so window eviction can pop prefixes. The window is a ring of
// sub-windows (paper Section III-E): advancing past `max_subwindows`
// evicts the oldest sub-window in one sweep.
//
// A store holds one side of the biclique and is probed only by records
// of the other side. A probe joins exactly the stored tuples of its key
// that precede it (`precedes`, engine/tuple.hpp): the paper's
// completeness rule.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/arena.hpp"
#include "engine/tuple.hpp"

namespace fastjoin {

class JoinStore {
 public:
  /// Per-key tuple run. Allocator-parameterized so a store owned by a
  /// live-engine worker can keep its deque pages and hash nodes on
  /// that worker's arena; with a null arena (the default everywhere
  /// else) the allocator degrades to global new/delete.
  using Bucket = std::deque<StoredTuple, ArenaAllocator<StoredTuple>>;

  /// `max_subwindows` = 0 keeps full history (no eviction). `arena`,
  /// when set, must outlive the store and is single-threaded: only the
  /// owning worker may touch the store (which is already the engine's
  /// threading rule).
  explicit JoinStore(std::uint32_t max_subwindows = 0,
                     Arena* arena = nullptr)
      : max_subwindows_(max_subwindows),
        arena_(arena),
        by_key_(kInitialBuckets, std::hash<KeyId>(),
                std::equal_to<KeyId>(), MapAlloc(arena)) {}

  /// Insert a tuple under `key`, tagged with the current sub-window.
  void insert(KeyId key, StoredTuple tuple);

  /// Stored tuples for `key`, oldest first; nullptr when absent.
  const Bucket* find(KeyId key) const;

  // FASTJOIN_HOT_PATH_BEGIN
  /// Number of stored tuples that precede `probe`, a record of the
  /// side opposite to this store. Precondition: the probe's bucket is
  /// in `precedes` order, which per-key FIFO delivery in stream order
  /// (every engine's exactness contract) guarantees. The tuples that
  /// do not precede the probe then form a suffix, so the count costs
  /// O(1 + suffix length), independent of the number of matches.
  std::uint64_t probe_count(const Record& probe) const;

  /// Walk the probe's whole bucket, call `on_pair(const MatchPair&)`
  /// (oriented r_seq/s_seq) for every stored tuple that precedes
  /// `probe`, and return the match count. No ordering precondition.
  template <typename Fn>
  std::uint64_t probe_each(const Record& probe, Fn&& on_pair) const {
    const Bucket* bucket = find(probe.key);
    if (bucket == nullptr) return 0;
    const Side stored = other_side(probe.side);
    std::uint64_t matches = 0;
    for (const StoredTuple& st : *bucket) {
      if (!precedes(st.ts, stored, st.seq, probe.ts, probe.side,
                    probe.seq)) {
        continue;
      }
      ++matches;
      on_pair(stored == Side::kR ? MatchPair{probe.key, st.seq, probe.seq}
                                 : MatchPair{probe.key, probe.seq, st.seq});
    }
    return matches;
  }
  // FASTJOIN_HOT_PATH_END

  /// Does `key`'s bucket hold a tuple with sequence number `seq`? The
  /// dedup test for re-merged tuples (migration batches, replays).
  bool contains(KeyId key, std::uint64_t seq) const;

  /// Total stored tuples: the paper's |R_i|.
  std::uint64_t size() const { return size_; }

  /// Stored tuples with key k: |R_ik|.
  std::uint64_t count_for(KeyId key) const;

  /// Number of distinct keys currently stored.
  std::size_t num_keys() const { return by_key_.size(); }

  /// Snapshot of all stored keys (for key-selection input assembly).
  std::vector<KeyId> keys() const;

  /// Remove and return all tuples of `key` (migration extraction).
  std::vector<StoredTuple> extract_key(KeyId key);

  /// Start a new sub-window; if the ring is full, evicts the oldest
  /// sub-window first. Returns the number of tuples evicted.
  std::uint64_t advance_subwindow();

  std::uint32_t current_subwindow() const { return current_subwindow_; }
  std::uint32_t max_subwindows() const { return max_subwindows_; }

 private:
  using MapAlloc = ArenaAllocator<std::pair<const KeyId, Bucket>>;
  using Map = std::unordered_map<KeyId, Bucket, std::hash<KeyId>,
                                 std::equal_to<KeyId>, MapAlloc>;
  static constexpr std::size_t kInitialBuckets = 16;

  std::uint64_t evict_subwindow(std::uint32_t sw);

  std::uint32_t max_subwindows_;
  std::uint32_t current_subwindow_ = 0;
  std::uint32_t oldest_subwindow_ = 0;
  std::uint64_t size_ = 0;
  Arena* arena_;
  Map by_key_;
  /// Insertion log per live sub-window, for O(inserted) eviction.
  /// Cold relative to probes (touched on insert/advance only), so it
  /// stays on the global allocator.
  std::unordered_map<std::uint32_t, std::vector<KeyId>> subwindow_log_;
};

}  // namespace fastjoin
