#include "engine/join_store.hpp"

#include <algorithm>
#include <cassert>

namespace fastjoin {

void JoinStore::insert(KeyId key, StoredTuple tuple) {
  tuple.subwindow = current_subwindow_;
  // try_emplace (not operator[]) so a fresh bucket is constructed with
  // this store's arena rather than a default (global) allocator.
  by_key_.try_emplace(key, ArenaAllocator<StoredTuple>(arena_))
      .first->second.push_back(tuple);
  ++size_;
  if (max_subwindows_ > 0) {
    subwindow_log_[current_subwindow_].push_back(key);
  }
}

const JoinStore::Bucket* JoinStore::find(KeyId key) const {
  const auto it = by_key_.find(key);
  return it == by_key_.end() ? nullptr : &it->second;
}

// FASTJOIN_HOT_PATH_BEGIN
std::uint64_t JoinStore::probe_count(const Record& probe) const {
  const Bucket* bucket = find(probe.key);
  if (bucket == nullptr) return 0;
  const Side stored = other_side(probe.side);
  std::uint64_t matches = bucket->size();
  for (auto it = bucket->rbegin(); it != bucket->rend(); ++it) {
    if (precedes(it->ts, stored, it->seq, probe.ts, probe.side,
                 probe.seq)) {
      break;
    }
    --matches;
  }
  return matches;
}
// FASTJOIN_HOT_PATH_END

bool JoinStore::contains(KeyId key, std::uint64_t seq) const {
  const Bucket* bucket = find(key);
  return bucket != nullptr &&
         std::any_of(bucket->begin(), bucket->end(),
                     [seq](const StoredTuple& st) { return st.seq == seq; });
}

std::uint64_t JoinStore::count_for(KeyId key) const {
  const auto it = by_key_.find(key);
  return it == by_key_.end() ? 0 : it->second.size();
}

std::vector<KeyId> JoinStore::keys() const {
  std::vector<KeyId> out;
  out.reserve(by_key_.size());
  for (const auto& [k, _] : by_key_) out.push_back(k);
  return out;
}

std::vector<StoredTuple> JoinStore::extract_key(KeyId key) {
  const auto it = by_key_.find(key);
  if (it == by_key_.end()) return {};
  std::vector<StoredTuple> out(it->second.begin(), it->second.end());
  size_ -= out.size();
  by_key_.erase(it);
  // Entries in subwindow_log_ for this key become stale; eviction
  // tolerates missing tuples (it pops only tuples tagged with the
  // evicted sub-window), so no cleanup is needed here.
  return out;
}

std::uint64_t JoinStore::advance_subwindow() {
  std::uint64_t evicted = 0;
  ++current_subwindow_;
  if (max_subwindows_ > 0 &&
      current_subwindow_ - oldest_subwindow_ >= max_subwindows_) {
    evicted = evict_subwindow(oldest_subwindow_);
    ++oldest_subwindow_;
  }
  return evicted;
}

std::uint64_t JoinStore::evict_subwindow(std::uint32_t sw) {
  const auto log_it = subwindow_log_.find(sw);
  if (log_it == subwindow_log_.end()) return 0;
  std::uint64_t evicted = 0;
  for (KeyId key : log_it->second) {
    auto it = by_key_.find(key);
    if (it == by_key_.end()) continue;  // key was migrated away
    auto& dq = it->second;
    // Tuples are in arrival order, so this sub-window's tuples form a
    // prefix (if still present).
    if (!dq.empty() && dq.front().subwindow == sw) {
      dq.pop_front();
      ++evicted;
      --size_;
      if (dq.empty()) by_key_.erase(it);
    }
  }
  subwindow_log_.erase(log_it);
  return evicted;
}

}  // namespace fastjoin
