#include "engine/join_instance.hpp"

#include <algorithm>
#include <cassert>

namespace fastjoin {

JoinInstance::JoinInstance(Simulator& sim, InstanceId id, Side store_side,
                           const CostModel& cost,
                           std::uint32_t max_subwindows, Hooks hooks,
                           PhiSignal phi, std::size_t stats_capacity)
    : sim_(sim),
      id_(id),
      store_side_(store_side),
      cost_(cost),
      hooks_(std::move(hooks)),
      phi_signal_(phi),
      store_(max_subwindows) {
  if (stats_capacity > 0) {
    probe_sketch_ = std::make_unique<SpaceSaving>(stats_capacity);
  }
}

void JoinInstance::enqueue(Record rec) {
  // Migration diversions take precedence over normal processing.
  if (!forwarding_keys_.empty() && forwarding_keys_.count(rec.key)) {
    forward_buffer_.push_back(rec);
    return;
  }
  if (!held_keys_.empty() && held_keys_.count(rec.key)) {
    held_buffer_.push_back(rec);
    return;
  }
  enqueue_internal(rec);
}

void JoinInstance::enqueue_internal(Record rec) {
  if (rec.side != store_side_) {
    ++pending_probe_[rec.key];
    ++pending_probe_total_;
  }
  queue_.push_back(Pending{rec, sim_.now()});
  maybe_start();
}

void JoinInstance::maybe_start() {
  if (busy_ || paused_ || queue_.empty()) return;
  busy_ = true;
  Pending item = std::move(queue_.front());
  queue_.pop_front();
  start_service(std::move(item));
}

void JoinInstance::start_service(Pending item) {
  const Record& rec = item.rec;
  if (rec.side == store_side_) {
    // Store operation: mutation happens at completion so a probe queued
    // behind it observes it, while nothing earlier does.
    const SimTime service = cost_.store_time();
    busy_time_ += service;
    sim_.schedule_after(service, [this, item, epoch = epoch_]() {
      if (epoch != epoch_) return;  // instance crashed meanwhile
      StoredTuple st;
      st.seq = item.rec.seq;
      st.payload = item.rec.payload;
      st.ts = item.rec.ts;
      store_.insert(item.rec.key, st);
      ++stores_done_;
      busy_ = false;
      if (!idle_callbacks_.empty()) {
        auto cbs = std::move(idle_callbacks_);
        idle_callbacks_.clear();
        for (auto& cb : cbs) cb();
      }
      maybe_start();
    });
    return;
  }

  // Probe: count matches now (the store cannot change for this key while
  // the probe is in service), emit results at completion. Pairs are
  // buffered and reported at completion too, so a crash mid-service
  // drops the pair records and the result count together.
  std::vector<MatchPair> pairs;
  const std::uint64_t matches =
      hooks_.on_match
          ? store_.probe_each(
                rec, [&pairs](const MatchPair& p) { pairs.push_back(p); })
          : store_.probe_count(rec);
  const SimTime service = cost_.probe_time(store_.size(), matches);
  busy_time_ += service;
  sim_.schedule_after(service, [this, item, matches, epoch = epoch_,
                                pairs = std::move(pairs)]() {
    if (epoch != epoch_) return;  // instance crashed meanwhile
    if (hooks_.on_match) {
      for (const auto& p : pairs) hooks_.on_match(p);
    }
    finish_probe(item, matches);
  });
}

void JoinInstance::finish_probe(const Pending& item, std::uint64_t matches) {
  auto it = pending_probe_.find(item.rec.key);
  assert(it != pending_probe_.end() && it->second > 0);
  if (--it->second == 0) pending_probe_.erase(it);
  --pending_probe_total_;
  if (probe_sketch_) {
    probe_sketch_->add(item.rec.key);
  } else {
    ++probe_window_[item.rec.key];
  }
  ++probe_window_total_;

  ++probes_done_;
  results_ += matches;
  if (hooks_.on_probe_done) {
    hooks_.on_probe_done(sim_.now(), matches, sim_.now() - item.enqueued_at);
  }
  busy_ = false;
  if (!idle_callbacks_.empty()) {
    auto cbs = std::move(idle_callbacks_);
    idle_callbacks_.clear();
    for (auto& cb : cbs) cb();
  }
  maybe_start();
}

InstanceLoad JoinInstance::aggregate_load() const {
  InstanceLoad l;
  l.stored = store_.size();
  switch (phi_signal_) {
    case PhiSignal::kQueueOnly:
      l.queued = pending_probe_total_;
      break;
    case PhiSignal::kRateOnly:
      l.queued = probe_window_total_;
      break;
    case PhiSignal::kHybrid:
    default:
      l.queued = pending_probe_total_ + probe_window_total_;
      break;
  }
  return l;
}

void JoinInstance::decay_probe_window() {
  if (probe_sketch_) {
    probe_sketch_->decay();
    probe_window_total_ /= 2;
    return;
  }
  std::uint64_t total = 0;
  for (auto it = probe_window_.begin(); it != probe_window_.end();) {
    it->second /= 2;
    if (it->second == 0) {
      it = probe_window_.erase(it);
    } else {
      total += it->second;
      ++it;
    }
  }
  probe_window_total_ = total;
}

std::vector<KeyLoad> JoinInstance::key_loads() const {
  std::unordered_map<KeyId, KeyLoad> by_key;
  for (KeyId k : store_.keys()) {
    KeyLoad& kl = by_key[k];
    kl.key = k;
    kl.stored = store_.count_for(k);
  }
  if (phi_signal_ != PhiSignal::kRateOnly) {
    for (const auto& [k, queued] : pending_probe_) {
      KeyLoad& kl = by_key[k];
      kl.key = k;
      kl.queued += queued;
    }
  }
  if (phi_signal_ != PhiSignal::kQueueOnly) {
    if (probe_sketch_) {
      for (const auto& e : probe_sketch_->top()) {
        KeyLoad& kl = by_key[e.key];
        kl.key = e.key;
        kl.queued += e.count;
      }
    } else {
      for (const auto& [k, rate] : probe_window_) {
        KeyLoad& kl = by_key[k];
        kl.key = k;
        kl.queued += rate;
      }
    }
  }
  std::vector<KeyLoad> out;
  out.reserve(by_key.size());
  for (auto& [_, kl] : by_key) out.push_back(kl);
  // Deterministic order (hash-map iteration order is not).
  std::sort(out.begin(), out.end(),
            [](const KeyLoad& a, const KeyLoad& b) { return a.key < b.key; });
  return out;
}

void JoinInstance::pause() { paused_ = true; }

void JoinInstance::resume() {
  if (!paused_) return;
  paused_ = false;
  maybe_start();
}

void JoinInstance::when_idle(std::function<void()> fn) {
  if (!busy_) {
    fn();
  } else {
    idle_callbacks_.push_back(std::move(fn));
  }
}

MigrationBatch JoinInstance::extract(std::span<const KeyLoad> selection) {
  assert(paused_ && !busy_ && "extract requires a quiesced instance");
  MigrationBatch batch;
  batch.keys.reserve(selection.size());
  for (const auto& kl : selection) {
    batch.keys.push_back(kl.key);
    for (auto& st : store_.extract_key(kl.key)) {
      batch.stored.emplace_back(kl.key, st);
    }
    forwarding_keys_.insert(kl.key);
  }

  // The migrated keys' probe-rate history leaves with them.
  for (KeyId k : batch.keys) {
    if (probe_sketch_) {
      const std::uint64_t est = probe_sketch_->estimate(k);
      probe_window_total_ -= std::min(probe_window_total_, est);
      probe_sketch_->erase(k);
      continue;
    }
    const auto it = probe_window_.find(k);
    if (it != probe_window_.end()) {
      probe_window_total_ -= it->second;
      probe_window_.erase(it);
    }
  }

  // Pull queued records of the selected keys, preserving arrival order.
  std::deque<Pending> kept;
  for (auto& p : queue_) {
    if (forwarding_keys_.count(p.rec.key)) {
      if (p.rec.side != store_side_) {
        auto it = pending_probe_.find(p.rec.key);
        assert(it != pending_probe_.end() && it->second > 0);
        if (--it->second == 0) pending_probe_.erase(it);
        --pending_probe_total_;
      }
      batch.pending.push_back(p.rec);
    } else {
      kept.push_back(std::move(p));
    }
  }
  queue_.swap(kept);
  return batch;
}

std::vector<Record> JoinInstance::take_forward_buffer() {
  forwarding_keys_.clear();
  std::vector<Record> out;
  out.swap(forward_buffer_);
  return out;
}

void JoinInstance::abort_migration(
    std::span<const std::pair<KeyId, StoredTuple>> stored,
    bool replay_pending, std::span<const Record> pending) {
  for (const auto& [key, st] : stored) {
    store_.insert(key, st);
  }
  forwarding_keys_.clear();
  if (replay_pending) {
    for (const auto& rec : pending) enqueue_internal(rec);
  }
  std::vector<Record> fwd;
  fwd.swap(forward_buffer_);
  for (const auto& rec : fwd) enqueue_internal(rec);
  resume();
}

void JoinInstance::hold_keys(std::span<const KeyId> keys) {
  held_keys_.insert(keys.begin(), keys.end());
}

void JoinInstance::absorb_stored(const MigrationBatch& batch) {
  // Bulk merge: the transfer time was already charged on the wire, and
  // BiStream-style instances ingest batches without re-running the
  // store path tuple by tuple.
  for (const auto& [key, st] : batch.stored) {
    store_.insert(key, st);
  }
  for (const auto& rec : batch.pending) {
    enqueue_internal(rec);
  }
}

void JoinInstance::release_held(std::span<const Record> forwarded) {
  held_keys_.clear();
  for (const auto& rec : forwarded) enqueue_internal(rec);
  std::vector<Record> held;
  held.swap(held_buffer_);
  for (const auto& rec : held) enqueue_internal(rec);
}

std::uint64_t JoinInstance::advance_subwindow() {
  return store_.advance_subwindow();
}

std::vector<std::pair<KeyId, StoredTuple>> JoinInstance::checkpoint_store()
    const {
  std::vector<std::pair<KeyId, StoredTuple>> out;
  out.reserve(store_.size());
  std::vector<KeyId> keys = store_.keys();
  std::sort(keys.begin(), keys.end());  // deterministic snapshot order
  for (KeyId k : keys) {
    if (const auto* bucket = store_.find(k)) {
      for (const auto& st : *bucket) out.emplace_back(k, st);
    }
  }
  return out;
}

void JoinInstance::crash() {
  ++epoch_;  // invalidates any in-flight completion event
  busy_ = false;
  store_ = JoinStore(store_.max_subwindows());
  queue_.clear();
  pending_probe_.clear();
  pending_probe_total_ = 0;
  probe_window_.clear();
  if (probe_sketch_) probe_sketch_->clear();
  probe_window_total_ = 0;
  forwarding_keys_.clear();
  forward_buffer_.clear();
  held_keys_.clear();
  held_buffer_.clear();
  idle_callbacks_.clear();
  paused_ = false;
}

void JoinInstance::restore(
    const std::vector<std::pair<KeyId, StoredTuple>>& snapshot) {
  for (const auto& [key, st] : snapshot) {
    store_.insert(key, st);
  }
}

}  // namespace fastjoin
