// Concurrent queues for the live multithreaded runtime.
//
// SpscRing:     single-producer single-consumer lock-free ring buffer,
//               one per (dispatcher -> joiner) edge. Lives in
//               common/spsc_ring.hpp (a FASTJOIN_HOT_PATH file);
//               re-exported here for existing includers.
// BoundedQueue: mutex+condvar MPMC with backpressure, for control paths
//               where contention is rare and a blocking push is wanted.
#pragma once

#include <cassert>
#include <cstddef>
#include <deque>
#include <optional>

#include "common/mutex.hpp"
#include "common/spsc_ring.hpp"
#include "common/thread_safety.hpp"

namespace fastjoin {

/// MPMC queue with a capacity bound: push() blocks while full
/// (backpressure), try_pop() never blocks, close() for clean shutdown.
///
/// Lock discipline is machine-checked: items_ / closed_ are GUARDED_BY
/// mutex_, and the wait loop is written as an explicit `while` loop so
/// every guarded read happens in a scope where Clang's thread-safety
/// analysis can see the capability (predicate lambdas are analysed
/// without the caller's lock set).
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    assert(capacity > 0);
  }

  /// Blocks while full; returns false if the queue was closed.
  bool push(T value) EXCLUDES(mutex_) {
    UniqueLock lock(mutex_);
    while (!closed_ && items_.size() >= capacity_) not_full_.wait(lock);
    if (closed_) return false;
    items_.push_back(std::move(value));
    return true;
  }

  std::optional<T> try_pop() EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    if (items_.empty()) return std::nullopt;
    T value = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return value;
  }

  /// After close(), pushes fail and try_pop() drains the remaining
  /// items.
  void close() EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    closed_ = true;
    not_full_.notify_all();
  }

  bool closed() const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return closed_;
  }

  std::size_t size() const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return items_.size();
  }

 private:
  mutable Mutex mutex_;
  CondVar not_full_;
  std::deque<T> items_ GUARDED_BY(mutex_);
  std::size_t capacity_;
  bool closed_ GUARDED_BY(mutex_) = false;
};

}  // namespace fastjoin
