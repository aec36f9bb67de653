// MetricRegistry: named lock-free counters, gauges, and log2-bucketed
// concurrent histograms with wait-free hot-path updates.
//
// Shape:
//  * Counter — kShards cache-line-padded atomics; add() is one relaxed
//    fetch_add on the caller's thread shard (wait-free, no sharing
//    between threads that stay on their shard). value() sums shards.
//  * Gauge — a single padded atomic double (set/add/value).
//  * ConcurrentHistogram — atomic buckets over the same HistogramParams
//    geometry as common/histogram; snapshot() materializes a
//    HistogramSnapshot so merge/percentile math is shared with
//    LogHistogram (one implementation in the whole codebase).
//  * MetricRegistry — owns metrics by name (stable addresses; call
//    sites resolve once and cache the reference), snapshots them, and
//    on sample() appends every metric's current value to a per-metric
//    TimeSeries (called periodically from the engine monitor thread).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.hpp"
#include "common/mutex.hpp"
#include "common/thread_safety.hpp"
#include "common/timeseries.hpp"
#include "telemetry/clock.hpp"

namespace fastjoin::telemetry {

// FASTJOIN_HOT_PATH_BEGIN
// Counter / Gauge / ConcurrentHistogram updates run on the per-tuple
// data plane: fastjoin-lint forbids mutexes, condition variables, and
// allocation-in-loop in this region. (MetricRegistry, below the END
// marker, is registration/sampling-rate code and may lock.)

/// Wait-free sharded counter. Threads hash to shards by their dense
/// telemetry thread index, so steady-state updates never contend.
class Counter {
 public:
  static constexpr std::size_t kShards = 16;  // power of two

  void add(std::uint64_t n = 1) {
    shards_[thread_index() & (kShards - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const auto& s : shards_) {
      sum += s.v.load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  Shard shards_[kShards];
};

/// Last-writer-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  alignas(64) std::atomic<double> v_{0.0};
};

/// Log2-bucketed histogram safe for concurrent recorders. record() is
/// lock-free: relaxed fetch_adds on the bucket/total/sum plus a CAS
/// loop for min/max (contended only while the extremes are moving).
class ConcurrentHistogram {
 public:
  explicit ConcurrentHistogram(const HistogramParams& params = {});

  void record(double value, std::uint64_t count = 1);

  std::uint64_t count() const {
    return total_.load(std::memory_order_relaxed);
  }

  /// Materialize the current state. Counts are read relaxed: a
  /// snapshot taken while recorders run is approximately consistent,
  /// exactly consistent once they are quiesced.
  HistogramSnapshot snapshot() const;

  const HistogramParams& params() const { return params_; }

 private:
  HistogramParams params_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::size_t n_buckets_;
  alignas(64) std::atomic<std::uint64_t> total_{0};
  alignas(64) std::atomic<double> sum_{0.0};
  std::atomic<double> min_seen_{0.0};
  std::atomic<double> max_seen_{0.0};
};

// FASTJOIN_HOT_PATH_END

/// One named metric's value at snapshot time.
struct MetricValue {
  std::string name;
  double value = 0.0;
};
struct HistogramValue {
  std::string name;
  HistogramSnapshot snapshot;
};

/// Point-in-time view of a whole registry.
struct MetricsSnapshot {
  std::uint64_t at_ns = 0;
  std::vector<MetricValue> counters;
  std::vector<MetricValue> gauges;
  std::vector<HistogramValue> histograms;

  /// Render as a JSON object (counters/gauges flat, histograms with
  /// count/mean/p50/p99/p999).
  std::string to_json() const;
};

class MetricRegistry {
 public:
  /// Find-or-create by name. References stay valid for the registry's
  /// lifetime; resolve once at setup, then update lock-free.
  Counter& counter(std::string_view name) EXCLUDES(mu_);
  Gauge& gauge(std::string_view name) EXCLUDES(mu_);
  ConcurrentHistogram& histogram(std::string_view name,
                                 const HistogramParams& params = {})
      EXCLUDES(mu_);

  MetricsSnapshot snapshot() const EXCLUDES(mu_);

  /// Append every metric's current value to its TimeSeries at time
  /// `at_ns` (defaults to now). Intended to be driven by one
  /// low-frequency thread (the engine monitor); series longer than
  /// kMaxSeriesPoints stop growing so long-lived processes stay
  /// bounded.
  void sample(std::uint64_t at_ns = now_ns()) EXCLUDES(mu_);

  /// Recorded series for a metric (nullptr when never sampled).
  const TimeSeries* series(std::string_view name) const EXCLUDES(mu_);

  /// Drop all recorded series points (metric values are untouched).
  /// Tests and benches use this to isolate runs on the global registry.
  void reset_series() EXCLUDES(mu_);

  static constexpr std::size_t kMaxSeriesPoints = 1 << 16;

  /// Process-wide registry: layers as far apart as ingest and the
  /// bench harness meet here without threading a handle through every
  /// constructor.
  static MetricRegistry& global();

 private:
  // Metrics hold atomics (non-movable), so entries live behind
  // unique_ptr: stable addresses across registration, movable nodes.
  template <typename T>
  struct Entry {
    template <typename... Args>
    explicit Entry(std::string n, Args&&... args)
        : name(std::move(n)),
          metric(std::forward<Args>(args)...),
          series(name) {}
    std::string name;
    T metric;
    TimeSeries series;
  };
  mutable Mutex mu_;  // registration + sampling; never hot-path
  std::deque<std::unique_ptr<Entry<Counter>>> counters_ GUARDED_BY(mu_);
  std::deque<std::unique_ptr<Entry<Gauge>>> gauges_ GUARDED_BY(mu_);
  std::deque<std::unique_ptr<Entry<ConcurrentHistogram>>> histograms_
      GUARDED_BY(mu_);
};

}  // namespace fastjoin::telemetry

