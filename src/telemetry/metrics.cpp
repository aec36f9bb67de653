#include "telemetry/metrics.hpp"

#include <algorithm>
#include <sstream>

namespace fastjoin::telemetry {

namespace {
std::atomic<std::uint32_t> g_next_thread_index{0};
}  // namespace

std::uint32_t thread_index() {
  thread_local const std::uint32_t idx =
      g_next_thread_index.fetch_add(1, std::memory_order_relaxed);
  return idx;
}

ConcurrentHistogram::ConcurrentHistogram(const HistogramParams& params)
    : params_(params), n_buckets_(params.bucket_count()) {
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(n_buckets_);
  for (std::size_t i = 0; i < n_buckets_; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void ConcurrentHistogram::record(double value, std::uint64_t count) {
  if (count == 0) return;
  buckets_[params_.index(value)].fetch_add(count,
                                           std::memory_order_relaxed);
  const std::uint64_t prev =
      total_.fetch_add(count, std::memory_order_relaxed);
  {
    double cur = sum_.load(std::memory_order_relaxed);
    const double d = value * static_cast<double>(count);
    while (!sum_.compare_exchange_weak(cur, cur + d,
                                       std::memory_order_relaxed)) {
    }
  }
  if (prev == 0) {
    // First recorder seeds both extremes; racers below converge via
    // the min/max CAS loops, so the worst case is one sample's worth
    // of pessimism in the seed.
    min_seen_.store(value, std::memory_order_relaxed);
    max_seen_.store(value, std::memory_order_relaxed);
  }
  double mn = min_seen_.load(std::memory_order_relaxed);
  while (value < mn && !min_seen_.compare_exchange_weak(
                           mn, value, std::memory_order_relaxed)) {
  }
  double mx = max_seen_.load(std::memory_order_relaxed);
  while (value > mx && !max_seen_.compare_exchange_weak(
                           mx, value, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot ConcurrentHistogram::snapshot() const {
  std::vector<std::uint64_t> buckets(n_buckets_);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n_buckets_; ++i) {
    buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    total += buckets[i];
  }
  // Summing the buckets (rather than reading total_) keeps the
  // snapshot internally consistent: percentile math divides by the
  // bucket mass it iterates.
  return HistogramSnapshot(params_, std::move(buckets), total,
                           sum_.load(std::memory_order_relaxed),
                           min_seen_.load(std::memory_order_relaxed),
                           max_seen_.load(std::memory_order_relaxed));
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream os;
  os << "{\"at_ns\": " << at_ns << ", \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    os << (i ? ", " : "") << '"' << counters[i].name
       << "\": " << static_cast<std::uint64_t>(counters[i].value);
  }
  os << "}, \"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    os << (i ? ", " : "") << '"' << gauges[i].name
       << "\": " << gauges[i].value;
  }
  os << "}, \"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const auto& h = histograms[i].snapshot;
    os << (i ? ", " : "") << '"' << histograms[i].name
       << "\": {\"count\": " << h.count() << ", \"mean\": " << h.mean()
       << ", \"p50\": " << h.value_at_percentile(50)
       << ", \"p99\": " << h.value_at_percentile(99)
       << ", \"p999\": " << h.value_at_percentile(99.9) << "}";
  }
  os << "}}";
  return os.str();
}

Counter& MetricRegistry::counter(std::string_view name) {
  MutexLock lock(mu_);
  for (auto& e : counters_) {
    if (e->name == name) return e->metric;
  }
  counters_.push_back(
      std::make_unique<Entry<Counter>>(std::string(name)));
  return counters_.back()->metric;
}

Gauge& MetricRegistry::gauge(std::string_view name) {
  MutexLock lock(mu_);
  for (auto& e : gauges_) {
    if (e->name == name) return e->metric;
  }
  gauges_.push_back(std::make_unique<Entry<Gauge>>(std::string(name)));
  return gauges_.back()->metric;
}

ConcurrentHistogram& MetricRegistry::histogram(
    std::string_view name, const HistogramParams& params) {
  MutexLock lock(mu_);
  for (auto& e : histograms_) {
    if (e->name == name) return e->metric;
  }
  histograms_.push_back(std::make_unique<Entry<ConcurrentHistogram>>(
      std::string(name), params));
  return histograms_.back()->metric;
}

MetricsSnapshot MetricRegistry::snapshot() const {
  MutexLock lock(mu_);
  MetricsSnapshot snap;
  snap.at_ns = now_ns();
  snap.counters.reserve(counters_.size());
  for (const auto& e : counters_) {
    snap.counters.push_back(
        {e->name, static_cast<double>(e->metric.value())});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& e : gauges_) {
    snap.gauges.push_back({e->name, e->metric.value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& e : histograms_) {
    snap.histograms.push_back({e->name, e->metric.snapshot()});
  }
  return snap;
}

void MetricRegistry::sample(std::uint64_t at_ns) {
  MutexLock lock(mu_);
  const auto t = static_cast<SimTime>(at_ns);
  for (auto& e : counters_) {
    if (e->series.size() >= kMaxSeriesPoints) continue;
    e->series.record(t, static_cast<double>(e->metric.value()));
  }
  for (auto& e : gauges_) {
    if (e->series.size() >= kMaxSeriesPoints) continue;
    e->series.record(t, e->metric.value());
  }
  for (auto& e : histograms_) {
    if (e->series.size() >= kMaxSeriesPoints) continue;
    // One representative point per sample: the p99 so far. Full
    // distributions come from snapshot(), not the series.
    e->series.record(t, e->metric.snapshot().value_at_percentile(99));
  }
}

const TimeSeries* MetricRegistry::series(std::string_view name) const {
  MutexLock lock(mu_);
  for (const auto& e : counters_) {
    if (e->name == name) return &e->series;
  }
  for (const auto& e : gauges_) {
    if (e->name == name) return &e->series;
  }
  for (const auto& e : histograms_) {
    if (e->name == name) return &e->series;
  }
  return nullptr;
}

void MetricRegistry::reset_series() {
  MutexLock lock(mu_);
  for (auto& e : counters_) e->series = TimeSeries{e->name};
  for (auto& e : gauges_) e->series = TimeSeries{e->name};
  for (auto& e : histograms_) e->series = TimeSeries{e->name};
}

MetricRegistry& MetricRegistry::global() {
  static MetricRegistry* r = new MetricRegistry();  // leaked: outlives
  return *r;                                        // worker threads
}

}  // namespace fastjoin::telemetry
