#include "telemetry/metrics.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/histogram.hpp"
#include "common/rng.hpp"

namespace fastjoin::telemetry {
namespace {

TEST(Counter, SingleThreadedExact) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

// The acceptance test for the wait-free shards: N writers hammering the
// same counter must lose nothing. Run under TSan this also proves the
// relaxed fetch_adds are race-free.
TEST(Counter, ConcurrentWritersLoseNothing) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100'000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Counter, ConcurrentWeightedAddsSumExactly) {
  Counter c;
  constexpr int kThreads = 4;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&c, t] {
      for (std::uint64_t i = 0; i < 10'000; ++i) {
        c.add(static_cast<std::uint64_t>(t) + 1);
      }
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(c.value(), 10'000u * (1 + 2 + 3 + 4));
}

TEST(Gauge, SetAddValue) {
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-0.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
}

TEST(Gauge, ConcurrentAddsSumExactly) {
  Gauge g;
  constexpr int kThreads = 4;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&g] {
      for (int i = 0; i < 10'000; ++i) g.add(1.0);
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_DOUBLE_EQ(g.value(), 40'000.0);
}

// A concurrent histogram fed the same samples as a LogHistogram must
// produce the identical snapshot — same bucket geometry, same counts,
// same percentile answers. This is the "one implementation of the
// quantile math" guarantee.
TEST(ConcurrentHistogram, SnapshotMatchesLogHistogram) {
  const HistogramParams params{1.0, 1e9, 32};
  ConcurrentHistogram ch(params);
  LogHistogram lh(params.min_value, params.max_value, params.sub_buckets);
  Xoshiro256 rng(7);
  for (int i = 0; i < 50'000; ++i) {
    const double v = 1.0 + rng.next_double() * 1e6;
    ch.record(v);
    lh.add(v);
  }
  const HistogramSnapshot a = ch.snapshot();
  const HistogramSnapshot& b = lh.snapshot();
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.buckets(), b.buckets());
  EXPECT_DOUBLE_EQ(a.min(), b.min());
  EXPECT_DOUBLE_EQ(a.max(), b.max());
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    EXPECT_DOUBLE_EQ(a.value_at_percentile(p), b.value_at_percentile(p))
        << "p=" << p;
  }
}

TEST(ConcurrentHistogram, ConcurrentRecordersLoseNothing) {
  ConcurrentHistogram h(HistogramParams{1.0, 1e6, 16});
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50'000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&h, t] {
      // Identical values per thread keep the double sum associative,
      // so the total is exact regardless of interleaving.
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        h.record(static_cast<double>(t + 1));
      }
    });
  }
  for (auto& w : writers) w.join();
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count(), kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(snap.sum(),
                   kPerThread * (1.0 + 2 + 3 + 4 + 5 + 6 + 7 + 8));
  EXPECT_DOUBLE_EQ(snap.min(), 1.0);
  EXPECT_DOUBLE_EQ(snap.max(), 8.0);
}

TEST(ConcurrentHistogram, WeightedRecord) {
  ConcurrentHistogram h;
  h.record(100.0, 5);
  h.record(200.0, 0);  // zero-count records are ignored
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.snapshot().sum(), 500.0);
}

TEST(MetricRegistry, FindOrCreateReturnsStableReferences) {
  MetricRegistry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  Counter& c = reg.counter("y");
  EXPECT_NE(&a, &c);
  // Registering more metrics must not move earlier ones.
  for (int i = 0; i < 100; ++i) {
    reg.counter("filler_" + std::to_string(i));
  }
  EXPECT_EQ(&reg.counter("x"), &a);
  EXPECT_EQ(&reg.gauge("g"), &reg.gauge("g"));
  EXPECT_EQ(&reg.histogram("h"), &reg.histogram("h"));
}

TEST(MetricRegistry, SnapshotReflectsValues) {
  MetricRegistry reg;
  reg.counter("events").add(7);
  reg.gauge("load").set(1.25);
  reg.histogram("lat").record(1000.0, 3);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "events");
  EXPECT_DOUBLE_EQ(snap.counters[0].value, 7.0);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 1.25);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].snapshot.count(), 3u);

  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"events\": 7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"load\""), std::string::npos);
  EXPECT_NE(json.find("\"p999\""), std::string::npos);
}

TEST(MetricRegistry, SampleAppendsToSeries) {
  MetricRegistry reg;
  Counter& c = reg.counter("n");
  Gauge& g = reg.gauge("v");
  c.add(10);
  g.set(0.5);
  reg.sample(1'000);
  c.add(5);
  g.set(0.75);
  reg.sample(2'000);

  const TimeSeries* cs = reg.series("n");
  ASSERT_NE(cs, nullptr);
  ASSERT_EQ(cs->size(), 2u);
  EXPECT_EQ(cs->points()[0].t, 1'000);
  EXPECT_DOUBLE_EQ(cs->points()[0].v, 10.0);
  EXPECT_DOUBLE_EQ(cs->points()[1].v, 15.0);  // cumulative

  const TimeSeries* gs = reg.series("v");
  ASSERT_NE(gs, nullptr);
  EXPECT_DOUBLE_EQ(gs->points()[1].v, 0.75);

  EXPECT_EQ(reg.series("missing"), nullptr);

  reg.reset_series();
  EXPECT_EQ(reg.series("n")->size(), 0u);
  EXPECT_EQ(c.value(), 15u);  // values survive a series reset
}

TEST(MetricRegistry, ConcurrentRegistrationAndUpdates) {
  MetricRegistry reg;
  constexpr int kThreads = 8;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&reg] {
      // Every thread resolves the same names — exercising the
      // find-or-create path under contention — then updates.
      Counter& c = reg.counter("shared");
      for (int i = 0; i < 10'000; ++i) c.add();
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(reg.counter("shared").value(), 80'000u);
}

TEST(MetricRegistry, GlobalIsASingleton) {
  EXPECT_EQ(&MetricRegistry::global(), &MetricRegistry::global());
}

}  // namespace
}  // namespace fastjoin::telemetry
