// MetricsRegistry and its metric primitives: sharded counters fold to
// exact totals under concurrent writers, gauges are last-write-wins,
// log2 histograms bucket correctly and answer quantiles with log-linear
// within-bucket interpolation (never leaving the bucket holding the
// rank, nor the range of the samples), and a registry scrape running concurrently with hot-path
// updates is race-free (the concurrency lane runs this binary under
// TSan).

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "util/random.h"

namespace streamlink {
namespace obs {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(CounterTest, ConcurrentAddsFoldToExactTotal) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetIsLastWriteWinsAndAddAccumulates) {
  Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0.0);
  gauge.Set(1.5);
  gauge.Set(-3.0);
  EXPECT_EQ(gauge.Value(), -3.0);
  gauge.Add(4.0);
  EXPECT_EQ(gauge.Value(), 1.0);
}

TEST(HistogramTest, BucketsByPowerOfTwo) {
  Histogram hist;
  hist.Record(0);  // value 0 shares bucket 0 with value 1
  hist.Record(1);
  hist.Record(2);
  hist.Record(3);
  hist.Record(1024);
  EXPECT_EQ(hist.Count(), 5u);
  EXPECT_EQ(hist.Sum(), 1030u);
  EXPECT_EQ(hist.BucketCount(0), 2u);   // [1, 2): the 0 and the 1
  EXPECT_EQ(hist.BucketCount(1), 2u);   // [2, 4)
  EXPECT_EQ(hist.BucketCount(10), 1u);  // [1024, 2048)
  EXPECT_EQ(Histogram::BucketUpperBound(0), 2.0);
  EXPECT_EQ(Histogram::BucketUpperBound(10), 2048.0);
}

TEST(HistogramTest, QuantilesInterpolateWithinBucket) {
  Histogram hist;
  for (int i = 0; i < 99; ++i) hist.Record(100);  // bucket [64, 128)
  hist.Record(100000);  // bucket [65536, 131072)
  // p50 lands mid-bucket: log-linear interpolation gives
  // 64 * 2^(50/99) ~ 90.8, below the smallest sample, so the quantile is
  // clamped to the true minimum — the exact answer, 100.
  EXPECT_EQ(hist.Percentile(0.5), 100.0);
  EXPECT_GE(hist.Percentile(0.5), 64.0);
  EXPECT_LE(hist.Percentile(0.5), 128.0);
  // Rank 99 exhausts the bulk bucket: frac == 1 reports its upper bound.
  EXPECT_EQ(hist.Percentile(0.99), 128.0);
  // The top bucket's upper bound (131072) lies past the largest sample, so
  // the quantile is clamped to the true maximum.
  EXPECT_EQ(hist.Percentile(1.0), 100000.0);
  EXPECT_EQ(hist.Max(), 100000u);
  EXPECT_EQ(hist.Min(), 100u);
  EXPECT_NEAR(hist.Mean(), (99 * 100 + 100000) / 100.0, 1e-9);
}

TEST(HistogramTest, BucketZeroInterpolatesLinearly) {
  Histogram ones;
  for (int i = 0; i < 4; ++i) ones.Record(1);  // all in [0, 2)
  // Interpolation gives frac * 2 (0.5 at p = 0.25, 2 at p = 1), clamped
  // to the only value seen.
  EXPECT_EQ(ones.Percentile(0.25), 1.0);
  EXPECT_EQ(ones.Percentile(0.5), 1.0);
  EXPECT_EQ(ones.Percentile(1.0), 1.0);

  Histogram mixed;
  mixed.Record(0);
  for (int i = 0; i < 3; ++i) mixed.Record(1);
  EXPECT_EQ(mixed.Percentile(0.25), 0.5);  // frac 1/4 of bound 2
  EXPECT_EQ(mixed.Percentile(0.5), 1.0);
  EXPECT_EQ(mixed.Percentile(1.0), 1.0);  // bound 2, clamped to the max
}

TEST(HistogramTest, QuantilesOfAConstantAreTheConstant) {
  Histogram hist;
  for (int i = 0; i < 100; ++i) hist.Record(8192);
  EXPECT_EQ(hist.Percentile(0.5), 8192.0);
  EXPECT_EQ(hist.Percentile(0.99), 8192.0);
  EXPECT_EQ(hist.Max(), 8192u);
  EXPECT_EQ(hist.Min(), 8192u);

  MetricsRegistry registry;
  registry.RegisterHistogram("constant", &hist);
  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].p50, 8192.0);
  EXPECT_EQ(snap.histograms[0].p99, 8192.0);
  EXPECT_EQ(snap.histograms[0].max, 8192.0);
}

TEST(HistogramTest, QuantilesStayWithinTheObservedRange) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    Histogram hist;
    uint64_t lo = UINT64_MAX, hi = 0;
    const int n = 1 + static_cast<int>(rng.NextBounded(200));
    const uint64_t base = rng.NextBounded(1u << 20);
    for (int i = 0; i < n; ++i) {
      const uint64_t value = base + rng.NextBounded(1 + base / 3);
      lo = std::min(lo, value);
      hi = std::max(hi, value);
      hist.Record(value);
    }
    EXPECT_EQ(hist.Min(), lo);
    EXPECT_EQ(hist.Max(), hi);
    for (double p : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
      EXPECT_GE(hist.Percentile(p), static_cast<double>(lo)) << "p=" << p;
      EXPECT_LE(hist.Percentile(p), static_cast<double>(hi)) << "p=" << p;
    }
  }
}

TEST(HistogramTest, ConstantDistributionStaysWithinItsBucket) {
  Histogram hist;
  for (int i = 0; i < 1000; ++i) hist.Record(1000);  // bucket [512, 1024)
  for (double p : {0.01, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_GT(hist.Percentile(p), 512.0) << "p=" << p;
    EXPECT_LE(hist.Percentile(p), 1024.0) << "p=" << p;
  }
}

TEST(HistogramTest, LogUniformDistributionIsNearExact) {
  // Log-linear interpolation is exact for log-uniform mass; a sampled
  // log-uniform set over [2^10, 2^11) should recover every quantile to
  // within a percent or so (discretization of the 1000 samples).
  Histogram hist;
  constexpr int kN = 1000;
  for (int j = 0; j < kN; ++j) {
    const double v = std::ldexp(1.0, 10) *
                     std::exp2((static_cast<double>(j) + 0.5) / kN);
    hist.Record(static_cast<uint64_t>(v));
  }
  for (double p : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double truth = std::ldexp(1.0, 10) * std::exp2(p);
    EXPECT_NEAR(hist.Percentile(p) / truth, 1.0, 0.02) << "p=" << p;
  }
}

TEST(HistogramTest, PercentilesAreMonotoneInP) {
  Histogram hist;
  uint64_t value = 1;
  for (int i = 0; i < 500; ++i) {
    hist.Record(value);
    value = value * 1103515245 % 100000 + 1;
  }
  double prev = 0.0;
  for (double p = 0.05; p <= 1.0; p += 0.05) {
    const double q = hist.Percentile(p);
    EXPECT_GE(q, prev) << "p=" << p;
    prev = q;
  }
}

TEST(HistogramTest, EmptyHistogramReportsZero) {
  Histogram hist;
  EXPECT_EQ(hist.Count(), 0u);
  EXPECT_EQ(hist.Mean(), 0.0);
  EXPECT_EQ(hist.Percentile(0.5), 0.0);
  EXPECT_EQ(hist.Min(), 0u);
  EXPECT_EQ(hist.Max(), 0u);
  hist.Record(5);
  hist.Reset();
  EXPECT_EQ(hist.Percentile(0.5), 0.0);
  EXPECT_EQ(hist.Min(), 0u);
  EXPECT_EQ(hist.Max(), 0u);
}

TEST(MetricsRegistryTest, GetReturnsStableReferences) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("test.events_total");
  Counter& b = registry.GetCounter("test.events_total");
  EXPECT_EQ(&a, &b);
  a.Add(7);
  EXPECT_EQ(b.Value(), 7u);
  EXPECT_NE(&registry.GetCounter("test.other_total"), &a);
  EXPECT_EQ(&registry.GetGauge("test.depth"), &registry.GetGauge("test.depth"));
  EXPECT_EQ(&registry.GetHistogram("test.ns"),
            &registry.GetHistogram("test.ns"));
}

TEST(MetricsRegistryTest, SnapshotIsNameOrderedAndComplete) {
  MetricsRegistry registry;
  registry.GetCounter("b.total").Add(2);
  registry.GetCounter("a.total").Add(1);
  registry.GetGauge("z.gauge").Set(9.0);
  registry.RegisterGaugeFn("m.derived", [] { return 3.5; });
  registry.GetHistogram("h.ns").Record(5);

  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].name, "a.total");
  EXPECT_EQ(snapshot.counters[0].value, 1u);
  EXPECT_EQ(snapshot.counters[1].name, "b.total");
  // Settable gauges and scrape-time callbacks merge into one sorted list.
  ASSERT_EQ(snapshot.gauges.size(), 2u);
  EXPECT_EQ(snapshot.gauges[0].name, "m.derived");
  EXPECT_EQ(snapshot.gauges[0].value, 3.5);
  EXPECT_EQ(snapshot.gauges[1].name, "z.gauge");
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].name, "h.ns");
  EXPECT_EQ(snapshot.histograms[0].count, 1u);
  ASSERT_EQ(snapshot.histograms[0].buckets.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].buckets[0].first, 8u);  // 5 in [4, 8)
}

TEST(MetricsRegistryTest, ExternalHistogramIsScrapedInPlace) {
  MetricsRegistry registry;
  Histogram latency;
  registry.RegisterHistogram("serve.latency_ns", &latency);
  // Re-registering the same object is a documented no-op.
  registry.RegisterHistogram("serve.latency_ns", &latency);
  latency.Record(1000);
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].count, 1u);
}

TEST(MetricsRegistryTest, GaugeFnRebindReplacesCallback) {
  MetricsRegistry registry;
  registry.RegisterGaugeFn("x.age", [] { return 1.0; });
  registry.RegisterGaugeFn("x.age", [] { return 2.0; });
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].value, 2.0);
}

// The shape the serving/ingest hot paths exercise: many writer threads
// bumping counters/gauges/histograms while a scraper thread snapshots in
// a loop. Must be TSan-clean; scraped counter values are consistent lower
// bounds, never above the true total.
TEST(MetricsRegistryConcurrencyTest, ScrapeRacesWritersSafely) {
  MetricsRegistry registry;
  constexpr int kWriters = 4;
  constexpr uint64_t kPerThread = 5000;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> max_seen{0};

  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      MetricsSnapshot snapshot = registry.Snapshot();
      for (const CounterSample& c : snapshot.counters) {
        uint64_t prev = max_seen.load(std::memory_order_relaxed);
        while (c.value > prev &&
               !max_seen.compare_exchange_weak(prev, c.value)) {
        }
      }
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&registry, t] {
      // Mix registration (locked) with updates (wait-free) to stress both.
      Counter& counter = registry.GetCounter("stress.events_total");
      Gauge& gauge = registry.GetGauge("stress.depth");
      Histogram& hist =
          registry.GetHistogram("stress.lane" + std::to_string(t) + ".ns");
      for (uint64_t i = 0; i < kPerThread; ++i) {
        counter.Add();
        gauge.Set(static_cast<double>(i));
        hist.Record(i);
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  scraper.join();

  const uint64_t total = kWriters * kPerThread;
  EXPECT_EQ(registry.GetCounter("stress.events_total").Value(), total);
  EXPECT_LE(max_seen.load(), total);
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.histograms.size(), static_cast<size_t>(kWriters));
  for (const HistogramSample& h : snapshot.histograms) {
    EXPECT_EQ(h.count, kPerThread);
  }
}

}  // namespace
}  // namespace obs
}  // namespace streamlink
