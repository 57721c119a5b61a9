#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/logging.h"

namespace streamlink {
namespace obs {

namespace {

/// Each thread picks a counter shard once, round-robin, and keeps it for
/// life — worker pools spread evenly, and a shard index never changes
/// under a running increment.
size_t ThisThreadShard() {
  static std::atomic<size_t> next{0};
  thread_local const size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % Counter::kShards;
  return shard;
}

}  // namespace

void Counter::Add(uint64_t n) {
  shards_[ThisThreadShard()].value.fetch_add(n, std::memory_order_relaxed);
}

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (Shard& shard : shards_) {
    shard.value.store(0, std::memory_order_relaxed);
  }
}

void Gauge::Add(double delta) {
  double current = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

void Histogram::Record(uint64_t value) {
  const size_t bucket =
      value == 0 ? 0 : static_cast<size_t>(std::bit_width(value)) - 1;
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  // Extremes are written only by a sample that sets a new one.
  uint64_t min = min_.load(std::memory_order_relaxed);
  while (value < min &&
         !min_.compare_exchange_weak(min, value, std::memory_order_relaxed)) {
  }
  uint64_t max = max_.load(std::memory_order_relaxed);
  while (value > max &&
         !max_.compare_exchange_weak(max, value, std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::Min() const {
  return Count() == 0 ? 0 : min_.load(std::memory_order_relaxed);
}

double Histogram::Mean() const {
  const uint64_t n = Count();
  if (n == 0) return 0.0;
  return static_cast<double>(Sum()) / static_cast<double>(n);
}

double Histogram::BucketUpperBound(size_t i) {
  return std::ldexp(1.0, static_cast<int>(i) + 1);
}

double Histogram::Percentile(double p) const {
  const uint64_t n = Count();
  if (n == 0) return 0.0;
  // A racing Record may have counted its sample before writing an extreme;
  // clamp only to a consistent [min, max].
  const double lo = static_cast<double>(min_.load(std::memory_order_relaxed));
  const double hi = static_cast<double>(Max());
  const auto clamped = [lo, hi](double estimate) {
    return lo <= hi ? std::clamp(estimate, lo, hi) : estimate;
  };
  uint64_t rank = static_cast<uint64_t>(std::ceil(p * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    const uint64_t in_bucket = buckets_[i].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    if (seen + in_bucket >= rank) {
      // Log-linear interpolation within [2^i, 2^(i+1)): spread the bucket's
      // mass geometrically across the bucket, which is exact for
      // log-uniform data and never leaves the bucket holding the rank.
      // frac is in (0, 1], so p == 1 of a single-bucket histogram still
      // reports the bucket's upper bound.
      const double frac = static_cast<double>(rank - seen) /
                          static_cast<double>(in_bucket);
      if (i == 0) return clamped(frac * BucketUpperBound(0));  // linear
      return clamped(std::ldexp(1.0, static_cast<int>(i)) * std::exp2(frac));
    }
    seen += in_bucket;
  }
  return clamped(BucketUpperBound(kNumBuckets - 1));
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

void LatencyHistogram::Record(double seconds) {
  Histogram::Record(
      seconds <= 0.0 ? 0 : static_cast<uint64_t>(seconds * 1e9));
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  owned_histograms_.push_back(std::make_unique<Histogram>());
  Histogram* histogram = owned_histograms_.back().get();
  histograms_.emplace(name, histogram);
  return *histogram;
}

void MetricsRegistry::RegisterHistogram(const std::string& name,
                                        Histogram* histogram) {
  SL_CHECK(histogram != nullptr) << "null histogram for " << name;
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = histograms_.emplace(name, histogram);
  SL_CHECK(inserted || it->second == histogram)
      << "histogram name '" << name << "' already bound to another object";
}

void MetricsRegistry::RegisterGaugeFn(const std::string& name, GaugeFn fn) {
  SL_CHECK(fn != nullptr) << "null gauge callback for " << name;
  std::lock_guard<std::mutex> lock(mu_);
  gauge_fns_[name] = std::move(fn);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.push_back(CounterSample{name, counter->Value()});
  }
  snapshot.gauges.reserve(gauges_.size() + gauge_fns_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.push_back(GaugeSample{name, gauge->Value()});
  }
  for (const auto& [name, fn] : gauge_fns_) {
    snapshot.gauges.push_back(GaugeSample{name, fn()});
  }
  // gauges_ and gauge_fns_ are each sorted; a callback shadowing a settable
  // gauge is a registration bug, not worth detecting here. Keep the merged
  // list name-ordered for stable export output.
  std::inplace_merge(
      snapshot.gauges.begin(), snapshot.gauges.end() - gauge_fns_.size(),
      snapshot.gauges.end(),
      [](const GaugeSample& a, const GaugeSample& b) { return a.name < b.name; });
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    HistogramSample sample;
    sample.name = name;
    sample.count = histogram->Count();
    sample.sum = histogram->Sum();
    sample.mean = histogram->Mean();
    sample.p50 = histogram->Percentile(0.5);
    sample.p90 = histogram->Percentile(0.9);
    sample.p99 = histogram->Percentile(0.99);
    sample.max = static_cast<double>(histogram->Max());
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      const uint64_t in_bucket = histogram->BucketCount(i);
      if (in_bucket > 0) {
        // The top bucket's true bound is 2^64; saturate instead of
        // overflowing the integer representation.
        const uint64_t bound =
            i + 1 >= 64 ? UINT64_MAX : (uint64_t{1} << (i + 1));
        sample.buckets.emplace_back(bound, in_bucket);
      }
    }
    snapshot.histograms.push_back(std::move(sample));
  }
  return snapshot;
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace obs
}  // namespace streamlink
