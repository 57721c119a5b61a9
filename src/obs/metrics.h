#ifndef STREAMLINK_OBS_METRICS_H_
#define STREAMLINK_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace streamlink {
namespace obs {

/// Monotonically increasing event count, safe for any number of concurrent
/// writers. Writes land on one of a small set of cache-line-padded shards
/// (each thread sticks to one shard for its lifetime), so hot-path
/// increments never contend on a shared line; readers fold the shards on
/// scrape. A fold concurrent with writers is a consistent *lower bound* —
/// exactly the semantics a monitoring scrape needs.
class Counter {
 public:
  static constexpr size_t kShards = 16;

  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  /// Adds `n` events. Lock-free; one relaxed fetch_add on this thread's
  /// shard.
  void Add(uint64_t n = 1);

  /// Folds the shards. May run concurrently with Add.
  uint64_t Value() const;

  /// Clears all shards (not intended to race with Add).
  void Reset();

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  std::array<Shard, kShards> shards_{};
};

/// Last-write-wins instantaneous value (staleness, queue depth, rates).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta);
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log2-bucketed fixed-bucket histogram over non-negative integer values
/// (nanoseconds, bytes, batch sizes, ...), safe for any number of
/// concurrent recorders with no locking — each sample is a few relaxed
/// atomic increments. Bucket i counts samples in [2^i, 2^(i+1)); quantile
/// reads log-linearly interpolate within the bucket holding the requested
/// rank, so estimates never leave that bucket (within 2x of truth in the
/// worst case, exact for log-uniform data) — the right fidelity for a
/// monitoring dashboard at per-sample cost independent of history length.
/// The true minimum and maximum are tracked too (written only when a
/// sample sets a new extreme), and quantiles are clamped to them, so no
/// quantile lies outside the observed data.
///
/// This is the *single* histogram implementation in the tree;
/// LatencyHistogram below is a thin seconds-to-nanoseconds adapter over it.
class Histogram {
 public:
  /// 2^63 covers the whole uint64 value range.
  static constexpr size_t kNumBuckets = 64;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;
  virtual ~Histogram() = default;

  /// Records one sample.
  void Record(uint64_t value);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  double Mean() const;

  /// Approximate p-quantile in raw value units, p in (0, 1], clamped to
  /// [Min(), Max()]. Returns 0 when no samples were recorded. Concurrent
  /// Record calls may be partially visible; the estimate is still within
  /// one bucket of a consistent cut.
  double Percentile(double p) const;

  /// The smallest and largest samples recorded (0 when empty).
  uint64_t Min() const;
  uint64_t Max() const { return max_.load(std::memory_order_relaxed); }

  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Upper bound of bucket `i`: 2^(i+1), saturating at the top bucket.
  static double BucketUpperBound(size_t i);

  /// Clears all counters (not intended to race with Record).
  void Reset();

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

/// One scraped counter/gauge/histogram — the consistent read the exporters
/// and the StatsReporter format from.
struct CounterSample {
  std::string name;
  uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  uint64_t count = 0;
  uint64_t sum = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  /// Non-empty buckets as (upper bound, count in bucket), ascending.
  std::vector<std::pair<uint64_t, uint64_t>> buckets;
};

/// A point-in-time scrape of a whole registry, ordered by name.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

/// Owns named metrics and hands out stable references. Registration takes
/// a lock; the returned metric objects are wait-free on the hot path and
/// valid for the registry's lifetime. Names are dot-separated lowercase
/// (`ingest.edges_total`); the Prometheus exporter maps dots to
/// underscores (docs/observability.md has the full catalog).
///
/// Thread safety: every method may be called from any thread, concurrently
/// with metric updates and scrapes.
class MetricsRegistry {
 public:
  /// A gauge computed at scrape time (snapshot age, RSS). The callback
  /// must be safe to invoke from the scraping thread for as long as the
  /// registry can be scraped.
  using GaugeFn = std::function<double()>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the metric registered under `name`, creating it on first use.
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// Registers an externally owned histogram (e.g. a QueryService's
  /// latency histogram) under `name`. The object must outlive every scrape
  /// of this registry. Re-registering the same pointer is a no-op;
  /// registering a different object under a taken name is a fatal error.
  void RegisterHistogram(const std::string& name, Histogram* histogram);

  /// Registers a scrape-time gauge. Replaces any previous callback of the
  /// same name (re-binding after a service restart is legal).
  void RegisterGaugeFn(const std::string& name, GaugeFn fn);

  /// Consistent point-in-time read of every metric. Safe concurrently
  /// with updates (relaxed reads; counters fold their shards).
  MetricsSnapshot Snapshot() const;

  /// The process-wide default registry the CLI and benches wire through.
  static MetricsRegistry& Default();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, GaugeFn> gauge_fns_;
  std::map<std::string, Histogram*> histograms_;
  std::vector<std::unique_ptr<Histogram>> owned_histograms_;
};

/// Seconds-based adapter over Histogram for wall-time latencies: records
/// in nanoseconds, reads back in microseconds.
class LatencyHistogram : public Histogram {
 public:
  /// Records one sample of `seconds` wall time.
  void Record(double seconds);

  uint64_t count() const { return Count(); }
  double MeanMicros() const { return Mean() / 1e3; }

  /// Approximate p-quantile in microseconds, p in (0, 1].
  double PercentileMicros(double p) const { return Percentile(p) / 1e3; }
};

}  // namespace obs
}  // namespace streamlink

#endif  // STREAMLINK_OBS_METRICS_H_
