#ifndef STREAMLINK_SERVE_QUERY_SERVICE_H_
#define STREAMLINK_SERVE_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/link_predictor.h"
#include "core/top_k_engine.h"
#include "gen/pair_sampler.h"
#include "obs/exemplar.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "stream/edge_stream.h"
#include "stream/parallel_ingest.h"
#include "util/status.h"

namespace streamlink {

/// An immutable published checkpoint of a live predictor. Readers hold the
/// whole struct through one shared_ptr, so the predictor and its metadata
/// can never be observed torn.
struct ServeSnapshot {
  /// Deep clone of the live predictor at publish time (LinkPredictor::
  /// Clone). Never mutated after publish.
  std::shared_ptr<const LinkPredictor> predictor;
  /// Stream position at publish: edges pulled from the source stream
  /// (self-loops included — this is a cursor, not a simple-edge count).
  /// Replaying the first `stream_edges` stream edges sequentially
  /// reproduces this snapshot's answers bit for bit.
  uint64_t stream_edges = 0;
  /// The clone's own simple-edge tally (excludes self-loops).
  uint64_t edges_processed = 0;
  /// The clone's delete tally (turnstile streams; 0 on insert-only ones).
  /// For turnstile builds `stream_edges` is an *event* cursor, so deletes
  /// advance it — and therefore count toward staleness — like inserts.
  uint64_t deletes_processed = 0;
  /// Monotonically increasing publish counter, starting at 1.
  uint64_t version = 0;
};

/// A batched query: score `pairs` on `measures` against the current
/// snapshot. With `top_k` > 0 the pairs are treated as candidates and only
/// the best `top_k` (ranked by `measures[0]`, which must exist) come back.
/// Empty `measures` / zero `top_k` fall back to the service's configured
/// defaults (QueryServiceOptions) when those are set.
struct QueryRequest {
  std::vector<QueryPair> pairs;
  std::vector<LinkMeasure> measures;
  uint32_t top_k = 0;
  /// Trace opt-in: ask the server to echo a per-stage latency breakdown in
  /// the result's `stages` (docs/observability.md). Rides the wire codec,
  /// so NetClient and the load generator can request it end to end.
  bool trace = false;
};

/// Construction-time policy of a QueryService. Prefer QueryServiceBuilder
/// over filling this by hand.
struct QueryServiceOptions {
  /// Freshness bounds consulted by transports for admission control
  /// (net::Admit, docs/net.md). Query() itself always answers — a stale
  /// answer with honest staleness metadata beats no answer in-process —
  /// but the bounds define when Health() reports the snapshot unservable.
  /// 0 disables the respective bound.
  uint64_t max_staleness_edges = 0;
  double max_snapshot_age_seconds = 0.0;
  /// Defaults filled into requests that leave the field empty/zero: the
  /// measure list every query scores, and the top-k cut applied when a
  /// request does not pick its own. Both off by default (empty / 0), so a
  /// plain QueryService behaves exactly as before.
  std::vector<LinkMeasure> default_measures;
  uint32_t default_top_k = 0;
};

/// A transport's view of snapshot freshness, used for admission control
/// and surfaced as gauges. `servable` folds the options' bounds: a
/// snapshot exists and is within both the edge-staleness and age bounds.
struct ServeHealth {
  bool has_snapshot = false;
  uint64_t staleness_edges = 0;
  double age_seconds = 0.0;
  bool servable = false;
};

/// One scored pair of a QueryResult; `scores` is parallel to the request's
/// `measures`. `estimate` is filled for non-top-k queries (top-k responses
/// carry scores only — candidates' estimates are transient).
struct PairResult {
  QueryPair pair;
  OverlapEstimate estimate;
  std::vector<double> scores;
};

/// Consistency metadata attached to every result: which checkpoint
/// answered, and how far the live stream had advanced past it.
struct QueryMeta {
  uint64_t snapshot_version = 0;
  uint64_t snapshot_edges = 0;   // stream position of the snapshot
  uint64_t live_edges = 0;       // stream position at query time
  uint64_t staleness_edges = 0;  // live_edges - snapshot_edges
  double latency_us = 0.0;       // this query's evaluation time
};

/// One stage of the serve pipeline and the nanoseconds a request spent in
/// it. `stage` is an obs::ServeStage value; kept as a raw u32 so the wire
/// codec round-trips unknown future stages untouched.
struct StageSample {
  uint32_t stage = 0;
  uint64_t ns = 0;
};

struct QueryResult {
  std::vector<PairResult> pairs;
  QueryMeta meta;
  /// Per-stage breakdown (snapshot-lookup and top-k from the service; the
  /// transport adds its own stages). Filled when the request opted into
  /// tracing or stage metrics are bound; empty otherwise.
  std::vector<StageSample> stages;
};

/// Serves link-prediction queries from any number of reader threads while
/// the underlying predictor is still ingesting its stream.
///
/// Consistency model (docs/serving.md): the ingest thread periodically
/// *publishes* — deep-clones the live predictor (LinkPredictor::Clone)
/// and swaps the clone into an atomic shared_ptr. Readers load the
/// pointer, never block, never observe a torn state, and every answer is
/// bit-identical to a quiescent predictor built from the stream prefix
/// the snapshot's `stream_edges` names. Staleness (how many stream edges
/// the snapshot trails the live ingest by) is reported on every result.
///
/// Wiring:
///  * a build via ParallelIngestEngine, at any thread count — set
///    ParallelIngestOptions::on_publish = IngestPublisher() together with
///    a publish cadence (the engine quiesces its sink around the call);
///  * anything else — call Publish(live, position) from whichever thread
///    owns the live predictor, whenever it is quiescent.
///
/// Thread safety: Publish and NoteLiveEdges are writer-side (one ingest
/// thread at a time); snapshot/Query/TopK/stats are safe from any number
/// of concurrent threads.
class QueryService {
 public:
  QueryService() = default;
  explicit QueryService(QueryServiceOptions options)
      : options_(std::move(options)) {}
  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // --- Writer (ingest) side ---

  /// Clones `live` and publishes the clone as the new snapshot.
  /// `stream_edges` is the live stream position the clone corresponds to.
  /// FailedPrecondition if the predictor does not support Clone().
  Status Publish(const LinkPredictor& live, uint64_t stream_edges);

  /// Publishes `predictor` itself as the new snapshot, with no clone: for
  /// a predictor nobody writes any more, such as one loaded from a file.
  void Publish(std::shared_ptr<const LinkPredictor> predictor,
               uint64_t stream_edges);

  /// Advances the live stream position without publishing (keeps reader
  /// staleness metadata fresh between snapshots). Normally fed by
  /// WrapStream; cheap enough to call per edge.
  void NoteLiveEdges(uint64_t stream_edges) {
    live_edges_.store(stream_edges, std::memory_order_relaxed);
  }

  /// The ParallelIngestOptions::on_publish hook: publishes every quiesced
  /// predictor the engine hands out. Fatal on publish failure.
  IngestPublishFn IngestPublisher();

  /// Decorates `stream` so every pulled edge advances this service's live
  /// position — staleness metadata then tracks the true ingest frontier,
  /// not just the last publish. `stream` and this service must outlive the
  /// returned stream.
  std::unique_ptr<EdgeStream> WrapStream(EdgeStream& stream);

  /// Turnstile analogue: every pulled *event* (insert or delete) advances
  /// the live position, so deletes age a snapshot exactly like inserts.
  std::unique_ptr<OpStream> WrapStream(OpStream& stream);

  // --- Reader side (any thread, lock-free) ---

  /// The current snapshot, or nullptr before the first publish. Holding
  /// the returned shared_ptr pins the snapshot; dropping it releases the
  /// clone once no other reader uses it.
  std::shared_ptr<const ServeSnapshot> snapshot() const {
    return snapshot_.load(std::memory_order_acquire);
  }

  /// Evaluates `request` against the current snapshot. NotFound before
  /// the first publish; InvalidArgument for top_k without measures. Each
  /// call records its latency in latency().
  Result<QueryResult> Query(const QueryRequest& request) const;

  uint64_t live_edges() const {
    return live_edges_.load(std::memory_order_relaxed);
  }
  uint64_t publish_count() const {
    return publish_count_.load(std::memory_order_relaxed);
  }
  const obs::LatencyHistogram& latency() const { return latency_; }

  const QueryServiceOptions& options() const { return options_; }

  /// Snapshot freshness against the configured bounds — the signal
  /// transports (src/net/) feed into admission control. Cheap (a few
  /// relaxed atomic reads); safe from any thread.
  ServeHealth Health() const;

  // --- Observability ---

  /// Registers this service's metrics in `registry` under the `serve.*`
  /// names (docs/observability.md): the per-request latency histogram,
  /// query/publish counters, batch-size and top-k fanout histograms, and
  /// snapshot staleness/age/version gauges (age and live-edge gauges are
  /// computed at scrape time). This service must outlive every scrape of
  /// `registry`. Call before serving starts; nullptr detaches nothing —
  /// metrics recording is a no-op until bound.
  void BindMetrics(obs::MetricsRegistry* registry);

  /// Feeds every successful query's latency into `slo` (nullptr detaches).
  /// The tracker must outlive the service.
  void BindSlo(obs::SloTracker* slo) { slo_ = slo; }

  /// Offers every queried pair's endpoints to `sampler` — the observed
  /// key-frequency skew future partitioning wants (nullptr detaches). The
  /// sampler must outlive the service.
  void BindKeySampler(obs::KeyFrequencyTopK* sampler) {
    key_sampler_ = sampler;
  }

 private:
  /// Registry-resident instruments, null until BindMetrics. Updated on the
  /// query/publish paths with relaxed atomics only.
  struct ServeMetrics {
    obs::Counter* queries = nullptr;         // serve.queries_total
    obs::Counter* query_errors = nullptr;    // serve.query_errors_total
    obs::Counter* publishes = nullptr;       // serve.publishes_total
    obs::Gauge* staleness = nullptr;         // serve.snapshot_staleness_edges
    obs::Gauge* version = nullptr;           // serve.snapshot_version
    obs::Histogram* batch_pairs = nullptr;   // serve.query_batch_pairs
    obs::Histogram* topk_fanout = nullptr;   // serve.topk_fanout_candidates
    // Per-stage serve pipeline timing (docs/observability.md).
    obs::Histogram* stage_lookup = nullptr;  // serve.stage.snapshot_lookup_ns
    obs::Histogram* stage_topk = nullptr;    // serve.stage.topk_ns
  };

  QueryServiceOptions options_;
  std::atomic<std::shared_ptr<const ServeSnapshot>> snapshot_{};
  std::atomic<uint64_t> live_edges_{0};
  std::atomic<uint64_t> publish_count_{0};
  mutable obs::LatencyHistogram latency_;
  ServeMetrics metrics_;
  obs::SloTracker* slo_ = nullptr;
  obs::KeyFrequencyTopK* key_sampler_ = nullptr;
  /// Monotonic publish timestamp for the snapshot-age gauge; < 0 before
  /// the first publish.
  std::atomic<double> last_publish_seconds_{-1.0};
};

/// Fluent construction for the serving surface — the one place a service's
/// policy, instrumentation, and initial snapshot are wired, mirroring
/// IngestEngineBuilder on the ingest side:
///
///   auto service = QueryServiceBuilder()
///                      .StalenessBoundEdges(100000)
///                      .DefaultMeasures({LinkMeasure::kJaccard})
///                      .Metrics(&registry)
///                      .Build();
///
/// Build() returns the ready service (metrics bound, warm start applied,
/// initial snapshot published); construction problems surface as a Status,
/// never a half-wired service. Checkpoint warm starts go through the
/// WarmStartFrom hook, which accepts any source exposing a
/// WarmStartFromCheckpoints(source, service) overload (persist/
/// CheckpointManager) without this header depending on persist/.
class QueryServiceBuilder {
 public:
  QueryServiceBuilder() = default;

  QueryServiceBuilder& Options(QueryServiceOptions options) {
    options_ = std::move(options);
    return *this;
  }
  /// Transports shed queries once the snapshot trails the live stream by
  /// more than `edges` (0 = unbounded).
  QueryServiceBuilder& StalenessBoundEdges(uint64_t edges) {
    options_.max_staleness_edges = edges;
    return *this;
  }
  /// Transports shed queries once the snapshot is older than `seconds`
  /// (0 = unbounded).
  QueryServiceBuilder& StalenessBoundSeconds(double seconds) {
    options_.max_snapshot_age_seconds = seconds;
    return *this;
  }
  /// Measures scored for requests that don't pick their own.
  QueryServiceBuilder& DefaultMeasures(std::vector<LinkMeasure> measures) {
    options_.default_measures = std::move(measures);
    return *this;
  }
  /// Top-k cut applied to requests that don't pick their own (0 = none).
  QueryServiceBuilder& DefaultTopK(uint32_t top_k) {
    options_.default_top_k = top_k;
    return *this;
  }
  /// Binds the serve.* metric family at Build (docs/observability.md).
  /// The registry must outlive the built service; nullptr disables.
  QueryServiceBuilder& Metrics(obs::MetricsRegistry* registry) {
    metrics_ = registry;
    return *this;
  }
  /// Binds an SLO tracker fed by every successful query (nullptr skips).
  /// Must outlive the built service.
  QueryServiceBuilder& Slo(obs::SloTracker* slo) {
    slo_ = slo;
    return *this;
  }
  /// Binds a key-frequency sampler fed by every queried pair (nullptr
  /// skips). Must outlive the built service.
  QueryServiceBuilder& KeySampler(obs::KeyFrequencyTopK* sampler) {
    key_sampler_ = sampler;
    return *this;
  }
  /// Publishes a clone of `predictor` as the service's first snapshot at
  /// Build — the wiring for serving a finished build or a loaded snapshot
  /// file. `stream_edges` is the stream position the predictor reflects.
  /// The predictor only needs to outlive Build().
  QueryServiceBuilder& InitialSnapshot(const LinkPredictor& predictor,
                                       uint64_t stream_edges) {
    initial_predictor_ = &predictor;
    initial_owned_.reset();
    initial_stream_edges_ = stream_edges;
    return *this;
  }
  /// The same, publishing `predictor` itself instead of a clone, so a
  /// server holds one copy of a loaded snapshot, not two.
  QueryServiceBuilder& InitialSnapshot(
      std::shared_ptr<const LinkPredictor> predictor, uint64_t stream_edges) {
    initial_predictor_ = nullptr;
    initial_owned_ = std::move(predictor);
    initial_stream_edges_ = stream_edges;
    return *this;
  }
  /// Warm-starts the service from `source`'s newest durable checkpoint at
  /// Build, before any live publish. Works for any source with a
  /// WarmStartFromCheckpoints(source, service) -> Result<uint64_t>
  /// overload (CheckpointManager). NotFound (no usable checkpoint) is a
  /// cold start, not an error. `warm_edges`, when non-null, receives the
  /// recovered stream position (0 on cold start).
  template <typename Source>
  QueryServiceBuilder& WarmStartFrom(Source& source,
                                     uint64_t* warm_edges = nullptr) {
    warm_start_ = [&source, warm_edges](QueryService& service) -> Status {
      auto warm = WarmStartFromCheckpoints(source, service);
      if (warm.ok()) {
        if (warm_edges != nullptr) *warm_edges = *warm;
        return Status::Ok();
      }
      if (warm.status().code() == StatusCode::kNotFound) {
        if (warm_edges != nullptr) *warm_edges = 0;
        return Status::Ok();
      }
      return warm.status();
    };
    return *this;
  }

  const QueryServiceOptions& options() const { return options_; }

  /// Finalizes: constructs the service, binds metrics, runs the warm
  /// start, publishes the initial snapshot.
  Result<std::unique_ptr<QueryService>> Build() const;

 private:
  QueryServiceOptions options_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::SloTracker* slo_ = nullptr;
  obs::KeyFrequencyTopK* key_sampler_ = nullptr;
  const LinkPredictor* initial_predictor_ = nullptr;  // published cloned
  std::shared_ptr<const LinkPredictor> initial_owned_;  // published as is
  uint64_t initial_stream_edges_ = 0;
  std::function<Status(QueryService&)> warm_start_;
};

}  // namespace streamlink

#endif  // STREAMLINK_SERVE_QUERY_SERVICE_H_
