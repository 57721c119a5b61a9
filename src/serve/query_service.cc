#include "serve/query_service.h"

#include <utility>

#include "core/tombstone_predictor.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/timer.h"

namespace streamlink {

namespace {

/// EdgeStream decorator that reports every pulled edge to a QueryService
/// (see QueryService::WrapStream). Single-threaded like any EdgeStream;
/// the service-side store is a relaxed atomic so readers may poll it.
class TappedEdgeStream : public EdgeStream {
 public:
  TappedEdgeStream(EdgeStream& inner, QueryService& service)
      : inner_(inner), service_(service) {}

  bool Next(Edge* edge) override {
    if (!inner_.Next(edge)) return false;
    service_.NoteLiveEdges(++pulled_);
    return true;
  }

  void Reset() override {
    inner_.Reset();
    pulled_ = 0;
    service_.NoteLiveEdges(0);
  }

  uint64_t SizeHint() const override { return inner_.SizeHint(); }

 private:
  EdgeStream& inner_;
  QueryService& service_;
  uint64_t pulled_ = 0;
};

/// Turnstile twin of TappedEdgeStream: one live-position tick per event.
class TappedOpStream : public OpStream {
 public:
  TappedOpStream(OpStream& inner, QueryService& service)
      : inner_(inner), service_(service) {}

  bool Next(EdgeEvent* event) override {
    if (!inner_.Next(event)) return false;
    service_.NoteLiveEdges(++pulled_);
    return true;
  }

  void Reset() override {
    inner_.Reset();
    pulled_ = 0;
    service_.NoteLiveEdges(0);
  }

  size_t SizeHint() const override { return inner_.SizeHint(); }

 private:
  OpStream& inner_;
  QueryService& service_;
  uint64_t pulled_ = 0;
};

}  // namespace

Status QueryService::Publish(const LinkPredictor& live,
                             uint64_t stream_edges) {
  std::unique_ptr<LinkPredictor> clone = live.Clone();
  if (clone == nullptr) {
    return Status::FailedPrecondition("predictor kind '" + live.name() +
                                      "' does not support Clone()");
  }
  Publish(std::shared_ptr<const LinkPredictor>(std::move(clone)),
          stream_edges);
  return Status::Ok();
}

void QueryService::Publish(std::shared_ptr<const LinkPredictor> predictor,
                           uint64_t stream_edges) {
  auto snapshot = std::make_shared<ServeSnapshot>();
  snapshot->edges_processed = predictor->edges_processed();
  snapshot->deletes_processed = predictor->deletes_processed();
  snapshot->predictor = std::move(predictor);
  snapshot->stream_edges = stream_edges;
  snapshot->version = publish_count_.load(std::memory_order_relaxed) + 1;
  // The live frontier can only be at or past the publish point.
  if (stream_edges > live_edges_.load(std::memory_order_relaxed)) {
    live_edges_.store(stream_edges, std::memory_order_relaxed);
  }
  const uint64_t version = snapshot->version;
  publish_count_.store(version, std::memory_order_relaxed);
  // Release: a reader that acquires this pointer sees the fully built
  // predictor and metadata.
  snapshot_.store(std::move(snapshot), std::memory_order_release);
  last_publish_seconds_.store(MonotonicSeconds(), std::memory_order_relaxed);
  if (metrics_.publishes != nullptr) metrics_.publishes->Add(1);
  if (metrics_.version != nullptr) {
    metrics_.version->Set(static_cast<double>(version));
  }
}

void QueryService::BindMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  registry->RegisterHistogram("serve.query_latency_ns", &latency_);
  metrics_.queries = &registry->GetCounter("serve.queries_total");
  metrics_.query_errors = &registry->GetCounter("serve.query_errors_total");
  metrics_.publishes = &registry->GetCounter("serve.publishes_total");
  metrics_.staleness = &registry->GetGauge("serve.snapshot_staleness_edges");
  metrics_.version = &registry->GetGauge("serve.snapshot_version");
  metrics_.batch_pairs = &registry->GetHistogram("serve.query_batch_pairs");
  metrics_.topk_fanout =
      &registry->GetHistogram("serve.topk_fanout_candidates");
  metrics_.stage_lookup =
      &registry->GetHistogram("serve.stage.snapshot_lookup_ns");
  metrics_.stage_topk = &registry->GetHistogram("serve.stage.topk_ns");
  // Scrape-time gauges: cheap reads of this service's own atomics, so the
  // exporter sees fresh values without any writer-side bookkeeping.
  registry->RegisterGaugeFn("serve.live_edges", [this] {
    return static_cast<double>(live_edges_.load(std::memory_order_relaxed));
  });
  registry->RegisterGaugeFn("serve.snapshot_age_seconds", [this] {
    const double at = last_publish_seconds_.load(std::memory_order_relaxed);
    return at < 0.0 ? 0.0 : MonotonicSeconds() - at;
  });
  // Turnstile visibility (docs/turnstile.md): deletes the published
  // predictor has processed, and the subset it could not retract — each
  // of those permanently over-counts one edge. Both read the snapshot at
  // scrape time; zero before the first publish or on insert-only kinds.
  registry->RegisterGaugeFn("turnstile.deletes_processed", [this] {
    const auto snap = snapshot();
    return snap == nullptr
               ? 0.0
               : static_cast<double>(snap->predictor->deletes_processed());
  });
  registry->RegisterGaugeFn("turnstile.unretractable_deletes", [this] {
    const auto snap = snapshot();
    if (snap == nullptr) return 0.0;
    const auto* tombstone = dynamic_cast<const TombstoneWindowPredictor*>(
        snap->predictor.get());
    return tombstone == nullptr
               ? 0.0
               : static_cast<double>(tombstone->unretractable_deletes());
  });
}

IngestPublishFn QueryService::IngestPublisher() {
  return [this](const LinkPredictor& live, uint64_t stream_edges) {
    Status status = Publish(live, stream_edges);
    SL_CHECK(status.ok()) << "ingest publish failed: " << status.ToString();
  };
}

std::unique_ptr<EdgeStream> QueryService::WrapStream(EdgeStream& stream) {
  return std::make_unique<TappedEdgeStream>(stream, *this);
}

std::unique_ptr<OpStream> QueryService::WrapStream(OpStream& stream) {
  return std::make_unique<TappedOpStream>(stream, *this);
}

ServeHealth QueryService::Health() const {
  ServeHealth health;
  std::shared_ptr<const ServeSnapshot> snap =
      snapshot_.load(std::memory_order_acquire);
  if (snap == nullptr) return health;  // servable stays false
  health.has_snapshot = true;
  const uint64_t live = live_edges_.load(std::memory_order_relaxed);
  health.staleness_edges =
      live > snap->stream_edges ? live - snap->stream_edges : 0;
  const double at = last_publish_seconds_.load(std::memory_order_relaxed);
  health.age_seconds = at < 0.0 ? 0.0 : MonotonicSeconds() - at;
  health.servable =
      (options_.max_staleness_edges == 0 ||
       health.staleness_edges <= options_.max_staleness_edges) &&
      (options_.max_snapshot_age_seconds <= 0.0 ||
       health.age_seconds <= options_.max_snapshot_age_seconds);
  return health;
}

Result<std::unique_ptr<QueryService>> QueryServiceBuilder::Build() const {
  auto service = std::make_unique<QueryService>(options_);
  service->BindMetrics(metrics_);
  service->BindSlo(slo_);
  service->BindKeySampler(key_sampler_);
  if (warm_start_) {
    if (Status st = warm_start_(*service); !st.ok()) return st;
  }
  if (initial_owned_ != nullptr) {
    service->Publish(initial_owned_, initial_stream_edges_);
  } else if (initial_predictor_ != nullptr) {
    if (Status st =
            service->Publish(*initial_predictor_, initial_stream_edges_);
        !st.ok()) {
      return st;
    }
  }
  return service;
}

Result<QueryResult> QueryService::Query(const QueryRequest& request) const {
  obs::ScopedSpan span("serve/query");
  WallTimer timer;
  timer.Start();
  // Stage stamps cost two extra clock reads per query; take them only when
  // someone consumes them (bound stage histograms or a trace opt-in).
  const bool timed = request.trace || metrics_.stage_lookup != nullptr;
  const uint64_t stage_start_ns = timed ? obs::Tracer::NowNs() : 0;
  std::shared_ptr<const ServeSnapshot> snap =
      snapshot_.load(std::memory_order_acquire);
  if (snap == nullptr) {
    if (metrics_.query_errors != nullptr) metrics_.query_errors->Add(1);
    return Status::NotFound("no snapshot published yet");
  }
  // Service-level defaults fill whatever the request left open.
  const std::vector<LinkMeasure>& measures =
      request.measures.empty() && !options_.default_measures.empty()
          ? options_.default_measures
          : request.measures;
  const uint32_t top_k =
      request.top_k == 0 ? options_.default_top_k : request.top_k;
  if (top_k > 0 && measures.empty()) {
    if (metrics_.query_errors != nullptr) metrics_.query_errors->Add(1);
    return Status::InvalidArgument(
        "top_k queries need at least one measure (measures[0] ranks)");
  }
  const uint64_t lookup_end_ns = timed ? obs::Tracer::NowNs() : 0;

  QueryResult result;
  if (top_k > 0) {
    TopKEngine engine(*snap->predictor, measures[0]);
    std::vector<MultiScoredPair> winners =
        engine.TopKScored(request.pairs, measures, top_k);
    result.pairs.reserve(winners.size());
    for (auto& w : winners) {
      PairResult pr;
      pr.pair = w.pair;
      pr.scores = std::move(w.scores);
      result.pairs.push_back(std::move(pr));
    }
  } else {
    result.pairs.reserve(request.pairs.size());
    for (const QueryPair& pair : request.pairs) {
      PairResult pr;
      pr.pair = pair;
      pr.estimate = snap->predictor->EstimateOverlap(pair.u, pair.v);
      pr.scores.reserve(measures.size());
      for (LinkMeasure m : measures) {
        pr.scores.push_back(MeasureFromEstimate(m, pr.estimate));
      }
      result.pairs.push_back(std::move(pr));
    }
  }

  result.meta.snapshot_version = snap->version;
  result.meta.snapshot_edges = snap->stream_edges;
  result.meta.live_edges = live_edges_.load(std::memory_order_relaxed);
  // A racing publish can briefly leave live behind this snapshot; clamp so
  // staleness never underflows.
  result.meta.staleness_edges =
      result.meta.live_edges > result.meta.snapshot_edges
          ? result.meta.live_edges - result.meta.snapshot_edges
          : 0;
  if (timed) {
    const uint64_t score_end_ns = obs::Tracer::NowNs();
    const uint64_t lookup_ns = lookup_end_ns - stage_start_ns;
    const uint64_t score_ns = score_end_ns - lookup_end_ns;
    if (metrics_.stage_lookup != nullptr) {
      metrics_.stage_lookup->Record(lookup_ns);
      metrics_.stage_topk->Record(score_ns);
    }
    result.stages.push_back(StageSample{
        static_cast<uint32_t>(obs::ServeStage::kSnapshotLookup), lookup_ns});
    result.stages.push_back(StageSample{
        static_cast<uint32_t>(obs::ServeStage::kTopK), score_ns});
  }

  const double seconds = timer.Seconds();
  result.meta.latency_us = seconds * 1e6;
  latency_.Record(seconds);
  if (slo_ != nullptr) {
    slo_->Record(seconds <= 0.0 ? 0 : static_cast<uint64_t>(seconds * 1e9));
  }
  if (key_sampler_ != nullptr && !request.pairs.empty()) {
    std::vector<uint64_t> keys;
    keys.reserve(request.pairs.size() * 2);
    for (const QueryPair& pair : request.pairs) {
      keys.push_back(pair.u);
      keys.push_back(pair.v);
    }
    key_sampler_->OfferBatch(keys.data(), keys.size());
  }
  if (metrics_.queries != nullptr) {
    metrics_.queries->Add(1);
    metrics_.staleness->Set(
        static_cast<double>(result.meta.staleness_edges));
    metrics_.batch_pairs->Record(request.pairs.size());
    if (top_k > 0) {
      metrics_.topk_fanout->Record(request.pairs.size());
    }
  }
  return result;
}

}  // namespace streamlink

#if defined(__SANITIZE_THREAD__)
// libstdc++-12's std::atomic<std::shared_ptr<T>> (_Sp_atomic) guards its
// plain _M_ptr member with a spin lock bit inside an atomic word. lock()
// acquires via CAS, but load() releases with a *relaxed* fetch_sub, so there
// is no release edge from a reader's unlock to the next writer's lock and
// TSAN flags the _M_ptr read/write pair as unsynchronized. The lock bit does
// mutually exclude them; the report is a library-internal false positive
// (both stacks sit entirely inside shared_ptr_atomic.h, which the pattern
// below matches — races in streamlink code remain visible).
//
// The hook lives in this TU, not a separate file, because sanitized test
// binaries link streamlink as static archives: a TU defining only this
// weakly-referenced hook would never be pulled out of the archive, while any
// binary that can trip the false positive necessarily links query_service.o
// (the only user of std::atomic<std::shared_ptr>).
extern "C" const char* __tsan_default_suppressions() {
  return "race:bits/shared_ptr_atomic.h\n";
}
#endif  // __SANITIZE_THREAD__
