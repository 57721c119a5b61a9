#ifndef STREAMLINK_STREAM_PARALLEL_INGEST_H_
#define STREAMLINK_STREAM_PARALLEL_INGEST_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "core/predictor_factory.h"
#include "graph/types.h"
#include "stream/edge_stream.h"
#include "stream/op_stream.h"
#include "util/status.h"

namespace streamlink {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// Callback invoked at a live-publish point: the predictor under
/// construction (fully quiesced — no worker is writing while the callback
/// runs) and the number of stream edges consumed so far. For turnstile
/// builds (Build(OpStream&)) the cursor counts *events* — inserts and
/// deletes alike — so serving-side staleness accounting charges deletes
/// too. The serving layer (QueryService::IngestPublisher) snapshots
/// through this.
using IngestPublishFn =
    std::function<void(const LinkPredictor&, uint64_t stream_edges)>;

/// Tuning knobs for ParallelIngestEngine. Prefer IngestEngineBuilder over
/// filling this struct by hand; invalid combinations surface as
/// InvalidArgument from Build, never as crashes.
struct ParallelIngestOptions {
  /// Edges per batch: half-edges per shard batch when threads > 1, whole
  /// stream edges per predictor batch when threads == 1. Large batches
  /// are the point of the design — hand-off cost, hash-lane
  /// pre-computation, and the one virtual dispatch all amortize over it.
  uint32_t batch_edges = 8192;
  /// Ring capacity in batches per worker (rounded up to a power of two).
  /// The router stalls — counted in ingest.ring_full_stalls — when a ring
  /// is full. A full ring holds ring_batches × batch_edges half-edges (16
  /// bytes each with the hash lane): 16 batches are 2 MiB per shard, while
  /// 64 held 20 MB in a 3-worker bottomk build of a 1M-edge graph, a fifth
  /// of its state, with no measured gain in build time.
  uint32_t ring_batches = 16;
  /// Live-publish cadence in stream edges (0 = disabled): after every
  /// `publish_every_edges` edges pulled from the stream, the engine
  /// quiesces the shards (epoch barrier: waits until every shard's
  /// applied-batch counter catches its pushed-batch counter), invokes
  /// `on_publish`, then resumes routing. Also fires once at end-of-stream.
  uint64_t publish_every_edges = 0;
  /// Time-based cadence in seconds (0 = disabled); checked once per 1024
  /// stream edges and composable with the edge-count cadence (either
  /// trigger publishes and resets both).
  double publish_every_seconds = 0.0;
  /// Required when either cadence is set.
  IngestPublishFn on_publish;
  /// When set, Build registers and maintains the `ingest.*` metric family
  /// (docs/observability.md): edge/publish counters, live-frontier and
  /// window-rate gauges, batch-size / ring-wait / publish-duration
  /// histograms, the ring_full_stalls counter, and (threads > 1) one
  /// `ingest.shard<t>.half_edges_total` counter per worker. Updates happen
  /// at batch granularity, never per edge. The registry must outlive
  /// Build; nullptr (default) disables all instrumentation.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Builds a predictor from an edge or event stream using `config.threads`
/// ingestion workers, through one loop: pull an event, count it, hand it
/// to the sink, and quiesce and publish at the cadence.
///
/// The sink is chosen once, from `threads`:
///  * threads == 1: one predictor, fed whole-edge batches on the calling
///    thread; Build returns that plain predictor.
///  * threads > 1: each worker owns one vertex shard (shard t owns every
///    vertex u with u % threads == t, at row u / threads, so the shards
///    together hold one row per vertex); the calling thread routes each
///    stream edge (u, v) as two half-edges to the owners of u and v
///    through per-shard bounded SPSC rings (stream/spsc_ring.h) carrying
///    large pre-hashed EdgeBatch payloads. Because sketch updates are
///    commutative and idempotent and every vertex's half-edges reach its
///    single owner in stream order, the result is bit-identical to a
///    sequential build — the returned ShardedPredictor answers queries by
///    routing to owners, with no merge step. When the kind consumes a
///    single seeded neighbor hash (HalfEdgePredictor::NeighborHashSeed —
///    bottomk), the router pre-computes it once per half-edge into the
///    batch's hash lane, so shard workers never re-hash.
///
/// With a publish cadence configured, the engine periodically quiesces the
/// sink and hands the live predictor to `on_publish` — the hook
/// QueryService uses to serve consistent snapshots while the build is
/// still running (docs/serving.md).
class ParallelIngestEngine {
 public:
  explicit ParallelIngestEngine(PredictorConfig config,
                                ParallelIngestOptions options = {});

  /// Consumes the whole stream and returns the built predictor.
  /// InvalidArgument if the config or options are invalid or the kind
  /// cannot be sharded at the requested thread count. The stream enters
  /// the loop as an insert-only OpStream, so its batches carry no op lane.
  Result<std::unique_ptr<LinkPredictor>> Build(EdgeStream& stream);

  /// Turnstile build: consumes a stream of insert/delete events through
  /// the same loop (op-tagged half-edge batches routed to vertex owners
  /// when threads > 1; bit-identical to a sequential replay). The kind must
  /// be deletable (its kind table row says so), or be tombstone-wrapped
  /// via config.tombstone_window at threads == 1; anything else is
  /// InvalidArgument. Tombstone-wrapped builds are flushed at
  /// end-of-stream.
  Result<std::unique_ptr<LinkPredictor>> Build(OpStream& stream);

  /// Continues a build: `restored` has already consumed the first `cursor`
  /// edges of the stream (a restored checkpoint), and `tail` yields the
  /// edges after them. Runs the same loop as Build into `restored`, with
  /// the cursor, the publish grid and the `ingest.*` frontier starting at
  /// `cursor`: the first publish lands at the next multiple of
  /// `publish_every_edges` after it, as in the interrupted run, and the
  /// result is byte-identical to the uninterrupted build. Sequential only:
  /// InvalidArgument when threads > 1 or `restored` is null.
  Result<std::unique_ptr<LinkPredictor>> Resume(
      std::unique_ptr<LinkPredictor> restored, uint64_t cursor,
      EdgeStream& tail);

  /// The stream cursor after the last Build or Resume: edges pulled from
  /// the stream (including self-loops, which are dropped during routing),
  /// plus a resume's starting cursor. For turnstile builds this counts
  /// *events* (inserts + deletes) — the staleness cursor.
  uint64_t edges_ingested() const { return edges_ingested_; }

  /// Delete events pulled from the stream by the last turnstile Build.
  uint64_t deletes_ingested() const { return deletes_ingested_; }

  const ParallelIngestOptions& options() const { return options_; }

 private:
  /// The one ingest loop behind Build and Resume: into a new predictor
  /// made from the config when `start` is null, else into `start`, whose
  /// stream cursor is `cursor`.
  Result<std::unique_ptr<LinkPredictor>> Run(
      OpStream& stream, bool turnstile, std::unique_ptr<LinkPredictor> start,
      uint64_t cursor);
  Status Validate(bool turnstile) const;

  PredictorConfig config_;
  ParallelIngestOptions options_;
  uint64_t edges_ingested_ = 0;
  uint64_t deletes_ingested_ = 0;
};

/// Fluent construction for parallel ingestion — the one place every knob
/// of a build is wired, replacing positional-constructor + post-hoc-setter
/// call sites:
///
///   auto built = IngestEngineBuilder(config)
///                    .Threads(8)
///                    .Metrics(&registry)
///                    .Ingest(stream);
///
/// Checkpoint/serving wiring goes through PublishTo, which accepts any
/// publish source exposing IngestPublisher() (CheckpointManager,
/// QueryService) without this header depending on persist/ or serve/:
///
///   builder.PublishTo(*checkpoints).PublishEveryEdges(100000);
class IngestEngineBuilder {
 public:
  IngestEngineBuilder() = default;
  explicit IngestEngineBuilder(PredictorConfig config)
      : config_(std::move(config)) {}

  IngestEngineBuilder& Config(PredictorConfig config) {
    config_ = std::move(config);
    return *this;
  }
  IngestEngineBuilder& Threads(uint32_t threads) {
    config_.threads = threads;
    return *this;
  }
  IngestEngineBuilder& BatchEdges(uint32_t batch_edges) {
    options_.batch_edges = batch_edges;
    return *this;
  }
  IngestEngineBuilder& RingBatches(uint32_t ring_batches) {
    options_.ring_batches = ring_batches;
    return *this;
  }
  IngestEngineBuilder& Metrics(obs::MetricsRegistry* registry) {
    options_.metrics = registry;
    return *this;
  }
  IngestEngineBuilder& PublishEveryEdges(uint64_t edges) {
    options_.publish_every_edges = edges;
    return *this;
  }
  IngestEngineBuilder& PublishEverySeconds(double seconds) {
    options_.publish_every_seconds = seconds;
    return *this;
  }
  IngestEngineBuilder& OnPublish(IngestPublishFn fn) {
    options_.on_publish = std::move(fn);
    return *this;
  }
  /// Publishes through `source.IngestPublisher()` — works for any source
  /// with that hook (CheckpointManager, QueryService) without a layering
  /// edge from stream/ to persist/ or serve/.
  template <typename Source>
  IngestEngineBuilder& PublishTo(Source& source) {
    return OnPublish(source.IngestPublisher());
  }

  const PredictorConfig& config() const { return config_; }
  const ParallelIngestOptions& options() const { return options_; }

  /// Finalizes into an engine. Never fails by itself — option/config
  /// validation surfaces from ParallelIngestEngine::Build.
  ParallelIngestEngine BuildEngine() const {
    return ParallelIngestEngine(config_, options_);
  }

  /// One-shot convenience: build the engine and consume the stream.
  /// `edges_ingested`, when non-null, receives the stream-edge tally.
  Result<std::unique_ptr<LinkPredictor>> Ingest(
      EdgeStream& stream, uint64_t* edges_ingested = nullptr) const {
    ParallelIngestEngine engine = BuildEngine();
    auto built = engine.Build(stream);
    if (edges_ingested != nullptr) *edges_ingested = engine.edges_ingested();
    return built;
  }

  /// Turnstile one-shot: events_ingested counts inserts + deletes.
  Result<std::unique_ptr<LinkPredictor>> Ingest(
      OpStream& stream, uint64_t* events_ingested = nullptr) const {
    ParallelIngestEngine engine = BuildEngine();
    auto built = engine.Build(stream);
    if (events_ingested != nullptr) {
      *events_ingested = engine.edges_ingested();
    }
    return built;
  }

 private:
  PredictorConfig config_;
  ParallelIngestOptions options_;
};

}  // namespace streamlink

#endif  // STREAMLINK_STREAM_PARALLEL_INGEST_H_
