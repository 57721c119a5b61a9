#include "stream/parallel_ingest.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "core/sharded_predictor.h"
#include "core/tombstone_predictor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/edge_batch.h"
#include "stream/rate_meter.h"
#include "stream/spsc_ring.h"
#include "util/hashing.h"
#include "util/timer.h"

namespace streamlink {

namespace {

/// Spin -> yield -> sleep wait loop for the lock-free hand-off paths
/// (ring-full on the router, ring-empty on a worker, the epoch barrier).
/// The sleep tier matters here more than on big iron: CI boxes run more
/// workers than cores, and a pure spin would steal the cycles the ingest
/// kernels need.
class Backoff {
 public:
  void Pause() {
    ++count_;
    if (count_ < 16) return;  // brief pure spin
    if (count_ < 1024) {
      std::this_thread::yield();
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  void Reset() { count_ = 0; }

 private:
  uint32_t count_ = 0;
};

/// Registry-resident instruments for one Build run; all pointers null when
/// ParallelIngestOptions::metrics is unset, making every update a no-op
/// branch. Updated only by the router thread except the per-shard counters,
/// which each worker bumps once per applied batch (Counter is thread-safe).
struct IngestMetrics {
  obs::Counter* edges = nullptr;            // ingest.edges_total
  obs::Counter* publishes = nullptr;        // ingest.publishes_total
  obs::Counter* ring_full_stalls = nullptr; // ingest.ring_full_stalls
  obs::Gauge* live_edges = nullptr;         // ingest.live_edges
  obs::Gauge* window_eps = nullptr;         // ingest.window_eps
  obs::Histogram* batch_half_edges = nullptr;  // ingest.batch_half_edges
  obs::Histogram* queue_wait_ns = nullptr;     // ingest.queue_wait_ns
  obs::Histogram* publish_ns = nullptr;        // ingest.publish_ns
  std::vector<obs::Counter*> shard_half_edges;
  RateMeter rate{/*window_seconds=*/1.0};
  uint64_t noted_edges;  // stream frontier already folded in

  /// `num_shards` per-shard counters are registered; 0 for a sequential
  /// build, which has no shards to count. The frontier starts at `cursor`,
  /// so a resumed build counts only the edges it ingests itself.
  IngestMetrics(obs::MetricsRegistry* registry, uint32_t num_shards,
                uint64_t cursor)
      : noted_edges(cursor) {
    if (registry == nullptr) return;
    edges = &registry->GetCounter("ingest.edges_total");
    publishes = &registry->GetCounter("ingest.publishes_total");
    ring_full_stalls = &registry->GetCounter("ingest.ring_full_stalls");
    live_edges = &registry->GetGauge("ingest.live_edges");
    window_eps = &registry->GetGauge("ingest.window_eps");
    batch_half_edges = &registry->GetHistogram("ingest.batch_half_edges");
    queue_wait_ns = &registry->GetHistogram("ingest.queue_wait_ns");
    publish_ns = &registry->GetHistogram("ingest.publish_ns");
    shard_half_edges.reserve(num_shards);
    for (uint32_t t = 0; t < num_shards; ++t) {
      shard_half_edges.push_back(&registry->GetCounter(
          "ingest.shard" + std::to_string(t) + ".half_edges_total"));
    }
  }

  bool enabled() const { return edges != nullptr; }

  /// Folds the stream frontier into the counter/gauges; called at batch
  /// and publish boundaries, never per edge.
  void NoteFrontier(uint64_t edges_now) {
    if (!enabled() || edges_now == noted_edges) return;
    edges->Add(edges_now - noted_edges);
    rate.RecordNow(edges_now - noted_edges);
    window_eps->Set(rate.WindowRate());
    noted_edges = edges_now;
    live_edges->Set(static_cast<double>(edges_now));
  }

  /// Records one delivered batch and the frontier it leaves behind.
  void NoteBatch(size_t size, uint64_t edges_now) {
    if (!enabled()) return;
    batch_half_edges->Record(size);
    NoteFrontier(edges_now);
  }

  /// Times `on_publish` and counts it.
  void TimedPublish(const IngestPublishFn& fn, const LinkPredictor& live,
                    uint64_t stream_edges) {
    obs::ScopedSpan span("ingest/publish");
    if (!enabled()) {
      fn(live, stream_edges);
      return;
    }
    const uint64_t t0 = obs::Tracer::NowNs();
    fn(live, stream_edges);
    publish_ns->Record(obs::Tracer::NowNs() - t0);
    publishes->Add(1);
  }
};

/// Per-shard applied-batch counters, one cache line each — the epoch
/// quiesce barrier. A worker's fetch_add(release) publishes that batch's
/// sketch writes; the router's acquire loads in AwaitQuiesced make them
/// visible before it touches the shards. Unlike the retired mutex+condvar
/// QuiescePoint there is no notify on the per-batch hot path at all: a
/// worker's cost per batch is one uncontended atomic increment, and only
/// the router ever waits.
class EpochBarrier {
 public:
  explicit EpochBarrier(uint32_t num_shards)
      : cells_(new Cell[num_shards]) {}

  void MarkApplied(uint32_t shard) {
    cells_[shard].applied.fetch_add(1, std::memory_order_release);
  }

  uint64_t Applied(uint32_t shard) const {
    return cells_[shard].applied.load(std::memory_order_acquire);
  }

  /// Blocks (spin/yield/sleep) until every shard's applied count reaches
  /// the epoch target `pushed[shard]`.
  void AwaitQuiesced(const std::vector<uint64_t>& pushed) {
    for (uint32_t t = 0; t < pushed.size(); ++t) {
      Backoff backoff;
      while (Applied(t) < pushed[t]) backoff.Pause();
    }
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> applied{0};
  };
  std::unique_ptr<Cell[]> cells_;
};

/// Decides when the next live publish is due. The time cadence is checked
/// at most once per 1024 edges to keep clock reads off the per-edge path.
/// The edge cadence runs on the grid of its multiples, so a build resumed
/// at `cursor` publishes where the interrupted run would have.
class PublishCadence {
 public:
  PublishCadence(const ParallelIngestOptions& options, uint64_t cursor)
      : every_edges_(options.publish_every_edges),
        every_seconds_(options.publish_every_seconds),
        enabled_(options.publish_every_edges > 0 ||
                 options.publish_every_seconds > 0),
        last_edges_(every_edges_ > 0 ? cursor - cursor % every_edges_
                                     : cursor) {
    if (every_seconds_ > 0) timer_.Start();
  }

  bool enabled() const { return enabled_; }

  bool Due(uint64_t edges_now) const {
    if (!enabled_) return false;
    if (every_edges_ > 0 && edges_now - last_edges_ >= every_edges_) {
      return true;
    }
    return every_seconds_ > 0 && (edges_now & 1023) == 0 &&
           timer_.Seconds() >= every_seconds_;
  }

  void Published(uint64_t edges_now) {
    last_edges_ = edges_now;
    if (every_seconds_ > 0) {
      timer_.Reset();
      timer_.Start();
    }
  }

 private:
  const uint64_t every_edges_;
  const double every_seconds_;
  const bool enabled_;
  uint64_t last_edges_;
  WallTimer timer_;
};

using BatchRing = SpscRing<EdgeBatchBuffer>;

/// Drains `ring` into `shard` until the ring is closed and empty.
/// Exactly one consumer per ring; MarkApplied publishes each batch to the
/// router's epoch waits. ApplyHalfEdges forwards op-less batches straight
/// to ObserveNeighborBatch and splits op-tagged (turnstile) ones into
/// observe/retract runs.
void ShardWorker(BatchRing& ring, HalfEdgePredictor& shard,
                 EpochBarrier& epochs, uint32_t shard_index,
                 obs::Counter* applied_counter) {
  EdgeBatchBuffer batch;
  Backoff backoff;
  for (;;) {
    if (ring.TryPop(&batch)) {
      obs::ScopedSpan span("ingest/apply_batch");
      shard.ApplyHalfEdges(batch.View());
      if (applied_counter != nullptr) applied_counter->Add(batch.size());
      epochs.MarkApplied(shard_index);
      backoff.Reset();
      continue;
    }
    // Empty. closed() is read AFTER the failed pop: the producer's last
    // push happens-before Close, so seeing closed here means one more
    // drain pass observes everything.
    if (ring.closed()) {
      if (ring.TryPop(&batch)) {
        shard.ApplyHalfEdges(batch.View());
        if (applied_counter != nullptr) applied_counter->Add(batch.size());
        epochs.MarkApplied(shard_index);
        continue;
      }
      return;
    }
    backoff.Pause();
  }
}

/// Where the ingest loop sends each event: one predictor on the calling
/// thread, or N shard workers. Chosen once per build, from `threads`.
class Sink {
 public:
  virtual ~Sink() = default;
  Sink(const Sink&) = delete;  // shard workers hold `this`
  Sink& operator=(const Sink&) = delete;

  virtual void Add(const EdgeEvent& event) = 0;

  /// Delivers every event added so far and waits until it is applied:
  /// predictor() is then quiescent and its edge and delete counts settled.
  virtual void Quiesce() = 0;

  /// The end-of-stream Quiesce; also retires any workers.
  virtual void Finish() = 0;

  const LinkPredictor& predictor() const { return *predictor_; }
  std::unique_ptr<LinkPredictor> Release() { return std::move(predictor_); }

 protected:
  /// `cursor` is the loop's event count, which batch metrics record.
  Sink(std::unique_ptr<LinkPredictor> predictor,
       const ParallelIngestOptions& options, IngestMetrics& metrics,
       const uint64_t& cursor)
      : predictor_(std::move(predictor)),
        batch_edges_(options.batch_edges),
        metrics_(metrics),
        cursor_(cursor) {}

  std::unique_ptr<LinkPredictor> predictor_;
  const uint32_t batch_edges_;
  IngestMetrics& metrics_;
  const uint64_t& cursor_;
};

/// threads == 1: whole-edge batches into one predictor on the calling
/// thread. The predictor's OnEdgeBatch filters self-loops and counts edges
/// and deletes itself.
class PredictorSink final : public Sink {
 public:
  PredictorSink(std::unique_ptr<LinkPredictor> predictor,
                const ParallelIngestOptions& options, IngestMetrics& metrics,
                const uint64_t& cursor)
      : Sink(std::move(predictor), options, metrics, cursor) {
    batch_.Reserve(batch_edges_, /*with_hash_v=*/false);
  }

  void Add(const EdgeEvent& event) override {
    batch_.Append(event.edge, event.op);
    if (batch_.size() >= batch_edges_) Deliver();
  }

  void Quiesce() override {
    if (!batch_.empty()) Deliver();
  }

  void Finish() override {
    Quiesce();
    // Drain the deferred-insert lag before final queries.
    auto* tomb = dynamic_cast<TombstoneWindowPredictor*>(predictor_.get());
    if (tomb != nullptr) tomb->Flush();
  }

 private:
  void Deliver() {
    predictor_->OnEdgeBatch(batch_.View());
    metrics_.NoteBatch(batch_.size(), cursor_);
    batch_.Clear();
  }

  EdgeBatchBuffer batch_;
};

/// threads > 1: the calling thread routes each event as two half-edges to
/// the rings of the endpoints' owning shards, and one worker per shard
/// applies them. Every vertex's half-edge events (observe and retract
/// alike) reach its single owner in stream order, which — with
/// commutative, idempotent sketch updates — makes the final state
/// bit-identical to a sequential build. No two threads ever touch the same
/// shard, so the shards need no internal locking.
class ShardSink final : public Sink {
 public:
  ShardSink(std::unique_ptr<ShardedPredictor> sharded,
            const ParallelIngestOptions& options, IngestMetrics& metrics,
            const uint64_t& cursor)
      : Sink(std::move(sharded), options, metrics, cursor),
        sharded_(static_cast<ShardedPredictor&>(*predictor_)),
        epochs_(sharded_.num_shards()),
        pending_(sharded_.num_shards()),
        pushed_(sharded_.num_shards(), 0) {
    // Pre-hash contract: if the kind's half-edge kernel consumes one
    // seeded neighbor hash (bottomk), the router computes it once per
    // half-edge into the batch's hash_v lane and the workers never hash.
    uint64_t neighbor_seed = 0;
    pre_hash_ = sharded_.shard(0).NeighborHashSeed(&neighbor_seed);
    mixed_seed_ = pre_hash_ ? MixSeed(neighbor_seed) : 0;

    const uint32_t num_shards = sharded_.num_shards();
    rings_.reserve(num_shards);
    workers_.reserve(num_shards);
    for (uint32_t t = 0; t < num_shards; ++t) {
      pending_[t].Reserve(batch_edges_, pre_hash_);
      rings_.push_back(std::make_unique<BatchRing>(options.ring_batches));
    }
    for (uint32_t t = 0; t < num_shards; ++t) {
      obs::Counter* applied_counter =
          metrics_.enabled() ? metrics_.shard_half_edges[t] : nullptr;
      workers_.emplace_back([this, applied_counter, t] {
        ShardWorker(*rings_[t], sharded_.shard(t), epochs_, t,
                    applied_counter);
      });
    }
  }

  ~ShardSink() override { Stop(); }

  void Add(const EdgeEvent& event) override {
    const Edge& edge = event.edge;
    if (edge.IsSelfLoop()) return;
    ++(event.op == EdgeOp::kDelete ? deletes_ : inserts_);
    Route(edge.u, edge.v, event.op);
    Route(edge.v, edge.u, event.op);
  }

  /// A publish barrier: flush every partial batch, await the epoch (all
  /// pushed batches applied; the workers then spin in empty-ring backoff,
  /// not under a lock), and settle the counts. Cost is one drain of the
  /// in-flight window, amortized over the cadence.
  void Quiesce() override {
    for (uint32_t t = 0; t < pending_.size(); ++t) {
      if (!pending_[t].empty()) Push(t);
    }
    epochs_.AwaitQuiesced(pushed_);
    // Half-edge kernels count nothing (two half-edges are one edge); the
    // container owns the stream's edge and delete tallies.
    sharded_.AddProcessedEdges(inserts_ - settled_inserts_);
    sharded_.AddProcessedDeletes(deletes_ - settled_deletes_);
    settled_inserts_ = inserts_;
    settled_deletes_ = deletes_;
  }

  void Finish() override {
    Quiesce();
    Stop();
  }

 private:
  /// Appends the half-edge "u gained (or lost) neighbor" to u's owner, at
  /// u's row there; the neighbor (and its hash) stays global.
  void Route(VertexId u, VertexId neighbor, EdgeOp op) {
    const uint32_t owner = sharded_.OwnerOf(u);
    const VertexId row = sharded_.RowOf(u);
    EdgeBatchBuffer& batch = pending_[owner];
    if (pre_hash_) {
      batch.AppendHalfEdge(row, neighbor,
                           HashU64WithMixedSeed(neighbor, mixed_seed_), op);
    } else {
      batch.Append(Edge(row, neighbor), op);
    }
    if (batch.size() >= batch_edges_) Push(owner);
  }

  /// Ships pending_[owner] into the owner's ring. The wait histogram
  /// records once per batch; the stall counter once per full-on-entry push.
  void Push(uint32_t owner) {
    EdgeBatchBuffer& batch = pending_[owner];
    metrics_.NoteBatch(batch.size(), cursor_);
    const uint64_t t0 = metrics_.enabled() ? obs::Tracer::NowNs() : 0;
    if (!rings_[owner]->TryPush(batch)) {
      if (metrics_.enabled()) metrics_.ring_full_stalls->Add(1);
      Backoff backoff;
      do {
        backoff.Pause();
      } while (!rings_[owner]->TryPush(batch));
    }
    if (metrics_.enabled()) {
      metrics_.queue_wait_ns->Record(obs::Tracer::NowNs() - t0);
    }
    ++pushed_[owner];
    batch.Clear();
    batch.Reserve(batch_edges_, pre_hash_);
  }

  /// Closes every ring; each worker drains its ring and exits.
  void Stop() {
    for (auto& ring : rings_) ring->Close();
    for (auto& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
  }

  ShardedPredictor& sharded_;
  bool pre_hash_ = false;
  uint64_t mixed_seed_ = 0;
  EpochBarrier epochs_;
  std::vector<EdgeBatchBuffer> pending_;
  std::vector<uint64_t> pushed_;
  std::vector<std::unique_ptr<BatchRing>> rings_;
  std::vector<std::thread> workers_;
  uint64_t inserts_ = 0;  // non-self-loop insert events
  uint64_t deletes_ = 0;  // non-self-loop delete events
  uint64_t settled_inserts_ = 0;
  uint64_t settled_deletes_ = 0;
};

/// `start`, when set, is the predictor a sequential resume continues.
Result<std::unique_ptr<Sink>> MakeSink(const PredictorConfig& config,
                                       const ParallelIngestOptions& options,
                                       IngestMetrics& metrics,
                                       const uint64_t& cursor,
                                       std::unique_ptr<LinkPredictor> start) {
  if (config.threads == 1) {
    if (start == nullptr) {
      auto predictor = MakePredictor(config);
      if (!predictor.ok()) return predictor.status();
      start = std::move(*predictor);
    }
    return std::unique_ptr<Sink>(
        new PredictorSink(std::move(start), options, metrics, cursor));
  }
  auto sharded = ShardedPredictor::Make(config);
  if (!sharded.ok()) return sharded.status();
  return std::unique_ptr<Sink>(
      new ShardSink(std::move(*sharded), options, metrics, cursor));
}

}  // namespace

ParallelIngestEngine::ParallelIngestEngine(PredictorConfig config,
                                           ParallelIngestOptions options)
    : config_(std::move(config)), options_(std::move(options)) {}

Status ParallelIngestEngine::Validate(bool turnstile) const {
  if (config_.threads == 0) {
    return Status::InvalidArgument("threads must be >= 1, got 0");
  }
  if (options_.batch_edges < 1) {
    return Status::InvalidArgument("batch_edges must be >= 1");
  }
  if (options_.ring_batches < 1) {
    return Status::InvalidArgument("ring_batches must be >= 1");
  }
  const bool cadence_set = options_.publish_every_edges > 0 ||
                           options_.publish_every_seconds > 0;
  if (cadence_set && !options_.on_publish) {
    return Status::InvalidArgument(
        "publish cadence set but no on_publish callback");
  }
  const PredictorKind* kind = FindPredictorKind(config_.kind);
  if (turnstile && !(kind != nullptr && kind->deletable) &&
      !(config_.threads == 1 && config_.tombstone_window > 0)) {
    return Status::InvalidArgument(
        "predictor kind '" + config_.kind +
        "' cannot ingest deletions; use a deletable kind or a sequential "
        "tombstone window");
  }
  return Status::Ok();
}

Result<std::unique_ptr<LinkPredictor>> ParallelIngestEngine::Build(
    EdgeStream& stream) {
  // Insert-only batches carry no op lane (EdgeBatchBuffer adds it at the
  // first delete), so they keep the op-free fast path.
  InsertOnlyOpStream events(stream);
  return Run(events, /*turnstile=*/false, /*start=*/nullptr, /*cursor=*/0);
}

Result<std::unique_ptr<LinkPredictor>> ParallelIngestEngine::Build(
    OpStream& stream) {
  return Run(stream, /*turnstile=*/true, /*start=*/nullptr, /*cursor=*/0);
}

Result<std::unique_ptr<LinkPredictor>> ParallelIngestEngine::Resume(
    std::unique_ptr<LinkPredictor> restored, uint64_t cursor,
    EdgeStream& tail) {
  if (config_.threads != 1) {
    return Status::InvalidArgument(
        "resume ingests sequentially: threads must be 1, got " +
        std::to_string(config_.threads));
  }
  if (restored == nullptr) {
    return Status::InvalidArgument("resume needs a restored predictor");
  }
  InsertOnlyOpStream events(tail);
  return Run(events, /*turnstile=*/false, std::move(restored), cursor);
}

Result<std::unique_ptr<LinkPredictor>> ParallelIngestEngine::Run(
    OpStream& stream, bool turnstile, std::unique_ptr<LinkPredictor> start,
    uint64_t cursor) {
  edges_ingested_ = cursor;
  deletes_ingested_ = 0;
  if (Status st = Validate(turnstile); !st.ok()) return st;
  obs::ScopedSpan build_span("ingest/build");
  IngestMetrics metrics(options_.metrics,
                        config_.threads > 1 ? config_.threads : 0, cursor);
  auto made = MakeSink(config_, options_, metrics, edges_ingested_,
                       std::move(start));
  if (!made.ok()) return made.status();
  Sink& sink = **made;
  PublishCadence cadence(options_, cursor);

  EdgeEvent event;
  while (stream.Next(&event)) {
    // The cursor counts *events* — deletes are staleness too.
    ++edges_ingested_;
    if (event.op == EdgeOp::kDelete) ++deletes_ingested_;
    sink.Add(event);
    if (cadence.Due(edges_ingested_)) {
      sink.Quiesce();
      metrics.NoteFrontier(edges_ingested_);
      metrics.TimedPublish(options_.on_publish, sink.predictor(),
                           edges_ingested_);
      cadence.Published(edges_ingested_);
    }
  }
  sink.Finish();
  metrics.NoteFrontier(edges_ingested_);
  if (cadence.enabled()) {
    metrics.TimedPublish(options_.on_publish, sink.predictor(),
                         edges_ingested_);
  }
  return sink.Release();
}

}  // namespace streamlink
