#include "serve/query_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "core/minhash_predictor.h"
#include "core/predictor_factory.h"
#include "core/top_k_engine.h"
#include "eval/experiment.h"
#include "stream/edge_stream.h"
#include "stream/parallel_ingest.h"
#include "util/random.h"
#include "util/serde.h"

namespace streamlink {
namespace {

constexpr VertexId kNumVertices = 60;

EdgeList MakeStream(uint64_t seed, size_t num_edges) {
  Rng rng(seed);
  EdgeList edges;
  edges.reserve(num_edges);
  for (size_t i = 0; i < num_edges; ++i) {
    edges.emplace_back(static_cast<VertexId>(rng.NextBounded(kNumVertices)),
                       static_cast<VertexId>(rng.NextBounded(kNumVertices)));
  }
  return edges;
}

std::vector<QueryPair> FixedPairs() {
  std::vector<QueryPair> pairs;
  for (VertexId u = 0; u < 20; u += 3) {
    for (VertexId v = u + 1; v < 24; v += 5) {
      pairs.push_back(QueryPair{u, v});
    }
  }
  return pairs;
}

void ExpectEstimatesEqual(const OverlapEstimate& a, const OverlapEstimate& b,
                          const QueryPair& p) {
  EXPECT_EQ(a.jaccard, b.jaccard) << "(" << p.u << "," << p.v << ")";
  EXPECT_EQ(a.intersection, b.intersection) << "(" << p.u << "," << p.v << ")";
  EXPECT_EQ(a.union_size, b.union_size) << "(" << p.u << "," << p.v << ")";
  EXPECT_EQ(a.adamic_adar, b.adamic_adar) << "(" << p.u << "," << p.v << ")";
  EXPECT_EQ(a.resource_allocation, b.resource_allocation)
      << "(" << p.u << "," << p.v << ")";
  EXPECT_EQ(a.degree_u, b.degree_u) << "(" << p.u << "," << p.v << ")";
  EXPECT_EQ(a.degree_v, b.degree_v) << "(" << p.u << "," << p.v << ")";
}

/// A minimal predictor that keeps the base-class Clone (== nullptr), for
/// exercising the not-snapshottable publish path.
class NoClonePredictor : public LinkPredictor {
 public:
  std::string name() const override { return "noclone"; }
  OverlapEstimate EstimateOverlap(VertexId, VertexId) const override {
    return {};
  }
  VertexId num_vertices() const override { return 0; }
  uint64_t MemoryBytes() const override { return 0; }

 protected:
  void ProcessEdge(const Edge&) override {}
};

// --- The acceptance test: concurrent readers during a live threaded -----
// --- ingest, with every answer bit-identical to a sequential prefix -----
// --- build and staleness metadata consistent. ---------------------------

struct Sample {
  uint64_t snapshot_edges;
  uint64_t version;
  std::vector<OverlapEstimate> estimates;  // parallel to FixedPairs()
};

TEST(QueryService, ConcurrentReadersSeeExactSequentialPrefixes) {
  const EdgeList edges = MakeStream(/*seed=*/31, /*num_edges=*/1500);
  const std::vector<QueryPair> pairs = FixedPairs();
  ASSERT_GE(pairs.size(), 10u);

  PredictorConfig config;
  config.kind = "minhash";
  config.sketch_size = 32;
  config.seed = 7;
  config.threads = 2;

  QueryService service;
  ParallelIngestOptions options;
  options.batch_edges = 64;
  options.publish_every_edges = 200;
  options.on_publish = service.IngestPublisher();

  QueryRequest request;
  request.pairs = pairs;
  request.measures = {LinkMeasure::kJaccard};

  constexpr uint32_t kReaders = 4;
  std::atomic<bool> done{false};
  std::vector<std::vector<Sample>> samples(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (uint32_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!done.load(std::memory_order_acquire)) {
        auto result = service.Query(request);
        if (!result.ok()) continue;  // before the first publish
        const QueryMeta& meta = result->meta;
        // Staleness invariants, checked live on every single query.
        EXPECT_GE(meta.live_edges, meta.snapshot_edges);
        EXPECT_EQ(meta.staleness_edges,
                  meta.live_edges - meta.snapshot_edges);
        EXPECT_GE(meta.snapshot_version, 1u);
        ASSERT_EQ(result->pairs.size(), pairs.size());
        Sample sample;
        sample.snapshot_edges = meta.snapshot_edges;
        sample.version = meta.snapshot_version;
        sample.estimates.reserve(pairs.size());
        for (size_t i = 0; i < result->pairs.size(); ++i) {
          EXPECT_EQ(result->pairs[i].pair, pairs[i]);
          sample.estimates.push_back(result->pairs[i].estimate);
        }
        samples[r].push_back(std::move(sample));
      }
    });
  }

  ParallelIngestEngine engine(config, options);
  VectorEdgeStream raw(edges);
  std::unique_ptr<EdgeStream> tapped = service.WrapStream(raw);
  auto built = engine.Build(*tapped);
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  // The final (end-of-stream) publish covers the whole stream, so the last
  // snapshot is the complete build and staleness has drained to zero.
  auto snap = service.snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->stream_edges, edges.size());
  EXPECT_EQ(service.live_edges(), edges.size());
  EXPECT_GE(service.publish_count(), edges.size() / 200);

  // Readers genuinely overlapped the build: at least one of them saw a
  // mid-stream snapshot (single-core schedulers still interleave here).
  size_t total_samples = 0;
  std::map<uint64_t, const Sample*> by_prefix;
  for (const auto& reader_samples : samples) {
    total_samples += reader_samples.size();
    for (const Sample& s : reader_samples) {
      // Same version => same snapshot => identical answers across readers.
      auto [it, inserted] = by_prefix.emplace(s.snapshot_edges, &s);
      if (!inserted) {
        EXPECT_EQ(it->second->version, s.version);
        for (size_t i = 0; i < pairs.size(); ++i) {
          ExpectEstimatesEqual(it->second->estimates[i], s.estimates[i],
                               pairs[i]);
        }
      }
    }
  }
  ASSERT_GT(total_samples, 0u) << "no reader ever completed a query";

  // Every observed snapshot is bit-identical to a sequential 1-thread
  // build stopped at exactly the snapshot's reported stream position.
  for (const auto& [prefix_edges, sample] : by_prefix) {
    PredictorConfig sequential = config;
    sequential.threads = 1;
    auto reference = MakePredictor(sequential);
    ASSERT_TRUE(reference.ok());
    PrefixEdgeStream prefix(std::make_unique<VectorEdgeStream>(edges),
                            prefix_edges);
    Edge edge;
    while (prefix.Next(&edge)) (*reference)->OnEdge(edge);
    for (size_t i = 0; i < pairs.size(); ++i) {
      OverlapEstimate expected =
          (*reference)->EstimateOverlap(pairs[i].u, pairs[i].v);
      ExpectEstimatesEqual(expected, sample->estimates[i], pairs[i]);
    }
  }
}

// --- Query semantics -----------------------------------------------------

TEST(QueryService, QueryBeforeFirstPublishIsNotFound) {
  QueryService service;
  EXPECT_EQ(service.snapshot(), nullptr);
  QueryRequest request;
  request.pairs = {QueryPair{0, 1}};
  auto result = service.Query(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.latency().count(), 0u);
}

TEST(QueryService, TopKQueryMatchesTopKEngine) {
  const EdgeList edges = MakeStream(/*seed=*/43, /*num_edges=*/600);
  MinHashPredictorOptions options;
  options.num_hashes = 32;
  options.seed = 3;
  MinHashPredictor live(options);
  FeedStream(live, edges);

  QueryService service;
  ASSERT_TRUE(service.Publish(live, edges.size()).ok());

  QueryRequest request;
  request.pairs = FixedPairs();
  request.measures = {LinkMeasure::kAdamicAdar, LinkMeasure::kJaccard};
  request.top_k = 5;
  auto result = service.Query(request);
  ASSERT_TRUE(result.ok());
  ASSERT_LE(result->pairs.size(), 5u);

  TopKEngine engine(live, LinkMeasure::kAdamicAdar);
  auto expected = engine.TopKScored(FixedPairs(), request.measures, 5);
  ASSERT_EQ(result->pairs.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result->pairs[i].pair, expected[i].pair);
    EXPECT_EQ(result->pairs[i].scores, expected[i].scores);
  }
}

TEST(QueryService, TopKWithoutMeasuresIsInvalidArgument) {
  MinHashPredictor live(MinHashPredictorOptions{});
  QueryService service;
  ASSERT_TRUE(service.Publish(live, 0).ok());
  QueryRequest request;
  request.pairs = {QueryPair{0, 1}};
  request.top_k = 3;
  auto result = service.Query(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryService, PublishRejectsNonCloneablePredictor) {
  NoClonePredictor live;
  QueryService service;
  Status status = service.Publish(live, 0);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.snapshot(), nullptr);
  EXPECT_EQ(service.publish_count(), 0u);
}

// An owned initial snapshot is published as is: the service serves the
// very predictor it was handed, with no second copy.
TEST(QueryService, BuilderPublishesAnOwnedInitialSnapshotWithoutCloning) {
  auto predictor = std::make_shared<MinHashPredictor>(
      MinHashPredictorOptions{8, 3});
  FeedStream(*predictor, MakeStream(/*seed=*/53, /*num_edges=*/50));
  const LinkPredictor* handed = predictor.get();
  auto built = QueryServiceBuilder()
                   .InitialSnapshot(std::move(predictor), /*stream_edges=*/50)
                   .Build();
  ASSERT_TRUE(built.ok());
  auto snap = (*built)->snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->predictor.get(), handed);
  EXPECT_EQ(snap->stream_edges, 50u);
  EXPECT_EQ(snap->edges_processed, handed->edges_processed());
  EXPECT_EQ((*built)->publish_count(), 1u);
}

TEST(QueryService, StalenessTracksLiveFrontier) {
  const EdgeList edges = MakeStream(/*seed=*/47, /*num_edges=*/100);
  MinHashPredictorOptions options;
  options.num_hashes = 8;
  MinHashPredictor live(options);
  FeedStream(live, edges);

  QueryService service;
  ASSERT_TRUE(service.Publish(live, 100).ok());
  service.NoteLiveEdges(130);

  QueryRequest request;
  request.pairs = {QueryPair{0, 1}};
  auto result = service.Query(request);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->meta.snapshot_edges, 100u);
  EXPECT_EQ(result->meta.live_edges, 130u);
  EXPECT_EQ(result->meta.staleness_edges, 30u);
  EXPECT_EQ(result->meta.snapshot_version, 1u);
  EXPECT_GT(result->meta.latency_us, 0.0);
  EXPECT_EQ(service.latency().count(), 1u);
}

// --- Snapshot isolation of Clone() across predictor kinds ----------------

TEST(QueryService, SnapshotsAreImmuneToLaterIngestion) {
  const EdgeList edges = MakeStream(/*seed=*/53, /*num_edges=*/800);
  const EdgeList prefix(edges.begin(), edges.begin() + 400);
  const std::vector<QueryPair> pairs = FixedPairs();

  for (const std::string& kind : PredictorKinds()) {
    PredictorConfig config;
    config.kind = kind;
    config.sketch_size = 16;
    config.seed = 11;
    auto live = MakePredictor(config);
    ASSERT_TRUE(live.ok()) << kind;
    FeedStream(**live, prefix);

    QueryService service;
    ASSERT_TRUE(service.Publish(**live, 400).ok()) << kind;
    auto snap = service.snapshot();
    ASSERT_NE(snap, nullptr) << kind;
    EXPECT_EQ(snap->edges_processed, (*live)->edges_processed()) << kind;

    // Keep ingesting into the live predictor; the snapshot must not move.
    EdgeList suffix(edges.begin() + 400, edges.end());
    FeedStream(**live, suffix);

    auto reference = MakePredictor(config);
    ASSERT_TRUE(reference.ok()) << kind;
    FeedStream(**reference, prefix);
    for (const QueryPair& p : pairs) {
      ExpectEstimatesEqual((*reference)->EstimateOverlap(p.u, p.v),
                           snap->predictor->EstimateOverlap(p.u, p.v), p);
    }
    EXPECT_EQ(snap->predictor->edges_processed(),
              (*reference)->edges_processed())
        << kind;
  }
}

// A publish copies each shard behind a new routing view: no fold into a
// single predictor, no second copy of the state, and the same answers and
// snapshot bytes as the live build.
TEST(QueryService, ShardedPublishCopiesShardsBehindAView) {
  const EdgeList edges = MakeStream(/*seed=*/59, /*num_edges=*/700);
  for (const std::string& kind : {std::string("minhash"),
                                  std::string("bottomk"), std::string("oph"),
                                  std::string("tcm"), std::string("exact")}) {
    PredictorConfig config;
    config.kind = kind;
    config.sketch_size = 32;
    config.seed = 19;
    config.threads = 3;
    ParallelIngestEngine engine(config);
    VectorEdgeStream stream(edges);
    auto sharded = engine.Build(stream);
    ASSERT_TRUE(sharded.ok()) << kind;

    QueryService service;
    ASSERT_TRUE(service.Publish(**sharded, edges.size()).ok()) << kind;
    auto snap = service.snapshot();
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->predictor->name(), "sharded:" + kind);
    EXPECT_EQ(snap->predictor->edges_processed(),
              (*sharded)->edges_processed())
        << kind;
    // A copy sheds the live stores' growth slack, never adds state.
    EXPECT_LE(snap->predictor->MemoryBytes(), (*sharded)->MemoryBytes())
        << kind;
    for (const QueryPair& p : FixedPairs()) {
      ExpectEstimatesEqual((*sharded)->EstimateOverlap(p.u, p.v),
                           snap->predictor->EstimateOverlap(p.u, p.v), p);
    }
    BinaryWriter live_bytes, published_bytes;
    ASSERT_TRUE((*sharded)->SaveTo(live_bytes).ok()) << kind;
    ASSERT_TRUE(snap->predictor->SaveTo(published_bytes).ok()) << kind;
    EXPECT_TRUE(live_bytes.TakeBytes() == published_bytes.TakeBytes())
        << kind;
  }
}

// --- Latency histogram ---------------------------------------------------

TEST(LatencyHistogram, RecordsAndRanksSamples) {
  obs::LatencyHistogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.PercentileMicros(0.5), 0.0);

  histogram.Record(1e-6);   // 1 us
  histogram.Record(2e-6);   // 2 us
  histogram.Record(1e-3);   // 1 ms
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_GT(histogram.MeanMicros(), 0.0);
  // Log2 buckets report upper bounds: within 2x of the true quantile.
  EXPECT_LE(histogram.PercentileMicros(0.5), 4.0);
  EXPECT_GE(histogram.PercentileMicros(0.99), 1000.0);
  EXPECT_LE(histogram.PercentileMicros(0.99), 2200.0);
  EXPECT_LE(histogram.PercentileMicros(0.5),
            histogram.PercentileMicros(0.99));

  histogram.Reset();
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.MeanMicros(), 0.0);
}

TEST(LatencyHistogram, ConcurrentRecordersLoseNothing) {
  obs::LatencyHistogram histogram;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.Record(1e-6 * (t + 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(histogram.count(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace streamlink
