#include "stream/parallel_ingest.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/predictor_factory.h"
#include "core/sharded_predictor.h"
#include "eval/experiment.h"
#include "obs/metrics.h"
#include "stream/edge_stream.h"
#include "util/random.h"

namespace streamlink {
namespace {

constexpr VertexId kNumVertices = 80;

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

void ExpectIdentical(const LinkPredictor& a, const LinkPredictor& b,
                     VertexId max_vertex) {
  for (VertexId u = 0; u < max_vertex; u += 2) {
    for (VertexId v = 0; v < max_vertex; ++v) {
      OverlapEstimate ea = a.EstimateOverlap(u, v);
      OverlapEstimate eb = b.EstimateOverlap(u, v);
      EXPECT_EQ(ea.jaccard, eb.jaccard) << "(" << u << "," << v << ")";
      EXPECT_EQ(ea.intersection, eb.intersection)
          << "(" << u << "," << v << ")";
      EXPECT_EQ(ea.adamic_adar, eb.adamic_adar)
          << "(" << u << "," << v << ")";
      EXPECT_EQ(ea.resource_allocation, eb.resource_allocation)
          << "(" << u << "," << v << ")";
    }
  }
}

TEST(ParallelIngestEngine, FourThreadsBitIdenticalToSequential) {
  const EdgeList edges = MakeStream(/*seed=*/11, /*num_edges=*/800);
  for (const char* kind : {"minhash", "bottomk", "oph", "exact"}) {
    PredictorConfig config;
    config.kind = kind;
    config.sketch_size = 32;
    config.seed = 13;

    config.threads = 1;
    VectorEdgeStream sequential_stream(edges);
    auto sequential = IngestEngineBuilder(config).Ingest(sequential_stream);
    ASSERT_TRUE(sequential.ok()) << kind;

    VectorEdgeStream parallel_stream(edges);
    uint64_t ingested = 0;
    auto sharded = IngestEngineBuilder(config).Threads(4).Ingest(
        parallel_stream, &ingested);
    ASSERT_TRUE(sharded.ok()) << kind;

    EXPECT_EQ(ingested, edges.size()) << kind;
    EXPECT_EQ((*sharded)->edges_processed(),
              (*sequential)->edges_processed())
        << kind;
    EXPECT_EQ((*sharded)->num_vertices(), (*sequential)->num_vertices())
        << kind;
    ExpectIdentical(**sequential, **sharded, kNumVertices + 3);
  }
}

// The metamorphic cross product at the heart of the ordered contract:
// thread count and batch size are free parameters that must never change a
// single output bit. Small batch sizes force constant ring hand-off and
// epoch churn; large ones exercise the one-big-batch path.
TEST(ParallelIngestEngine, OrderedBitIdenticalAcrossThreadsAndBatchSizes) {
  const EdgeList edges = MakeStream(/*seed=*/29, /*num_edges=*/600);
  for (const char* kind : {"minhash", "bottomk"}) {
    PredictorConfig config;
    config.kind = kind;
    config.sketch_size = 24;
    config.seed = 5;
    config.threads = 1;
    VectorEdgeStream reference_stream(edges);
    auto reference = IngestEngineBuilder(config).Ingest(reference_stream);
    ASSERT_TRUE(reference.ok()) << kind;

    for (uint32_t threads : {2u, 3u, 5u}) {
      for (uint32_t batch_edges : {1u, 7u, 4096u}) {
        VectorEdgeStream stream(edges);
        auto built = IngestEngineBuilder(config)
                         .Threads(threads)
                         .BatchEdges(batch_edges)
                         .Ingest(stream);
        ASSERT_TRUE(built.ok())
            << kind << " threads=" << threads << " batch=" << batch_edges;
        EXPECT_EQ((*built)->edges_processed(),
                  (*reference)->edges_processed())
            << kind << " threads=" << threads << " batch=" << batch_edges;
        ExpectIdentical(**reference, **built, kNumVertices);
      }
    }
  }
}

TEST(ParallelIngestEngine, TinyBatchesAndRingsStillLossless) {
  // Stress the backpressure path: 1-edge batches through capacity-1 rings
  // (rounded up to 2 slots) keep the router stalling on full rings.
  const EdgeList edges = MakeStream(/*seed=*/17, /*num_edges=*/300);
  PredictorConfig config;
  config.kind = "minhash";
  config.sketch_size = 16;
  VectorEdgeStream stream(edges);
  auto sharded = IngestEngineBuilder(config)
                     .Threads(3)
                     .BatchEdges(1)
                     .RingBatches(1)
                     .Ingest(stream);
  ASSERT_TRUE(sharded.ok());

  config.threads = 1;
  auto sequential = MakePredictor(config);
  ASSERT_TRUE(sequential.ok());
  FeedStream(**sequential, edges);
  ExpectIdentical(**sequential, **sharded, kNumVertices);
}

TEST(ParallelIngestEngine, SingleThreadMatchesPerEdgeBuild) {
  const EdgeList edges = MakeStream(/*seed=*/23, /*num_edges=*/400);
  PredictorConfig config;
  config.kind = "minhash";
  config.sketch_size = 32;
  config.threads = 1;
  ParallelIngestEngine engine(config);
  VectorEdgeStream engine_stream(edges);
  auto from_engine = engine.Build(engine_stream);
  ASSERT_TRUE(from_engine.ok());
  EXPECT_EQ(engine.edges_ingested(), edges.size());

  auto per_edge = MakePredictor(config);
  ASSERT_TRUE(per_edge.ok());
  FeedStream(**per_edge, edges);

  EXPECT_EQ((*from_engine)->edges_processed(),
            (*per_edge)->edges_processed());
  ExpectIdentical(**per_edge, **from_engine, kNumVertices);
}

// A resumed build carries on the interrupted one: the cursor, the publish
// grid and the ingest.edges_total frontier start at the restored cursor,
// and the result equals the uninterrupted build.
TEST(ParallelIngestEngine, ResumeContinuesCursorAndPublishGrid) {
  const EdgeList edges = MakeStream(/*seed=*/29, /*num_edges=*/620);
  const uint64_t cursor = 250;
  PredictorConfig config;
  config.kind = "minhash";
  config.sketch_size = 32;
  auto restored = MakePredictor(config);
  ASSERT_TRUE(restored.ok());
  FeedStream(**restored, EdgeList(edges.begin(), edges.begin() + cursor));

  obs::MetricsRegistry registry;
  std::vector<uint64_t> published;
  ParallelIngestOptions options;
  options.publish_every_edges = 100;
  options.on_publish = [&](const LinkPredictor&, uint64_t at) {
    published.push_back(at);
  };
  options.metrics = &registry;
  ParallelIngestEngine engine(config, options);
  VectorEdgeStream tail(EdgeList(edges.begin() + cursor, edges.end()));
  auto resumed = engine.Resume(std::move(*restored), cursor, tail);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();

  EXPECT_EQ(engine.edges_ingested(), edges.size());
  EXPECT_EQ(published, (std::vector<uint64_t>{300, 400, 500, 600, 620}));
  EXPECT_EQ(registry.GetCounter("ingest.edges_total").Value(),
            edges.size() - cursor);
  auto whole = MakePredictor(config);
  ASSERT_TRUE(whole.ok());
  FeedStream(**whole, edges);
  EXPECT_EQ((*resumed)->edges_processed(), (*whole)->edges_processed());
  ExpectIdentical(**whole, **resumed, kNumVertices);
}

TEST(ParallelIngestEngine, ResumeIsSequentialOnly) {
  PredictorConfig config;
  config.kind = "minhash";
  config.threads = 3;
  auto restored = MakePredictor(PredictorConfig{});
  ASSERT_TRUE(restored.ok());
  VectorEdgeStream tail(EdgeList{{0, 1}});
  auto threaded =
      ParallelIngestEngine(config).Resume(std::move(*restored), 0, tail);
  ASSERT_FALSE(threaded.ok());
  EXPECT_EQ(threaded.status().code(), StatusCode::kInvalidArgument);

  config.threads = 1;
  auto missing = ParallelIngestEngine(config).Resume(nullptr, 0, tail);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParallelIngestEngine, EmptyStream) {
  PredictorConfig config;
  config.kind = "exact";
  config.threads = 4;
  ParallelIngestEngine engine(config);
  VectorEdgeStream stream(EdgeList{});
  auto built = engine.Build(stream);
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(engine.edges_ingested(), 0u);
  EXPECT_EQ((*built)->edges_processed(), 0u);
  EXPECT_EQ((*built)->num_vertices(), 0u);
}

TEST(ParallelIngestEngine, SelfLoopOnlyStream) {
  PredictorConfig config;
  config.kind = "minhash";
  config.threads = 2;
  ParallelIngestEngine engine(config);
  VectorEdgeStream stream(EdgeList{{4, 4}, {7, 7}, {4, 4}});
  auto built = engine.Build(stream);
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(engine.edges_ingested(), 3u);
  EXPECT_EQ((*built)->edges_processed(), 0u);
  OverlapEstimate e = (*built)->EstimateOverlap(4, 7);
  EXPECT_EQ(e.jaccard, 0.0);
}

TEST(ParallelIngestEngine, RejectsZeroThreads) {
  PredictorConfig config;
  config.threads = 0;
  ParallelIngestEngine engine(config);
  VectorEdgeStream stream(EdgeList{{0, 1}});
  auto built = engine.Build(stream);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParallelIngestEngine, RejectsUnshardableKindWhenParallel) {
  PredictorConfig config;
  config.kind = "vertex_biased";
  config.threads = 4;
  ParallelIngestEngine engine(config);
  VectorEdgeStream stream(EdgeList{{0, 1}});
  auto built = engine.Build(stream);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParallelIngestEngine, UnshardableKindWorksSequentially) {
  PredictorConfig config;
  config.kind = "vertex_biased";
  config.threads = 1;
  ParallelIngestEngine engine(config);
  VectorEdgeStream stream(EdgeList{{0, 1}, {1, 2}});
  auto built = engine.Build(stream);
  ASSERT_TRUE(built.ok());
  EXPECT_EQ((*built)->edges_processed(), 2u);
}

TEST(ParallelIngestEngine, RejectsCadenceWithoutCallback) {
  PredictorConfig config;
  config.kind = "minhash";
  config.threads = 2;
  VectorEdgeStream stream(EdgeList{{0, 1}});
  auto built =
      IngestEngineBuilder(config).PublishEveryEdges(10).Ingest(stream);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace streamlink
