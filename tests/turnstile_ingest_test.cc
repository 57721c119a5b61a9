#include "stream/parallel_ingest.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/predictor_factory.h"
#include "core/tombstone_predictor.h"
#include "gen/churn.h"
#include "stream/op_stream.h"
#include "util/random.h"

namespace streamlink {
namespace {

constexpr VertexId kNumVertices = 60;

/// A random churn stream: random edges threaded with live-set deletes.
TurnstileWorkload MakeEvents(uint64_t seed, size_t num_edges) {
  Rng rng(seed);
  EdgeList edges;
  edges.reserve(num_edges);
  for (size_t i = 0; i < num_edges; ++i) {
    edges.emplace_back(static_cast<VertexId>(rng.NextBounded(kNumVertices)),
                       static_cast<VertexId>(rng.NextBounded(kNumVertices)));
  }
  return MakeChurnFromEdges(edges, kNumVertices, /*delete_fraction=*/0.35,
                            seed ^ 0xc0ffee, "ingest_churn");
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
      EXPECT_EQ(ea.degree_u, eb.degree_u) << "(" << u << "," << v << ")";
    }
  }
}

PredictorConfig TcmConfig() {
  PredictorConfig config;
  config.kind = "tcm";
  config.sketch_size = 32;
  config.tcm_depth = 3;
  config.seed = 13;
  return config;
}

TEST(TurnstileIngest, SequentialMatchesManualReplay) {
  const TurnstileWorkload w = MakeEvents(/*seed=*/11, /*num_edges=*/500);
  ASSERT_GT(w.deletes, 0u);

  PredictorConfig config = TcmConfig();
  ParallelIngestEngine engine(config);
  VectorOpStream stream(w.events);
  auto built = engine.Build(stream);
  ASSERT_TRUE(built.ok()) << built.status().message();
  EXPECT_EQ(engine.edges_ingested(), w.events.size());
  EXPECT_EQ(engine.deletes_ingested(), w.deletes);

  auto manual = MakePredictor(config);
  ASSERT_TRUE(manual.ok());
  for (const EdgeEvent& ev : w.events) {
    if (ev.op == EdgeOp::kInsert) {
      (*manual)->OnEdge(ev.edge);
    } else {
      (*manual)->DeleteEdge(ev.edge);
    }
  }
  EXPECT_EQ((*built)->edges_processed(), (*manual)->edges_processed());
  EXPECT_EQ((*built)->deletes_processed(), (*manual)->deletes_processed());
  ExpectIdentical(**manual, **built, kNumVertices);
}

// The turnstile analogue of the ordered metamorphic cross product: thread
// count, batch size, and ring capacity must never change an output bit,
// deletes included.
TEST(TurnstileIngest, OrderedBitIdenticalAcrossThreadsAndBatchSizes) {
  const TurnstileWorkload w = MakeEvents(/*seed=*/29, /*num_edges=*/400);
  for (const char* kind : {"tcm", "exact"}) {
    PredictorConfig config = TcmConfig();
    config.kind = kind;
    VectorOpStream reference_stream(w.events);
    auto reference = IngestEngineBuilder(config).Ingest(reference_stream);
    ASSERT_TRUE(reference.ok()) << kind;

    for (uint32_t threads : {2u, 3u}) {
      for (uint32_t batch_edges : {1u, 7u, 256u}) {
        VectorOpStream stream(w.events);
        uint64_t ingested = 0;
        auto built = IngestEngineBuilder(config)
                         .Threads(threads)
                         .BatchEdges(batch_edges)
                         .RingBatches(batch_edges == 1 ? 1 : 64)
                         .Ingest(stream, &ingested);
        ASSERT_TRUE(built.ok())
            << kind << " threads=" << threads << " batch=" << batch_edges;
        EXPECT_EQ(ingested, w.events.size());
        EXPECT_EQ((*built)->edges_processed(),
                  (*reference)->edges_processed())
            << kind << " threads=" << threads << " batch=" << batch_edges;
        EXPECT_EQ((*built)->deletes_processed(),
                  (*reference)->deletes_processed())
            << kind << " threads=" << threads << " batch=" << batch_edges;
        ExpectIdentical(**reference, **built, kNumVertices);
      }
    }
  }
}

// Tombstone-window fallback rides the sequential op path; the engine
// flushes the window at end-of-stream. Every delete in a live-set churn
// stream targets a live edge, so with a window as large as the stream the
// final state equals an insert-only build of the surviving edges.
TEST(TurnstileIngest, TombstoneSequentialBuildFlushesAtEndOfStream) {
  const TurnstileWorkload w = MakeEvents(/*seed=*/53, /*num_edges=*/300);
  ASSERT_GT(w.deletes, 0u);
  PredictorConfig config;
  config.kind = "minhash";
  config.sketch_size = 16;
  config.seed = 7;
  config.tombstone_window = w.events.size();

  ParallelIngestEngine engine(config);
  VectorOpStream stream(w.events);
  auto built = engine.Build(stream);
  ASSERT_TRUE(built.ok()) << built.status().message();
  auto* tomb = dynamic_cast<TombstoneWindowPredictor*>(built->get());
  ASSERT_NE(tomb, nullptr);
  EXPECT_EQ(tomb->pending_inserts(), 0u);  // flushed
  EXPECT_EQ(tomb->unretractable_deletes(), 0u);

  PredictorConfig plain = config;
  plain.tombstone_window = 0;
  auto reference = MakePredictor(plain);
  ASSERT_TRUE(reference.ok());
  for (const Edge& e : w.net_edges) (*reference)->OnEdge(e);
  for (VertexId u = 0; u < kNumVertices; u += 3) {
    for (VertexId v = u + 1; v < kNumVertices; v += 2) {
      OverlapEstimate a = tomb->EstimateOverlap(u, v);
      OverlapEstimate b = (*reference)->EstimateOverlap(u, v);
      EXPECT_EQ(a.jaccard, b.jaccard) << "(" << u << "," << v << ")";
      EXPECT_EQ(a.intersection, b.intersection)
          << "(" << u << "," << v << ")";
    }
  }
}

TEST(TurnstileIngest, EmptyOpStream) {
  PredictorConfig config = TcmConfig();
  config.threads = 2;
  ParallelIngestEngine engine(config);
  VectorOpStream stream(EdgeEventList{});
  auto built = engine.Build(stream);
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(engine.edges_ingested(), 0u);
  EXPECT_EQ(engine.deletes_ingested(), 0u);
}

TEST(TurnstileIngest, RejectsNonDeletableKindWithoutTombstone) {
  PredictorConfig config;
  config.kind = "minhash";
  ParallelIngestEngine engine(config);
  VectorOpStream stream(EdgeEventList{{Edge(0, 1), EdgeOp::kInsert}});
  auto built = engine.Build(stream);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
}

TEST(TurnstileIngest, RejectsTombstoneWithThreads) {
  PredictorConfig config;
  config.kind = "minhash";
  config.tombstone_window = 64;
  config.threads = 2;
  ParallelIngestEngine engine(config);
  VectorOpStream stream(EdgeEventList{{Edge(0, 1), EdgeOp::kInsert}});
  auto built = engine.Build(stream);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  // An insert-only stream reaches the sharded build directly, which must
  // refuse the window rather than build tombstone-wrapped shards.
  VectorEdgeStream inserts(EdgeList{{0, 1}});
  auto inserted = engine.Build(inserts);
  ASSERT_FALSE(inserted.ok());
  EXPECT_EQ(inserted.status().code(), StatusCode::kInvalidArgument);
}

// Sharded DeleteEdge routes retractions to both owners (the synchronous
// path the engine's workers also use).
TEST(TurnstileIngest, ShardedDeleteMatchesSequential) {
  const TurnstileWorkload w = MakeEvents(/*seed=*/61, /*num_edges=*/300);
  PredictorConfig config = TcmConfig();
  auto sequential = MakePredictor(config);
  ASSERT_TRUE(sequential.ok());
  config.threads = 2;
  auto sharded = MakePredictor(config);
  ASSERT_TRUE(sharded.ok());
  for (const EdgeEvent& ev : w.events) {
    if (ev.op == EdgeOp::kInsert) {
      (*sequential)->OnEdge(ev.edge);
      (*sharded)->OnEdge(ev.edge);
    } else {
      (*sequential)->DeleteEdge(ev.edge);
      (*sharded)->DeleteEdge(ev.edge);
    }
  }
  EXPECT_EQ((*sharded)->deletes_processed(),
            (*sequential)->deletes_processed());
  ExpectIdentical(**sequential, **sharded, kNumVertices);
}

}  // namespace
}  // namespace streamlink
