#include "core/link_predictor.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/predictor_factory.h"
#include "graph/types.h"

namespace streamlink {
namespace {

// Every edge of this stream flows through both delivery paths below; the
// self-loops are interleaved so skipping one must not desynchronize the
// edge accounting from the state updates.
EdgeList StreamWithSelfLoops() {
  return {{0, 1}, {2, 2}, {1, 2}, {0, 0}, {2, 3}, {3, 3},
          {3, 4}, {1, 3}, {4, 4}, {0, 4}};
}

TEST(LinkPredictor, OnEdgeBatchSkipsSelfLoopsInParityWithOnEdge) {
  const EdgeList edges = StreamWithSelfLoops();
  constexpr uint64_t kSimpleEdges = 6;  // 10 stream edges, 4 self-loops

  for (const std::string& kind : PredictorKinds()) {
    PredictorConfig config;
    config.kind = kind;
    config.sketch_size = 8;
    config.seed = 3;

    auto one_by_one = MakePredictor(config);
    ASSERT_TRUE(one_by_one.ok()) << kind;
    for (const Edge& edge : edges) (*one_by_one)->OnEdge(edge);

    auto batched = MakePredictor(config);
    ASSERT_TRUE(batched.ok()) << kind;
    (*batched)->OnEdgeBatch(EdgeBatch(edges.data(), edges.size()));

    // Self-loops must neither update state NOR count as processed edges —
    // in exact parity between the two delivery paths.
    EXPECT_EQ((*one_by_one)->edges_processed(), kSimpleEdges) << kind;
    EXPECT_EQ((*batched)->edges_processed(), kSimpleEdges) << kind;
    EXPECT_EQ((*one_by_one)->num_vertices(), (*batched)->num_vertices())
        << kind;
    for (VertexId u = 0; u < 5; ++u) {
      for (VertexId v = u + 1; v <= 5; ++v) {
        OverlapEstimate a = (*one_by_one)->EstimateOverlap(u, v);
        OverlapEstimate b = (*batched)->EstimateOverlap(u, v);
        EXPECT_EQ(a.jaccard, b.jaccard) << kind << " (" << u << "," << v << ")";
        EXPECT_EQ(a.intersection, b.intersection)
            << kind << " (" << u << "," << v << ")";
        EXPECT_EQ(a.degree_u, b.degree_u)
            << kind << " (" << u << "," << v << ")";
      }
    }
  }
}

TEST(LinkPredictor, SelfLoopOnlyBatchLeavesPredictorUntouched) {
  const EdgeList loops = {{5, 5}, {0, 0}, {5, 5}};
  for (const std::string& kind : PredictorKinds()) {
    PredictorConfig config;
    config.kind = kind;
    config.sketch_size = 8;
    auto predictor = MakePredictor(config);
    ASSERT_TRUE(predictor.ok()) << kind;
    (*predictor)->OnEdgeBatch(EdgeBatch(loops.data(), loops.size()));
    EXPECT_EQ((*predictor)->edges_processed(), 0u) << kind;
  }
}

TEST(LinkPredictor, ScoresMatchesPerMeasureScore) {
  PredictorConfig config;
  config.kind = "minhash";
  config.sketch_size = 16;
  auto predictor = MakePredictor(config);
  ASSERT_TRUE(predictor.ok());
  const EdgeList edges = {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {1, 3}};
  (*predictor)->OnEdgeBatch(EdgeBatch(edges.data(), edges.size()));

  const std::vector<LinkMeasure> measures = AllLinkMeasures();
  std::vector<double> scores =
      (*predictor)->Scores({measures.data(), measures.size()}, 0, 3);
  ASSERT_EQ(scores.size(), measures.size());
  for (size_t i = 0; i < measures.size(); ++i) {
    EXPECT_EQ(scores[i], (*predictor)->Score(measures[i], 0, 3))
        << LinkMeasureName(measures[i]);
  }
}

}  // namespace
}  // namespace streamlink
