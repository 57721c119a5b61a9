// End-to-end integration tests: stream -> predictors -> evaluation, the
// same pipeline the bench harness runs, at test-friendly scale.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/exact_predictor.h"
#include "core/predictor_factory.h"
#include "core/top_k_engine.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "eval/rank_correlation.h"
#include "eval/temporal_split.h"
#include "gen/pair_sampler.h"
#include "gen/workloads.h"
#include "graph/csr_graph.h"
#include "stream/edge_stream.h"
#include "util/random.h"

namespace streamlink {
namespace {

/// Every sketch predictor should beat a coarse accuracy bar on every
/// standard workload at k=128 (integration of gen + core + eval).
class SketchOnWorkload
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

TEST_P(SketchOnWorkload, JaccardErrorIsSmall) {
  const auto& [workload, kind] = GetParam();
  GeneratedGraph g = MakeWorkload(WorkloadSpec{workload, 0.05, 81});
  CsrGraph csr = CsrGraph::FromEdges(g.edges, g.num_vertices);
  Rng rng(4);
  auto pairs = SampleOverlappingPairs(csr, 250, rng);

  PredictorConfig config;
  config.kind = kind;
  config.sketch_size = 128;
  AccuracyReport report = MeasureAccuracy(g, config, pairs);
  EXPECT_LT(report.jaccard.MeanAbsoluteError(), 0.08)
      << kind << " on " << workload;
  EXPECT_LT(report.common_neighbors.MeanRelativeError(), 0.8)
      << kind << " on " << workload;
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, SketchOnWorkload,
    ::testing::Combine(::testing::Values("ba", "er", "ws", "rmat", "sbm",
                                         "plconfig"),
                       ::testing::Values("minhash", "bottomk",
                                         "vertex_biased")));

TEST(Integration, DriverFeedsPredictorsViaCheckpoints) {
  GeneratedGraph g = MakeWorkload(WorkloadSpec{"ba", 0.03, 82});
  auto predictor = MakePredictor({.kind = "minhash", .sketch_size = 64});
  ASSERT_TRUE(predictor.ok());
  ExactPredictor exact;

  std::vector<double> errors_at_checkpoint;
  CsrGraph csr = CsrGraph::FromEdges(g.edges, g.num_vertices);
  Rng rng(5);
  auto pairs = SampleOverlappingPairs(csr, 100, rng);
  // Both predictors take in the stream as contiguous batches that end at
  // each checkpoint, half-way and at the end.
  const uint64_t total = g.edges.size();
  uint64_t consumed = 0;
  for (double fraction : {0.5, 1.0}) {
    const uint64_t end = static_cast<uint64_t>(fraction * total);
    const EdgeBatch slice(g.edges.data() + consumed, end - consumed);
    (*predictor)->OnEdgeBatch(slice);
    exact.OnEdgeBatch(slice);
    consumed = end;
    AccuracyReport report =
        MeasureAccuracyAgainst(**predictor, exact, pairs);
    errors_at_checkpoint.push_back(report.jaccard.MeanAbsoluteError());
    EXPECT_EQ((*predictor)->edges_processed(), consumed);
  }
  ASSERT_EQ(errors_at_checkpoint.size(), 2u);
  // Error should be modest at both points (estimates track a moving truth).
  EXPECT_LT(errors_at_checkpoint[0], 0.15);
  EXPECT_LT(errors_at_checkpoint[1], 0.15);
}

TEST(Integration, EndTaskAucSketchApproachesExact) {
  // The F6 pipeline at small scale: temporal split, feed train stream,
  // score labeled pairs, compare sketch AUC against exact AUC.
  GeneratedGraph g = MakeWorkload(WorkloadSpec{"ws", 0.05, 83});
  TrainTestSplit split = MakeTemporalSplit(g.edges, 0.8);
  ASSERT_GT(split.test_positives.size(), 30u);
  Rng rng(6);
  LabeledPairs labeled = MakeLabeledPairs(split, 1.0, rng);

  auto score_all = [&](LinkPredictor& p) {
    std::vector<LabeledScore> out;
    for (size_t i = 0; i < labeled.pairs.size(); ++i) {
      out.push_back(
          LabeledScore{p.Score(LinkMeasure::kJaccard, labeled.pairs[i].u,
                               labeled.pairs[i].v),
                       labeled.labels[i]});
    }
    return out;
  };

  ExactPredictor exact;
  FeedStream(exact, split.train);
  double exact_auc = ComputeAuc(score_all(exact));

  auto sketch = MakePredictor({.kind = "minhash", .sketch_size = 128});
  ASSERT_TRUE(sketch.ok());
  FeedStream(**sketch, split.train);
  double sketch_auc = ComputeAuc(score_all(**sketch));

  // On a clustered graph Jaccard is a strong signal.
  EXPECT_GT(exact_auc, 0.8);
  EXPECT_GT(sketch_auc, exact_auc - 0.05);
}

TEST(Integration, RankAgreementBetweenSketchAndExact) {
  GeneratedGraph g = MakeWorkload(WorkloadSpec{"ba", 0.05, 84});
  CsrGraph csr = CsrGraph::FromEdges(g.edges, g.num_vertices);
  Rng rng(7);
  auto pairs = SampleOverlappingPairs(csr, 300, rng);

  ExactPredictor exact;
  auto sketch = MakePredictor({.kind = "minhash", .sketch_size = 256});
  ASSERT_TRUE(sketch.ok());
  FeedStream(exact, g.edges);
  FeedStream(**sketch, g.edges);

  std::vector<double> exact_scores, sketch_scores;
  for (const QueryPair& p : pairs) {
    exact_scores.push_back(exact.Score(LinkMeasure::kAdamicAdar, p.u, p.v));
    sketch_scores.push_back(
        (*sketch)->Score(LinkMeasure::kAdamicAdar, p.u, p.v));
  }
  EXPECT_GT(SpearmanRho(exact_scores, sketch_scores), 0.85);
  EXPECT_GT(KendallTau(exact_scores, sketch_scores), 0.6);
}

TEST(Integration, DedupStreamProtectsDegreeCounters) {
  // A multigraph source would inflate exact degree counters; DedupEdgeStream
  // restores the simple-stream contract.
  EdgeList noisy = {{0, 1}, {0, 1}, {1, 0}, {0, 2}, {0, 2}};
  auto inner = std::make_unique<VectorEdgeStream>(noisy);
  DedupEdgeStream dedup(std::move(inner));

  auto p = MakePredictor({.kind = "minhash", .sketch_size = 32});
  ASSERT_TRUE(p.ok());
  Edge e;
  while (dedup.Next(&e)) (*p)->OnEdge(e);
  EXPECT_DOUBLE_EQ((*p)->EstimateOverlap(0, 1).degree_u, 2.0);
}

TEST(Integration, MemoryOrderingSketchBelowExactOnDenseGraph) {
  GeneratedGraph g = MakeWorkload(WorkloadSpec{"ws", 0.1, 85});
  auto sketch = MakePredictor({.kind = "minhash", .sketch_size = 16});
  ASSERT_TRUE(sketch.ok());
  ExactPredictor exact;
  FeedStream(**sketch, g.edges);
  FeedStream(exact, g.edges);
  // At k=16 and average degree 16, sketch memory should be comparable or
  // lower; the decisive win shows at higher density (F5 sweeps it).
  EXPECT_LT((*sketch)->MemoryBytes(), exact.MemoryBytes() * 2);
}

}  // namespace
}  // namespace streamlink
