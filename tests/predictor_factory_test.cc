#include "core/predictor_factory.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "core/half_edge_predictor.h"
#include "eval/experiment.h"
#include "util/serde.h"

namespace streamlink {
namespace {

TEST(PredictorFactory, BuildsEveryKind) {
  for (const std::string& kind : PredictorKinds()) {
    PredictorConfig config;
    config.kind = kind;
    auto p = MakePredictor(config);
    ASSERT_TRUE(p.ok()) << kind << ": " << p.status().ToString();
    EXPECT_EQ((*p)->name(), kind);
  }
}

TEST(PredictorFactory, UnknownKindIsInvalidArgument) {
  PredictorConfig config;
  config.kind = "magic";
  auto p = MakePredictor(config);
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument);
}

TEST(PredictorFactory, TinySketchSizeRejected) {
  PredictorConfig config;
  config.kind = "minhash";
  config.sketch_size = 1;
  EXPECT_FALSE(MakePredictor(config).ok());
}

TEST(PredictorFactory, ExactIgnoresSketchSize) {
  PredictorConfig config;
  config.kind = "exact";
  config.sketch_size = 0;
  EXPECT_TRUE(MakePredictor(config).ok());
}

TEST(PredictorFactory, VertexBiasedSplitsBudget) {
  PredictorConfig config;
  config.kind = "vertex_biased";
  config.sketch_size = 64;
  auto p = MakePredictor(config);
  ASSERT_TRUE(p.ok());
  // Budget split: both halves present, predictor functional.
  FeedStream(**p, {{0, 1}, {1, 2}});
  EXPECT_EQ((*p)->edges_processed(), 2u);
}

TEST(PredictorFactory, BottomKSketchDegreesFlag) {
  PredictorConfig config;
  config.kind = "bottomk";
  config.sketch_degrees = true;
  auto p = MakePredictor(config);
  ASSERT_TRUE(p.ok());
  FeedStream(**p, {{0, 1}});
  EXPECT_DOUBLE_EQ((*p)->EstimateOverlap(0, 1).degree_u, 1.0);
}

TEST(PredictorFactory, ZeroThreadsRejected) {
  PredictorConfig config;
  config.kind = "minhash";
  config.threads = 0;
  auto p = MakePredictor(config);
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument);
}

TEST(PredictorFactory, MultiThreadBuildsShardedForSupportedKinds) {
  for (const std::string& kind : PredictorKinds()) {
    PredictorConfig config;
    config.kind = kind;
    config.threads = 2;
    auto p = MakePredictor(config);
    // threads > 1 must succeed exactly for the shardable kinds, and the
    // result must advertise itself as sharded.
    if (FindPredictorKind(kind)->shardable) {
      ASSERT_TRUE(p.ok()) << kind << ": " << p.status().ToString();
      EXPECT_EQ((*p)->name(), "sharded:" + kind);
    } else {
      ASSERT_FALSE(p.ok()) << kind;
      EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

// The kind table, row by row: every fact a row states holds for the
// predictor it builds. The expected matrix is spelled out here, so
// changing a row fails this test.
TEST(PredictorFactory, KindTableRowsHoldForTheirPredictors) {
  const std::vector<std::string> shardable = {"minhash", "bottomk", "oph",
                                              "tcm", "exact"};
  const std::vector<std::string> deletable = {"tcm", "exact"};
  auto listed = [](const std::vector<std::string>& names,
                   std::string_view name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  EXPECT_EQ(PredictorKinds(),
            (std::vector<std::string>{"minhash", "bottomk", "vertex_biased",
                                      "oph", "windowed_minhash", "tcm",
                                      "exact"}));
  for (const PredictorKind& row : PredictorKindTable()) {
    const std::string kind(row.name);
    SCOPED_TRACE(kind);
    EXPECT_EQ(FindPredictorKind(kind), &row);
    EXPECT_EQ(row.shardable, listed(shardable, kind));
    EXPECT_EQ(row.deletable, listed(deletable, kind));

    PredictorConfig config;
    config.kind = kind;
    auto p = MakePredictor(config);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    EXPECT_EQ((*p)->name(), kind);
    EXPECT_EQ(dynamic_cast<HalfEdgePredictor*>(p->get()) != nullptr,
              row.shardable);

    config.threads = 2;
    EXPECT_EQ(MakePredictor(config).ok(), row.shardable);
    config.threads = 1;
    config.tombstone_window = 8;
    EXPECT_EQ(MakePredictor(config).ok(), !row.deletable);

    FeedStream(**p, {{0, 1}, {0, 2}, {1, 2}, {2, 3}});
    BinaryWriter writer;
    ASSERT_TRUE((*p)->SaveTo(writer).ok());
    const std::string saved = writer.TakeBytes();
    BinaryReader reader(saved);
    auto loaded = LoadPredictorFrom(reader);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_TRUE(reader.AtEnd());
    BinaryWriter rewriter;
    ASSERT_TRUE((*loaded)->SaveTo(rewriter).ok());
    EXPECT_EQ(rewriter.TakeBytes(), saved);
  }
  EXPECT_EQ(FindPredictorKind("magic"), nullptr);
}

TEST(PredictorFactory, AllSketchKindsAgreeOnTinyExactCase) {
  // On a graph far below every sketch's capacity all predictors are exact.
  EdgeList edges = {{0, 2}, {0, 3}, {1, 2}, {1, 3}};
  for (const std::string& kind : PredictorKinds()) {
    PredictorConfig config;
    config.kind = kind;
    config.sketch_size = 64;
    auto p = MakePredictor(config);
    ASSERT_TRUE(p.ok());
    FeedStream(**p, edges);
    OverlapEstimate e = (*p)->EstimateOverlap(0, 1);
    EXPECT_DOUBLE_EQ(e.jaccard, 1.0) << kind;
    EXPECT_NEAR(e.intersection, 2.0, 1e-9) << kind;
  }
}

}  // namespace
}  // namespace streamlink
