// Tests for the extension-surface plumbing: weighted edge-list I/O,
// bottom-k predictor snapshots & merging, and the drifting-stream
// generator.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "core/bottomk_predictor.h"
#include "core/predictor_factory.h"
#include "eval/experiment.h"
#include "gen/drifting.h"
#include "gen/workloads.h"
#include "graph/edge_list_io.h"
#include "util/random.h"

namespace streamlink {
namespace {

TEST(WeightedEdgeListIo, ParsesWeights) {
  auto result = ParseWeightedEdgeList("0 1 2.5\n1 2 0.75\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->edges.size(), 2u);
  EXPECT_DOUBLE_EQ(result->edges[0].weight, 2.5);
  EXPECT_DOUBLE_EQ(result->edges[1].weight, 0.75);
  EXPECT_EQ(result->num_vertices, 3u);
}

TEST(WeightedEdgeListIo, MissingWeightDefaultsToOne) {
  auto result = ParseWeightedEdgeList("0 1\n2 3 4.0\n");
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->edges[0].weight, 1.0);
  EXPECT_DOUBLE_EQ(result->edges[1].weight, 4.0);
}

TEST(WeightedEdgeListIo, CommentsAndBlanksSkipped) {
  auto result = ParseWeightedEdgeList("# hi\n\n0 1 1.5\n% also\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->edges.size(), 1u);
}

TEST(WeightedEdgeListIo, NonPositiveWeightRejected) {
  EXPECT_FALSE(ParseWeightedEdgeList("0 1 0\n").ok());
  EXPECT_FALSE(ParseWeightedEdgeList("0 1 -2\n").ok());
  // Not finite: NaN fails every comparison, and 1e400 overflows to inf.
  for (const char* text : {"0 1 nan\n", "0 1 inf\n", "0 1 1e400\n"}) {
    auto result = ParseWeightedEdgeList(text);
    ASSERT_FALSE(result.ok()) << text;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_NE(result.status().message().find("line 1"), std::string::npos)
        << text;
  }
}

TEST(WeightedEdgeListIo, MalformedWeightRejected) {
  auto result = ParseWeightedEdgeList("0 1 banana\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 1"), std::string::npos);
}

TEST(WeightedEdgeListIo, MalformedEndpointsRejected) {
  EXPECT_FALSE(ParseWeightedEdgeList("zero 1 1.0\n").ok());
}

TEST(WeightedEdgeListIo, SelfLoopsSkippedByDefault) {
  auto result = ParseWeightedEdgeList("5 5 9.0\n0 1 1.0\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->edges.size(), 1u);
}

TEST(WeightedEdgeListIo, RemapsIdsDensely) {
  auto result = ParseWeightedEdgeList("1000 2000 3.0\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->edges[0].u, 0u);
  EXPECT_EQ(result->edges[0].v, 1u);
}

TEST(WeightedEdgeListIo, WriteThenReadRoundTrips) {
  std::string path = ::testing::TempDir() + "/weighted_io_test.txt";
  WeightedEdgeList edges = {{0, 1, 2.5}, {1, 2, 0.125}};
  ASSERT_TRUE(WriteWeightedEdgeList(path, edges).ok());
  auto result = ReadWeightedEdgeList(path);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->edges.size(), 2u);
  EXPECT_DOUBLE_EQ(result->edges[0].weight, 2.5);
  EXPECT_DOUBLE_EQ(result->edges[1].weight, 0.125);
  std::remove(path.c_str());
}

class BottomKSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Pid-qualified: each gtest case runs as its own ctest process, and
    // parallel workers share one temp dir.
    path_ = ::testing::TempDir() + "/bottomk_snapshot_test_" +
            std::to_string(::getpid()) + ".bin";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(BottomKSnapshotTest, SaveLoadPreservesEstimates) {
  GeneratedGraph g = MakeWorkload(WorkloadSpec{"ba", 0.03, 141});
  BottomKPredictorOptions options;
  options.k = 32;
  options.seed = 5;
  BottomKPredictor original(options);
  FeedStream(original, g.edges);
  ASSERT_TRUE(original.Save(path_).ok());

  auto loaded = LoadPredictorSnapshot(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->name(), "bottomk");
  EXPECT_EQ((*loaded)->edges_processed(), original.edges_processed());
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(g.num_vertices));
    VertexId v = static_cast<VertexId>(rng.NextBounded(g.num_vertices));
    OverlapEstimate a = original.EstimateOverlap(u, v);
    OverlapEstimate b = (*loaded)->EstimateOverlap(u, v);
    EXPECT_DOUBLE_EQ(a.jaccard, b.jaccard);
    EXPECT_DOUBLE_EQ(a.intersection, b.intersection);
    EXPECT_DOUBLE_EQ(a.adamic_adar, b.adamic_adar);
  }
}

TEST_F(BottomKSnapshotTest, GarbageRejected) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "nope";
  }
  EXPECT_FALSE(LoadPredictorSnapshot(path_).ok());
}

TEST(BottomKMerge, DisjointPartitionEqualsSinglePass) {
  GeneratedGraph g = MakeWorkload(WorkloadSpec{"er", 0.03, 142});
  BottomKPredictorOptions options;
  options.k = 16;
  BottomKPredictor single(options), left(options), right(options);
  FeedStream(single, g.edges);
  size_t half = g.edges.size() / 2;
  FeedStream(left, EdgeList(g.edges.begin(), g.edges.begin() + half));
  FeedStream(right, EdgeList(g.edges.begin() + half, g.edges.end()));
  left.MergeFrom(right);

  EXPECT_EQ(left.edges_processed(), single.edges_processed());
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(g.num_vertices));
    VertexId v = static_cast<VertexId>(rng.NextBounded(g.num_vertices));
    EXPECT_DOUBLE_EQ(left.EstimateOverlap(u, v).jaccard,
                     single.EstimateOverlap(u, v).jaccard);
    EXPECT_DOUBLE_EQ(left.EstimateOverlap(u, v).intersection,
                     single.EstimateOverlap(u, v).intersection);
  }
}

TEST(BottomKMergeDeathTest, IncompatibleOptionsAbort) {
  BottomKPredictorOptions a_options, b_options;
  a_options.k = 16;
  b_options.k = 32;
  BottomKPredictor a(a_options), b(b_options);
  EXPECT_DEATH(a.MergeFrom(b), "different options");
}

TEST(DriftingStreamGen, PhasesPartitionTheStream) {
  Rng rng(3);
  DriftingStreamParams params;
  params.num_vertices = 300;
  params.num_phases = 3;
  DriftingStream drift = GenerateDriftingStream(params, rng);
  ASSERT_EQ(drift.phase_boundaries.size(), 3u);
  EXPECT_EQ(drift.phase_boundaries[0], 0u);
  EXPECT_LT(drift.phase_boundaries[1], drift.phase_boundaries[2]);
  EXPECT_LT(drift.phase_boundaries[2], drift.graph.edges.size());
  EXPECT_EQ(drift.block_of_phase.size(), 3u);
  for (const auto& blocks : drift.block_of_phase) {
    EXPECT_EQ(blocks.size(), params.num_vertices);
  }
}

TEST(DriftingStreamGen, BlockAssignmentsRotate) {
  Rng rng(4);
  DriftingStreamParams params;
  params.num_vertices = 300;
  params.num_phases = 3;
  DriftingStream drift = GenerateDriftingStream(params, rng);
  // Assignments must differ between phases (rotation moved them).
  int differing = 0;
  for (VertexId v = 0; v < params.num_vertices; ++v) {
    if (drift.block_of_phase[0][v] != drift.block_of_phase[1][v]) ++differing;
  }
  EXPECT_GT(differing, static_cast<int>(params.num_vertices / 2));
}

TEST(DriftingStreamGen, IntraPhaseEdgesRespectPhaseBlocks) {
  Rng rng(5);
  DriftingStreamParams params;
  params.num_vertices = 400;
  params.num_phases = 2;
  params.p_inter = 0.0;  // only intra-community edges
  DriftingStream drift = GenerateDriftingStream(params, rng);
  for (uint32_t p = 0; p < 2; ++p) {
    size_t begin = drift.phase_boundaries[p];
    size_t end =
        p + 1 < 2 ? drift.phase_boundaries[p + 1] : drift.graph.edges.size();
    for (size_t i = begin; i < end; ++i) {
      const Edge& e = drift.graph.edges[i];
      EXPECT_EQ(drift.block_of_phase[p][e.u], drift.block_of_phase[p][e.v])
          << "phase " << p << " edge " << ToString(e);
    }
  }
}

}  // namespace
}  // namespace streamlink
