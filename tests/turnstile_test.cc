#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/exact_predictor.h"
#include "core/predictor_factory.h"
#include "core/tcm_predictor.h"
#include "core/tombstone_predictor.h"
#include "graph/types.h"

namespace streamlink {
namespace {

// --- TCM: native turnstile kind ---

TcmPredictorOptions SmallTcm() {
  TcmPredictorOptions options;
  options.width = 32;
  options.depth = 3;
  options.seed = 99;
  return options;
}

void ExpectSameEstimate(const OverlapEstimate& a, const OverlapEstimate& b) {
  EXPECT_EQ(a.degree_u, b.degree_u);
  EXPECT_EQ(a.degree_v, b.degree_v);
  EXPECT_EQ(a.intersection, b.intersection);
  EXPECT_EQ(a.union_size, b.union_size);
  EXPECT_EQ(a.jaccard, b.jaccard);
}

TEST(TcmPredictor, InsertDeleteAnnihilatesBitForBit) {
  TcmPredictor churned(SmallTcm());
  TcmPredictor reference(SmallTcm());
  const EdgeList kept = {{0, 1}, {1, 2}, {2, 3}};
  for (const Edge& e : kept) {
    churned.OnEdge(e);
    reference.OnEdge(e);
  }
  churned.OnEdge(Edge(0, 3));
  churned.OnEdge(Edge(1, 3));
  churned.DeleteEdge(Edge(0, 3));
  churned.DeleteEdge(Edge(1, 3));
  // Every touched vertex's strip is back to the insert-only state.
  for (VertexId u = 0; u < 4; ++u) {
    ASSERT_NE(churned.Sketch(u), nullptr);
    EXPECT_TRUE(*churned.Sketch(u) == *reference.Sketch(u)) << "vertex " << u;
    EXPECT_EQ(churned.Degree(u), reference.Degree(u));
  }
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = u + 1; v < 4; ++v) {
      ExpectSameEstimate(churned.EstimateOverlap(u, v),
                         reference.EstimateOverlap(u, v));
    }
  }
  EXPECT_EQ(churned.deletes_processed(), 2u);
  EXPECT_EQ(reference.deletes_processed(), 0u);
}

TEST(TcmPredictor, DeleteOfNeverInsertedEdgeDipsAndHeals) {
  // Cells are signed and unclamped at write: an unmatched delete dips
  // below zero, reads clamp, and the matching insert restores zero state.
  TcmPredictor p(SmallTcm());
  p.DeleteEdge(Edge(4, 5));
  EXPECT_EQ(p.Degree(4), 0);  // clamped at read, not -1
  EXPECT_EQ(p.Degree(5), 0);
  OverlapEstimate e = p.EstimateOverlap(4, 5);
  EXPECT_EQ(e.intersection, 0.0);
  EXPECT_GE(e.jaccard, 0.0);
  // The matching insert heals the dip: every cell is back to zero.
  p.OnEdge(Edge(4, 5));
  const std::vector<int32_t> zeros(3 * 32, 0);
  ASSERT_NE(p.Sketch(4), nullptr);
  EXPECT_EQ(p.Sketch(4)->cells(), zeros);
  EXPECT_EQ(p.Sketch(5)->cells(), zeros);
  EXPECT_EQ(p.Degree(4), 0);
  EXPECT_EQ(p.Degree(5), 0);
}

TEST(TcmPredictor, DeleteToZeroThenReinsert) {
  TcmPredictor p(SmallTcm());
  p.OnEdge(Edge(0, 1));
  p.DeleteEdge(Edge(0, 1));
  EXPECT_EQ(p.Degree(0), 0);
  p.OnEdge(Edge(0, 1));
  TcmPredictor once(SmallTcm());
  once.OnEdge(Edge(0, 1));
  EXPECT_TRUE(*p.Sketch(0) == *once.Sketch(0));
  EXPECT_TRUE(*p.Sketch(1) == *once.Sketch(1));
  ExpectSameEstimate(p.EstimateOverlap(0, 1), once.EstimateOverlap(0, 1));
}

TEST(TcmPredictor, SelfLoopDeleteIsFiltered) {
  TcmPredictor p(SmallTcm());
  p.DeleteEdge(Edge(7, 7));
  EXPECT_EQ(p.deletes_processed(), 0u);
  EXPECT_EQ(p.num_vertices(), 0u);
}

// --- Exact: the reference turnstile oracle ---

TEST(ExactPredictor, DeleteRemovesEdge) {
  ExactPredictor p;
  p.OnEdge(Edge(0, 1));
  p.OnEdge(Edge(0, 2));
  p.OnEdge(Edge(1, 2));
  p.DeleteEdge(Edge(0, 2));
  OverlapEstimate e = p.EstimateOverlap(0, 1);
  EXPECT_EQ(e.degree_u, 1.0);
  EXPECT_EQ(e.intersection, 0.0);  // 2 is no longer a common neighbor
  EXPECT_EQ(p.deletes_processed(), 1u);
}

TEST(ExactPredictor, DeleteOfNeverInsertedEdgeIsNoOp) {
  ExactPredictor p;
  p.OnEdge(Edge(0, 1));
  p.DeleteEdge(Edge(5, 6));
  ExactPredictor reference;
  reference.OnEdge(Edge(0, 1));
  ExpectSameEstimate(p.EstimateOverlap(0, 1), reference.EstimateOverlap(0, 1));
  EXPECT_EQ(p.deletes_processed(), 1u);  // accounted, even though a no-op
}

// --- Tombstone window: bounded-lag deletes for monotone kinds ---

std::unique_ptr<LinkPredictor> MakeTombstone(uint64_t window) {
  PredictorConfig config;
  config.kind = "minhash";
  config.sketch_size = 16;
  config.seed = 11;
  config.tombstone_window = window;
  auto built = MakePredictor(config);
  EXPECT_TRUE(built.ok()) << built.status().message();
  return std::move(*built);
}

TEST(TombstoneWindow, InWindowDeleteAnnihilates) {
  auto p = MakeTombstone(8);
  auto* tomb = dynamic_cast<TombstoneWindowPredictor*>(p.get());
  ASSERT_NE(tomb, nullptr);
  p->OnEdge(Edge(0, 1));
  p->OnEdge(Edge(2, 3));
  p->DeleteEdge(Edge(0, 1));
  tomb->Flush();
  // The inner predictor never saw (0, 1).
  EXPECT_EQ(tomb->inner().edges_processed(), 1u);
  EXPECT_EQ(tomb->unretractable_deletes(), 0u);
  EXPECT_EQ(tomb->inner().EstimateOverlap(0, 1).degree_u, 0.0);
}

TEST(TombstoneWindow, NeverInsertedDeleteCountsUnretractable) {
  auto p = MakeTombstone(8);
  auto* tomb = dynamic_cast<TombstoneWindowPredictor*>(p.get());
  ASSERT_NE(tomb, nullptr);
  p->DeleteEdge(Edge(4, 5));
  EXPECT_EQ(tomb->unretractable_deletes(), 1u);
  EXPECT_EQ(tomb->pending_inserts(), 0u);
}

TEST(TombstoneWindow, DeleteToZeroThenReinsertSurvives) {
  auto p = MakeTombstone(8);
  auto* tomb = dynamic_cast<TombstoneWindowPredictor*>(p.get());
  ASSERT_NE(tomb, nullptr);
  p->OnEdge(Edge(0, 1));
  p->DeleteEdge(Edge(0, 1));
  p->OnEdge(Edge(0, 1));
  tomb->Flush();
  EXPECT_EQ(tomb->inner().edges_processed(), 1u);
  EXPECT_EQ(tomb->unretractable_deletes(), 0u);
  EXPECT_GT(tomb->inner().EstimateOverlap(0, 1).degree_u, 0.0);
}

TEST(TombstoneWindow, OverflowFlushesOldestPermanently) {
  auto p = MakeTombstone(2);
  auto* tomb = dynamic_cast<TombstoneWindowPredictor*>(p.get());
  ASSERT_NE(tomb, nullptr);
  p->OnEdge(Edge(0, 1));
  p->OnEdge(Edge(2, 3));
  p->OnEdge(Edge(4, 5));  // overflows: (0, 1) flushes into the inner sketch
  EXPECT_EQ(tomb->pending_inserts(), 2u);
  EXPECT_EQ(tomb->inner().edges_processed(), 1u);
  // Too late: the oldest insert is already permanent.
  p->DeleteEdge(Edge(0, 1));
  EXPECT_EQ(tomb->unretractable_deletes(), 1u);
  tomb->Flush();
  EXPECT_EQ(tomb->inner().edges_processed(), 3u);
  // Flush is idempotent.
  tomb->Flush();
  EXPECT_EQ(tomb->inner().edges_processed(), 3u);
}

TEST(TombstoneWindow, CloneCarriesWindowState) {
  auto p = MakeTombstone(4);
  auto* tomb = dynamic_cast<TombstoneWindowPredictor*>(p.get());
  ASSERT_NE(tomb, nullptr);
  p->OnEdge(Edge(0, 1));
  p->DeleteEdge(Edge(8, 9));
  auto clone = p->Clone();
  ASSERT_NE(clone, nullptr);
  auto* tomb_clone = dynamic_cast<TombstoneWindowPredictor*>(clone.get());
  ASSERT_NE(tomb_clone, nullptr);
  EXPECT_EQ(tomb_clone->pending_inserts(), 1u);
  EXPECT_EQ(tomb_clone->unretractable_deletes(), 1u);
  // Isolation: draining the clone leaves the source untouched.
  tomb_clone->Flush();
  EXPECT_EQ(tomb->pending_inserts(), 1u);
  EXPECT_EQ(tomb->inner().edges_processed(), 0u);
}

// --- Factory: tombstone and tcm validation ---

TEST(Factory, TombstoneOnDeletableKindIsRejected) {
  PredictorConfig config;
  config.kind = "tcm";
  config.tombstone_window = 16;
  EXPECT_FALSE(MakePredictor(config).ok());
  config.kind = "exact";
  EXPECT_FALSE(MakePredictor(config).ok());
}

TEST(Factory, TombstoneShardedIsRejected) {
  PredictorConfig config;
  config.kind = "minhash";
  config.tombstone_window = 16;
  config.threads = 2;
  EXPECT_FALSE(MakePredictor(config).ok());
}

TEST(Factory, TcmDepthZeroIsRejected) {
  PredictorConfig config;
  config.kind = "tcm";
  config.tcm_depth = 0;
  EXPECT_FALSE(MakePredictor(config).ok());
}

// --- Snapshot round trips ---

TEST(TurnstileSnapshot, TcmRoundTripKeepsEstimatesAndCounters) {
  PredictorConfig config;
  config.kind = "tcm";
  config.sketch_size = 32;
  config.tcm_depth = 3;
  config.seed = 17;
  auto built = MakePredictor(config);
  ASSERT_TRUE(built.ok());
  LinkPredictor& p = **built;
  p.OnEdge(Edge(0, 1));
  p.OnEdge(Edge(1, 2));
  p.OnEdge(Edge(0, 2));
  p.DeleteEdge(Edge(0, 2));
  const std::string path = testing::TempDir() + "/tcm_snapshot.bin";
  ASSERT_TRUE(p.Save(path).ok());
  auto loaded = LoadPredictorSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ((*loaded)->name(), "tcm");
  EXPECT_EQ((*loaded)->edges_processed(), p.edges_processed());
  EXPECT_EQ((*loaded)->deletes_processed(), 1u);
  for (VertexId u = 0; u < 3; ++u) {
    for (VertexId v = u + 1; v < 3; ++v) {
      ExpectSameEstimate((*loaded)->EstimateOverlap(u, v),
                         p.EstimateOverlap(u, v));
    }
  }
}

TEST(TurnstileSnapshot, TombstoneRoundTripKeepsWindowState) {
  auto p = MakeTombstone(4);
  p->OnEdge(Edge(0, 1));
  p->OnEdge(Edge(2, 3));
  p->DeleteEdge(Edge(7, 8));  // unretractable
  const std::string path = testing::TempDir() + "/tombstone_snapshot.bin";
  ASSERT_TRUE(p->Save(path).ok());
  auto loaded = LoadPredictorSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  auto* tomb = dynamic_cast<TombstoneWindowPredictor*>(loaded->get());
  ASSERT_NE(tomb, nullptr);
  EXPECT_EQ(tomb->window(), 4u);
  EXPECT_EQ(tomb->pending_inserts(), 2u);
  EXPECT_EQ(tomb->unretractable_deletes(), 1u);
  // The restored window still annihilates.
  (*loaded)->DeleteEdge(Edge(0, 1));
  tomb->Flush();
  EXPECT_EQ(tomb->inner().edges_processed(), 1u);
}

}  // namespace
}  // namespace streamlink
