#include "core/sketch_store.h"

#include <gtest/gtest.h>

#include "core/minhash_predictor.h"
#include "eval/experiment.h"
#include "sketch/minhash.h"
#include "util/hashing.h"

namespace streamlink {
namespace {

TEST(SketchStore, StartsEmpty) {
  SketchStore<MinHashSketch> store([] { return MinHashSketch(4); });
  EXPECT_EQ(store.num_vertices(), 0u);
  EXPECT_EQ(store.Get(0), nullptr);
  EXPECT_EQ(store.Get(100), nullptr);
}

TEST(SketchStore, EnsureVertexGrowsLazily) {
  SketchStore<MinHashSketch> store([] { return MinHashSketch(4); });
  store.EnsureVertex(5);
  EXPECT_EQ(store.num_vertices(), 6u);
  ASSERT_NE(store.Get(3), nullptr);
  EXPECT_TRUE(store.Get(3)->IsEmpty());
  // Does not shrink.
  store.EnsureVertex(2);
  EXPECT_EQ(store.num_vertices(), 6u);
}

TEST(SketchStore, MutableCreatesAndPersists) {
  HashFamily family(1, 4);
  SketchStore<MinHashSketch> store([] { return MinHashSketch(4); });
  store.Mutable(2).Update(42, family);
  ASSERT_NE(store.Get(2), nullptr);
  EXPECT_FALSE(store.Get(2)->IsEmpty());
  EXPECT_TRUE(store.Get(0)->IsEmpty());
}

TEST(SketchStore, MergeFromGrowsAndApplies) {
  HashFamily family(2, 4);
  SketchStore<MinHashSketch> a([] { return MinHashSketch(4); });
  SketchStore<MinHashSketch> b([] { return MinHashSketch(4); });
  a.Mutable(0).Update(1, family);
  b.Mutable(3).Update(9, family);
  a.MergeFrom(b, [](MinHashSketch& mine, const MinHashSketch& theirs) {
    mine.MergeUnion(theirs);
  });
  EXPECT_EQ(a.num_vertices(), 4u);
  EXPECT_FALSE(a.Get(0)->IsEmpty());
  EXPECT_FALSE(a.Get(3)->IsEmpty());
}

// Regression: EnsureVertex used to resize to exactly max(id)+1 on every
// growth, so an ascending-id ingest reallocated (and copied every sketch)
// per new vertex — quadratic in vertices. With geometric reserve this
// builds a million-vertex store in linear time; the assertions pin the
// behavior (correct size, default-constructed tail) rather than wall
// clock, which would flake under sanitizers.
TEST(SketchStore, EnsureVertexAscendingMillionVertices) {
  constexpr VertexId kVertices = 1u << 20;
  SketchStore<MinHashSketch> store([] { return MinHashSketch(1); });
  for (VertexId u = 0; u < kVertices; u += 1) {
    store.EnsureVertex(u);
  }
  EXPECT_EQ(store.num_vertices(), kVertices);
  ASSERT_NE(store.Get(0), nullptr);
  ASSERT_NE(store.Get(kVertices - 1), nullptr);
  EXPECT_TRUE(store.Get(kVertices - 1)->IsEmpty());
  EXPECT_EQ(store.Get(kVertices), nullptr);
}

TEST(SketchStore, MemoryAccountsAllSketches) {
  SketchStore<MinHashSketch> store([] { return MinHashSketch(64); });
  uint64_t empty_bytes = store.MemoryBytes();
  store.EnsureVertex(99);
  EXPECT_GT(store.MemoryBytes(), empty_bytes + 100 * 64);
}

TEST(DegreeTable, IncrementAndQuery) {
  DegreeTable table;
  EXPECT_EQ(table.Degree(7), 0u);
  table.Increment(7);
  table.Increment(7);
  table.Increment(2);
  EXPECT_EQ(table.Degree(7), 2u);
  EXPECT_EQ(table.Degree(2), 1u);
  EXPECT_EQ(table.Degree(100), 0u);
  EXPECT_EQ(table.num_vertices(), 8u);
}

TEST(DegreeTable, MergeFromAddsElementwise) {
  DegreeTable a, b;
  a.Increment(0);
  a.Increment(0);
  b.Increment(0);
  b.Increment(5);
  a.MergeFrom(b);
  EXPECT_EQ(a.Degree(0), 3u);
  EXPECT_EQ(a.Degree(5), 1u);
  EXPECT_EQ(a.num_vertices(), 6u);
}

TEST(DegreeTable, RawRoundTrip) {
  DegreeTable table;
  table.Increment(1);
  table.Increment(1);
  DegreeTable copy;
  copy.SetRaw(table.raw());
  EXPECT_EQ(copy.Degree(1), 2u);
}

TEST(ObserveNeighbor, TwoHalfEdgesEqualOneEdge) {
  MinHashPredictorOptions options{32, 4};
  MinHashPredictor whole(options), halves(options);
  whole.OnEdge(Edge(0, 1));
  const EdgeList half_edges = {{0, 1}, {1, 0}};
  halves.ObserveNeighborBatch(EdgeBatch(half_edges.data(), half_edges.size()));
  OverlapEstimate a = whole.EstimateOverlap(0, 1);
  OverlapEstimate b = halves.EstimateOverlap(0, 1);
  EXPECT_DOUBLE_EQ(a.jaccard, b.jaccard);
  EXPECT_DOUBLE_EQ(a.degree_u, b.degree_u);
  EXPECT_DOUBLE_EQ(a.degree_v, b.degree_v);
  // Edge accounting differs by design: half-edges do not count.
  EXPECT_EQ(whole.edges_processed(), 1u);
  EXPECT_EQ(halves.edges_processed(), 0u);
}

TEST(ObserveNeighbor, VertexPartitionedShardsMergeToWholeStream) {
  MinHashPredictorOptions options{32, 9};
  MinHashPredictor whole(options);
  MinHashPredictor even(options), odd(options);
  EdgeList edges = {{0, 1}, {1, 2}, {2, 3}, {0, 3}, {1, 3}};
  for (const Edge& e : edges) {
    whole.OnEdge(e);
    const Edge reversed(e.v, e.u);
    (e.u % 2 == 0 ? even : odd).ObserveNeighborBatch(EdgeBatch::Single(e));
    (e.v % 2 == 0 ? even : odd)
        .ObserveNeighborBatch(EdgeBatch::Single(reversed));
  }
  even.MergeFrom(odd);
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = u + 1; v < 4; ++v) {
      EXPECT_DOUBLE_EQ(even.EstimateOverlap(u, v).jaccard,
                       whole.EstimateOverlap(u, v).jaccard)
          << u << "," << v;
      EXPECT_DOUBLE_EQ(even.EstimateOverlap(u, v).adamic_adar,
                       whole.EstimateOverlap(u, v).adamic_adar);
    }
  }
}

}  // namespace
}  // namespace streamlink
