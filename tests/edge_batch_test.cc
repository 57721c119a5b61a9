#include "stream/edge_batch.h"

#include <gtest/gtest.h>

#include <vector>


namespace streamlink {
namespace {

TEST(EdgeBatch, DefaultIsEmpty) {
  EdgeBatch batch;
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.size(), 0u);
  EXPECT_FALSE(batch.has_hash_u());
  EXPECT_FALSE(batch.has_hash_v());
}

TEST(EdgeBatch, WrapsEdgeRun) {
  const EdgeList edges = {{0, 1}, {1, 2}, {2, 3}};
  EdgeBatch batch(edges.data(), edges.size());
  EXPECT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[1], Edge(1, 2));
  size_t seen = 0;
  for (const Edge& e : batch) {
    EXPECT_EQ(e, edges[seen]);
    ++seen;
  }
  EXPECT_EQ(seen, edges.size());
}

TEST(EdgeBatch, SingleWrapsOneEdge) {
  const Edge e{5, 9};
  EdgeBatch batch = EdgeBatch::Single(e);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0], e);
}

TEST(EdgeBatch, SliceKeepsLanesAligned) {
  const EdgeList edges = {{0, 1}, {1, 2}, {2, 3}, {3, 4}};
  const std::vector<uint64_t> hu = {10, 11, 12, 13};
  const std::vector<uint64_t> hv = {20, 21, 22, 23};
  EdgeBatch batch(edges.data(), edges.size(), hu.data(), hv.data());
  ASSERT_TRUE(batch.has_hash_u());
  ASSERT_TRUE(batch.has_hash_v());

  EdgeBatch slice = batch.Slice(1, 2);
  ASSERT_EQ(slice.size(), 2u);
  EXPECT_EQ(slice[0], Edge(1, 2));
  EXPECT_EQ(slice.hash_u(0), 11u);
  EXPECT_EQ(slice.hash_v(1), 22u);

  EdgeBatch prefix = batch.Prefix(100);  // clamps to size
  EXPECT_EQ(prefix.size(), 4u);
  EXPECT_EQ(batch.Prefix(2).size(), 2u);
}

TEST(EdgeBatch, SliceWithoutLanesStaysLaneless) {
  const EdgeList edges = {{0, 1}, {1, 2}};
  EdgeBatch slice = EdgeBatch(edges.data(), edges.size()).Slice(1, 1);
  EXPECT_FALSE(slice.has_hash_u());
  EXPECT_FALSE(slice.has_hash_v());
}

TEST(EdgeBatchBuffer, HalfEdgeAppendFillsNeighborLane) {
  EdgeBatchBuffer buffer;
  buffer.Reserve(2, /*with_hash_v=*/true);
  buffer.AppendHalfEdge(3, 7, 111);
  buffer.AppendHalfEdge(3, 9, 222);
  EdgeBatch view = buffer.View();
  ASSERT_EQ(view.size(), 2u);
  EXPECT_FALSE(view.has_hash_u());
  ASSERT_TRUE(view.has_hash_v());
  EXPECT_EQ(view[0], Edge(3, 7));
  EXPECT_EQ(view.hash_v(1), 222u);
}

TEST(EdgeBatchBuffer, ViewDropsShortLane) {
  EdgeBatchBuffer buffer;
  buffer.AppendHalfEdge(1, 2, 20);
  buffer.Append(Edge(2, 3));  // no hash — the lane now disagrees with edges
  EdgeBatch view = buffer.View();
  EXPECT_EQ(view.size(), 2u);
  EXPECT_FALSE(view.has_hash_u());
  EXPECT_FALSE(view.has_hash_v());
}

TEST(EdgeBatchBuffer, ClearResetsAllLanes) {
  EdgeBatchBuffer buffer;
  buffer.AppendHalfEdge(1, 2, 20, EdgeOp::kDelete);
  buffer.Clear();
  EXPECT_TRUE(buffer.empty());
  EXPECT_TRUE(buffer.View().empty());
  buffer.Append(Edge(4, 5));
  EdgeBatch view = buffer.View();
  EXPECT_EQ(view.size(), 1u);
  EXPECT_FALSE(view.has_hash_v());
  EXPECT_FALSE(view.has_ops());
}

TEST(EdgeBatchBuffer, OpLaneAppearsAtFirstDelete) {
  EdgeBatchBuffer buffer;
  buffer.Append(Edge(0, 1));
  buffer.Append(Edge(1, 2), EdgeOp::kInsert);
  EXPECT_FALSE(buffer.View().has_ops());  // insert-only: no op lane
  buffer.Append(Edge(0, 1), EdgeOp::kDelete);
  buffer.Append(Edge(2, 3));
  EdgeBatch view = buffer.View();
  ASSERT_TRUE(view.has_ops());
  EXPECT_EQ(view.op(0), EdgeOp::kInsert);
  EXPECT_EQ(view.op(1), EdgeOp::kInsert);
  EXPECT_EQ(view.op(2), EdgeOp::kDelete);
  EXPECT_EQ(view.op(3), EdgeOp::kInsert);

  EdgeBatchBuffer leading_delete;
  leading_delete.AppendHalfEdge(1, 2, 20, EdgeOp::kDelete);
  ASSERT_TRUE(leading_delete.View().has_ops());
  EXPECT_EQ(leading_delete.View().op(0), EdgeOp::kDelete);
}

}  // namespace
}  // namespace streamlink
