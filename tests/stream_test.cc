#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "stream/edge_stream.h"
#include "stream/op_stream.h"
#include "stream/rate_meter.h"
#include "stream/sliding_window.h"

namespace streamlink {
namespace {

TEST(VectorEdgeStream, YieldsAllEdgesInOrder) {
  VectorEdgeStream s({{0, 1}, {1, 2}});
  Edge e;
  ASSERT_TRUE(s.Next(&e));
  EXPECT_EQ(e, Edge(0, 1));
  ASSERT_TRUE(s.Next(&e));
  EXPECT_EQ(e, Edge(1, 2));
  EXPECT_FALSE(s.Next(&e));
  EXPECT_EQ(s.SizeHint(), 2u);
}

TEST(VectorEdgeStream, ResetRewinds) {
  VectorEdgeStream s({{0, 1}});
  Edge e;
  ASSERT_TRUE(s.Next(&e));
  EXPECT_FALSE(s.Next(&e));
  s.Reset();
  ASSERT_TRUE(s.Next(&e));
  EXPECT_EQ(e, Edge(0, 1));
}

TEST(DedupEdgeStream, DropsDuplicatesAndSelfLoops) {
  auto inner = std::make_unique<VectorEdgeStream>(
      EdgeList{{0, 1}, {1, 0}, {2, 2}, {0, 1}, {1, 2}});
  DedupEdgeStream s(std::move(inner));
  EdgeList seen;
  Edge e;
  while (s.Next(&e)) seen.push_back(e);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], Edge(0, 1));
  EXPECT_EQ(seen[1], Edge(1, 2));
}

TEST(DedupEdgeStream, ResetClearsSeenSet) {
  auto inner =
      std::make_unique<VectorEdgeStream>(EdgeList{{0, 1}, {0, 1}});
  DedupEdgeStream s(std::move(inner));
  Edge e;
  int count = 0;
  while (s.Next(&e)) ++count;
  EXPECT_EQ(count, 1);
  s.Reset();
  count = 0;
  while (s.Next(&e)) ++count;
  EXPECT_EQ(count, 1);
}

TEST(PrefixEdgeStream, Truncates) {
  auto inner = std::make_unique<VectorEdgeStream>(
      EdgeList{{0, 1}, {1, 2}, {2, 3}});
  PrefixEdgeStream s(std::move(inner), 2);
  EXPECT_EQ(s.SizeHint(), 2u);
  Edge e;
  int count = 0;
  while (s.Next(&e)) ++count;
  EXPECT_EQ(count, 2);
  s.Reset();
  count = 0;
  while (s.Next(&e)) ++count;
  EXPECT_EQ(count, 2);
}

TEST(PrefixEdgeStream, LimitBeyondLengthIsWholeStream) {
  auto inner = std::make_unique<VectorEdgeStream>(EdgeList{{0, 1}});
  PrefixEdgeStream s(std::move(inner), 100);
  EXPECT_EQ(s.SizeHint(), 1u);
}

TEST(InsertOnlyOpStream, YieldsEveryEdgeAsAnInsert) {
  VectorEdgeStream edges({{0, 1}, {1, 2}});
  InsertOnlyOpStream events(edges);
  EXPECT_EQ(events.SizeHint(), 2u);
  EdgeEvent event(Edge(7, 8), EdgeOp::kDelete);
  ASSERT_TRUE(events.Next(&event));
  EXPECT_EQ(event, EdgeEvent(Edge(0, 1), EdgeOp::kInsert));
  ASSERT_TRUE(events.Next(&event));
  EXPECT_EQ(event, EdgeEvent(Edge(1, 2), EdgeOp::kInsert));
  EXPECT_FALSE(events.Next(&event));
  events.Reset();
  ASSERT_TRUE(events.Next(&event));
  EXPECT_EQ(event.edge, Edge(0, 1));
}

TEST(RateMeter, LifetimeRate) {
  RateMeter m(10.0);
  m.Record(0.0, 100);
  m.Record(1.0, 100);
  m.Record(2.0, 100);
  EXPECT_NEAR(m.LifetimeRate(), 150.0, 1e-9);  // 300 events over 2 seconds
  EXPECT_EQ(m.total_events(), 300u);
}

TEST(RateMeter, WindowRateDropsOldSamples) {
  RateMeter m(1.0);
  m.Record(0.0, 1000);  // will fall out of the window
  m.Record(10.0, 10);
  m.Record(10.5, 10);
  EXPECT_NEAR(m.WindowRate(), 20.0 / 0.5, 1e-9);
}

TEST(RateMeter, NoSamplesIsZero) {
  RateMeter m(1.0);
  EXPECT_DOUBLE_EQ(m.LifetimeRate(), 0.0);
  EXPECT_DOUBLE_EQ(m.WindowRate(), 0.0);
}

TEST(RateMeterDeathTest, NonPositiveWindowAborts) {
  EXPECT_DEATH(RateMeter(0.0), "positive");
}

TEST(SlidingWindowGraph, KeepsMostRecentEdges) {
  SlidingWindowGraph w(2);
  w.Add(Edge(0, 1));
  w.Add(Edge(1, 2));
  EXPECT_EQ(w.current_edges(), 2u);
  EXPECT_EQ(w.Add(Edge(2, 3)), 1u);  // expires (0,1)
  EXPECT_FALSE(w.graph().HasEdge(0, 1));
  EXPECT_TRUE(w.graph().HasEdge(1, 2));
  EXPECT_TRUE(w.graph().HasEdge(2, 3));
}

TEST(SlidingWindowGraph, DuplicateRefreshesPosition) {
  SlidingWindowGraph w(2);
  w.Add(Edge(0, 1));
  w.Add(Edge(1, 2));
  EXPECT_EQ(w.Add(Edge(0, 1)), 0u);  // duplicate: refresh, no expiry
  EXPECT_EQ(w.Add(Edge(2, 3)), 1u);  // now (1,2) is oldest and expires
  EXPECT_TRUE(w.graph().HasEdge(0, 1));
  EXPECT_FALSE(w.graph().HasEdge(1, 2));
}

TEST(SlidingWindowGraph, IgnoresSelfLoops) {
  SlidingWindowGraph w(2);
  EXPECT_EQ(w.Add(Edge(3, 3)), 0u);
  EXPECT_EQ(w.current_edges(), 0u);
}

TEST(SlidingWindowGraphDeathTest, ZeroWindowAborts) {
  EXPECT_DEATH(SlidingWindowGraph(0), "at least one");
}

}  // namespace
}  // namespace streamlink
