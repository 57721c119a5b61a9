#include "stream/sliding_window.h"

#include <gtest/gtest.h>

namespace streamlink {
namespace {

TEST(SlidingWindowGraphTest, HoldsEdgesUpToWindowSize) {
  SlidingWindowGraph window(3);
  EXPECT_EQ(window.Add({0, 1}), 0u);
  EXPECT_EQ(window.Add({1, 2}), 0u);
  EXPECT_EQ(window.Add({2, 3}), 0u);
  EXPECT_EQ(window.current_edges(), 3u);
  EXPECT_TRUE(window.graph().HasEdge(0, 1));
  EXPECT_TRUE(window.graph().HasEdge(1, 2));
  EXPECT_TRUE(window.graph().HasEdge(2, 3));
}

TEST(SlidingWindowGraphTest, ExpiresOldestOnOverflow) {
  SlidingWindowGraph window(2);
  window.Add({0, 1});
  window.Add({1, 2});
  EXPECT_EQ(window.Add({2, 3}), 1u);  // expires {0,1}
  EXPECT_EQ(window.current_edges(), 2u);
  EXPECT_FALSE(window.graph().HasEdge(0, 1));
  EXPECT_TRUE(window.graph().HasEdge(1, 2));
  EXPECT_TRUE(window.graph().HasEdge(2, 3));
}

TEST(SlidingWindowGraphTest, DuplicateRefreshesPosition) {
  SlidingWindowGraph window(2);
  window.Add({0, 1});
  window.Add({1, 2});
  // Re-arrival of {0,1} makes {1,2} the oldest edge...
  EXPECT_EQ(window.Add({0, 1}), 0u);
  EXPECT_EQ(window.current_edges(), 2u);
  // ...so the next insertion expires {1,2}, not {0,1}.
  EXPECT_EQ(window.Add({2, 3}), 1u);
  EXPECT_TRUE(window.graph().HasEdge(0, 1));
  EXPECT_FALSE(window.graph().HasEdge(1, 2));
}

TEST(SlidingWindowGraphTest, NonCanonicalAndSelfLoopEdges) {
  SlidingWindowGraph window(4);
  window.Add({5, 2});           // stored canonically as {2,5}
  EXPECT_EQ(window.Add({2, 5}), 0u);  // duplicate of the same edge
  EXPECT_EQ(window.current_edges(), 1u);
  window.Add({3, 3});           // self-loop: ignored entirely
  EXPECT_EQ(window.current_edges(), 1u);
  EXPECT_TRUE(window.graph().HasEdge(2, 5));
  EXPECT_TRUE(window.graph().HasEdge(5, 2));
}

TEST(SlidingWindowGraphTest, WindowOfOneTracksLatestEdge) {
  SlidingWindowGraph window(1);
  window.Add({0, 1});
  EXPECT_EQ(window.Add({1, 2}), 1u);
  EXPECT_EQ(window.Add({2, 3}), 1u);
  EXPECT_EQ(window.current_edges(), 1u);
  EXPECT_FALSE(window.graph().HasEdge(0, 1));
  EXPECT_FALSE(window.graph().HasEdge(1, 2));
  EXPECT_TRUE(window.graph().HasEdge(2, 3));
}

TEST(SlidingWindowGraphTest, LongStreamKeepsGraphAndOrderInSync) {
  SlidingWindowGraph window(16);
  for (VertexId i = 0; i < 200; ++i) {
    window.Add({i, i + 1});
    EXPECT_LE(window.current_edges(), 16u);
    EXPECT_EQ(window.graph().num_edges(), window.current_edges());
  }
  // Exactly the last 16 path edges remain.
  for (VertexId i = 184; i < 200; ++i) {
    EXPECT_TRUE(window.graph().HasEdge(i, i + 1)) << i;
  }
  EXPECT_FALSE(window.graph().HasEdge(183, 184));
}

}  // namespace
}  // namespace streamlink
