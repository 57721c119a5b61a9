#include "stream/spsc_ring.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "stream/edge_batch.h"

namespace streamlink {
namespace {

TEST(SpscRing, RoundsCapacityUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(64).capacity(), 64u);
  EXPECT_EQ(SpscRing<int>(65).capacity(), 128u);
}

TEST(SpscRing, PopFromEmptyFails) {
  SpscRing<int> ring(4);
  int out = -1;
  EXPECT_FALSE(ring.TryPop(&out));
  EXPECT_EQ(ring.size_approx(), 0u);
}

TEST(SpscRing, PushUntilFullThenPopInOrder) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) {
    int value = i;
    ASSERT_TRUE(ring.TryPush(value)) << i;
  }
  int overflow = 99;
  EXPECT_FALSE(ring.TryPush(overflow));
  EXPECT_EQ(overflow, 99);  // a failed push must not consume the value
  EXPECT_EQ(ring.size_approx(), 4u);
  for (int i = 0; i < 4; ++i) {
    int out = -1;
    ASSERT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out, i);
  }
  int out = -1;
  EXPECT_FALSE(ring.TryPop(&out));
}

TEST(SpscRing, WrapsAroundManyTimes) {
  SpscRing<int> ring(2);
  int expected = 0;
  for (int i = 0; i < 1000; ++i) {
    int value = i;
    ASSERT_TRUE(ring.TryPush(value));
    if (i % 2 == 1) {  // drain in pairs so indices wrap constantly
      for (int j = 0; j < 2; ++j) {
        int out = -1;
        ASSERT_TRUE(ring.TryPop(&out));
        EXPECT_EQ(out, expected++);
      }
    }
  }
  EXPECT_EQ(expected, 1000);
}

TEST(SpscRing, MoveOnlyPayload) {
  SpscRing<std::unique_ptr<int>> ring(4);
  auto value = std::make_unique<int>(7);
  ASSERT_TRUE(ring.TryPush(value));
  EXPECT_EQ(value, nullptr);  // a successful push moves the payload out
  std::unique_ptr<int> out;
  ASSERT_TRUE(ring.TryPop(&out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 7);
}

TEST(SpscRing, CloseDrainsRemainingItems) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 3; ++i) {
    int value = i;
    ASSERT_TRUE(ring.TryPush(value));
  }
  ring.Close();
  EXPECT_TRUE(ring.closed());
  // The consumer protocol: pop what's there, and only a failed pop with
  // closed() set means end-of-stream.
  for (int i = 0; i < 3; ++i) {
    int out = -1;
    ASSERT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out, i);
  }
  int out = -1;
  EXPECT_FALSE(ring.TryPop(&out));
  EXPECT_TRUE(ring.closed());
}

TEST(SpscRing, CloseIsIdempotent) {
  SpscRing<int> ring(2);
  ring.Close();
  ring.Close();
  EXPECT_TRUE(ring.closed());
}

// Concurrent producer/consumer pass. Every value pushed must come out
// exactly once, in order, across constant wrap-around and full/empty
// transitions. Run under the tsan preset this doubles as a memory-order
// check on the release/acquire pairs.
TEST(SpscRing, ConcurrentProducerConsumer) {
  constexpr uint64_t kItems = 200000;
  SpscRing<uint64_t> ring(8);
  std::thread producer([&ring] {
    for (uint64_t i = 0; i < kItems; ++i) {
      uint64_t value = i;
      while (!ring.TryPush(value)) std::this_thread::yield();
    }
    ring.Close();
  });
  uint64_t expected = 0;
  for (;;) {
    uint64_t out = 0;
    if (ring.TryPop(&out)) {
      ASSERT_EQ(out, expected);
      ++expected;
      continue;
    }
    if (ring.closed()) {
      // Close() may have raced a final push: one more drain pass.
      while (ring.TryPop(&out)) {
        ASSERT_EQ(out, expected);
        ++expected;
      }
      break;
    }
    std::this_thread::yield();
  }
  producer.join();
  EXPECT_EQ(expected, kItems);
}

// The payload type the ingest engine actually ships: buffers with hash
// lanes, moved through a tiny ring from a producer thread.
TEST(SpscRing, ConcurrentEdgeBatchBuffers) {
  constexpr uint32_t kBatches = 2000;
  SpscRing<EdgeBatchBuffer> ring(4);
  std::thread producer([&ring] {
    for (uint32_t i = 0; i < kBatches; ++i) {
      EdgeBatchBuffer buffer;
      buffer.Reserve(3, /*with_hash_v=*/true);
      for (uint32_t j = 0; j < 3; ++j) {
        buffer.AppendHalfEdge(i, i + j, /*neighbor_hash=*/i * 3ull + j);
      }
      while (!ring.TryPush(buffer)) std::this_thread::yield();
    }
    ring.Close();
  });
  uint32_t received = 0;
  uint64_t hash_sum = 0;
  auto check = [&](const EdgeBatchBuffer& buffer) {
    EdgeBatch view = buffer.View();
    ASSERT_EQ(view.size(), 3u);
    ASSERT_TRUE(view.has_hash_v());
    for (size_t j = 0; j < view.size(); ++j) {
      ASSERT_EQ(view[j].u, received);
      hash_sum += view.hash_v(j);
    }
    ++received;
  };
  for (;;) {
    EdgeBatchBuffer buffer;
    if (ring.TryPop(&buffer)) {
      check(buffer);
      continue;
    }
    if (ring.closed()) {
      // Close() may have raced a final push: one more drain pass, checked
      // like every other batch.
      while (ring.TryPop(&buffer)) check(buffer);
      break;
    }
    std::this_thread::yield();
  }
  producer.join();
  EXPECT_EQ(received, kBatches);
  // sum over i<kBatches, j<3 of (3i + j)
  const uint64_t n = kBatches;
  EXPECT_EQ(hash_sum, 3 * (n * (n - 1) / 2) * 3 + n * 3);
}

}  // namespace
}  // namespace streamlink
