#include "core/sharded_predictor.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/predictor_factory.h"
#include "eval/experiment.h"
#include "util/random.h"

namespace streamlink {
namespace {

constexpr VertexId kNumVertices = 80;

/// A messy stream: duplicates, both orientations, and self-loops.
EdgeList MakeStream(uint64_t seed, size_t num_edges) {
  Rng rng(seed);
  EdgeList edges;
  edges.reserve(num_edges);
  for (size_t i = 0; i < num_edges; ++i) {
    edges.emplace_back(static_cast<VertexId>(rng.NextBounded(kNumVertices)),
                       static_cast<VertexId>(rng.NextBounded(kNumVertices)));
  }
  return edges;
}

/// Bit-identical, not approximately equal: sharding must be lossless.
void ExpectIdentical(const OverlapEstimate& a, const OverlapEstimate& b,
                     VertexId u, VertexId v, const std::string& kind) {
  EXPECT_EQ(a.jaccard, b.jaccard) << kind << " (" << u << "," << v << ")";
  EXPECT_EQ(a.intersection, b.intersection)
      << kind << " (" << u << "," << v << ")";
  EXPECT_EQ(a.union_size, b.union_size)
      << kind << " (" << u << "," << v << ")";
  EXPECT_EQ(a.adamic_adar, b.adamic_adar)
      << kind << " (" << u << "," << v << ")";
  EXPECT_EQ(a.resource_allocation, b.resource_allocation)
      << kind << " (" << u << "," << v << ")";
  EXPECT_EQ(a.degree_u, b.degree_u) << kind << " (" << u << "," << v << ")";
  EXPECT_EQ(a.degree_v, b.degree_v) << kind << " (" << u << "," << v << ")";
}

std::vector<PredictorConfig> ShardableConfigs() {
  std::vector<PredictorConfig> configs;
  for (const char* kind : {"minhash", "bottomk", "oph", "tcm", "exact"}) {
    PredictorConfig config;
    config.kind = kind;
    config.sketch_size = 32;
    config.seed = 7;
    configs.push_back(config);
  }
  // BottomK with KMV degree estimates exercises the sketched-degree path.
  PredictorConfig kmv;
  kmv.kind = "bottomk";
  kmv.sketch_size = 32;
  kmv.seed = 7;
  kmv.sketch_degrees = true;
  configs.push_back(kmv);
  return configs;
}

TEST(ShardedPredictor, BitIdenticalToSequentialAcrossKinds) {
  const EdgeList edges = MakeStream(/*seed=*/3, /*num_edges=*/600);
  for (const PredictorConfig& base : ShardableConfigs()) {
    auto sequential = MakePredictor(base);
    ASSERT_TRUE(sequential.ok());
    FeedStream(**sequential, edges);

    PredictorConfig parallel = base;
    parallel.threads = 3;
    auto sharded = MakePredictor(parallel);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    FeedStream(**sharded, edges);

    EXPECT_EQ((*sharded)->edges_processed(), (*sequential)->edges_processed());
    EXPECT_EQ((*sharded)->num_vertices(), (*sequential)->num_vertices());
    const std::string label = base.kind +
                              (base.sketch_degrees ? "+kmv" : "");
    // Every pair, including u == v and vertices past the stream's range.
    for (VertexId u = 0; u < kNumVertices + 5; u += 3) {
      for (VertexId v = 0; v < kNumVertices + 5; ++v) {
        ExpectIdentical((*sequential)->EstimateOverlap(u, v),
                        (*sharded)->EstimateOverlap(u, v), u, v, label);
      }
    }
  }
}

TEST(ShardedPredictor, SelfLoopsAreSkippedLikeSequential) {
  EdgeList edges = {{0, 0}, {0, 1}, {5, 5}, {1, 2}, {2, 2}};
  PredictorConfig config;
  config.kind = "minhash";
  config.threads = 2;
  auto sharded = MakePredictor(config);
  ASSERT_TRUE(sharded.ok());
  FeedStream(**sharded, edges);
  EXPECT_EQ((*sharded)->edges_processed(), 2u);

  config.threads = 1;
  auto sequential = MakePredictor(config);
  ASSERT_TRUE(sequential.ok());
  FeedStream(**sequential, edges);
  for (VertexId u = 0; u < 8; ++u) {
    for (VertexId v = 0; v < 8; ++v) {
      ExpectIdentical((*sequential)->EstimateOverlap(u, v),
                      (*sharded)->EstimateOverlap(u, v), u, v, "minhash");
    }
  }
}

TEST(ShardedPredictor, EmptyBuildAnswersQueries) {
  PredictorConfig config;
  config.kind = "bottomk";
  config.threads = 4;
  auto sharded = MakePredictor(config);
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ((*sharded)->num_vertices(), 0u);
  EXPECT_EQ((*sharded)->edges_processed(), 0u);
  OverlapEstimate e = (*sharded)->EstimateOverlap(3, 9);
  EXPECT_EQ(e.jaccard, 0.0);
  EXPECT_EQ(e.intersection, 0.0);
}

TEST(ShardedPredictor, SingleShardDegenerateCaseWorks) {
  auto sharded = ShardedPredictor::Make(PredictorConfig{});
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ((*sharded)->num_shards(), 1u);
  FeedStream(**sharded, {{0, 1}, {1, 2}});
  EXPECT_EQ((*sharded)->edges_processed(), 2u);
}

TEST(ShardedPredictor, ExposesShardsAndOwnership) {
  PredictorConfig config;
  config.kind = "oph";
  config.threads = 3;
  auto sharded = ShardedPredictor::Make(config);
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ((*sharded)->name(), "sharded:oph");
  EXPECT_EQ((*sharded)->kind(), "oph");
  EXPECT_EQ((*sharded)->num_shards(), 3u);
  for (VertexId u = 0; u < 9; ++u) {
    EXPECT_EQ((*sharded)->OwnerOf(u), u % 3);
    EXPECT_EQ((*sharded)->RowOf(u), u / 3);
  }
  EXPECT_EQ((*sharded)->shard(0).name(), "oph");
}

// Shards hold one row per owned vertex, so N shards together hold about
// what one sequential predictor holds, not N times it.
TEST(ShardedPredictor, MemoryIsAccountedAcrossShards) {
  const EdgeList edges = MakeStream(/*seed=*/5, /*num_edges=*/600);
  for (const PredictorConfig& base : ShardableConfigs()) {
    auto sequential = MakePredictor(base);
    ASSERT_TRUE(sequential.ok());
    FeedStream(**sequential, edges);

    PredictorConfig parallel = base;
    parallel.threads = 3;
    auto sharded = MakePredictor(parallel);
    ASSERT_TRUE(sharded.ok());
    FeedStream(**sharded, edges);
    const uint64_t total = (*sharded)->MemoryBytes();
    auto* as_sharded = dynamic_cast<ShardedPredictor*>(sharded->get());
    ASSERT_NE(as_sharded, nullptr);
    uint64_t shards = 0;
    for (uint32_t t = 0; t < as_sharded->num_shards(); ++t) {
      shards += as_sharded->shard(t).MemoryBytes();
    }
    EXPECT_GE(total, shards) << base.kind;
    EXPECT_LE(total, 1.2 * (*sequential)->MemoryBytes())
        << base.kind << (base.sketch_degrees ? "+kmv" : "");
  }
}

// Of 4 shards, shard 0 holds 1 row, shard 1 holds 3 (vertex 9, the
// highest id, is its row 2) and shards 2 and 3 hold 2 each: the view
// counts 10 vertices, as the sequential build does, neither the 3 rows of
// the widest shard nor 4 × 3 row slots.
TEST(ShardedPredictor, NumVerticesFollowsTheHighestIdOnAnyShard) {
  const EdgeList edges = {{0, 9}, {5, 7}, {2, 6}, {1, 3}};
  for (const PredictorConfig& base : ShardableConfigs()) {
    auto sequential = MakePredictor(base);
    ASSERT_TRUE(sequential.ok());
    FeedStream(**sequential, edges);

    PredictorConfig parallel = base;
    parallel.threads = 4;
    auto sharded = MakePredictor(parallel);
    ASSERT_TRUE(sharded.ok());
    FeedStream(**sharded, edges);
    auto* as_sharded = dynamic_cast<ShardedPredictor*>(sharded->get());
    ASSERT_NE(as_sharded, nullptr);
    EXPECT_EQ(as_sharded->shard(0).num_vertices(), 1u) << base.kind;
    EXPECT_EQ(as_sharded->shard(1).num_vertices(), 3u) << base.kind;
    EXPECT_EQ(as_sharded->shard(3).num_vertices(), 2u) << base.kind;
    EXPECT_EQ((*sequential)->num_vertices(), 10u) << base.kind;
    EXPECT_EQ((*sharded)->num_vertices(), 10u) << base.kind;
  }
}

TEST(ShardedPredictor, RejectsUnshardableKinds) {
  for (const char* kind : {"vertex_biased", "windowed_minhash"}) {
    PredictorConfig config;
    config.kind = kind;
    config.threads = 4;
    auto sharded = ShardedPredictor::Make(config);
    ASSERT_FALSE(sharded.ok()) << kind;
    EXPECT_EQ(sharded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ShardedPredictor, RejectsZeroThreads) {
  PredictorConfig config;
  config.threads = 0;
  auto sharded = ShardedPredictor::Make(config);
  ASSERT_FALSE(sharded.ok());
  EXPECT_EQ(sharded.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardedPredictor, PropagatesShardConfigErrors) {
  PredictorConfig config;
  config.kind = "minhash";
  config.sketch_size = 1;  // rejected by the per-shard factory
  config.threads = 2;
  auto sharded = ShardedPredictor::Make(config);
  ASSERT_FALSE(sharded.ok());
  EXPECT_EQ(sharded.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace streamlink
