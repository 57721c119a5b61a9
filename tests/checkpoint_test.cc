// CheckpointManager: periodic crash-safe checkpoints of a live build,
// retention, manifest recovery, restore fallback across corrupt files,
// serving warm start, and the acceptance property of the persistence
// subsystem — kill-and-resume equivalence: an interrupted checkpointed
// build, resumed from its newest checkpoint, saves a snapshot
// byte-identical to the uninterrupted build's.

#include "persist/checkpoint.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>

#include "core/minhash_predictor.h"
#include "core/predictor_factory.h"
#include "eval/experiment.h"
#include "gen/workloads.h"
#include "serve/query_service.h"
#include "stream/edge_stream.h"
#include "stream/parallel_ingest.h"

namespace streamlink {
namespace {

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void FlipByteInFile(const std::string& path, size_t offset) {
  std::string bytes = ReadFileBytes(path);
  ASSERT_LT(offset, bytes.size());
  bytes[offset] = static_cast<char>(bytes[offset] ^ 0xff);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Resumes `restored`, whose cursor is `cursor`, over the rest of `edges`
/// through the ingest engine, as CLI `resume` does.
std::unique_ptr<LinkPredictor> MustResume(
    std::unique_ptr<LinkPredictor> restored, uint64_t cursor,
    const EdgeList& edges) {
  VectorEdgeStream tail(EdgeList(edges.begin() + cursor, edges.end()));
  ParallelIngestEngine engine{PredictorConfig{}};
  auto resumed = engine.Resume(std::move(restored), cursor, tail);
  SL_CHECK(resumed.ok()) << resumed.status().ToString();
  SL_CHECK(engine.edges_ingested() == edges.size());
  return std::move(*resumed);
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/ckpt_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  CheckpointManager MustOpen(uint32_t keep = 3) {
    auto manager = CheckpointManager::Open(CheckpointOptions{dir_, keep});
    SL_CHECK(manager.ok()) << manager.status().ToString();
    return std::move(*manager);
  }

  std::string dir_;
};

TEST_F(CheckpointTest, OpenValidatesOptions) {
  EXPECT_FALSE(CheckpointManager::Open(CheckpointOptions{"", 3}).ok());
  EXPECT_FALSE(CheckpointManager::Open(CheckpointOptions{dir_, 0}).ok());
}

TEST_F(CheckpointTest, WriteThenRestoreRoundTrips) {
  auto manager = MustOpen();
  MinHashPredictor predictor(MinHashPredictorOptions{16, 9});
  GeneratedGraph g = MakeWorkload(WorkloadSpec{"ba", 0.02, 55});
  FeedStream(predictor, g.edges);
  ASSERT_TRUE(manager.Write(predictor, g.edges.size()).ok());
  ASSERT_EQ(manager.entries().size(), 1u);
  EXPECT_EQ(manager.entries()[0].stream_edges, g.edges.size());
  EXPECT_EQ(manager.entries()[0].edges_processed,
            predictor.edges_processed());

  auto restored = manager.RestoreLatest();
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->entry.stream_edges, g.edges.size());
  EXPECT_EQ(restored->predictor->edges_processed(),
            predictor.edges_processed());
  OverlapEstimate a = predictor.EstimateOverlap(0, 1);
  OverlapEstimate b = restored->predictor->EstimateOverlap(0, 1);
  EXPECT_DOUBLE_EQ(a.jaccard, b.jaccard);
}

TEST_F(CheckpointTest, EmptyDirectoryRestoresNotFound) {
  auto manager = MustOpen();
  auto restored = manager.RestoreLatest();
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kNotFound);
}

TEST_F(CheckpointTest, RetentionPrunesOldSnapshots) {
  auto manager = MustOpen(/*keep=*/2);
  MinHashPredictor predictor(MinHashPredictorOptions{8, 9});
  for (uint64_t i = 1; i <= 4; ++i) {
    predictor.OnEdge(Edge(0, static_cast<VertexId>(i)));
    ASSERT_TRUE(manager.Write(predictor, i).ok());
  }
  ASSERT_EQ(manager.entries().size(), 2u);
  EXPECT_EQ(manager.entries()[0].stream_edges, 3u);
  EXPECT_EQ(manager.entries()[1].stream_edges, 4u);
  EXPECT_FALSE(std::filesystem::exists(manager.PathFor(1)));
  EXPECT_FALSE(std::filesystem::exists(manager.PathFor(2)));
  EXPECT_TRUE(std::filesystem::exists(manager.PathFor(3)));
  EXPECT_TRUE(std::filesystem::exists(manager.PathFor(4)));
}

TEST_F(CheckpointTest, CursorMonotonicity) {
  auto manager = MustOpen();
  MinHashPredictor predictor(MinHashPredictorOptions{8, 9});
  predictor.OnEdge(Edge(0, 1));
  ASSERT_TRUE(manager.Write(predictor, 5).ok());
  // Re-publishing the newest position is a no-op, not a duplicate.
  ASSERT_TRUE(manager.Write(predictor, 5).ok());
  EXPECT_EQ(manager.entries().size(), 1u);
  // Going backwards is a caller bug.
  EXPECT_FALSE(manager.Write(predictor, 3).ok());
}

TEST_F(CheckpointTest, ReopenLoadsManifest) {
  {
    auto manager = MustOpen();
    MinHashPredictor predictor(MinHashPredictorOptions{8, 9});
    predictor.OnEdge(Edge(0, 1));
    ASSERT_TRUE(manager.Write(predictor, 10).ok());
    predictor.OnEdge(Edge(1, 2));
    ASSERT_TRUE(manager.Write(predictor, 20).ok());
  }
  auto manager = MustOpen();
  ASSERT_EQ(manager.entries().size(), 2u);
  EXPECT_EQ(manager.entries()[0].stream_edges, 10u);
  EXPECT_EQ(manager.entries()[1].stream_edges, 20u);
  EXPECT_EQ(manager.entries()[1].edges_processed, 2u);
}

TEST_F(CheckpointTest, MissingManifestRecoversByDirectoryScan) {
  {
    auto manager = MustOpen();
    MinHashPredictor predictor(MinHashPredictorOptions{8, 9});
    predictor.OnEdge(Edge(0, 1));
    ASSERT_TRUE(manager.Write(predictor, 10).ok());
    predictor.OnEdge(Edge(1, 2));
    ASSERT_TRUE(manager.Write(predictor, 20).ok());
    std::filesystem::remove(manager.ManifestPath());
  }
  auto manager = MustOpen();
  ASSERT_EQ(manager.entries().size(), 2u);
  EXPECT_EQ(manager.entries()[0].stream_edges, 10u);
  EXPECT_EQ(manager.entries()[1].stream_edges, 20u);
  EXPECT_TRUE(manager.RestoreLatest().ok());
}

TEST_F(CheckpointTest, TornManifestRecoversByDirectoryScan) {
  {
    auto manager = MustOpen();
    MinHashPredictor predictor(MinHashPredictorOptions{8, 9});
    predictor.OnEdge(Edge(0, 1));
    ASSERT_TRUE(manager.Write(predictor, 10).ok());
    // Tear the manifest in half.
    std::string bytes = ReadFileBytes(manager.ManifestPath());
    std::ofstream out(manager.ManifestPath(),
                      std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  auto manager = MustOpen();
  ASSERT_EQ(manager.entries().size(), 1u);
  EXPECT_EQ(manager.entries()[0].stream_edges, 10u);
  EXPECT_TRUE(manager.RestoreLatest().ok());
}

TEST_F(CheckpointTest, CorruptNewestFallsBackToOlder) {
  auto manager = MustOpen();
  MinHashPredictor predictor(MinHashPredictorOptions{8, 9});
  predictor.OnEdge(Edge(0, 1));
  ASSERT_TRUE(manager.Write(predictor, 10).ok());
  predictor.OnEdge(Edge(1, 2));
  ASSERT_TRUE(manager.Write(predictor, 20).ok());
  FlipByteInFile(manager.PathFor(20), 12);

  auto restored = manager.RestoreLatest();
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->entry.stream_edges, 10u);
  EXPECT_EQ(restored->predictor->edges_processed(), 1u);
}

TEST_F(CheckpointTest, AllCorruptRestoresNotFound) {
  auto manager = MustOpen();
  MinHashPredictor predictor(MinHashPredictorOptions{8, 9});
  predictor.OnEdge(Edge(0, 1));
  ASSERT_TRUE(manager.Write(predictor, 10).ok());
  predictor.OnEdge(Edge(1, 2));
  ASSERT_TRUE(manager.Write(predictor, 20).ok());
  FlipByteInFile(manager.PathFor(10), 9);
  FlipByteInFile(manager.PathFor(20), 9);

  auto restored = manager.RestoreLatest();
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kNotFound);
}

TEST_F(CheckpointTest, IngestPublisherCheckpointsTheParallelBuild) {
  auto manager = MustOpen(/*keep=*/16);
  GeneratedGraph g = MakeWorkload(WorkloadSpec{"ba", 0.02, 56});
  PredictorConfig config;
  config.kind = "minhash";
  config.sketch_size = 16;
  config.seed = 9;
  config.threads = 2;
  ParallelIngestOptions options;
  options.publish_every_edges = g.edges.size() / 4;
  options.on_publish = manager.IngestPublisher();
  ParallelIngestEngine engine(config, options);
  VectorEdgeStream stream(g.edges);
  auto built = engine.Build(stream);
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  ASSERT_FALSE(manager.entries().empty());
  // The end-of-stream publish lands the final checkpoint at the cursor.
  EXPECT_EQ(manager.entries().back().stream_edges, g.edges.size());
  auto restored = manager.RestoreLatest();
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->predictor->edges_processed(),
            (*built)->edges_processed());
}

TEST_F(CheckpointTest, WarmStartPublishesNewestCheckpoint) {
  auto manager = MustOpen();
  MinHashPredictor predictor(MinHashPredictorOptions{16, 9});
  GeneratedGraph g = MakeWorkload(WorkloadSpec{"ba", 0.02, 58});
  FeedStream(predictor, g.edges);
  ASSERT_TRUE(manager.Write(predictor, g.edges.size()).ok());

  QueryService service;
  auto warm = WarmStartFromCheckpoints(manager, service);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(*warm, g.edges.size());
  auto snapshot = service.snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->stream_edges, g.edges.size());
  EXPECT_EQ(snapshot->predictor->edges_processed(),
            predictor.edges_processed());
  EXPECT_EQ(service.live_edges(), g.edges.size());

  QueryService cold;
  CheckpointManager empty = [&] {
    auto m = CheckpointManager::Open(
        CheckpointOptions{dir_ + "_empty", 3});
    SL_CHECK(m.ok());
    return std::move(*m);
  }();
  auto miss = WarmStartFromCheckpoints(empty, cold);
  ASSERT_FALSE(miss.ok());
  EXPECT_EQ(miss.status().code(), StatusCode::kNotFound);
  std::filesystem::remove_all(dir_ + "_empty");
}

// --- Kill-and-resume equivalence ---

TEST_F(CheckpointTest, KillAndResumeMatchesUninterruptedSequentialBuild) {
  GeneratedGraph g = MakeWorkload(WorkloadSpec{"ba", 0.03, 59});
  const uint64_t total = g.edges.size();
  ASSERT_GT(total, 100u);
  const uint64_t every = total / 5;
  const uint64_t killed_at = total / 2 + 7;  // mid-cadence, past a checkpoint

  // Reference: the uninterrupted sequential build.
  const std::string ref_path = dir_ + "_ref.snap";
  MinHashPredictor reference(MinHashPredictorOptions{16, 9});
  FeedStream(reference, g.edges);
  ASSERT_TRUE(reference.Save(ref_path).ok());

  // Interrupted run: ingest with a checkpoint cadence, then "crash" —
  // simply stop mid-stream, leaving whatever checkpoints were written.
  {
    auto manager = MustOpen();
    MinHashPredictor live(MinHashPredictorOptions{16, 9});
    uint64_t cursor = 0;
    for (const Edge& e : g.edges) {
      if (cursor == killed_at) break;
      live.OnEdge(e);
      ++cursor;
      if (cursor % every == 0) {
        ASSERT_TRUE(manager.Write(live, cursor).ok());
      }
    }
  }

  // Resume in a fresh process image: restore, then ingest the rest.
  auto manager = MustOpen();
  auto restored = manager.RestoreLatest();
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_LT(restored->entry.stream_edges, killed_at);
  std::unique_ptr<LinkPredictor> resumed =
      MustResume(std::move(restored->predictor),
                 restored->entry.stream_edges, g.edges);

  const std::string resumed_path = dir_ + "_resumed.snap";
  ASSERT_TRUE(resumed->Save(resumed_path).ok());
  EXPECT_EQ(ReadFileBytes(ref_path), ReadFileBytes(resumed_path))
      << "resumed snapshot differs from the uninterrupted build's";
  std::filesystem::remove(ref_path);
  std::filesystem::remove(resumed_path);
}

// A sharded build checkpoints its kind's sequential envelope, so the
// checkpoint is the sequential build's at the same cursor, and resuming
// from it needs no fold.
TEST_F(CheckpointTest, KillAndResumeShardedBuildMatchesSequentialBuild) {
  GeneratedGraph g = MakeWorkload(WorkloadSpec{"ba", 0.03, 60});
  const uint64_t total = g.edges.size();
  const uint64_t killed_at = total / 2;

  // References: uninterrupted sequential builds of the prefix and of the
  // whole stream.
  const std::string prefix_path = dir_ + "_prefix.snap";
  MinHashPredictor prefix_reference(MinHashPredictorOptions{16, 9});
  FeedStream(prefix_reference,
             EdgeList(g.edges.begin(), g.edges.begin() + killed_at));
  ASSERT_TRUE(prefix_reference.Save(prefix_path).ok());
  const std::string ref_path = dir_ + "_ref.snap";
  MinHashPredictor reference(MinHashPredictorOptions{16, 9});
  FeedStream(reference, g.edges);
  ASSERT_TRUE(reference.Save(ref_path).ok());

  PredictorConfig config;
  config.kind = "minhash";
  config.sketch_size = 16;
  config.seed = 9;
  config.threads = 2;

  // Interrupted parallel run: the engine sees only a prefix of the stream
  // (the "kill"); its end-of-stream publish checkpoints at the prefix end.
  {
    auto manager = MustOpen();
    ParallelIngestOptions options;
    options.publish_every_edges = total;  // only the end-of-stream publish
    options.on_publish = manager.IngestPublisher();
    ParallelIngestEngine engine(config, options);
    PrefixEdgeStream prefix(std::make_unique<VectorEdgeStream>(g.edges),
                            killed_at);
    ASSERT_TRUE(engine.Build(prefix).ok());
  }

  // Resume: restore the checkpoint, ingest the remaining edges, save.
  auto manager = MustOpen();
  auto restored = manager.RestoreLatest();
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->entry.stream_edges, killed_at);
  EXPECT_EQ(ReadFileBytes(prefix_path), ReadFileBytes(restored->path))
      << "2-worker checkpoint differs from the sequential build's";
  EXPECT_EQ(restored->predictor->name(), "minhash");
  std::unique_ptr<LinkPredictor> resumed =
      MustResume(std::move(restored->predictor),
                 restored->entry.stream_edges, g.edges);

  const std::string resumed_path = dir_ + "_resumed.snap";
  ASSERT_TRUE(resumed->Save(resumed_path).ok());
  EXPECT_EQ(ReadFileBytes(ref_path), ReadFileBytes(resumed_path))
      << "resumed sharded snapshot differs from sequential build's";
  std::filesystem::remove(prefix_path);
  std::filesystem::remove(ref_path);
  std::filesystem::remove(resumed_path);
}

}  // namespace
}  // namespace streamlink
