// The observability no-interference property: binding a MetricsRegistry
// and enabling the tracer must not change a single byte of what the
// system computes. Runs the same build with instrumentation fully on vs
// fully off (the null-registry baseline) and requires byte-identical
// predictor snapshots — sequential and sharded, and through the
// checkpoint path. A metric update that perturbed predictor state, edge
// order, or serialization would fail here before it could skew results.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>

#include "gen/workloads.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/checkpoint.h"
#include "stream/edge_stream.h"
#include "stream/parallel_ingest.h"
#include "util/logging.h"

namespace streamlink {
namespace {

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

class ObsInvarianceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/obs_inv_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    obs::Tracer::Get().Disable();
    obs::Tracer::Get().Drain();
    std::filesystem::remove_all(dir_);
  }

  /// Builds the workload with instrumentation on or off and saves the
  /// predictor's snapshot; returns its bytes.
  std::string BuildAndSave(uint32_t threads, bool instrumented,
                           const std::string& tag) {
    GeneratedGraph g = MakeWorkload(WorkloadSpec{"ba", 0.03, 77});
    PredictorConfig config;
    config.kind = "minhash";
    config.sketch_size = 32;
    config.threads = threads;

    obs::MetricsRegistry registry;
    if (instrumented) obs::Tracer::Get().Enable();
    ParallelIngestOptions options;
    options.metrics = instrumented ? &registry : nullptr;
    ParallelIngestEngine engine(config, options);
    VectorEdgeStream stream(g.edges);
    auto built = engine.Build(stream);
    SL_CHECK_OK(built.status());
    if (instrumented) {
      obs::Tracer::Get().Disable();
      obs::Tracer::Get().Drain();
      // The instrumented run must actually have measured something —
      // otherwise this test compares two uninstrumented builds.
      EXPECT_GT(registry.GetCounter("ingest.edges_total").Value(), 0u);
    }

    const std::string path = dir_ + "/" + tag + ".snap";
    SL_CHECK_OK((*built)->Save(path));
    return ReadFileBytes(path);
  }

  std::string dir_;
};

TEST_F(ObsInvarianceTest, SequentialBuildIsByteIdenticalWithMetricsOn) {
  const std::string off = BuildAndSave(1, /*instrumented=*/false, "seq_off");
  const std::string on = BuildAndSave(1, /*instrumented=*/true, "seq_on");
  ASSERT_FALSE(off.empty());
  EXPECT_EQ(off, on) << "metrics/tracing changed a sequential build";
}

TEST_F(ObsInvarianceTest, ShardedBuildIsByteIdenticalWithMetricsOn) {
  const std::string off = BuildAndSave(4, /*instrumented=*/false, "par_off");
  const std::string on = BuildAndSave(4, /*instrumented=*/true, "par_on");
  ASSERT_FALSE(off.empty());
  EXPECT_EQ(off, on) << "metrics/tracing changed a sharded build";
}

TEST_F(ObsInvarianceTest, CheckpointFilesAreByteIdenticalWithMetricsOn) {
  GeneratedGraph g = MakeWorkload(WorkloadSpec{"ba", 0.03, 78});
  const uint64_t cadence = g.edges.size() / 4;
  ASSERT_GT(cadence, 0u);

  auto checkpointed_build = [&](bool instrumented, const std::string& tag) {
    PredictorConfig config;
    config.kind = "minhash";
    config.sketch_size = 32;
    config.threads = 1;
    auto manager = CheckpointManager::Open(
        CheckpointOptions{dir_ + "/" + tag, /*keep=*/8});
    SL_CHECK(manager.ok()) << manager.status().ToString();
    obs::MetricsRegistry registry;
    if (instrumented) manager->BindMetrics(&registry);

    ParallelIngestOptions options;
    options.metrics = instrumented ? &registry : nullptr;
    options.publish_every_edges = cadence;
    options.on_publish = manager->IngestPublisher();
    ParallelIngestEngine engine(config, options);
    VectorEdgeStream stream(g.edges);
    SL_CHECK_OK(engine.Build(stream).status());
    if (instrumented) {
      EXPECT_GT(registry.GetCounter("persist.checkpoints_total").Value(), 0u);
    }
    return std::move(*manager);
  };

  CheckpointManager off = checkpointed_build(false, "ckpt_off");
  CheckpointManager on = checkpointed_build(true, "ckpt_on");
  ASSERT_EQ(off.entries().size(), on.entries().size());
  ASSERT_FALSE(off.entries().empty());
  for (size_t i = 0; i < off.entries().size(); ++i) {
    EXPECT_EQ(off.entries()[i].stream_edges, on.entries()[i].stream_edges);
    EXPECT_EQ(
        ReadFileBytes(off.PathFor(off.entries()[i].stream_edges)),
        ReadFileBytes(on.PathFor(on.entries()[i].stream_edges)))
        << "checkpoint " << i << " differs with metrics bound";
  }
}

}  // namespace
}  // namespace streamlink
