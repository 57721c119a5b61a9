#include "cli/commands.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "persist/checkpoint.h"

namespace streamlink {
namespace {

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir();
    // Pid-qualified: each gtest case runs as its own ctest process, and
    // parallel workers share one temp dir.
    std::string prefix = dir_ + "/cli_test_" + std::to_string(::getpid());
    edges_path_ = prefix + "_edges.txt";
    snapshot_path_ = prefix + "_snapshot.bin";
  }
  void TearDown() override {
    std::remove(edges_path_.c_str());
    std::remove(snapshot_path_.c_str());
  }

  Status Run(const std::vector<std::string>& args) {
    out_.str("");
    return RunCliCommand(args, out_);
  }

  std::string output() const { return out_.str(); }

  static std::string ReadBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  /// Writes the comment lines and the first `count` edges of the edge file
  /// to `path` (the stream an interrupted run saw); returns the edge
  /// file's edge count.
  size_t WritePrefix(const std::string& path, size_t count) const {
    std::ifstream in(edges_path_);
    std::ofstream out(path);
    size_t edges = 0;
    for (std::string line; std::getline(in, line);) {
      const bool edge = !line.empty() && line[0] != '#';
      if (!edge || edges < count) out << line << "\n";
      if (edge) ++edges;
    }
    return edges;
  }

  std::string dir_, edges_path_, snapshot_path_;
  std::ostringstream out_;
};

TEST_F(CliTest, MissingCommandFails) {
  Status s = Run({});
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("usage"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandFails) {
  EXPECT_FALSE(Run({"frobnicate"}).ok());
}

TEST_F(CliTest, GenerateWritesEdgeList) {
  Status s = Run({"generate", "--workload=er", "--scale=0.02",
                  "--out=" + edges_path_});
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_NE(output().find("wrote"), std::string::npos);
  std::ifstream in(edges_path_);
  EXPECT_TRUE(in.good());
}

TEST_F(CliTest, GenerateRequiresOut) {
  EXPECT_FALSE(Run({"generate", "--workload=er"}).ok());
}

TEST_F(CliTest, GenerateRejectsUnknownWorkload) {
  EXPECT_FALSE(
      Run({"generate", "--workload=nope", "--out=" + edges_path_}).ok());
}

TEST_F(CliTest, GenerateRejectsTypoFlags) {
  Status s = Run({"generate", "--wrkload=er", "--out=" + edges_path_});
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("wrkload"), std::string::npos);
}

TEST_F(CliTest, StatsPrintsMetrics) {
  ASSERT_TRUE(Run({"generate", "--workload=ws", "--scale=0.02",
                   "--out=" + edges_path_})
                  .ok());
  Status s = Run({"stats", "--input=" + edges_path_});
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_NE(output().find("vertices"), std::string::npos);
  EXPECT_NE(output().find("clustering"), std::string::npos);
}

TEST_F(CliTest, StatsMissingFileFails) {
  EXPECT_FALSE(Run({"stats", "--input=/no/such/file"}).ok());
}

TEST_F(CliTest, BuildThenQueryRoundTrips) {
  ASSERT_TRUE(Run({"generate", "--workload=ba", "--scale=0.02",
                   "--out=" + edges_path_})
                  .ok());
  Status build = Run({"build", "--input=" + edges_path_, "--k=32",
                      "--snapshot=" + snapshot_path_});
  ASSERT_TRUE(build.ok()) << build.ToString();
  EXPECT_NE(output().find("ingested"), std::string::npos);

  Status query = Run({"query", "--snapshot=" + snapshot_path_,
                      "--pairs=0:1,0:2,5:9"});
  ASSERT_TRUE(query.ok()) << query.ToString();
  EXPECT_NE(output().find("jaccard"), std::string::npos);
  // Three data rows (plus header/rule).
  EXPECT_NE(output().find("5"), std::string::npos);
}

TEST_F(CliTest, QueryRejectsMalformedPairs) {
  ASSERT_TRUE(Run({"generate", "--workload=ba", "--scale=0.02",
                   "--out=" + edges_path_})
                  .ok());
  ASSERT_TRUE(Run({"build", "--input=" + edges_path_,
                   "--snapshot=" + snapshot_path_})
                  .ok());
  EXPECT_FALSE(
      Run({"query", "--snapshot=" + snapshot_path_, "--pairs=banana"}).ok());
  EXPECT_FALSE(Run({"query", "--snapshot=" + snapshot_path_}).ok());
}

TEST_F(CliTest, TopKPrintsRecommendations) {
  ASSERT_TRUE(Run({"generate", "--workload=ws", "--scale=0.02",
                   "--out=" + edges_path_})
                  .ok());
  Status s = Run({"topk", "--input=" + edges_path_, "--vertex=5", "--top=3",
                  "--measure=jaccard"});
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_NE(output().find("candidate"), std::string::npos);
  EXPECT_NE(output().find("jaccard"), std::string::npos);
}

TEST_F(CliTest, TopKRejectsUnknownMeasureAndBadVertex) {
  ASSERT_TRUE(Run({"generate", "--workload=ws", "--scale=0.02",
                   "--out=" + edges_path_})
                  .ok());
  EXPECT_FALSE(Run({"topk", "--input=" + edges_path_, "--vertex=5",
                    "--measure=nonsense"})
                   .ok());
  Status s = Run({"topk", "--input=" + edges_path_, "--vertex=99999999"});
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
}


TEST_F(CliTest, ComparePrintsAllSketchKinds) {
  ASSERT_TRUE(Run({"generate", "--workload=ws", "--scale=0.02",
                   "--out=" + edges_path_})
                  .ok());
  Status s = Run({"compare", "--input=" + edges_path_, "--k=32",
                  "--pairs=100"});
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_NE(output().find("minhash"), std::string::npos);
  EXPECT_NE(output().find("bottomk"), std::string::npos);
  EXPECT_NE(output().find("vertex_biased"), std::string::npos);
  EXPECT_NE(output().find("oph"), std::string::npos);
}

TEST_F(CliTest, CompareRequiresInput) {
  EXPECT_FALSE(Run({"compare"}).ok());
}

TEST_F(CliTest, BuildAndQueryCoverEveryPredictorKind) {
  ASSERT_TRUE(Run({"generate", "--workload=ba", "--scale=0.02",
                   "--out=" + edges_path_})
                  .ok());
  for (const char* kind : {"bottomk", "oph", "exact", "vertex_biased"}) {
    Status build = Run({"build", "--input=" + edges_path_,
                        std::string("--kind=") + kind,
                        "--snapshot=" + snapshot_path_});
    ASSERT_TRUE(build.ok()) << kind << ": " << build.ToString();
    Status query =
        Run({"query", "--snapshot=" + snapshot_path_, "--pairs=0:1,1:2"});
    ASSERT_TRUE(query.ok()) << kind << ": " << query.ToString();
    EXPECT_NE(output().find("jaccard"), std::string::npos);
  }
}

// Every shardable kind writes the same snapshot at any thread count.
TEST_F(CliTest, BuildIsByteIdenticalAcrossThreadCounts) {
  ASSERT_TRUE(Run({"generate", "--workload=ba", "--scale=0.02",
                   "--out=" + edges_path_})
                  .ok());
  const std::string threaded = snapshot_path_ + ".threads3";
  auto read_bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  for (const char* kind : {"minhash", "bottomk", "tcm", "oph", "exact"}) {
    for (const auto& [threads, path] :
         {std::pair<std::string, std::string>{"1", snapshot_path_},
          std::pair<std::string, std::string>{"3", threaded}}) {
      Status build = Run({"build", "--input=" + edges_path_, "--k=16",
                          std::string("--kind=") + kind,
                          "--threads=" + threads, "--snapshot=" + path});
      ASSERT_TRUE(build.ok()) << kind << ": " << build.ToString();
    }
    const std::string sequential = read_bytes(snapshot_path_);
    ASSERT_FALSE(sequential.empty()) << kind;
    EXPECT_TRUE(sequential == read_bytes(threaded))
        << kind << ": the --threads 3 snapshot differs from --threads 1";
  }
  std::remove(threaded.c_str());
}

TEST_F(CliTest, BuildCheckpointFlagsRequireDir) {
  ASSERT_TRUE(Run({"generate", "--workload=ba", "--scale=0.02",
                   "--out=" + edges_path_})
                  .ok());
  EXPECT_FALSE(Run({"build", "--input=" + edges_path_,
                    "--snapshot=" + snapshot_path_, "--checkpoint-every=100"})
                   .ok());
}

TEST_F(CliTest, InterruptedBuildResumesToIdenticalSnapshot) {
  const std::string ckpt_dir = dir_ + "/cli_test_ckpt";
  const std::string partial_edges = dir_ + "/cli_test_partial.txt";
  const std::string full_snapshot = dir_ + "/cli_test_full.snap";
  std::filesystem::remove_all(ckpt_dir);

  ASSERT_TRUE(Run({"generate", "--workload=ba", "--scale=0.03",
                   "--out=" + edges_path_})
                  .ok());
  // The uninterrupted run.
  ASSERT_TRUE(Run({"build", "--input=" + edges_path_, "--k=16", "--seed=9",
                   "--snapshot=" + full_snapshot})
                  .ok());

  // Simulated kill: the interrupted run only ever saw the first half of
  // the stream (a prefix of the file), checkpointing as it went.
  {
    std::ifstream in(edges_path_);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    std::ofstream out(partial_edges);
    for (size_t i = 0; i < lines.size() / 2; ++i) out << lines[i] << "\n";
  }
  Status interrupted =
      Run({"build", "--input=" + partial_edges, "--k=16", "--seed=9",
           "--snapshot=" + snapshot_path_, "--checkpoint-dir=" + ckpt_dir,
           "--checkpoint-every=50"});
  ASSERT_TRUE(interrupted.ok()) << interrupted.ToString();
  EXPECT_NE(output().find("checkpoints"), std::string::npos);

  // Resume against the full stream; the result must be byte-identical to
  // the uninterrupted build's snapshot.
  Status resumed =
      Run({"resume", "--input=" + edges_path_, "--checkpoint-dir=" + ckpt_dir,
           "--snapshot=" + snapshot_path_});
  ASSERT_TRUE(resumed.ok()) << resumed.ToString();
  EXPECT_NE(output().find("resumed"), std::string::npos);

  auto read_bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  EXPECT_EQ(read_bytes(full_snapshot), read_bytes(snapshot_path_));

  std::filesystem::remove_all(ckpt_dir);
  std::remove(partial_edges.c_str());
  std::remove(full_snapshot.c_str());
}

// A crash leaves checkpoints on the cadence grid but none at the point it
// stopped. Resuming from the newest grid checkpoint must write the
// uninterrupted build's bytes: for every kind, from a checkpoint of a
// 1- or 3-worker build, and for a tombstone-window build (whose window
// the end of the stream flushes).
TEST_F(CliTest, ResumeFromMidStreamCheckpointWritesUninterruptedBytes) {
  ASSERT_TRUE(Run({"generate", "--workload=ba", "--scale=0.02",
                   "--out=" + edges_path_})
                  .ok());
  const std::string prefix_path = snapshot_path_ + ".prefix";
  const std::string ckpt_dir = snapshot_path_ + ".ckpt";
  const std::string full_snapshot = snapshot_path_ + ".full";
  const size_t total = WritePrefix(prefix_path, 0);
  const uint64_t every = 100;
  const uint64_t killed_at = total / 2 / every * every + 37;
  ASSERT_LT(killed_at, total);
  WritePrefix(prefix_path, killed_at);

  std::vector<std::vector<std::string>> cases;
  for (const char* kind : {"minhash", "bottomk", "tcm", "oph", "exact"}) {
    for (const char* threads : {"--threads=1", "--threads=3"}) {
      cases.push_back({std::string("--kind=") + kind, threads});
    }
  }
  cases.push_back({"--kind=vertex_biased"});
  cases.push_back(
      {"--kind=windowed_minhash", "--window-edges=300", "--window-buckets=4"});
  cases.push_back({"--kind=minhash", "--tombstone-window=50"});

  for (const std::vector<std::string>& predictor_flags : cases) {
    std::string label;
    for (const std::string& flag : predictor_flags) label += flag + " ";
    auto build = [&](const std::string& input, const std::string& snapshot,
                     std::vector<std::string> extra) {
      std::vector<std::string> args = {"build", "--input=" + input, "--k=16",
                                       "--snapshot=" + snapshot};
      args.insert(args.end(), predictor_flags.begin(), predictor_flags.end());
      args.insert(args.end(), extra.begin(), extra.end());
      return Run(args);
    };
    std::filesystem::remove_all(ckpt_dir);
    Status full = build(edges_path_, full_snapshot, {});
    ASSERT_TRUE(full.ok()) << label << full.ToString();
    Status interrupted =
        build(prefix_path, snapshot_path_,
              {"--checkpoint-dir=" + ckpt_dir,
               "--checkpoint-every=" + std::to_string(every)});
    ASSERT_TRUE(interrupted.ok()) << label << interrupted.ToString();
    {
      // Drop the end-of-stream checkpoint, which a crash would not leave.
      auto manager = CheckpointManager::Open(CheckpointOptions{ckpt_dir, 3});
      ASSERT_TRUE(manager.ok());
      ASSERT_TRUE(std::filesystem::remove(manager->PathFor(killed_at)))
          << label;
    }

    Status resumed = Run({"resume", "--input=" + edges_path_,
                          "--checkpoint-dir=" + ckpt_dir,
                          "--checkpoint-every=" + std::to_string(every),
                          "--snapshot=" + snapshot_path_});
    ASSERT_TRUE(resumed.ok()) << label << resumed.ToString();
    EXPECT_NE(output().find("from checkpoint at stream edge " +
                            std::to_string(killed_at - 37)),
              std::string::npos)
        << label << output();
    const std::string want = ReadBytes(full_snapshot);
    ASSERT_FALSE(want.empty()) << label;
    EXPECT_TRUE(want == ReadBytes(snapshot_path_))
        << label << ": the resumed snapshot differs from the uninterrupted "
                    "build's";
  }
  std::filesystem::remove_all(ckpt_dir);
  std::remove(prefix_path.c_str());
  std::remove(full_snapshot.c_str());
}

// Without --checkpoint-every, resume checkpoints on build's default grid
// (every 10000 stream edges) and at end-of-stream, as build does.
TEST_F(CliTest, ResumeWithoutCheckpointEveryCheckpointsOnTheDefaultGrid) {
  ASSERT_TRUE(Run({"generate", "--workload=ba", "--scale=0.1",
                   "--out=" + edges_path_})
                  .ok());
  const std::string prefix_path = snapshot_path_ + ".prefix";
  const std::string ckpt_dir = snapshot_path_ + ".ckpt";
  std::filesystem::remove_all(ckpt_dir);
  const size_t total = WritePrefix(prefix_path, 4000);
  ASSERT_GT(total, 10000u);
  ASSERT_TRUE(Run({"build", "--input=" + prefix_path, "--k=16",
                   "--snapshot=" + snapshot_path_,
                   "--checkpoint-dir=" + ckpt_dir, "--checkpoint-every=1000"})
                  .ok());

  Status resumed =
      Run({"resume", "--input=" + edges_path_, "--checkpoint-dir=" + ckpt_dir,
           "--snapshot=" + snapshot_path_});
  ASSERT_TRUE(resumed.ok()) << resumed.ToString();
  auto manager = CheckpointManager::Open(CheckpointOptions{ckpt_dir, 3});
  ASSERT_TRUE(manager.ok());
  std::vector<uint64_t> cursors;
  for (const CheckpointEntry& entry : manager->entries()) {
    cursors.push_back(entry.stream_edges);
  }
  EXPECT_EQ(cursors, (std::vector<uint64_t>{4000, 10000, total}));
  std::filesystem::remove_all(ckpt_dir);
  std::remove(prefix_path.c_str());
}

TEST_F(CliTest, ResumeRequiresCheckpointDir) {
  EXPECT_FALSE(Run({"resume", "--input=" + edges_path_,
                    "--snapshot=" + snapshot_path_})
                   .ok());
}

TEST_F(CliTest, ServeBenchReportsThroughputAndStaleness) {
  ASSERT_TRUE(Run({"generate", "--workload=ba", "--scale=0.05",
                   "--out=" + edges_path_})
                  .ok());
  Status s = Run({"serve-bench", "--input=" + edges_path_, "--readers=2",
                  "--publish-edges=500", "--threads=2", "--k=16"});
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_NE(output().find("qps"), std::string::npos);
  EXPECT_NE(output().find("publishes"), std::string::npos);
  EXPECT_NE(output().find("final_staleness"), std::string::npos);
}

TEST_F(CliTest, ServeBenchRequiresInputAndCadence) {
  EXPECT_FALSE(Run({"serve-bench"}).ok());
  ASSERT_TRUE(Run({"generate", "--workload=ba", "--scale=0.02",
                   "--out=" + edges_path_})
                  .ok());
  EXPECT_FALSE(Run({"serve-bench", "--input=" + edges_path_,
                    "--publish-edges=0"})
                   .ok());
}

}  // namespace
}  // namespace streamlink

