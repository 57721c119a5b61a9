// Corpus-replay fuzzing: drives the libFuzzer targets in
// src/verify/fuzz_targets.h over (a) the checked-in corpus under
// fuzz/corpus/ and (b) thousands of seeded deterministic mutations of
// freshly-built valid inputs — so parser/loader regressions are caught by
// plain ctest, no fuzzing toolchain required. The same targets run under
// real libFuzzer via -DSTREAMLINK_FUZZ=ON (see fuzz/README.md).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/predictor_factory.h"
#include "eval/experiment.h"
#include "gen/workloads.h"
#include "net/frame.h"
#include "serve/query_codec.h"
#include "util/logging.h"
#include "verify/fuzz_targets.h"
#include "verify/invariants.h"

#ifndef STREAMLINK_FUZZ_CORPUS_DIR
#define STREAMLINK_FUZZ_CORPUS_DIR ""
#endif

namespace streamlink {
namespace {

const FuzzTarget& TargetNamed(const std::string& name) {
  static const std::vector<FuzzTarget> targets = AllFuzzTargets();
  for (const FuzzTarget& t : targets) {
    if (t.name == name) return t;
  }
  SL_LOG(kFatal) << "no fuzz target named " << name;
  __builtin_unreachable();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Snapshot seeds of envelope version 1 (an FNV-1a footer), written by
/// older builds and kept byte for byte: their names start with this
/// prefix, which WriteSeedCorpus never writes.
const char kV1SeedPrefix[] = "v1_";

/// The nested sharded envelope of an older build, which loads but which
/// no build writes any more.
const char kLegacyShardedSeed[] = "v1_sharded";

bool IsV1Seed(const std::string& name) {
  return name.rfind(kV1SeedPrefix, 0) == 0;
}

/// A snapshot of every verification kind, as this build writes it.
std::vector<std::string> FreshSnapshotSeeds() {
  GeneratedGraph g = MakeWorkload(WorkloadSpec{"ba", 0.01, 151});
  std::vector<std::string> seeds;
  for (const PredictorConfig& config : VerificationKindConfigs()) {
    auto predictor = MakePredictor(config);
    SL_CHECK(predictor.ok()) << predictor.status().ToString();
    FeedStream(**predictor, g.edges);
    // Pid-qualified so parallel ctest workers don't clobber each other.
    std::string path = ::testing::TempDir() + "/fuzz_seed_" +
                       std::to_string(::getpid()) + ".snap";
    SL_CHECK_OK((*predictor)->Save(path));
    seeds.push_back(ReadFileBytes(path));
    std::remove(path.c_str());
  }
  return seeds;
}

/// The fresh snapshots plus the corpus's nested sharded envelope — the
/// seed inputs the mutation engine works from.
std::vector<std::string> ValidSnapshotSeeds() {
  std::vector<std::string> seeds = {
      ReadFileBytes(std::string(STREAMLINK_FUZZ_CORPUS_DIR) +
                    "/snapshot_loader/" + kLegacyShardedSeed)};
  SL_CHECK(!seeds.front().empty()) << "corpus seed " << kLegacyShardedSeed;
  for (std::string& fresh : FreshSnapshotSeeds()) {
    seeds.push_back(std::move(fresh));
  }
  return seeds;
}

std::vector<std::string> EdgeListSeeds() {
  return {
      "0 1\n1 2\n2 3\n",
      "# comment\n% other comment\n10 20\n20 30\n",
      "0 1 2.5\n1 2 0.25\n",
      "4294967295 0\n",
      "a b\n0 1\n",
      "-3 7\n",
      "0 1 -2.0\n",
      "",
  };
}

TEST(FuzzReplay, CheckedInCorpusReplaysClean) {
  const std::string corpus_root = STREAMLINK_FUZZ_CORPUS_DIR;
  ASSERT_FALSE(corpus_root.empty())
      << "STREAMLINK_FUZZ_CORPUS_DIR not configured";
  for (const FuzzTarget& target : AllFuzzTargets()) {
    auto replayed = ReplayCorpusDir(corpus_root + "/" + target.name, target);
    ASSERT_TRUE(replayed.ok())
        << target.name << ": " << replayed.status().ToString();
    // An empty corpus means the harness silently tests nothing.
    EXPECT_GT(*replayed, 0u) << target.name;
  }
}

// Pins the snapshot format against the build that wrote the corpus: a
// writer change that altered every snapshot alike would still pass the
// save -> load -> save identity tests, but not this one. The version-1
// seeds re-save as version 2 (persistence_test checks how).
TEST(FuzzReplay, SnapshotCorpusReSavesToItsOwnBytes) {
  const std::string dir =
      std::string(STREAMLINK_FUZZ_CORPUS_DIR) + "/snapshot_loader";
  const std::string resaved = ::testing::TempDir() + "/corpus_resave_" +
                              std::to_string(::getpid()) + ".snap";
  size_t checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (IsV1Seed(name)) continue;
    auto loaded = LoadPredictorSnapshot(entry.path().string());
    ASSERT_TRUE(loaded.ok()) << name << ": " << loaded.status().ToString();
    ASSERT_TRUE((*loaded)->Save(resaved).ok()) << name;
    EXPECT_TRUE(ReadFileBytes(resaved) == ReadFileBytes(entry.path()))
        << name << " (" << (*loaded)->name() << ") re-saves to other bytes";
    ++checked;
  }
  std::remove(resaved.c_str());
  EXPECT_GE(checked, VerificationKindConfigs().size());
}

TEST(FuzzReplay, SnapshotLoaderSurvivesSeededMutations) {
  const FuzzTarget& target = TargetNamed("snapshot_loader");
  uint64_t seed = 0xf022;
  for (const std::string& snapshot : ValidSnapshotSeeds()) {
    // The pristine input must also replay (and re-save) cleanly.
    target.run(reinterpret_cast<const uint8_t*>(snapshot.data()),
               snapshot.size());
    MutateAndReplay(snapshot, /*iterations=*/150, seed++, target);
  }
}

TEST(FuzzReplay, EdgeParserSurvivesSeededMutations) {
  const FuzzTarget& target = TargetNamed("edge_parser");
  uint64_t seed = 0xed6e;
  for (const std::string& text : EdgeListSeeds()) {
    target.run(reinterpret_cast<const uint8_t*>(text.data()), text.size());
    MutateAndReplay(text, /*iterations=*/250, seed++, target);
  }
}

/// Valid wire frames (every type, plus payload/frame mismatches) — the
/// seed inputs the net_frame mutation runs work from.
std::vector<std::string> NetFrameSeeds() {
  std::vector<std::string> seeds;
  net::Frame frame;
  frame.type = net::FrameType::kPing;
  frame.request_id = 1;
  seeds.push_back(net::EncodeFrame(frame));

  QueryRequest request;
  request.top_k = 3;
  request.measures = {LinkMeasure::kJaccard};
  request.pairs = {QueryPair{1, 2}, QueryPair{3, 4}};
  frame.type = net::FrameType::kQuery;
  frame.request_id = 2;
  frame.payload = EncodeQueryRequest(request);
  seeds.push_back(net::EncodeFrame(frame));

  QueryResult result;
  result.meta.snapshot_version = 1;
  PairResult pr;
  pr.pair = QueryPair{1, 2};
  pr.scores = {0.5};
  result.pairs.push_back(pr);
  frame.type = net::FrameType::kResult;
  frame.request_id = 3;
  frame.payload = EncodeQueryResult(result);
  seeds.push_back(net::EncodeFrame(frame));

  NackInfo nack;
  nack.reason = NackReason::kQueueFull;
  nack.retry_after_ms = 50;
  nack.message = "queue_full";
  frame.type = net::FrameType::kNack;
  frame.request_id = 4;
  frame.payload = EncodeNack(nack);
  seeds.push_back(net::EncodeFrame(frame));

  // Two frames back to back (exercises the streaming path), and a query
  // frame whose payload is a different message kind.
  seeds.push_back(seeds[0] + seeds[1]);
  frame.type = net::FrameType::kQuery;
  frame.request_id = 5;
  frame.payload = EncodeNack(nack);
  seeds.push_back(net::EncodeFrame(frame));
  return seeds;
}

TEST(FuzzReplay, NetFrameSurvivesSeededMutations) {
  const FuzzTarget& target = TargetNamed("net_frame");
  uint64_t seed = 0x4e37;
  for (const std::string& wire : NetFrameSeeds()) {
    target.run(reinterpret_cast<const uint8_t*>(wire.data()), wire.size());
    MutateAndReplay(wire, /*iterations=*/250, seed++, target);
  }
}

// Pins the wire format against the checked-in corpus, as
// SnapshotCorpusReSavesToItsOwnBytes does the snapshot format: a codec or
// frame change that leaves the seeds behind (say, at an older codec
// version the decoders refuse) fails here.
TEST(FuzzReplay, NetFrameCorpusIsWhatThisBuildEncodes) {
  const std::string dir =
      std::string(STREAMLINK_FUZZ_CORPUS_DIR) + "/net_frame";
  const std::vector<std::string> seeds = NetFrameSeeds();
  for (size_t i = 0; i < seeds.size(); ++i) {
    const std::string name = "seed_" + std::to_string(i);
    EXPECT_TRUE(ReadFileBytes(dir + "/" + name) == seeds[i]) << name;
  }
}

TEST(FuzzReplay, TargetsRegisterStableCorpusNames) {
  // Corpus directories are keyed by target name; renames orphan corpora.
  std::vector<std::string> names;
  for (const FuzzTarget& t : AllFuzzTargets()) names.push_back(t.name);
  EXPECT_EQ(names, (std::vector<std::string>{"snapshot_loader", "edge_parser",
                                             "net_frame"}));
}

// Regenerates the checked-in seed corpus (run manually, then commit):
//   STREAMLINK_WRITE_CORPUS=1 ./build/tests/fuzz_replay_test
//     --gtest_filter='*WriteSeedCorpus*'
TEST(FuzzReplay, WriteSeedCorpus) {
  if (std::getenv("STREAMLINK_WRITE_CORPUS") == nullptr) {
    GTEST_SKIP() << "set STREAMLINK_WRITE_CORPUS=1 to regenerate the corpus";
  }
  const std::string corpus_root = STREAMLINK_FUZZ_CORPUS_DIR;
  ASSERT_FALSE(corpus_root.empty());
  auto write = [](const std::string& dir, const std::string& name,
                  const std::string& bytes) {
    std::filesystem::create_directories(dir);
    std::ofstream out(dir + "/" + name, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  std::vector<std::string> snapshots = FreshSnapshotSeeds();
  for (size_t i = 0; i < snapshots.size(); ++i) {
    write(corpus_root + "/snapshot_loader", "seed_" + std::to_string(i),
          snapshots[i]);
  }
  std::vector<std::string> texts = EdgeListSeeds();
  for (size_t i = 0; i < texts.size(); ++i) {
    write(corpus_root + "/edge_parser", "seed_" + std::to_string(i),
          texts[i]);
  }
  std::vector<std::string> frames = NetFrameSeeds();
  for (size_t i = 0; i < frames.size(); ++i) {
    write(corpus_root + "/net_frame", "seed_" + std::to_string(i),
          frames[i]);
  }
}

}  // namespace
}  // namespace streamlink
