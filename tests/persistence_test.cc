// Snapshot persistence across every predictor kind: Save -> Load -> Save
// byte identity, estimate preservation, and a corruption harness that
// truncates at every prefix length and flips every byte — a damaged
// snapshot must always come back as a clean error Status, never a crash
// and never a silent success.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "core/half_edge_predictor.h"
#include "core/minhash_predictor.h"
#include "core/predictor_factory.h"
#include "core/sharded_predictor.h"
#include "core/weighted_predictor.h"
#include "eval/experiment.h"
#include "gen/workloads.h"
#include "util/random.h"
#include "util/serde.h"

#ifndef STREAMLINK_FUZZ_CORPUS_DIR
#define STREAMLINK_FUZZ_CORPUS_DIR ""
#endif

namespace streamlink {
namespace {

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void ExpectSameEstimates(const LinkPredictor& a, const LinkPredictor& b,
                         VertexId num_vertices) {
  Rng rng(3);
  for (int i = 0; i < 60; ++i) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(num_vertices));
    VertexId v = static_cast<VertexId>(rng.NextBounded(num_vertices));
    OverlapEstimate ea = a.EstimateOverlap(u, v);
    OverlapEstimate eb = b.EstimateOverlap(u, v);
    EXPECT_DOUBLE_EQ(ea.degree_u, eb.degree_u);
    EXPECT_DOUBLE_EQ(ea.degree_v, eb.degree_v);
    EXPECT_DOUBLE_EQ(ea.intersection, eb.intersection);
    EXPECT_DOUBLE_EQ(ea.union_size, eb.union_size);
    EXPECT_DOUBLE_EQ(ea.jaccard, eb.jaccard);
    EXPECT_DOUBLE_EQ(ea.adamic_adar, eb.adamic_adar);
    EXPECT_DOUBLE_EQ(ea.resource_allocation, eb.resource_allocation);
  }
}

/// The nested "sharded" envelope older builds wrote (payload v1 or v2):
/// the container's counts, then `num_shards` global-indexed shards of the
/// kind of `config` (threads = 1), each a complete envelope, where shard t
/// holds every vertex u with u % num_shards == t at row u.
Status WriteLegacyShardedEnvelope(BinaryWriter& w,
                                  const PredictorConfig& config,
                                  const EdgeList& edges, uint32_t num_shards,
                                  uint32_t version) {
  std::vector<std::unique_ptr<LinkPredictor>> shards;
  for (uint32_t t = 0; t < num_shards; ++t) {
    auto shard = MakePredictor(config);
    if (!shard.ok()) return shard.status();
    shards.push_back(std::move(*shard));
  }
  uint64_t inserts = 0;
  for (const Edge& e : edges) {
    if (e.IsSelfLoop()) continue;
    ++inserts;
    for (const Edge& half : {e, Edge(e.v, e.u)}) {
      dynamic_cast<HalfEdgePredictor&>(*shards[half.u % num_shards])
          .ObserveNeighborBatch(EdgeBatch::Single(half));
    }
  }
  WriteSnapshotHeader(w, "sharded", version);
  w.WriteString(config.kind);
  w.WriteU64(inserts);
  if (version >= 2) w.WriteU64(0);  // deletes
  w.WriteU32(num_shards);
  for (const auto& shard : shards) {
    if (Status st = shard->SaveTo(w); !st.ok()) return st;
  }
  return w.status();
}

struct KindCase {
  std::string label;
  PredictorConfig config;
};

// Printed as its label, so the registered ctest ids are stable (see
// PrintTo in metamorphic_test.cc).
void PrintTo(const KindCase& c, std::ostream* os) { *os << c.label; }

std::vector<KindCase> AllKindCases() {
  std::vector<KindCase> cases;
  auto add = [&cases](std::string label, std::string kind,
                      auto... tweak) {
    KindCase c;
    c.label = std::move(label);
    c.config.kind = std::move(kind);
    c.config.sketch_size = 16;
    c.config.seed = 7;
    (tweak(c.config), ...);
    cases.push_back(std::move(c));
  };
  add("minhash", "minhash");
  add("bottomk_exact_degrees", "bottomk");
  add("bottomk_kmv_degrees", "bottomk",
      [](PredictorConfig& c) { c.sketch_degrees = true; });
  add("oph", "oph");
  add("exact", "exact");
  add("vertex_biased", "vertex_biased");
  add("windowed_minhash", "windowed_minhash", [](PredictorConfig& c) {
    c.window_edges = 80;
    c.window_buckets = 4;
  });
  add("sharded_minhash", "minhash",
      [](PredictorConfig& c) { c.threads = 3; });
  add("sharded_bottomk", "bottomk",
      [](PredictorConfig& c) { c.threads = 3; });
  add("sharded_oph", "oph", [](PredictorConfig& c) { c.threads = 3; });
  add("sharded_exact", "exact", [](PredictorConfig& c) { c.threads = 3; });
  return cases;
}

class PersistenceKindTest : public ::testing::TestWithParam<KindCase> {
 protected:
  void SetUp() override {
    // Pid-qualified: each gtest case runs as its own ctest process, and
    // parallel workers share one temp dir.
    std::string prefix =
        ::testing::TempDir() + "/persist_" + std::to_string(::getpid());
    path_a_ = prefix + "_a.snap";
    path_b_ = prefix + "_b.snap";
  }
  void TearDown() override {
    std::remove(path_a_.c_str());
    std::remove(path_b_.c_str());
  }

  /// Builds the parameterized kind and ingests a small workload.
  /// Sharded cases ingest through the synchronous routing path.
  std::unique_ptr<LinkPredictor> BuildIngested() {
    const PredictorConfig& config = GetParam().config;
    Result<std::unique_ptr<LinkPredictor>> built =
        config.threads > 1
            ? Result<std::unique_ptr<LinkPredictor>>(
                  [&]() -> Result<std::unique_ptr<LinkPredictor>> {
                    auto sharded = ShardedPredictor::Make(config);
                    if (!sharded.ok()) return sharded.status();
                    return std::unique_ptr<LinkPredictor>(
                        std::move(*sharded));
                  }())
            : MakePredictor(config);
    SL_CHECK(built.ok()) << built.status().ToString();
    GeneratedGraph g = MakeWorkload(WorkloadSpec{"ba", 0.03, 101});
    num_vertices_ = g.num_vertices;
    FeedStream(**built, g.edges);
    return std::move(*built);
  }

  std::string path_a_, path_b_;
  VertexId num_vertices_ = 0;
};

TEST_P(PersistenceKindTest, SaveLoadSaveIsByteIdentical) {
  auto original = BuildIngested();
  ASSERT_TRUE(original->Save(path_a_).ok());

  auto loaded = LoadPredictorSnapshot(path_a_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // A sharded build saves its kind's sequential envelope, which loads as
  // a plain predictor of the kind.
  EXPECT_EQ((*loaded)->name(), GetParam().config.kind);
  EXPECT_EQ((*loaded)->edges_processed(), original->edges_processed());
  EXPECT_EQ((*loaded)->num_vertices(), original->num_vertices());
  ExpectSameEstimates(*original, **loaded, num_vertices_);

  ASSERT_TRUE((*loaded)->Save(path_b_).ok());
  std::string a = ReadFileBytes(path_a_);
  std::string b = ReadFileBytes(path_b_);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "second-generation snapshot differs from the first";
}

TEST_P(PersistenceKindTest, LoadedPredictorKeepsIngesting) {
  auto original = BuildIngested();
  ASSERT_TRUE(original->Save(path_a_).ok());
  auto loaded = LoadPredictorSnapshot(path_a_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Both sides ingest the same suffix; they must stay in lockstep.
  EdgeList more = {{0, 5}, {1, 6}, {2, 7}, {3, 8}};
  FeedStream(*original, more);
  FeedStream(**loaded, more);
  EXPECT_EQ((*loaded)->edges_processed(), original->edges_processed());
  ExpectSameEstimates(*original, **loaded, num_vertices_);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, PersistenceKindTest, ::testing::ValuesIn(AllKindCases()),
    [](const ::testing::TestParamInfo<KindCase>& info) {
      return info.param.label;
    });

// --- Corruption harness ---

class CorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string prefix =
        ::testing::TempDir() + "/corrupt_" + std::to_string(::getpid());
    path_ = prefix + "_src.snap";
    mangled_ = prefix + "_mangled.snap";
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove(mangled_.c_str());
  }

  /// Every prefix truncation and every single-byte flip of `bytes` must
  /// load as a clean error: never a crash, never a silent success.
  void ExpectAllDamageDetected(const std::string& bytes) {
    ASSERT_FALSE(bytes.empty());
    for (size_t len = 0; len < bytes.size(); ++len) {
      WriteFileBytes(mangled_, bytes.substr(0, len));
      auto loaded = LoadPredictorSnapshot(mangled_);
      EXPECT_FALSE(loaded.ok()) << "truncation to " << len
                                << " bytes loaded successfully";
    }
    for (size_t i = 0; i < bytes.size(); ++i) {
      std::string flipped = bytes;
      flipped[i] = static_cast<char>(flipped[i] ^ 0xff);
      WriteFileBytes(mangled_, flipped);
      auto loaded = LoadPredictorSnapshot(mangled_);
      EXPECT_FALSE(loaded.ok()) << "byte flip at offset " << i
                                << " loaded successfully";
    }
  }

  std::string path_, mangled_;
};

TEST_F(CorruptionTest, MinHashSnapshotDetectsAllDamage) {
  MinHashPredictor predictor(MinHashPredictorOptions{4, 9});
  FeedStream(predictor, {{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}});
  ASSERT_TRUE(predictor.Save(path_).ok());
  ExpectAllDamageDetected(ReadFileBytes(path_));
}

TEST_F(CorruptionTest, ShardedSnapshotDetectsAllDamage) {
  PredictorConfig config;
  config.kind = "minhash";
  config.sketch_size = 4;
  config.seed = 9;
  config.threads = 2;
  auto sharded = ShardedPredictor::Make(config);
  ASSERT_TRUE(sharded.ok());
  FeedStream(**sharded, {{0, 1}, {0, 2}, {1, 2}, {2, 3}});
  ASSERT_TRUE((*sharded)->Save(path_).ok());
  ExpectAllDamageDetected(ReadFileBytes(path_));
}

TEST_F(CorruptionTest, WindowedSnapshotDetectsAllDamage) {
  PredictorConfig config;
  config.kind = "windowed_minhash";
  config.sketch_size = 4;
  config.seed = 9;
  config.window_edges = 8;
  config.window_buckets = 2;
  auto predictor = MakePredictor(config);
  ASSERT_TRUE(predictor.ok());
  FeedStream(**predictor,
             {{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}});
  ASSERT_TRUE((*predictor)->Save(path_).ok());
  ExpectAllDamageDetected(ReadFileBytes(path_));
}

// A checked-in snapshot of envelope version 1 (an FNV-1a footer): a
// five-edge minhash build of an older release.
TEST_F(CorruptionTest, V1CorpusSnapshotDetectsAllDamage) {
  const std::string seed = std::string(STREAMLINK_FUZZ_CORPUS_DIR) +
                           "/snapshot_loader/v1_minhash_small";
  ASSERT_TRUE(LoadPredictorSnapshot(seed).ok());
  ExpectAllDamageDetected(ReadFileBytes(seed));
}

// --- Targeted invalid-content cases ---

class InvalidSnapshotTest : public CorruptionTest {};

TEST_F(InvalidSnapshotTest, UnknownKindIsRejected) {
  {
    Status st = WriteFileAtomic(path_, [](BinaryWriter& w) {
      WriteSnapshotHeader(w, "alien", 1);
      w.WriteU64(0);
      return w.status();
    });
    ASSERT_TRUE(st.ok());
  }
  auto loaded = LoadPredictorSnapshot(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("alien"), std::string::npos);
}

TEST_F(InvalidSnapshotTest, DegreeTableMismatchIsRejected) {
  // A minhash payload claiming 3 degree entries over a 2-vertex store —
  // the lockstep-invariant violation the loader must catch before it
  // constructs anything.
  {
    Status st = WriteFileAtomic(path_, [](BinaryWriter& w) {
      WriteSnapshotHeader(w, "minhash", 1);
      w.WriteU32(4);                                  // num_hashes
      w.WriteU64(9);                                  // seed
      w.WriteU64(2);                                  // edges_processed
      w.WriteVector(std::vector<uint32_t>{1, 2, 3});  // 3 degrees...
      w.WriteU64(2);                                  // ...2 vertices
      return w.status();
    });
    ASSERT_TRUE(st.ok());
  }
  auto loaded = LoadPredictorSnapshot(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("degree table"),
            std::string::npos);
}

// A tombstone envelope may hold only a registered kind that cannot
// delete: neither a deletable kind nor a container envelope, so a chain
// of nested envelopes is rejected at its second header, not recursed.
TEST_F(InvalidSnapshotTest, TombstoneAroundNonInsertOnlyKindIsRejected) {
  const EdgeList edges = {{0, 1}, {1, 2}};
  auto expect_rejected = [&](const std::string& label,
                             const std::function<Status(BinaryWriter&)>&
                                 write_inner) {
    Status st = WriteFileAtomic(path_, [&](BinaryWriter& w) {
      WriteSnapshotHeader(w, "tombstone", 1);
      w.WriteU32(4);              // window
      w.WriteU64(0);              // unretractable deletes
      w.WriteU64(2);              // edges
      w.WriteU64(0);              // deletes
      w.WriteVector(EdgeList{});  // pending inserts
      return write_inner(w);
    });
    ASSERT_TRUE(st.ok()) << label;
    auto loaded = LoadPredictorSnapshot(path_);
    ASSERT_FALSE(loaded.ok()) << label;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << label << ": " << loaded.status().ToString();
  };
  PredictorConfig tcm;
  tcm.kind = "tcm";
  PredictorConfig tombstone_minhash;
  tombstone_minhash.tombstone_window = 4;
  for (const PredictorConfig& config : {tcm, tombstone_minhash}) {
    auto inner = MakePredictor(config);
    ASSERT_TRUE(inner.ok());
    FeedStream(**inner, edges);
    expect_rejected((*inner)->name(),
                    [&](BinaryWriter& w) { return (*inner)->SaveTo(w); });
  }
  expect_rejected("nested sharded", [&](BinaryWriter& w) {
    return WriteLegacyShardedEnvelope(w, PredictorConfig{}, edges,
                                      /*num_shards=*/2, /*version=*/2);
  });
}

// An exact graph names only its own vertices and holds no self-loops.
// (Only a shard of the nested sharded envelope, which counts no edges,
// may list neighbors past its own rows.)
TEST_F(InvalidSnapshotTest, ExactNeighborsOutsideTheGraphAreRejected) {
  for (const std::vector<VertexId>& neighbors_of_0 :
       {std::vector<VertexId>{5}, std::vector<VertexId>{0}}) {
    Status st = WriteFileAtomic(path_, [&](BinaryWriter& w) {
      WriteSnapshotHeader(w, "exact", 1);
      w.WriteU64(1);  // edges
      w.WriteU64(1);  // num_edges
      w.WriteU64(2);  // vertices
      w.WriteVector(neighbors_of_0);
      w.WriteVector(std::vector<VertexId>{});
      return w.status();
    });
    ASSERT_TRUE(st.ok());
    auto loaded = LoadPredictorSnapshot(path_);
    ASSERT_FALSE(loaded.ok()) << "neighbor " << neighbors_of_0[0];
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(InvalidSnapshotTest, ImplausibleShardCountIsRejected) {
  {
    Status st = WriteFileAtomic(path_, [](BinaryWriter& w) {
      WriteSnapshotHeader(w, "sharded", 2);
      w.WriteString("minhash");
      w.WriteU64(0);           // edges
      w.WriteU64(0);           // deletes
      w.WriteU32(UINT32_MAX);  // shards, none of which follow
      return w.status();
    });
    ASSERT_TRUE(st.ok());
  }
  EXPECT_FALSE(LoadPredictorSnapshot(path_).ok());
}

// Queries pair any two shards, so a sharded snapshot whose shards differ
// in options (here num_hashes 64 and 32) is corrupt even though each shard
// decodes and the checksum holds.
TEST_F(InvalidSnapshotTest, ShardsConfiguredUnlikeShardZeroAreRejected) {
  MinHashPredictor wide(MinHashPredictorOptions{64, 9});
  MinHashPredictor narrow(MinHashPredictorOptions{32, 9});
  FeedStream(wide, {{0, 2}});
  FeedStream(narrow, {{1, 3}});
  {
    Status st = WriteFileAtomic(path_, [&](BinaryWriter& w) {
      WriteSnapshotHeader(w, "sharded", 2);
      w.WriteString("minhash");
      w.WriteU64(2);  // edges
      w.WriteU64(0);  // deletes
      w.WriteU32(2);  // shards
      if (Status shard = wide.SaveTo(w); !shard.ok()) return shard;
      return narrow.SaveTo(w);
    });
    ASSERT_TRUE(st.ok());
  }
  auto loaded = LoadPredictorSnapshot(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("shard 1"), std::string::npos)
      << loaded.status().ToString();
}

// The raw decoders (no checksum, as a nested envelope reaches them) check
// every declared count against the bytes that remain before allocating:
// each envelope below claims far more rows than its few bytes hold, and
// decodes to the truncation IoError instead of a huge allocation.
TEST_F(InvalidSnapshotTest, RawCountsBeyondTheInputFailAsTruncation) {
  std::vector<std::string> inputs;
  {
    BinaryWriter w;  // exact: 2^32 - 1 vertices
    WriteSnapshotHeader(w, "exact", 1);
    w.WriteU64(0);           // edges
    w.WriteU64(0);           // num_edges
    w.WriteU64(UINT32_MAX);  // vertices
    inputs.push_back(w.TakeBytes());
  }
  {
    BinaryWriter w;  // windowed_minhash: 2^40 vertices
    WriteSnapshotHeader(w, "windowed_minhash", 1);
    w.WriteU32(4);           // num_hashes
    w.WriteU64(8);           // window_edges
    w.WriteU32(2);           // num_buckets
    w.WriteU64(9);           // seed
    w.WriteU64(0);           // edges
    w.WriteU64(1ULL << 40);  // vertices
    inputs.push_back(w.TakeBytes());
  }
  {
    BinaryWriter w;  // minhash: a 2^27-entry degree table
    WriteSnapshotHeader(w, "minhash", 1);
    w.WriteU32(4);           // num_hashes
    w.WriteU64(9);           // seed
    w.WriteU64(0);           // edges
    w.WriteU64(1ULL << 27);  // degree count, no entries follow
    inputs.push_back(w.TakeBytes());
  }
  for (const std::string& input : inputs) {
    BinaryReader reader(input);
    auto loaded = LoadPredictorFrom(reader);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
    EXPECT_EQ(loaded.status().message(), "unexpected end of input");
  }
}

TEST_F(InvalidSnapshotTest, SiblingKindsPointAtTheirOwnLoader) {
  WeightedJaccardPredictor weighted(WeightedPredictorOptions{8, 9});
  weighted.OnWeightedEdge(0, 1, 2.5);
  ASSERT_TRUE(weighted.Save(path_).ok());
  auto loaded = LoadPredictorSnapshot(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("WeightedJaccardPredictor::Load"),
            std::string::npos);
}

// --- Nested sharded envelopes of older builds (read only) ---

class LegacyShardedSnapshotTest : public CorruptionTest {};

// v1 and v2 files load as the plain kind, answer as the sequential build
// of the same stream does, and re-save as its snapshot, byte for byte.
TEST_F(LegacyShardedSnapshotTest, LoadsAsTheSequentialBuild) {
  GeneratedGraph g = MakeWorkload(WorkloadSpec{"ba", 0.03, 101});
  for (const char* kind : {"minhash", "oph", "exact"}) {
    PredictorConfig config;
    config.kind = kind;
    config.sketch_size = 16;
    config.seed = 7;
    auto sequential = MakePredictor(config);
    ASSERT_TRUE(sequential.ok());
    FeedStream(**sequential, g.edges);
    ASSERT_TRUE((*sequential)->Save(mangled_).ok());
    const std::string want = ReadFileBytes(mangled_);
    for (uint32_t version : {1u, 2u}) {
      const std::string label = std::string(kind) + " v" +
                                std::to_string(version);
      ASSERT_TRUE(WriteFileAtomic(path_, [&](BinaryWriter& w) {
                    return WriteLegacyShardedEnvelope(w, config, g.edges,
                                                      /*num_shards=*/3,
                                                      version);
                  }).ok());
      auto loaded = LoadPredictorSnapshot(path_);
      ASSERT_TRUE(loaded.ok()) << label << ": " << loaded.status().ToString();
      EXPECT_EQ((*loaded)->name(), kind) << label;
      EXPECT_EQ((*loaded)->edges_processed(),
                (*sequential)->edges_processed())
          << label;
      EXPECT_EQ((*loaded)->num_vertices(), (*sequential)->num_vertices())
          << label;
      ExpectSameEstimates(**sequential, **loaded, g.num_vertices);
      ASSERT_TRUE((*loaded)->Save(mangled_).ok()) << label;
      EXPECT_TRUE(ReadFileBytes(mangled_) == want)
          << label << " re-saves to other bytes than the sequential build";
    }
  }
}

TEST_F(LegacyShardedSnapshotTest, DetectsAllDamage) {
  PredictorConfig config;
  config.kind = "minhash";
  config.sketch_size = 4;
  config.seed = 9;
  ASSERT_TRUE(WriteFileAtomic(path_, [&](BinaryWriter& w) {
                return WriteLegacyShardedEnvelope(
                    w, config, {{0, 1}, {0, 2}, {1, 2}, {2, 3}},
                    /*num_shards=*/2, /*version=*/2);
              }).ok());
  ExpectAllDamageDetected(ReadFileBytes(path_));
}

// --- Envelope version 1 (an FNV-1a footer, read only) ---

/// The checked-in snapshots older builds wrote, of envelope version 1:
/// one per verification kind but tcm, a nested sharded envelope and a
/// small minhash snapshot.
std::vector<std::filesystem::path> V1CorpusSeeds() {
  std::vector<std::filesystem::path> seeds;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(STREAMLINK_FUZZ_CORPUS_DIR) + "/snapshot_loader")) {
    if (entry.path().filename().string().rfind("v1_", 0) == 0) {
      seeds.push_back(entry.path());
    }
  }
  std::sort(seeds.begin(), seeds.end());
  return seeds;
}

/// The version-1 snapshot `bytes` as this build writes it: every envelope
/// version word (a snapshot magic followed by version 1) set to 2, and a
/// Checksum footer in place of the FNV-1a one.
std::string AsEnvelopeV2(std::string bytes) {
  const size_t body = bytes.size() - sizeof(uint64_t);
  for (size_t at = 0; at + 2 * sizeof(uint32_t) <= body; ++at) {
    uint32_t magic = 0, version = 0;
    std::memcpy(&magic, bytes.data() + at, sizeof(magic));
    std::memcpy(&version, bytes.data() + at + sizeof(magic), sizeof(version));
    if (magic == kSnapshotMagic && version == kSnapshotEnvelopeVersionFnv1a) {
      std::memcpy(&bytes[at + sizeof(magic)], &kSnapshotEnvelopeVersion,
                  sizeof(version));
    }
  }
  const uint64_t footer = ChecksumOf(bytes.data(), body);
  std::memcpy(&bytes[body], &footer, sizeof(footer));
  return bytes;
}

class EnvelopeV1Test : public CorruptionTest {};

// Each seed loads, answers as its re-save does, and re-saves as version
// 2 with nothing else changed: the payload bytes are the seed's own.
TEST_F(EnvelopeV1Test, CorpusSeedsAnswerAsTheirV2ReSaves) {
  const std::vector<std::filesystem::path> seeds = V1CorpusSeeds();
  ASSERT_EQ(seeds.size(), 9u);
  for (const std::filesystem::path& seed : seeds) {
    const std::string name = seed.filename().string();
    const std::string bytes = ReadFileBytes(seed.string());
    uint32_t version = 0;
    ASSERT_GE(bytes.size(), 2 * sizeof(uint32_t)) << name;
    std::memcpy(&version, bytes.data() + sizeof(uint32_t), sizeof(version));
    ASSERT_EQ(version, kSnapshotEnvelopeVersionFnv1a) << name;

    auto v1 = LoadPredictorSnapshot(seed.string());
    ASSERT_TRUE(v1.ok()) << name << ": " << v1.status().ToString();
    ASSERT_TRUE((*v1)->Save(path_).ok()) << name;
    auto v2 = LoadPredictorSnapshot(path_);
    ASSERT_TRUE(v2.ok()) << name << ": " << v2.status().ToString();
    EXPECT_EQ((*v2)->name(), (*v1)->name()) << name;
    EXPECT_EQ((*v2)->edges_processed(), (*v1)->edges_processed()) << name;
    EXPECT_EQ((*v2)->num_vertices(), (*v1)->num_vertices()) << name;
    ExpectSameEstimates(**v1, **v2, (*v1)->num_vertices());

    // The nested sharded envelope re-saves as its kind's own envelope.
    if (name == "v1_sharded") continue;
    EXPECT_TRUE(ReadFileBytes(path_) == AsEnvelopeV2(bytes))
        << name << " re-saves to more than new version words and footer";
  }
}

// --- Sibling kind (not a LinkPredictor): weighted ---

class SiblingPersistenceTest : public CorruptionTest {};

TEST_F(SiblingPersistenceTest, WeightedRoundTripIsByteIdentical) {
  WeightedJaccardPredictor original(WeightedPredictorOptions{16, 7});
  GeneratedGraph g = MakeWorkload(WorkloadSpec{"ba", 0.02, 77});
  for (size_t i = 0; i < g.edges.size(); ++i) {
    original.OnWeightedEdge(g.edges[i].u, g.edges[i].v,
                            1.0 + static_cast<double>(i % 7));
  }
  ASSERT_TRUE(original.Save(path_).ok());

  auto loaded = WeightedJaccardPredictor::Load(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->edges_processed(), original.edges_processed());
  EXPECT_EQ(loaded->num_vertices(), original.num_vertices());
  Rng rng(5);
  for (int i = 0; i < 60; ++i) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(g.num_vertices));
    VertexId v = static_cast<VertexId>(rng.NextBounded(g.num_vertices));
    auto ea = original.Estimate(u, v);
    auto eb = loaded->Estimate(u, v);
    EXPECT_DOUBLE_EQ(ea.generalized_jaccard, eb.generalized_jaccard);
    EXPECT_DOUBLE_EQ(ea.min_sum, eb.min_sum);
    EXPECT_DOUBLE_EQ(ea.strength_u, eb.strength_u);
  }

  ASSERT_TRUE(loaded->Save(mangled_).ok());
  EXPECT_EQ(ReadFileBytes(path_), ReadFileBytes(mangled_));
}

TEST_F(SiblingPersistenceTest, WeightedTruncationAndFlipsAreDetected) {
  WeightedJaccardPredictor predictor(WeightedPredictorOptions{4, 9});
  predictor.OnWeightedEdge(0, 1, 1.5);
  predictor.OnWeightedEdge(1, 2, 2.5);
  ASSERT_TRUE(predictor.Save(path_).ok());
  const std::string bytes = ReadFileBytes(path_);
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteFileBytes(mangled_, bytes.substr(0, len));
    EXPECT_FALSE(WeightedJaccardPredictor::Load(mangled_).ok());
  }
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string flipped = bytes;
    flipped[i] = static_cast<char>(flipped[i] ^ 0xff);
    WriteFileBytes(mangled_, flipped);
    EXPECT_FALSE(WeightedJaccardPredictor::Load(mangled_).ok());
  }
}

}  // namespace
}  // namespace streamlink
