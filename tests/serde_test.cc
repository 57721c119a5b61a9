#include "util/serde.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/minhash_predictor.h"
#include "core/predictor_factory.h"
#include "eval/experiment.h"
#include "gen/workloads.h"
#include "util/random.h"

namespace streamlink {
namespace {

class SerdeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Pid-qualified: each gtest case runs as its own ctest process, and
    // parallel workers share one temp dir.
    path_ = ::testing::TempDir() + "/serde_test_" +
            std::to_string(::getpid()) + ".bin";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(SerdeTest, PrimitivesRoundTrip) {
  {
    BinaryWriter w(path_);
    ASSERT_TRUE(w.status().ok());
    w.WriteU32(0xdeadbeef);
    w.WriteU64(0x0123456789abcdefULL);
    w.WriteDouble(3.14159);
    ASSERT_TRUE(w.Finish().ok());
  }
  BinaryReader r(path_);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ReadU32(), 0xdeadbeefu);
  EXPECT_EQ(r.ReadU64(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(r.ReadDouble(), 3.14159);
  EXPECT_TRUE(r.ok());
}

TEST_F(SerdeTest, VectorsRoundTrip) {
  std::vector<uint32_t> ints = {1, 2, 3, 4, 5};
  std::vector<double> empty;
  {
    BinaryWriter w(path_);
    w.WriteVector(ints);
    w.WriteVector(empty);
    ASSERT_TRUE(w.Finish().ok());
  }
  BinaryReader r(path_);
  EXPECT_EQ(r.ReadVector<uint32_t>(), ints);
  EXPECT_TRUE(r.ReadVector<double>().empty());
  EXPECT_TRUE(r.ok());
}

TEST_F(SerdeTest, TruncationIsDetected) {
  {
    BinaryWriter w(path_);
    w.WriteU32(7);
    ASSERT_TRUE(w.Finish().ok());
  }
  BinaryReader r(path_);
  r.ReadU32();
  EXPECT_TRUE(r.ok());
  r.ReadU64();  // past the end
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  // Subsequent reads stay failed and return zero.
  EXPECT_EQ(r.ReadU32(), 0u);
}

TEST_F(SerdeTest, ImplausibleVectorSizeIsRejected) {
  {
    BinaryWriter w(path_);
    w.WriteU64(~0ULL);  // absurd element count
    ASSERT_TRUE(w.Finish().ok());
  }
  BinaryReader r(path_);
  auto v = r.ReadVector<uint64_t>();
  EXPECT_TRUE(v.empty());
  EXPECT_FALSE(r.ok());
}

TEST_F(SerdeTest, StringsRoundTrip) {
  {
    BinaryWriter w(path_);
    w.WriteString("minhash");
    w.WriteString("");
    w.WriteString(std::string("\0binary\xff", 8));
    ASSERT_TRUE(w.Finish().ok());
  }
  BinaryReader r(path_);
  EXPECT_EQ(r.ReadString(), "minhash");
  EXPECT_EQ(r.ReadString(), "");
  EXPECT_EQ(r.ReadString(), std::string("\0binary\xff", 8));
  EXPECT_TRUE(r.ok());
}

TEST_F(SerdeTest, OverflowingVectorSizeIsRejected) {
  // Regression: 0x2000000000000001 * sizeof(uint64_t) wraps to 8, so a
  // product-form guard (size * sizeof(T) > cap) would accept it and
  // resize() would abort. The division-form guard must reject it cleanly.
  {
    BinaryWriter w(path_);
    w.WriteU64(0x2000000000000001ULL);
    ASSERT_TRUE(w.Finish().ok());
  }
  BinaryReader r(path_);
  auto v = r.ReadVector<uint64_t>();
  EXPECT_TRUE(v.empty());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  EXPECT_NE(r.status().message().find("implausible"), std::string::npos);
}

TEST_F(SerdeTest, ChecksumFooterDetectsEveryByteFlip) {
  {
    BinaryWriter w(path_);
    w.WriteU32(7);
    w.WriteVector(std::vector<uint64_t>{1, 2, 3});
    w.WriteChecksumFooter();
    ASSERT_TRUE(w.Finish().ok());
  }
  std::ifstream in(path_, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();

  auto verify = [this]() {
    BinaryReader r(path_);
    r.ReadU32();
    r.ReadVector<uint64_t>();
    return r.VerifyChecksumFooter();
  };
  ASSERT_TRUE(verify().ok());
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string flipped = bytes;
    flipped[i] = static_cast<char>(flipped[i] ^ 0xff);
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      out.write(flipped.data(), static_cast<std::streamsize>(flipped.size()));
    }
    EXPECT_FALSE(verify().ok()) << "flip at offset " << i << " undetected";
  }
}

TEST_F(SerdeTest, ChecksumFooterRejectsTrailingGarbage) {
  {
    BinaryWriter w(path_);
    w.WriteU32(7);
    w.WriteChecksumFooter();
    ASSERT_TRUE(w.Finish().ok());
  }
  {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out << "extra";
  }
  BinaryReader r(path_);
  r.ReadU32();
  EXPECT_FALSE(r.VerifyChecksumFooter().ok());
}

TEST_F(SerdeTest, WriteFileAtomicCommitsAndCleansUp) {
  ASSERT_TRUE(WriteFileAtomic(path_, [](BinaryWriter& w) {
                w.WriteU32(42);
                return w.status();
              }).ok());
  EXPECT_FALSE(std::ifstream(path_ + ".tmp").good()) << "temp file leaked";
  BinaryReader r(path_);
  EXPECT_EQ(r.ReadU32(), 42u);
  ASSERT_TRUE(r.VerifyChecksumFooter().ok());  // footer appended for us
}

TEST_F(SerdeTest, WriteFileAtomicFailureLeavesOldFileIntact) {
  ASSERT_TRUE(WriteFileAtomic(path_, [](BinaryWriter& w) {
                w.WriteU32(1);
                return w.status();
              }).ok());
  Status st = WriteFileAtomic(path_, [](BinaryWriter& w) {
    w.WriteU32(2);
    return Status::Internal("fill failed midway");
  });
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(std::ifstream(path_ + ".tmp").good()) << "temp file leaked";
  BinaryReader r(path_);
  EXPECT_EQ(r.ReadU32(), 1u) << "failed rewrite clobbered the old file";
  EXPECT_TRUE(r.VerifyChecksumFooter().ok());
}

TEST(SerdeErrors, MissingFile) {
  BinaryReader r("/nonexistent/snapshot.bin");
  EXPECT_FALSE(r.ok());
  BinaryWriter w("/nonexistent-dir-abc/out.bin");
  EXPECT_FALSE(w.status().ok());
}

class MinHashSnapshotTest : public SerdeTest {};

TEST_F(MinHashSnapshotTest, SaveLoadPreservesEveryEstimate) {
  GeneratedGraph g = MakeWorkload(WorkloadSpec{"ba", 0.03, 101});
  MinHashPredictor original(MinHashPredictorOptions{64, 9});
  FeedStream(original, g.edges);
  ASSERT_TRUE(original.Save(path_).ok());

  auto loaded = LoadPredictorSnapshot(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->name(), "minhash");
  EXPECT_EQ((*loaded)->edges_processed(), original.edges_processed());
  EXPECT_EQ((*loaded)->num_vertices(), original.num_vertices());

  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(g.num_vertices));
    VertexId v = static_cast<VertexId>(rng.NextBounded(g.num_vertices));
    OverlapEstimate a = original.EstimateOverlap(u, v);
    OverlapEstimate b = (*loaded)->EstimateOverlap(u, v);
    EXPECT_DOUBLE_EQ(a.jaccard, b.jaccard);
    EXPECT_DOUBLE_EQ(a.intersection, b.intersection);
    EXPECT_DOUBLE_EQ(a.adamic_adar, b.adamic_adar);
  }
}

TEST_F(MinHashSnapshotTest, LoadedPredictorKeepsIngesting) {
  MinHashPredictor original(MinHashPredictorOptions{32, 9});
  FeedStream(original, {{0, 1}, {0, 2}});
  ASSERT_TRUE(original.Save(path_).ok());

  auto loaded = LoadPredictorSnapshot(path_);
  ASSERT_TRUE(loaded.ok());
  (*loaded)->OnEdge(Edge(1, 2));

  MinHashPredictor reference(MinHashPredictorOptions{32, 9});
  FeedStream(reference, {{0, 1}, {0, 2}, {1, 2}});
  OverlapEstimate a = (*loaded)->EstimateOverlap(0, 1);
  OverlapEstimate b = reference.EstimateOverlap(0, 1);
  EXPECT_DOUBLE_EQ(a.jaccard, b.jaccard);
  EXPECT_DOUBLE_EQ(a.intersection, b.intersection);
}

TEST_F(MinHashSnapshotTest, GarbageFileIsRejected) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "this is not a snapshot at all";
  }
  auto loaded = LoadPredictorSnapshot(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(MinHashSnapshotTest, TruncatedSnapshotIsRejected) {
  MinHashPredictor original(MinHashPredictorOptions{32, 9});
  FeedStream(original, {{0, 1}, {1, 2}, {2, 3}});
  ASSERT_TRUE(original.Save(path_).ok());

  // Truncate the file to half its size.
  std::ifstream in(path_, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(contents.data(), contents.size() / 2);
  }
  auto loaded = LoadPredictorSnapshot(path_);
  EXPECT_FALSE(loaded.ok());
}

}  // namespace
}  // namespace streamlink
