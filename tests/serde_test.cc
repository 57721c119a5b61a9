#include "util/serde.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
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

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST_F(SerdeTest, PrimitivesRoundTrip) {
  BinaryWriter w;
  w.WriteU32(0xdeadbeef);
  w.WriteU64(0x0123456789abcdefULL);
  w.WriteDouble(3.14159);
  ASSERT_TRUE(w.status().ok());
  const std::string bytes = w.TakeBytes();
  EXPECT_EQ(bytes.size(), 20u);
  BinaryReader r(bytes);
  EXPECT_EQ(r.ReadU32(), 0xdeadbeefu);
  EXPECT_EQ(r.ReadU64(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(r.ReadDouble(), 3.14159);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST_F(SerdeTest, VectorsRoundTrip) {
  std::vector<uint32_t> ints = {1, 2, 3, 4, 5};
  std::vector<double> empty;
  BinaryWriter w;
  w.WriteVector(ints);
  w.WriteVector(empty);
  const std::string bytes = w.TakeBytes();
  BinaryReader r(bytes);
  EXPECT_EQ(r.ReadVector<uint32_t>(), ints);
  EXPECT_TRUE(r.ReadVector<double>().empty());
  EXPECT_TRUE(r.ok());
}

TEST_F(SerdeTest, TruncationIsDetected) {
  BinaryWriter w;
  w.WriteU32(7);
  const std::string bytes = w.TakeBytes();
  BinaryReader r(bytes);
  r.ReadU32();
  EXPECT_TRUE(r.ok());
  r.ReadU64();  // past the end
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  EXPECT_EQ(r.status().message(), "unexpected end of input");
  // Subsequent reads stay failed and return zero.
  EXPECT_EQ(r.ReadU32(), 0u);
}

TEST_F(SerdeTest, ImplausibleVectorSizeIsRejected) {
  BinaryWriter w;
  w.WriteU64(~0ULL);  // absurd element count
  const std::string bytes = w.TakeBytes();
  BinaryReader r(bytes);
  auto v = r.ReadVector<uint64_t>();
  EXPECT_TRUE(v.empty());
  EXPECT_FALSE(r.ok());
}

TEST_F(SerdeTest, StringsRoundTrip) {
  BinaryWriter w;
  w.WriteString("minhash");
  w.WriteString("");
  w.WriteString(std::string("\0binary\xff", 8));
  const std::string bytes = w.TakeBytes();
  BinaryReader r(bytes);
  EXPECT_EQ(r.ReadString(), "minhash");
  EXPECT_EQ(r.ReadString(), "");
  EXPECT_EQ(r.ReadString(), std::string("\0binary\xff", 8));
  EXPECT_TRUE(r.ok());
}

TEST_F(SerdeTest, OverflowingVectorSizeIsRejected) {
  // Regression: 0x2000000000000001 * sizeof(uint64_t) wraps to 8, so a
  // product-form guard (size * sizeof(T) > cap) would accept it and
  // resize() would abort. The division-form guard must reject it cleanly.
  BinaryWriter w;
  w.WriteU64(0x2000000000000001ULL);
  const std::string bytes = w.TakeBytes();
  BinaryReader r(bytes);
  auto v = r.ReadVector<uint64_t>();
  EXPECT_TRUE(v.empty());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  EXPECT_NE(r.status().message().find("implausible"), std::string::npos);
}

// A declared length within the caps but beyond the input fails as a
// truncation before the reader allocates room for it.
TEST_F(SerdeTest, CountsBeyondTheRemainingBytesFailAsTruncation) {
  BinaryWriter w;
  w.WriteU64(1000);  // string length, 3 bytes follow
  w.WriteBytes("abc", 3);
  std::string bytes = w.TakeBytes();
  {
    BinaryReader r(bytes);
    EXPECT_TRUE(r.ReadString().empty());
    EXPECT_EQ(r.status().code(), StatusCode::kIoError);
    EXPECT_EQ(r.status().message(), "unexpected end of input");
  }
  {
    BinaryReader r(bytes);  // the same length read as 1000 u64s
    EXPECT_TRUE(r.ReadVector<uint64_t>().empty());
    EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  }
  {
    BinaryReader r(bytes);
    r.ReadU64();
    EXPECT_TRUE(r.CheckCount(3, 1));
    EXPECT_TRUE(r.CheckCount(0, 8));
    EXPECT_FALSE(r.CheckCount(1, 8));
    EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  }
}

TEST_F(SerdeTest, ChecksumFooterDetectsEveryByteFlip) {
  BinaryWriter w;
  w.WriteU32(7);
  w.WriteVector(std::vector<uint64_t>{1, 2, 3});
  w.WriteChecksumFooter();
  const std::string bytes = w.TakeBytes();

  auto verify = [](std::string_view input) {
    BinaryReader r(input);
    r.ReadU32();
    r.ReadVector<uint64_t>();
    return r.VerifyChecksumFooter();
  };
  ASSERT_TRUE(verify(bytes).ok());
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string flipped = bytes;
    flipped[i] = static_cast<char>(flipped[i] ^ 0xff);
    EXPECT_FALSE(verify(flipped).ok()) << "flip at offset " << i
                                       << " undetected";
  }
}

TEST_F(SerdeTest, ChecksumFooterRejectsTrailingGarbage) {
  BinaryWriter w;
  w.WriteU32(7);
  w.WriteChecksumFooter();
  const std::string bytes = w.TakeBytes() + "extra";
  BinaryReader r(bytes);
  r.ReadU32();
  EXPECT_FALSE(r.VerifyChecksumFooter().ok());
}

/// `size` pseudo-random bytes.
std::string RandomBytes(size_t size, uint64_t seed) {
  Rng rng(seed);
  std::string bytes(size, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.NextBounded(256));
  return bytes;
}

uint64_t DigestOf(std::string_view bytes) {
  return ChecksumOf(bytes.data(), bytes.size());
}

TEST(Checksum, StreamingUpdatesEqualTheOneShotDigest) {
  const std::string bytes = RandomBytes(300, 1);
  const uint64_t whole = DigestOf(bytes);
  for (size_t split = 0; split <= bytes.size(); ++split) {
    Checksum streaming;
    streaming.Update(bytes.data(), split);
    streaming.Update(bytes.data() + split, bytes.size() - split);
    EXPECT_EQ(streaming.Digest(), whole) << "split at " << split;
  }
  Checksum bytewise;
  for (const char c : bytes) {
    bytewise.Update(&c, 1);
    bytewise.Update(nullptr, 0);
  }
  EXPECT_EQ(bytewise.Digest(), whole);
  // Digest leaves the state as it was: more bytes keep streaming.
  Checksum resumed;
  resumed.Update(bytes.data(), 100);
  EXPECT_EQ(resumed.Digest(), DigestOf(std::string_view(bytes).substr(0, 100)));
  resumed.Update(bytes.data() + 100, bytes.size() - 100);
  EXPECT_EQ(resumed.Digest(), whole);
}

// A file writer updates the digest once per drained chunk: splits around
// the chunk size, and a chunk plus every tail length, give the one-shot
// digest.
TEST(Checksum, StreamingAcrossTheDrainBoundaryEqualsTheOneShotDigest) {
  const std::string bytes = RandomBytes(kWriteChunkBytes + 100, 2);
  const uint64_t whole = DigestOf(bytes);
  for (size_t split = kWriteChunkBytes - 40; split <= kWriteChunkBytes + 40;
       ++split) {
    Checksum streaming;
    streaming.Update(bytes.data(), split);
    streaming.Update(bytes.data() + split, bytes.size() - split);
    EXPECT_EQ(streaming.Digest(), whole) << "split at " << split;
  }
  for (size_t tail = 0; tail <= 100; ++tail) {
    Checksum streaming;
    streaming.Update(bytes.data(), kWriteChunkBytes);
    streaming.Update(bytes.data() + kWriteChunkBytes, tail);
    EXPECT_EQ(streaming.Digest(),
              DigestOf(std::string_view(bytes).substr(0,
                                                      kWriteChunkBytes + tail)))
        << "tail of " << tail;
  }
}

TEST(Checksum, EverySingleBitFlipChangesTheDigest) {
  for (size_t size = 0; size <= 64; ++size) {
    const std::string bytes = RandomBytes(size, 100 + size);
    const uint64_t digest = DigestOf(bytes);
    for (size_t bit = 0; bit < 8 * size; ++bit) {
      std::string flipped = bytes;
      flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
      EXPECT_NE(DigestOf(flipped), digest)
          << "bit " << bit << " of " << size << " bytes";
    }
  }
}

// The last partial word is zero-padded; the length folded into the
// digest tells the padding from zero bytes.
TEST(Checksum, AppendingAZeroByteChangesTheDigest) {
  for (size_t size = 0; size <= 64; ++size) {
    const std::string bytes = RandomBytes(size, 200 + size);
    EXPECT_NE(DigestOf(bytes + '\0'), DigestOf(bytes)) << size << " bytes";
    EXPECT_NE(DigestOf(std::string(size + 1, '\0')),
              DigestOf(std::string(size, '\0')))
        << size << " zero bytes";
  }
}

// Pins the algorithm: every version-2 snapshot and version-3 codec
// message carries this digest, so a change to it is a format change.
TEST(Checksum, DigestOfAFixedInputIsPinned) {
  std::string bytes(256, '\0');
  for (size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<char>(i);
  EXPECT_EQ(DigestOf(""), 0x87798b3a60e79208ULL);
  EXPECT_EQ(DigestOf(bytes.substr(0, 7)), 0x1183706d30774e9fULL);
  EXPECT_EQ(DigestOf(bytes), 0xcbbc6ad90624e5abULL);
}

/// The two words ReadFileVerified reads before the checksum: the
/// snapshot magic and the envelope version, which names the footer.
void WriteEnvelopeWords(BinaryWriter& w,
                        uint32_t version = kSnapshotEnvelopeVersion) {
  w.WriteU32(kSnapshotMagic);
  w.WriteU32(version);
}

/// Reads the envelope words and then one u32 from a verified file; 0 when
/// it does not verify.
uint32_t ReadVerifiedU32(const std::string& path) {
  uint32_t value = 0;
  Status st = ReadFileVerified(path, [&value](BinaryReader& r) {
    r.ReadU32();
    r.ReadU32();
    value = r.ReadU32();
    return r.status();
  });
  return st.ok() ? value : 0;
}

TEST_F(SerdeTest, WriteFileAtomicCommitsAndCleansUp) {
  ASSERT_TRUE(WriteFileAtomic(path_, [](BinaryWriter& w) {
                WriteEnvelopeWords(w);
                w.WriteU32(42);
                return w.status();
              }).ok());
  EXPECT_FALSE(std::ifstream(path_ + ".tmp").good()) << "temp file leaked";
  // The footer was appended for us.
  EXPECT_EQ(ReadVerifiedU32(path_), 42u);
}

/// The envelope words, `value` and a footer of the digest `footer` gives
/// for the bytes before it, as ReadFileVerified expects a file to be laid
/// out.
std::string FileWithFooter(uint32_t version, uint32_t value,
                           uint64_t (*footer)(const std::string&)) {
  BinaryWriter w;
  WriteEnvelopeWords(w, version);
  w.WriteU32(value);
  std::string bytes = w.TakeBytes();
  const uint64_t digest = footer(bytes);
  bytes.append(reinterpret_cast<const char*>(&digest), sizeof(digest));
  return bytes;
}

uint64_t ChecksumFooter(const std::string& bytes) {
  return ChecksumOf(bytes.data(), bytes.size());
}

uint64_t Fnv1aFooter(const std::string& bytes) {
  return Fnv1aUpdate(kFnv1aOffset, bytes.data(), bytes.size());
}

TEST_F(SerdeTest, ReadFileVerifiedPicksTheFooterByEnvelopeVersion) {
  auto load = [this](const std::string& bytes) {
    std::ofstream(path_, std::ios::binary | std::ios::trunc) << bytes;
    return ReadFileVerified(path_, [](BinaryReader& r) {
      r.ReadU32();
      r.ReadU32();
      r.ReadU32();
      return r.status();
    });
  };
  // Version 2 files end in a Checksum, version 1 files in FNV-1a.
  EXPECT_TRUE(load(FileWithFooter(2, 42, ChecksumFooter)).ok());
  EXPECT_TRUE(load(FileWithFooter(1, 42, Fnv1aFooter)).ok());
  EXPECT_EQ(ReadVerifiedU32(path_), 42u);
  EXPECT_EQ(load(FileWithFooter(2, 42, Fnv1aFooter)).code(),
            StatusCode::kIoError);
  EXPECT_EQ(load(FileWithFooter(1, 42, ChecksumFooter)).code(),
            StatusCode::kIoError);
  for (uint32_t version : {0u, 3u}) {
    const Status st = load(FileWithFooter(version, 42, ChecksumFooter));
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << version;
    EXPECT_EQ(st.message(), "unsupported snapshot envelope version " +
                                std::to_string(version));
  }
  // The two words and the footer are the shortest file there is.
  const std::string shortest = FileWithFooter(2, 42, ChecksumFooter);
  EXPECT_EQ(load(shortest.substr(0, 15)).code(), StatusCode::kIoError);
}

TEST_F(SerdeTest, WriteFileAtomicFailureLeavesOldFileIntact) {
  ASSERT_TRUE(WriteFileAtomic(path_, [](BinaryWriter& w) {
                w.WriteU32(kSnapshotMagic);
                return w.status();
              }).ok());
  const std::string before = ReadFileBytes(path_);
  Status st = WriteFileAtomic(path_, [](BinaryWriter& w) {
    w.WriteU32(2);
    return Status::Internal("fill failed midway");
  });
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(std::ifstream(path_ + ".tmp").good()) << "temp file leaked";
  EXPECT_EQ(ReadFileBytes(path_), before)
      << "failed rewrite clobbered the old file";
}

/// Writes `chunks` chunks and a bit more, in small and in oversized
/// writes, so the writer drains both ways.
void WriteManyChunks(BinaryWriter& w, size_t chunks) {
  for (uint32_t i = 0; i < 1000; ++i) w.WriteU32(i);
  std::vector<uint64_t> big(chunks * kWriteChunkBytes / sizeof(uint64_t));
  for (size_t i = 0; i < big.size(); ++i) big[i] = i * 0x9e3779b97f4a7c15ULL;
  w.WriteVector(big);
  w.WriteString("tail");
}

TEST_F(SerdeTest, WriteFileAtomicDrainsChunksAndFootersTheWholeFile) {
  ASSERT_TRUE(WriteFileAtomic(path_, [](BinaryWriter& w) {
                WriteManyChunks(w, 3);
                return w.status();
              }).ok());
  BinaryWriter expected;
  WriteManyChunks(expected, 3);
  const std::string payload = expected.TakeBytes();

  const std::string file = ReadFileBytes(path_);
  ASSERT_EQ(file.size(), payload.size() + sizeof(uint64_t));
  EXPECT_GT(file.size(), 3 * kWriteChunkBytes);
  EXPECT_TRUE(file.compare(0, payload.size(), payload) == 0);
  uint64_t footer = 0;
  std::memcpy(&footer, file.data() + payload.size(), sizeof(footer));
  EXPECT_EQ(footer, ChecksumOf(file.data(), payload.size()));
}

TEST_F(SerdeTest, WriteFileAtomicFailureAfterAChunkReachedTheFile) {
  ASSERT_TRUE(WriteFileAtomic(path_, [](BinaryWriter& w) {
                w.WriteU32(kSnapshotMagic);
                return w.status();
              }).ok());
  const std::string before = ReadFileBytes(path_);
  const std::string tmp = path_ + ".tmp";
  size_t tmp_bytes_at_failure = 0;
  Status st = WriteFileAtomic(path_, [&](BinaryWriter& w) {
    WriteManyChunks(w, 2);
    tmp_bytes_at_failure = ReadFileBytes(tmp).size();
    return Status::Internal("fill failed after two chunks");
  });
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_GE(tmp_bytes_at_failure, 2 * kWriteChunkBytes);
  EXPECT_FALSE(std::ifstream(tmp).good()) << "temp file leaked";
  EXPECT_EQ(ReadFileBytes(path_), before)
      << "failed rewrite clobbered the old file";
}

TEST_F(SerdeTest, ReadFileVerifiedRejectsBytesTheDecoderLeaves) {
  ASSERT_TRUE(WriteFileAtomic(path_, [](BinaryWriter& w) {
                WriteEnvelopeWords(w);
                w.WriteU32(7);
                w.WriteU32(8);
                return w.status();
              }).ok());
  EXPECT_EQ(ReadVerifiedU32(path_), 0u);
  Status st = ReadFileVerified(path_, [](BinaryReader& r) {
    r.ReadU32();
    return r.status();
  });
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.message().find("trailing bytes"), std::string::npos);
}

TEST_F(SerdeTest, WriteFileAtomicLeavesTheModeToTheUmask) {
  const mode_t old_mask = ::umask(002);
  const Status st = WriteFileAtomic(path_, [](BinaryWriter& w) {
    w.WriteU32(kSnapshotMagic);
    return w.status();
  });
  ::umask(old_mask);
  ASSERT_TRUE(st.ok()) << st.ToString();
  struct stat info {};
  ASSERT_EQ(::stat(path_.c_str(), &info), 0);
  EXPECT_EQ(info.st_mode & 0777, 0664u);
}

TEST(SerdeErrors, MissingFile) {
  Status read = ReadFileVerified("/nonexistent/snapshot.bin",
                                 [](BinaryReader&) { return Status::Ok(); });
  EXPECT_EQ(read.code(), StatusCode::kIoError);
  // A directory opens but holds no snapshot bytes.
  EXPECT_FALSE(ReadFileVerified(::testing::TempDir(), [](BinaryReader&) {
                 return Status::Ok();
               }).ok());
  Status write = WriteFileAtomic("/nonexistent-dir-abc/out.bin",
                                 [](BinaryWriter& w) { return w.status(); });
  EXPECT_EQ(write.code(), StatusCode::kIoError);
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
