#ifndef STREAMLINK_UTIL_SERDE_H_
#define STREAMLINK_UTIL_SERDE_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace streamlink {

/// FNV-1a running checksum over a byte stream. Byte-serial, so it stays
/// off every bulk path: it checks the 20-byte frame header of the wire
/// protocol (net/frame.cc) and the footer of envelope-v1 snapshot files,
/// which this build reads but does not write.
inline constexpr uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kFnv1aPrime = 0x100000001b3ULL;

inline uint64_t Fnv1aUpdate(uint64_t state, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    state = (state ^ bytes[i]) * kFnv1aPrime;
  }
  return state;
}

/// The integrity digest of every bulk byte stream: snapshot, checkpoint
/// and manifest files (envelope version 2) and query-codec messages.
///
/// Four independent 64-bit lanes take the input as little-endian 8-byte
/// words, word i going to lane i % 4. A lane takes its word in one step —
/// xor the word in, xorshift, multiply by an odd constant — which is a
/// bijection of the lane for a fixed word and of the word for a fixed
/// lane, so a 32-byte block costs four short independent dependency
/// chains instead of FNV-1a's 32-step byte chain. Digest() steps in the
/// words of the last partial block (the last partial word zero-padded),
/// then folds the byte length and the four lanes through Mix64, each
/// fold a bijection of what it takes. So any change confined to one
/// 8-byte word, every single-bit flip included, always changes the
/// digest, and the length tells padding from zero bytes.
///
/// Update may split the input anywhere: the digest equals ChecksumOf
/// over the concatenation of everything given to Update.
class Checksum {
 public:
  void Update(const void* data, size_t size);
  /// The digest of everything given to Update so far; the state is kept.
  uint64_t Digest() const;

 private:
  static constexpr size_t kLanes = 4;
  static constexpr size_t kBlockBytes = kLanes * sizeof(uint64_t);

  /// Steps `blocks` whole 32-byte blocks at `bytes` into the lanes.
  void TakeBlocks(const unsigned char* bytes, size_t blocks);

  // The first 256 fraction bits of pi: four distinct starting values
  // with nothing chosen about them.
  uint64_t lanes_[kLanes] = {0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL,
                             0xa4093822299f31d0ULL, 0x082efa98ec4e6c89ULL};
  uint64_t length_ = 0;  // bytes given to Update
  // The last length_ % kBlockBytes bytes, not yet stepped into a lane.
  unsigned char tail_[kBlockBytes] = {};
};

/// One-shot Checksum of `size` bytes.
uint64_t ChecksumOf(const void* data, size_t size);

/// WriteFileAtomic hands the file its bytes in writes of this size (the
/// last one shorter), so a save buffers one chunk, not the whole file.
inline constexpr size_t kWriteChunkBytes = size_t{1} << 20;

/// Little-endian binary writer for predictor snapshots and wire messages.
/// All writes go through fixed-width primitives so encodings are portable
/// across platforms (of the same endianness class; explicitly
/// little-endian on disk and on the wire).
///
/// A default-constructed writer appends to a byte buffer it owns; the
/// query codec (serve/query_codec.h) encodes a message there and takes it
/// with TakeBytes. WriteFileAtomic constructs the other flavour, which
/// drains its buffer to a file whenever it passes kWriteChunkBytes and
/// updates the file's Checksum once per drained chunk.
class BinaryWriter {
 public:
  BinaryWriter() = default;
  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;

  /// IoError once a drain to the file failed; writes after that are no-ops.
  Status status() const { return status_; }

  void WriteU32(uint32_t v) { WriteBytes(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { WriteBytes(&v, sizeof(v)); }
  void WriteDouble(double v) { WriteBytes(&v, sizeof(v)); }
  void WriteBytes(const void* data, size_t size);

  /// Length-prefixed UTF-8/raw string (u64 length + bytes).
  void WriteString(std::string_view s);

  template <typename T>
  void WriteVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteU64(v.size());
    if (!v.empty()) WriteBytes(v.data(), v.size() * sizeof(T));
  }

  /// Appends the Checksum of every byte written before it as a trailing
  /// u64; BinaryReader::VerifyChecksumFooter checks it. Must be
  /// the last write. (Files get theirs from WriteFileAtomic.)
  void WriteChecksumFooter();

  /// Moves the buffered bytes out, leaving the writer empty.
  std::string TakeBytes() { return std::move(buffer_); }

 private:
  friend Status WriteFileAtomic(
      const std::string& path,
      const std::function<Status(BinaryWriter&)>& fill);

  explicit BinaryWriter(int fd) : fd_(fd) {
    buffer_.reserve(kWriteChunkBytes);
  }

  /// Updates checksum_ with the buffer, then WriteOut.
  void Drain();
  /// Writes the buffer to fd_ and empties it.
  void WriteOut();
  /// Drains the last partial chunk and writes the checksum footer.
  Status FinishFile();

  int fd_ = -1;        // the file's descriptor, or -1
  Checksum checksum_;  // of the bytes drained
  std::string buffer_;
  Status status_;
};

/// Reader counterpart of BinaryWriter: decodes in place from one borrowed
/// byte span, which must outlive the reader. Every read is bounds-checked:
/// reading past the end, or a string, vector or CheckCount count that the
/// remaining bytes cannot hold, fails the reader with IoError before
/// anything is allocated; values read after an error are zero.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view bytes)
      : begin_(bytes.data()), pos_(bytes.data()),
        end_(bytes.data() + bytes.size()) {}

  Status status() const { return status_; }
  bool ok() const { return status_.ok(); }

  uint32_t ReadU32() { return Read<uint32_t>(); }
  uint64_t ReadU64() { return Read<uint64_t>(); }
  double ReadDouble() { return Read<double>(); }

  /// Copies the next `size` bytes out; on truncation zero-fills `data`.
  bool ReadBytes(void* data, size_t size) {
    if (ok() && remaining() >= size) {
      std::memcpy(data, pos_, size);
      pos_ += size;
      return true;
    }
    std::memset(data, 0, size);
    Fail(kTruncated);
    return false;
  }

  /// Counterpart of WriteString; rejects implausible (> 1 MiB) lengths.
  std::string ReadString();

  template <typename T>
  std::vector<T> ReadVector() {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t size = ReadU64();
    std::vector<T> v;
    if (!ok()) return v;
    // Guard against corrupted huge sizes: cap at 1 GiB of payload. The
    // division form cannot overflow (size * sizeof(T) wraps for corrupted
    // counts near 2^64 and would slip past a product-form guard).
    if (size > (1ULL << 30) / sizeof(T)) {
      Fail("vector size implausible: " + std::to_string(size));
      return v;
    }
    if (!CheckCount(size, sizeof(T))) return v;
    v.resize(size);
    if (size > 0) ReadBytes(v.data(), size * sizeof(T));
    return v;
  }

  /// Checks that `count` elements of at least `min_element_bytes` each can
  /// still follow, before a decoder reserves room for them; fails the
  /// reader with the truncation IoError when they cannot.
  bool CheckCount(uint64_t count, size_t min_element_bytes);

  bool AtEnd() const { return pos_ == end_; }

  /// Reads the trailing checksum footer and compares it against the
  /// Checksum of everything read before it, then requires the input
  /// to end. IoError on mismatch, truncation, or trailing bytes.
  Status VerifyChecksumFooter();

 private:
  size_t remaining() const { return static_cast<size_t>(end_ - pos_); }

  template <typename T>
  T Read() {
    T v{};
    ReadBytes(&v, sizeof(v));
    return v;
  }

  void Fail(const std::string& message);

  static constexpr char kTruncated[] = "unexpected end of input";

  const char* begin_;
  const char* pos_;
  const char* end_;
  Status status_;
};

// --- Snapshot envelope ---
//
// Every predictor snapshot starts with one universal header:
//
//   u32 magic "SLSN"  |  u32 envelope version  |  string kind  |  u32
//   payload version
//
// followed by the kind-specific payload and (for whole files) the
// checksum footer. The kind string is what LoadPredictorFrom dispatches
// on; container kinds (the tombstone window, and the read-only nested
// "sharded" envelope of older builds) nest complete envelopes inside
// their payload.
//
// The envelope version names the file's footer: version 2 files end in
// a Checksum, version 1 files (read only) in an FNV-1a digest. The header
// layout is the same in both; this build writes version 2 into every
// envelope, nested ones included.

inline constexpr uint32_t kSnapshotMagic = 0x534c534e;  // "SLSN"
/// The envelope version this build writes.
inline constexpr uint32_t kSnapshotEnvelopeVersion = 2;
/// The envelope version of older builds, whose files end in an FNV-1a
/// footer; read only.
inline constexpr uint32_t kSnapshotEnvelopeVersionFnv1a = 1;

struct SnapshotHeader {
  std::string kind;
  uint32_t payload_version = 0;
};

/// Writes the universal envelope header.
void WriteSnapshotHeader(BinaryWriter& writer, const std::string& kind,
                         uint32_t payload_version);

/// Reads and validates the envelope header. InvalidArgument for wrong
/// magic or an envelope version other than 1 and 2; IoError for
/// truncation.
Result<SnapshotHeader> ReadSnapshotHeader(BinaryReader& reader);

/// Verified whole-file read for snapshot loads, the counterpart of
/// WriteFileAtomic. Maps `path` read-only, checks the snapshot magic
/// (InvalidArgument when it is absent) and the envelope version word
/// after it (InvalidArgument unless 1 or 2), then the checksum footer with
/// one pass over every byte before it, of Checksum for version 2 and of
/// FNV-1a for version 1 (IoError on a mismatch or a file too short to
/// hold the two words and the footer), and only then hands those bytes to
/// `decode` — so a corrupt length field is never parsed. `decode` must
/// consume them exactly: bytes it leaves before the footer are IoError.
/// The file is never copied into the heap (its pages stay reclaimable
/// page cache while `decode` runs) and is unmapped before this returns.
Status ReadFileVerified(const std::string& path,
                        const std::function<Status(BinaryReader&)>& decode);

/// Crash-safe whole-file write: `fill` writes the content into a writer
/// that drains to a temporary sibling of `path` in kWriteChunkBytes
/// chunks; on success the Checksum footer is appended, the temporary is
/// fsynced through the same descriptor, atomically renamed over `path`,
/// and the directory entry is fsynced. A crash at any point leaves either
/// the old file or the new file at `path`, never a torn mix; on any error
/// the temporary is removed and `path` is untouched.
Status WriteFileAtomic(const std::string& path,
                       const std::function<Status(BinaryWriter&)>& fill);

}  // namespace streamlink

#endif  // STREAMLINK_UTIL_SERDE_H_
