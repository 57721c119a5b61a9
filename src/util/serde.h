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

/// FNV-1a running checksum over a byte stream — the whole-file integrity
/// check of predictor snapshots and the per-message check of the query
/// codec; any single flipped bit changes the digest.
inline constexpr uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kFnv1aPrime = 0x100000001b3ULL;

inline uint64_t Fnv1aUpdate(uint64_t state, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    state = (state ^ bytes[i]) * kFnv1aPrime;
  }
  return state;
}

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
/// folds each drained byte into the file's checksum once.
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

  /// Appends the FNV-1a digest of every byte written before it as a
  /// trailing u64; BinaryReader::VerifyChecksumFooter checks it. Must be
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

  /// Folds the buffer into checksum_, then WriteOut.
  void Drain();
  /// Writes the buffer to fd_ and empties it.
  void WriteOut();
  /// Drains the last partial chunk and writes the checksum footer.
  Status FinishFile();

  int fd_ = -1;                       // the file's descriptor, or -1
  uint64_t checksum_ = kFnv1aOffset;  // digest of the bytes drained
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
  /// FNV-1a digest of everything read before it, then requires the input
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

inline constexpr uint32_t kSnapshotMagic = 0x534c534e;  // "SLSN"
inline constexpr uint32_t kSnapshotEnvelopeVersion = 1;

struct SnapshotHeader {
  std::string kind;
  uint32_t payload_version = 0;
};

/// Writes the universal envelope header.
void WriteSnapshotHeader(BinaryWriter& writer, const std::string& kind,
                         uint32_t payload_version);

/// Reads and validates the envelope header. InvalidArgument for wrong
/// magic or unsupported envelope version; IoError for truncation.
Result<SnapshotHeader> ReadSnapshotHeader(BinaryReader& reader);

/// Verified whole-file read for snapshot loads, the counterpart of
/// WriteFileAtomic. Maps `path` read-only, checks the snapshot magic
/// (InvalidArgument when it is absent), then the checksum footer with one
/// FNV-1a pass over every byte before it (IoError on a mismatch or a file
/// too short to hold one), and only then hands those bytes to `decode` —
/// so a corrupt length field is never parsed. `decode` must consume them
/// exactly: bytes it leaves before the footer are IoError. The file is
/// never copied into the heap (its pages stay reclaimable page cache
/// while `decode` runs) and is unmapped before this returns.
Status ReadFileVerified(const std::string& path,
                        const std::function<Status(BinaryReader&)>& decode);

/// Crash-safe whole-file write: `fill` writes the content into a writer
/// that drains to a temporary sibling of `path` in kWriteChunkBytes
/// chunks; on success the checksum footer is appended, the temporary is
/// fsynced through the same descriptor, atomically renamed over `path`,
/// and the directory entry is fsynced. A crash at any point leaves either
/// the old file or the new file at `path`, never a torn mix; on any error
/// the temporary is removed and `path` is untouched.
Status WriteFileAtomic(const std::string& path,
                       const std::function<Status(BinaryWriter&)>& fill);

}  // namespace streamlink

#endif  // STREAMLINK_UTIL_SERDE_H_
