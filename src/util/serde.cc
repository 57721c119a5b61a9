#include "util/serde.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <utility>

#include "util/hashing.h"

namespace streamlink {

static_assert(std::endian::native == std::endian::little,
              "streamlink snapshots assume a little-endian host");

namespace {

/// An odd multiplier with well-mixed bits (MurmurHash3's fmix64 constant).
constexpr uint64_t kChecksumMultiplier = 0xff51afd7ed558ccdULL;

/// One lane step: a bijection of `lane` for a fixed `word` and of `word`
/// for a fixed `lane`. The xorshift brings the high half down before the
/// multiply carries every bit upwards.
inline uint64_t ChecksumStep(uint64_t lane, uint64_t word) {
  lane ^= word;
  lane ^= lane >> 32;
  return lane * kChecksumMultiplier;
}

/// How far ahead of the block it steps TakeBlocks prefetches. Out of
/// cache, the lanes' multiply chains fill the out-of-order window before
/// its loads run far enough ahead to keep memory busy: on a 4-vCPU Xeon
/// this distance took BM_Checksum's 16.6 MB buffer from about 4 to about
/// 9 GB/s, and a load of an 82 MB snapshot about 7 ms sooner.
constexpr size_t kChecksumPrefetchBytes = 4096;

inline uint64_t LoadWord(const unsigned char* bytes) {
  uint64_t word;
  std::memcpy(&word, bytes, sizeof(word));
  return word;
}

/// InvalidArgument unless this build reads envelope version `envelope`.
Status CheckEnvelopeVersion(uint32_t envelope) {
  if (envelope == kSnapshotEnvelopeVersion ||
      envelope == kSnapshotEnvelopeVersionFnv1a) {
    return Status::Ok();
  }
  return Status::InvalidArgument("unsupported snapshot envelope version " +
                                 std::to_string(envelope));
}

}  // namespace

void Checksum::TakeBlocks(const unsigned char* bytes, size_t blocks) {
  // Locals, so the four chains stay in registers.
  uint64_t a = lanes_[0], b = lanes_[1], c = lanes_[2], d = lanes_[3];
  constexpr size_t kPrefetchBlocks = kChecksumPrefetchBytes / kBlockBytes;
  for (; blocks > 0; --blocks, bytes += kBlockBytes) {
    if (blocks > kPrefetchBlocks) {
      __builtin_prefetch(bytes + kChecksumPrefetchBytes);
    }
    a = ChecksumStep(a, LoadWord(bytes));
    b = ChecksumStep(b, LoadWord(bytes + 8));
    c = ChecksumStep(c, LoadWord(bytes + 16));
    d = ChecksumStep(d, LoadWord(bytes + 24));
  }
  lanes_[0] = a;
  lanes_[1] = b;
  lanes_[2] = c;
  lanes_[3] = d;
}

void Checksum::Update(const void* data, size_t size) {
  if (size == 0) return;
  const auto* bytes = static_cast<const unsigned char*>(data);
  const size_t held = length_ % kBlockBytes;
  length_ += size;
  if (held > 0) {
    const size_t n = std::min(size, kBlockBytes - held);
    std::memcpy(tail_ + held, bytes, n);
    if (held + n < kBlockBytes) return;
    TakeBlocks(tail_, 1);
    bytes += n;
    size -= n;
  }
  const size_t blocks = size / kBlockBytes;
  TakeBlocks(bytes, blocks);
  const size_t rest = size - blocks * kBlockBytes;
  if (rest > 0) std::memcpy(tail_, bytes + blocks * kBlockBytes, rest);
}

uint64_t Checksum::Digest() const {
  uint64_t lanes[kLanes];
  std::memcpy(lanes, lanes_, sizeof(lanes));
  const size_t held = length_ % kBlockBytes;
  for (size_t at = 0; at < held; at += sizeof(uint64_t)) {
    uint64_t word = 0;
    std::memcpy(&word, tail_ + at, std::min(sizeof(word), held - at));
    uint64_t& lane = lanes[at / sizeof(uint64_t)];
    lane = ChecksumStep(lane, word);
  }
  uint64_t digest = Mix64(length_);
  for (const uint64_t lane : lanes) digest = Mix64(digest ^ lane);
  return digest;
}

uint64_t ChecksumOf(const void* data, size_t size) {
  Checksum checksum;
  checksum.Update(data, size);
  return checksum.Digest();
}

void BinaryWriter::WriteBytes(const void* data, size_t size) {
  if (!status_.ok()) return;
  const char* bytes = static_cast<const char*>(data);
  if (fd_ < 0 || buffer_.size() + size < kWriteChunkBytes) {
    buffer_.append(bytes, size);
    return;
  }
  // A file writer passing the chunk size: top the buffer up to one full
  // chunk, drain it, repeat.
  while (size > 0 && status_.ok()) {
    const size_t n = std::min(size, kWriteChunkBytes - buffer_.size());
    buffer_.append(bytes, n);
    bytes += n;
    size -= n;
    if (buffer_.size() == kWriteChunkBytes) Drain();
  }
}

void BinaryWriter::WriteString(std::string_view s) {
  WriteU64(s.size());
  if (!s.empty()) WriteBytes(s.data(), s.size());
}

void BinaryWriter::WriteChecksumFooter() {
  Checksum whole = checksum_;
  whole.Update(buffer_.data(), buffer_.size());
  WriteU64(whole.Digest());
}

void BinaryWriter::Drain() {
  checksum_.Update(buffer_.data(), buffer_.size());
  WriteOut();
}

void BinaryWriter::WriteOut() {
  const char* data = buffer_.data();
  size_t left = buffer_.size();
  while (left > 0 && status_.ok()) {
    const ssize_t n = ::write(fd_, data, left);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      status_ = Status::IoError("write failed");
      break;
    }
    data += n;
    left -= static_cast<size_t>(n);
  }
  buffer_.clear();
}

Status BinaryWriter::FinishFile() {
  Drain();
  const uint64_t digest = checksum_.Digest();
  buffer_.assign(reinterpret_cast<const char*>(&digest), sizeof(digest));
  WriteOut();
  return status_;
}

void BinaryReader::Fail(const std::string& message) {
  if (status_.ok()) status_ = Status::IoError(message);
}

bool BinaryReader::CheckCount(uint64_t count, size_t min_element_bytes) {
  if (!ok()) return false;
  if (min_element_bytes > 0 && count > remaining() / min_element_bytes) {
    Fail(kTruncated);
    return false;
  }
  return true;
}

std::string BinaryReader::ReadString() {
  const uint64_t size = ReadU64();
  if (!ok()) return {};
  if (size > (1ULL << 20)) {
    Fail("string size implausible: " + std::to_string(size));
    return {};
  }
  if (!CheckCount(size, 1)) return {};
  std::string s(pos_, size);
  pos_ += size;
  return s;
}

Status BinaryReader::VerifyChecksumFooter() {
  if (!ok()) return status_;
  const uint64_t expected =
      ChecksumOf(begin_, static_cast<size_t>(pos_ - begin_));
  const uint64_t stored = ReadU64();
  if (!ok()) return status_;
  if (stored != expected) {
    Fail("checksum mismatch (corrupt or torn input)");
    return status_;
  }
  if (!AtEnd()) {
    Fail("trailing bytes after checksum");
    return status_;
  }
  return Status::Ok();
}

void WriteSnapshotHeader(BinaryWriter& writer, const std::string& kind,
                         uint32_t payload_version) {
  writer.WriteU32(kSnapshotMagic);
  writer.WriteU32(kSnapshotEnvelopeVersion);
  writer.WriteString(kind);
  writer.WriteU32(payload_version);
}

Result<SnapshotHeader> ReadSnapshotHeader(BinaryReader& reader) {
  if (!reader.ok()) return reader.status();
  uint32_t magic = reader.ReadU32();
  if (!reader.ok()) return reader.status();
  if (magic != kSnapshotMagic) {
    return Status::InvalidArgument("not a streamlink snapshot (bad magic)");
  }
  uint32_t envelope = reader.ReadU32();
  if (!reader.ok()) return reader.status();
  if (Status st = CheckEnvelopeVersion(envelope); !st.ok()) return st;
  SnapshotHeader header;
  header.kind = reader.ReadString();
  header.payload_version = reader.ReadU32();
  if (!reader.ok()) return reader.status();
  if (header.kind.empty()) {
    return Status::InvalidArgument("snapshot has an empty kind tag");
  }
  return header;
}

namespace {

/// Owns an open file descriptor.
class FileDescriptor {
 public:
  explicit FileDescriptor(int fd) : fd_(fd) {}
  ~FileDescriptor() { Close(); }
  FileDescriptor(const FileDescriptor&) = delete;
  FileDescriptor& operator=(const FileDescriptor&) = delete;

  int get() const { return fd_; }
  /// Closes it now; false when close(2) reports an error.
  bool Close() {
    const int fd = std::exchange(fd_, -1);
    return fd < 0 || ::close(fd) == 0;
  }

 private:
  int fd_;
};

/// Owns a read-only private mapping of the first `size` bytes of a file,
/// advised for one sequential pass.
class FileMapping {
 public:
  FileMapping(int fd, size_t size)
      : data_(::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0)),
        size_(size) {
    if (ok()) ::madvise(data_, size_, MADV_SEQUENTIAL);
  }
  ~FileMapping() {
    if (ok()) ::munmap(data_, size_);
  }
  FileMapping(const FileMapping&) = delete;
  FileMapping& operator=(const FileMapping&) = delete;

  bool ok() const { return data_ != MAP_FAILED; }
  const char* data() const { return static_cast<const char*>(data_); }

 private:
  void* data_;
  size_t size_;
};

}  // namespace

Status ReadFileVerified(const std::string& path,
                        const std::function<Status(BinaryReader&)>& decode) {
  FileDescriptor file(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (file.get() < 0) {
    return Status::IoError("cannot open for reading: " + path);
  }
  struct stat info {};
  if (::fstat(file.get(), &info) != 0) {
    return Status::IoError("cannot stat: " + path);
  }
  const size_t size = static_cast<size_t>(info.st_size);
  uint32_t magic = 0;
  uint32_t envelope = 0;
  uint64_t stored = 0;
  if (size < sizeof(magic)) {
    return Status::InvalidArgument("not a streamlink snapshot (too short): " +
                                   path);
  }
  // The file is mapped, not copied: its bytes stay clean page cache that
  // the kernel can reclaim while the decoder builds the state from them.
  // Snapshots are replaced by rename, never truncated in place, so the
  // mapping cannot lose pages under the reader.
  const FileMapping mapping(file.get(), size);
  if (!mapping.ok()) return Status::IoError("cannot map: " + path);
  file.Close();
  const char* bytes = mapping.data();

  std::memcpy(&magic, bytes, sizeof(magic));
  if (magic != kSnapshotMagic) {
    return Status::InvalidArgument("not a streamlink snapshot (bad magic): " +
                                   path);
  }
  if (size < sizeof(magic) + sizeof(envelope) + sizeof(stored)) {
    return Status::IoError("snapshot truncated before checksum footer: " +
                           path);
  }
  std::memcpy(&envelope, bytes + sizeof(magic), sizeof(envelope));
  if (Status st = CheckEnvelopeVersion(envelope); !st.ok()) return st;
  const size_t payload = size - sizeof(stored);
  std::memcpy(&stored, bytes + payload, sizeof(stored));
  const uint64_t digest = envelope == kSnapshotEnvelopeVersionFnv1a
                              ? Fnv1aUpdate(kFnv1aOffset, bytes, payload)
                              : ChecksumOf(bytes, payload);
  if (digest != stored) {
    return Status::IoError(
        "snapshot checksum mismatch (corrupt or torn file): " + path);
  }
  BinaryReader reader(std::string_view(bytes, payload));
  if (Status st = decode(reader); !st.ok()) return st;
  if (!reader.ok()) return reader.status();
  if (!reader.AtEnd()) {
    return Status::IoError("trailing bytes before snapshot checksum: " +
                           path);
  }
  return Status::Ok();
}

Status WriteFileAtomic(const std::string& path,
                       const std::function<Status(BinaryWriter&)>& fill) {
  const std::string tmp = path + ".tmp";
  FileDescriptor file(
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666));
  if (file.get() < 0) {
    return Status::IoError("cannot open for writing: " + tmp);
  }
  BinaryWriter writer(file.get());
  Status st = fill(writer);
  if (st.ok()) st = writer.FinishFile();
  if (st.ok() && ::fsync(file.get()) != 0) {
    st = Status::IoError("fsync failed: " + tmp);
  }
  if (!file.Close() && st.ok()) st = Status::IoError("close failed: " + tmp);
  if (st.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    st = Status::IoError("rename failed: " + tmp + " -> " + path);
  }
  if (!st.ok()) {
    std::remove(tmp.c_str());
    return st;
  }
  // Persist the directory entry so the rename itself survives a crash.
  // Some filesystems refuse a directory fsync; that is tolerated.
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                                                     : path.substr(0, slash);
  FileDescriptor dir_file(::open(dir.c_str(), O_RDONLY | O_CLOEXEC));
  if (dir_file.get() >= 0) ::fsync(dir_file.get());
  return Status::Ok();
}

}  // namespace streamlink
