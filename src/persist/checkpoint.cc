#include "persist/checkpoint.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <utility>

#include "core/predictor_factory.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/query_service.h"
#include "util/logging.h"
#include "util/serde.h"

namespace streamlink {
namespace {

constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestKind[] = "checkpoint_manifest";
constexpr uint32_t kManifestPayloadVersion = 1;
constexpr char kSnapshotPrefix[] = "ckpt-";
constexpr char kSnapshotSuffix[] = ".snap";

std::string SnapshotName(uint64_t stream_edges) {
  return kSnapshotPrefix + std::to_string(stream_edges) + kSnapshotSuffix;
}

/// Recovers the stream position from a `ckpt-<N>.snap` filename; false for
/// anything else (including non-numeric or trailing junk).
bool ParseSnapshotName(const std::string& name, uint64_t* stream_edges) {
  const std::string prefix = kSnapshotPrefix;
  const std::string suffix = kSnapshotSuffix;
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  const char* first = name.data() + prefix.size();
  const char* last = name.data() + name.size() - suffix.size();
  auto [ptr, ec] = std::from_chars(first, last, *stream_edges);
  return ec == std::errc() && ptr == last;
}

/// Decodes a manifest payload (after the file's checksum verified).
Status DecodeManifest(BinaryReader& reader,
                      std::vector<CheckpointEntry>* entries) {
  auto header = ReadSnapshotHeader(reader);
  if (!header.ok()) return header.status();
  if (header->kind != kManifestKind) {
    return Status::InvalidArgument("not a checkpoint manifest (kind '" +
                                   header->kind + "')");
  }
  if (header->payload_version != kManifestPayloadVersion) {
    return Status::InvalidArgument(
        "unsupported manifest version " +
        std::to_string(header->payload_version));
  }
  uint64_t count = reader.ReadU64();
  if (!reader.ok()) return reader.status();
  if (count > (1ULL << 20)) {
    return Status::InvalidArgument("manifest entry count implausible: " +
                                   std::to_string(count));
  }
  if (!reader.CheckCount(count, 2 * sizeof(uint64_t))) return reader.status();
  entries->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    CheckpointEntry entry;
    entry.stream_edges = reader.ReadU64();
    entry.edges_processed = reader.ReadU64();
    if (!reader.ok()) return reader.status();
    if (!entries->empty() &&
        entry.stream_edges <= entries->back().stream_edges) {
      return Status::InvalidArgument(
          "manifest entries out of order (corrupt)");
    }
    entries->push_back(entry);
  }
  return Status::Ok();
}

Result<std::vector<CheckpointEntry>> ReadManifest(const std::string& path) {
  std::vector<CheckpointEntry> entries;
  if (Status st = ReadFileVerified(path, [&entries](BinaryReader& reader) {
        return DecodeManifest(reader, &entries);
      });
      !st.ok()) {
    return st;
  }
  return entries;
}

/// Manifest-less recovery: every parseable `ckpt-*.snap` in the directory,
/// sorted by stream position. edges_processed is unknown here (0).
std::vector<CheckpointEntry> ScanSnapshotFiles(const std::string& dir) {
  std::vector<CheckpointEntry> entries;
  std::error_code ec;
  for (const auto& item : std::filesystem::directory_iterator(dir, ec)) {
    uint64_t stream_edges = 0;
    if (!ParseSnapshotName(item.path().filename().string(), &stream_edges)) {
      continue;
    }
    entries.push_back(CheckpointEntry{stream_edges, 0});
  }
  std::sort(entries.begin(), entries.end(),
            [](const CheckpointEntry& a, const CheckpointEntry& b) {
              return a.stream_edges < b.stream_edges;
            });
  return entries;
}

}  // namespace

Result<CheckpointManager> CheckpointManager::Open(
    const CheckpointOptions& options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("checkpoint dir must not be empty");
  }
  if (options.keep < 1) {
    return Status::InvalidArgument("checkpoint keep must be >= 1");
  }
  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  if (ec) {
    return Status::IoError("cannot create checkpoint dir " + options.dir +
                           ": " + ec.message());
  }
  CheckpointManager manager(options);
  const std::string manifest_path = manager.ManifestPath();
  if (std::filesystem::exists(manifest_path, ec)) {
    auto entries = ReadManifest(manifest_path);
    if (entries.ok()) {
      manager.entries_ = std::move(entries).value();
      return manager;
    }
    SL_LOG(kWarning) << "checkpoint manifest " << manifest_path
                     << " unreadable (" << entries.status().ToString()
                     << "); recovering by directory scan";
  }
  manager.entries_ = ScanSnapshotFiles(options.dir);
  return manager;
}

std::string CheckpointManager::PathFor(uint64_t stream_edges) const {
  return (std::filesystem::path(options_.dir) / SnapshotName(stream_edges))
      .string();
}

std::string CheckpointManager::ManifestPath() const {
  return (std::filesystem::path(options_.dir) / kManifestName).string();
}

Status CheckpointManager::Write(const LinkPredictor& predictor,
                                uint64_t stream_edges) {
  if (!entries_.empty()) {
    uint64_t newest = entries_.back().stream_edges;
    if (stream_edges == newest) return Status();  // end-of-stream re-publish
    if (stream_edges < newest) {
      if (metrics_.checkpoint_failures != nullptr) {
        metrics_.checkpoint_failures->Add(1);
      }
      return Status::InvalidArgument(
          "checkpoint cursor moved backwards: " +
          std::to_string(stream_edges) + " after " + std::to_string(newest));
    }
  }
  obs::ScopedSpan span("persist/checkpoint");
  const std::string path = PathFor(stream_edges);
  const uint64_t t0 =
      metrics_.write_ns != nullptr ? obs::Tracer::NowNs() : 0;
  if (auto status = predictor.Save(path); !status.ok()) {
    if (metrics_.checkpoint_failures != nullptr) {
      metrics_.checkpoint_failures->Add(1);
    }
    return status;
  }
  if (metrics_.write_ns != nullptr) {
    metrics_.write_ns->Record(obs::Tracer::NowNs() - t0);
    metrics_.checkpoints->Add(1);
    std::error_code size_ec;
    const auto bytes = std::filesystem::file_size(path, size_ec);
    if (!size_ec) {
      metrics_.checkpoint_bytes->Set(static_cast<double>(bytes));
    }
  }
  entries_.push_back(
      CheckpointEntry{stream_edges, predictor.edges_processed()});
  std::vector<CheckpointEntry> pruned;
  while (entries_.size() > options_.keep) {
    pruned.push_back(entries_.front());
    entries_.erase(entries_.begin());
  }
  if (auto status = WriteManifest(); !status.ok()) return status;
  // Snapshot and manifest are durable; stale files go last, best-effort (a
  // crash before this point leaves extra files the manifest ignores).
  for (const auto& entry : pruned) {
    std::error_code ec;
    std::filesystem::remove(PathFor(entry.stream_edges), ec);
  }
  return Status();
}

Status CheckpointManager::WriteManifest() const {
  return WriteFileAtomic(ManifestPath(), [this](BinaryWriter& writer) {
    WriteSnapshotHeader(writer, kManifestKind, kManifestPayloadVersion);
    writer.WriteU64(entries_.size());
    for (const auto& entry : entries_) {
      writer.WriteU64(entry.stream_edges);
      writer.WriteU64(entry.edges_processed);
    }
    return writer.status();
  });
}

Result<CheckpointManager::Restored> CheckpointManager::RestoreLatest() const {
  obs::ScopedSpan span("persist/restore");
  const uint64_t t0 =
      metrics_.restore_ns != nullptr ? obs::Tracer::NowNs() : 0;
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    const std::string path = PathFor(it->stream_edges);
    auto predictor = LoadPredictorSnapshot(path);
    if (predictor.ok()) {
      Restored restored;
      restored.predictor = std::move(predictor).value();
      restored.entry = *it;
      restored.entry.edges_processed = restored.predictor->edges_processed();
      restored.path = path;
      if (metrics_.restore_ns != nullptr) {
        metrics_.restore_ns->Record(obs::Tracer::NowNs() - t0);
        metrics_.restores->Add(1);
      }
      return restored;
    }
    if (metrics_.restore_failures != nullptr) {
      metrics_.restore_failures->Add(1);
    }
    SL_LOG(kWarning) << "checkpoint " << path << " unusable ("
                     << predictor.status().ToString()
                     << "); trying an older one";
  }
  return Status::NotFound("no restorable checkpoint in " + options_.dir);
}

void CheckpointManager::BindMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  metrics_.checkpoints = &registry->GetCounter("persist.checkpoints_total");
  metrics_.checkpoint_failures =
      &registry->GetCounter("persist.checkpoint_failures_total");
  metrics_.restores = &registry->GetCounter("persist.restores_total");
  metrics_.restore_failures =
      &registry->GetCounter("persist.restore_failures_total");
  metrics_.checkpoint_bytes =
      &registry->GetGauge("persist.checkpoint_bytes");
  metrics_.write_ns = &registry->GetHistogram("persist.checkpoint_write_ns");
  metrics_.restore_ns = &registry->GetHistogram("persist.restore_ns");
}

IngestPublishFn CheckpointManager::IngestPublisher() {
  return [this](const LinkPredictor& live, uint64_t stream_edges) {
    if (auto status = Write(live, stream_edges); !status.ok()) {
      SL_LOG(kWarning) << "checkpoint at stream edge " << stream_edges
                       << " failed: " << status.ToString();
    }
  };
}

Result<uint64_t> WarmStartFromCheckpoints(const CheckpointManager& manager,
                                          QueryService& service) {
  auto restored = manager.RestoreLatest();
  if (!restored.ok()) return restored.status();
  if (auto status = service.Publish(*restored->predictor,
                                    restored->entry.stream_edges);
      !status.ok()) {
    return status;
  }
  service.NoteLiveEdges(restored->entry.stream_edges);
  return restored->entry.stream_edges;
}

}  // namespace streamlink
