#ifndef STREAMLINK_PERSIST_CHECKPOINT_H_
#define STREAMLINK_PERSIST_CHECKPOINT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/link_predictor.h"
#include "stream/parallel_ingest.h"
#include "util/status.h"

namespace streamlink {

class QueryService;

namespace obs {
class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;
}  // namespace obs

/// Configuration for a checkpoint directory.
struct CheckpointOptions {
  /// Directory the checkpoints live in; created if missing.
  std::string dir;
  /// Retain the newest `keep` checkpoints (>= 1); older snapshot files are
  /// pruned after each successful write. Keeping more than one is what
  /// makes restore robust: if the newest snapshot is unreadable (partial
  /// disk, bit rot), RestoreLatest falls back to the next one.
  uint32_t keep = 3;
};

/// One durable checkpoint: a predictor snapshot tagged with the stream
/// position it corresponds to.
struct CheckpointEntry {
  /// Edges pulled from the source stream when the snapshot was taken
  /// (self-loops included — a cursor, not a simple-edge count). Resuming
  /// means handing the restored predictor, this cursor and the stream
  /// edges after it to ParallelIngestEngine::Resume.
  uint64_t stream_edges = 0;
  /// The predictor's own simple-edge tally at snapshot time (informational;
  /// 0 for entries recovered by directory scan — see Open).
  uint64_t edges_processed = 0;
};

/// Periodic crash-safe checkpointing of a live predictor build, and the
/// restore side of it.
///
/// On disk a checkpoint directory holds snapshot files named
/// `ckpt-<stream_edges>.snap` (each a complete LinkPredictor::Save file:
/// envelope + payload + checksum footer, written atomically) plus a
/// MANIFEST listing the retained entries, itself rewritten through
/// WriteFileAtomic after every checkpoint. The ordering — snapshot first,
/// then manifest, then prune — means a crash at any point leaves the
/// directory restorable: at worst an unreferenced snapshot file (ignored)
/// or a pruned file the manifest no longer names (also ignored).
///
/// Writer side is single-threaded (call Write / IngestPublisher's hook from
/// the thread that owns the live predictor, while it is quiescent); restore
/// is read-only.
class CheckpointManager {
 public:
  /// Opens (creating if needed) a checkpoint directory and loads its
  /// entry list. A valid MANIFEST is authoritative; when it is missing or
  /// corrupt, the directory is scanned for `ckpt-*.snap` files instead
  /// (their stream positions are recovered from the filenames, so a torn
  /// manifest never strands otherwise-good snapshots).
  static Result<CheckpointManager> Open(const CheckpointOptions& options);

  CheckpointManager(CheckpointManager&&) = default;
  CheckpointManager& operator=(CheckpointManager&&) = default;

  const CheckpointOptions& options() const { return options_; }

  /// Retained checkpoints, oldest first.
  const std::vector<CheckpointEntry>& entries() const { return entries_; }

  /// Path of the snapshot file for a given stream position.
  std::string PathFor(uint64_t stream_edges) const;
  std::string ManifestPath() const;

  /// Takes one checkpoint: snapshots `predictor` (LinkPredictor::Save,
  /// atomic + checksummed) at stream position `stream_edges`, rewrites the
  /// manifest, and prunes beyond `keep`. A repeat of the newest position is
  /// a no-op (the end-of-stream publish often coincides with a cadence
  /// publish); a position older than the newest entry is InvalidArgument.
  Status Write(const LinkPredictor& predictor, uint64_t stream_edges);

  struct Restored {
    std::unique_ptr<LinkPredictor> predictor;
    CheckpointEntry entry;
    std::string path;
  };

  /// Restores the newest valid checkpoint, trying older entries when a
  /// newer one fails to load (torn, corrupt, missing) — each failure is
  /// logged, never fatal. NotFound when no entry restores.
  Result<Restored> RestoreLatest() const;

  /// The ParallelIngestOptions::on_publish hook: checkpoints every
  /// quiesced predictor the engine hands out at the engine's publish
  /// cadence. A failed write is logged as a warning and does not stop the
  /// build (the stream position is re-attempted at the next cadence).
  IngestPublishFn IngestPublisher();

  /// Registers and maintains the `persist.*` metric family
  /// (docs/observability.md): checkpoint/restore counters and failure
  /// counters, write/restore duration histograms, and a gauge with the
  /// newest snapshot's byte size. The registry must outlive this manager;
  /// nullptr (default) disables.
  void BindMetrics(obs::MetricsRegistry* registry);

 private:
  explicit CheckpointManager(CheckpointOptions options)
      : options_(std::move(options)) {}

  Status WriteManifest() const;

  /// Instruments live in the bound registry; null until BindMetrics.
  /// Mutable + raw pointers so the read-only RestoreLatest can record too.
  struct PersistMetrics {
    obs::Counter* checkpoints = nullptr;        // persist.checkpoints_total
    obs::Counter* checkpoint_failures = nullptr;
    obs::Counter* restores = nullptr;           // persist.restores_total
    obs::Counter* restore_failures = nullptr;
    obs::Gauge* checkpoint_bytes = nullptr;     // newest snapshot size
    obs::Histogram* write_ns = nullptr;         // persist.checkpoint_write_ns
    obs::Histogram* restore_ns = nullptr;       // persist.restore_ns
  };

  CheckpointOptions options_;
  std::vector<CheckpointEntry> entries_;
  PersistMetrics metrics_;
};

/// Warm-starts a query service from the newest valid checkpoint: restores
/// it, publishes it as the service's first snapshot, and returns the
/// stream position queries now reflect (the position ingestion should
/// resume from). NotFound when the directory has no restorable checkpoint.
Result<uint64_t> WarmStartFromCheckpoints(const CheckpointManager& manager,
                                          QueryService& service);

}  // namespace streamlink

#endif  // STREAMLINK_PERSIST_CHECKPOINT_H_
