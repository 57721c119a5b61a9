#ifndef STREAMLINK_STREAM_STREAM_DRIVER_H_
#define STREAMLINK_STREAM_STREAM_DRIVER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "graph/types.h"
#include "stream/edge_batch.h"
#include "stream/edge_stream.h"

namespace streamlink {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// Anything that ingests stream edges — the streaming link predictors in
/// core/ implement this. The one delivery unit is the EdgeBatch view
/// (contiguous edges plus optional pre-computed hash and op lanes, see
/// stream/edge_batch.h).
class EdgeConsumer {
 public:
  virtual ~EdgeConsumer() = default;

  /// Batched delivery: one virtual dispatch for the whole run. The view
  /// (and its lanes) is only valid for the duration of the call.
  virtual void OnEdgeBatch(const EdgeBatch& batch) = 0;

  /// Cold-path convenience for callers holding a single edge: delivers it
  /// as a one-edge batch.
  void OnEdge(const Edge& edge) { OnEdgeBatch(EdgeBatch::Single(edge)); }
};

/// Drives an EdgeStream into one or more consumers, invoking a checkpoint
/// callback at requested stream fractions (the hook the error-vs-progress
/// experiment uses). All consumers see every edge in order; delivery is
/// batched (OnEdgeBatch) between checkpoints, and checkpoints still fire
/// at exact edge positions.
class StreamDriver {
 public:
  /// Callback invoked at a checkpoint: (edges consumed so far, fraction of
  /// the stream consumed). Fractions require a stream with SizeHint.
  using CheckpointFn = std::function<void(uint64_t, double)>;

  /// Edges per OnEdgeBatch delivery when the caller does not override it.
  static constexpr size_t kDefaultBatchSize = 256;

  StreamDriver() = default;

  /// Registers a consumer; not owned, must outlive Run.
  void AddConsumer(EdgeConsumer* consumer);

  /// Requests a checkpoint after each fraction of the stream in
  /// `fractions` (each in (0, 1]); requires the stream to have a size
  /// hint. A final checkpoint at 1.0 fires at end-of-stream even without
  /// a size hint.
  void SetCheckpoints(std::vector<double> fractions, CheckpointFn callback);

  /// Maximum edges per OnEdgeBatch delivery (>= 1). Batching is purely an
  /// amortization: consumers observe the same edges in the same order.
  void SetBatchSize(size_t edges);

  /// Consumes the whole stream. Returns the number of edges processed.
  uint64_t Run(EdgeStream& stream);

  /// Registers and maintains the `stream.*` metric family during Run
  /// (docs/observability.md): edge/checkpoint counters, the windowed
  /// edges/sec gauge, and a checkpoint-duration histogram. Updated at
  /// flush granularity. The registry must outlive Run; nullptr (default)
  /// disables.
  void BindMetrics(obs::MetricsRegistry* registry) { metrics_ = registry; }

 private:
  std::vector<EdgeConsumer*> consumers_;
  std::vector<double> checkpoint_fractions_;
  CheckpointFn checkpoint_fn_;
  size_t batch_size_ = kDefaultBatchSize;
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace streamlink

#endif  // STREAMLINK_STREAM_STREAM_DRIVER_H_
