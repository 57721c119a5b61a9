#ifndef STREAMLINK_CORE_TRIANGLE_COUNTER_H_
#define STREAMLINK_CORE_TRIANGLE_COUNTER_H_

#include <cstdint>

#include "core/minhash_predictor.h"
#include "stream/stream_driver.h"

namespace streamlink {

/// Options for StreamingTriangleCounter.
struct TriangleCounterOptions {
  /// MinHash slots for the underlying common-neighbor estimator.
  uint32_t num_hashes = 128;
  uint64_t seed = 0x5eed;
};

/// Streaming (global) triangle counting from the link-prediction sketches.
///
/// When edge (u, v) arrives, every common neighbor of u and v *at that
/// moment* closes one triangle whose final edge is (u, v). Since each
/// triangle has exactly one final edge in the stream, summing the
/// common-neighbor count just before each insertion counts every triangle
/// exactly once:
///
///     T = Σ_{edges (u,v) in arrival order} |N(u) ∩ N(v)|  (pre-insert).
///
/// Substituting the sketch estimator ĈN gives a streaming triangle-count
/// estimate with the same O(k)-per-vertex state as link prediction — one
/// summary, two applications. Requires a simple stream (duplicates would
/// re-count closed triangles; wrap multigraph sources in DedupEdgeStream).
class StreamingTriangleCounter : public EdgeConsumer {
 public:
  explicit StreamingTriangleCounter(const TriangleCounterOptions& options = {});

  /// Ingests each edge in order: accumulates the pre-insert ĈN(u, v),
  /// then updates the sketches. O(k) per edge. The estimator is
  /// order-dependent (each edge's ĈN is read pre-insert), so a batch is
  /// strictly the amortized loop — no reordering, no lane use.
  void OnEdgeBatch(const EdgeBatch& batch) override;

  /// Estimated number of triangles in the graph so far.
  double Estimate() const { return triangle_estimate_; }

  uint64_t edges_processed() const { return predictor_.edges_processed(); }

  /// The underlying predictor (also answers pairwise queries — the
  /// "one summary, many queries" property).
  const MinHashPredictor& predictor() const { return predictor_; }

  uint64_t MemoryBytes() const {
    return sizeof(*this) + predictor_.MemoryBytes() -
           sizeof(MinHashPredictor);
  }

 private:
  MinHashPredictor predictor_;
  double triangle_estimate_ = 0.0;
};

}  // namespace streamlink

#endif  // STREAMLINK_CORE_TRIANGLE_COUNTER_H_
