#include "core/triangle_counter.h"

namespace streamlink {

StreamingTriangleCounter::StreamingTriangleCounter(
    const TriangleCounterOptions& options)
    : predictor_(MinHashPredictorOptions{options.num_hashes, options.seed}) {}

void StreamingTriangleCounter::OnEdgeBatch(const EdgeBatch& batch) {
  for (const Edge& edge : batch) {
    if (edge.IsSelfLoop()) continue;
    // Common neighbors *before* this edge joins the graph: each one closes
    // a triangle whose last edge is `edge`.
    triangle_estimate_ +=
        predictor_.EstimateOverlap(edge.u, edge.v).intersection;
    predictor_.OnEdge(edge);
  }
}

}  // namespace streamlink
