#include "core/half_edge_predictor.h"

#include "util/logging.h"

namespace streamlink {

void HalfEdgePredictor::RetractNeighborBatch(const EdgeBatch&) {
  SL_LOG(kFatal) << name()
                 << " does not support edge deletions (turnstile); wrap in "
                    "a tombstone window or use a deletable kind";
}

void HalfEdgePredictor::ApplyHalfEdges(const EdgeBatch& batch) {
  if (!batch.has_ops()) {
    ObserveNeighborBatch(batch);
    return;
  }
  ForEachOpRun(batch, /*skip_self_loops=*/false,
               [this](const EdgeBatch& run, EdgeOp op) {
                 if (op == EdgeOp::kInsert) {
                   ObserveNeighborBatch(run);
                 } else {
                   RetractNeighborBatch(run);
                 }
               });
}

OverlapEstimate HalfEdgePredictor::EstimateOverlap(VertexId u,
                                                   VertexId v) const {
  return EstimateOverlapSharded(
      u, *this, v, [this](VertexId w) { return OwnedDegree(w); });
}

void HalfEdgePredictor::ProcessBatch(const EdgeBatch& batch) {
  AddProcessedEdges(batch.size());
  ObserveNeighborBatch(HalfEdgesOf(batch));
}

void HalfEdgePredictor::ProcessDeleteBatch(const EdgeBatch& batch) {
  AddProcessedDeletes(batch.size());
  RetractNeighborBatch(HalfEdgesOf(batch));
}

EdgeBatch HalfEdgePredictor::HalfEdgesOf(const EdgeBatch& batch) {
  EdgeList& half_edges = scratch_.half_edges;
  half_edges.clear();
  half_edges.reserve(2 * batch.size());
  for (const Edge& e : batch) {
    half_edges.push_back(e);
    half_edges.emplace_back(e.v, e.u);
  }
  return EdgeBatch(half_edges.data(), half_edges.size());
}

}  // namespace streamlink
