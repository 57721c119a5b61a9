#include "core/half_edge_predictor.h"

#include <algorithm>

#include "util/logging.h"

namespace streamlink {

ShardRows::ShardRows(const HalfEdgePredictor& only)
    : ShardRows({&only}, /*global_rows=*/false) {}

ShardRows::ShardRows(std::vector<const HalfEdgePredictor*> shards,
                     bool global_rows)
    : shards_(std::move(shards)), global_rows_(global_rows) {
  const uint64_t n = shards_.size();
  uint64_t bound = 0;
  for (uint64_t t = 0; t < n; ++t) {
    const uint64_t rows = shards_[t]->num_vertices();
    if (rows == 0) continue;
    // Shard t's last row holds vertex (rows - 1) * N + t when rows are
    // owned, vertex rows - 1 when they are global.
    bound = std::max(bound, global_rows_ ? rows : (rows - 1) * n + t + 1);
  }
  num_vertices_ = static_cast<VertexId>(bound);
}

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

Status HalfEdgePredictor::SaveTo(BinaryWriter& writer) const {
  return SaveRows(writer, ShardRows(*this), edges_processed(),
                  deletes_processed());
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
