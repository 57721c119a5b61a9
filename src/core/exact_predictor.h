#ifndef STREAMLINK_CORE_EXACT_PREDICTOR_H_
#define STREAMLINK_CORE_EXACT_PREDICTOR_H_

#include <string>

#include "core/half_edge_predictor.h"
#include "graph/adjacency_graph.h"
#include "util/status.h"

namespace streamlink {

/// The exact baseline: maintains full adjacency sets (O(d) space per
/// vertex, unbounded) and computes every measure exactly. This is what the
/// paper compares the sketches against on accuracy (ground truth), memory
/// (the cost of exactness) and speed (hash-set updates vs O(k) sketch
/// updates; O(min-degree) queries vs O(k) sketch queries).
class ExactPredictor : public HalfEdgePredictor {
 public:
  ExactPredictor() = default;

  std::string name() const override { return "exact"; }
  VertexId num_vertices() const override { return graph_.num_vertices(); }
  uint64_t MemoryBytes() const override { return graph_.MemoryBytes(); }

  const AdjacencyGraph& graph() const { return graph_; }

  // Half-edge kernels (HalfEdgePredictor): adjacency sets are per-vertex
  // state, so half-edges route cleanly; cross-shard queries intersect the
  // two owners' neighbor sets and fetch common-neighbor degrees through
  // the routed oracle. Still exact, still bit-identical. Deletes are
  // native: retracting an edge that is not present is a no-op (the graph
  // stays simple), so the exact kind is the reference oracle for
  // delete-heavy churn streams.
  void ObserveNeighborBatch(const EdgeBatch& batch) override {
    for (const Edge& e : batch) graph_.AddArc(e.u, e.v);
  }
  void RetractNeighborBatch(const EdgeBatch& batch) override {
    for (const Edge& e : batch) graph_.RemoveArc(e.u, e.v);
  }
  double OwnedDegree(VertexId u) const override { return graph_.Degree(u); }
  bool SameOptions(const HalfEdgePredictor& other) const override {
    return dynamic_cast<const ExactPredictor*>(&other) != nullptr;
  }
  OverlapEstimate EstimateOverlapSharded(
      VertexId u_row, const HalfEdgePredictor& v_home, VertexId v_row,
      const DegreeFn& degree_of) const override;

  /// Snapshot primitive: deep copy of the adjacency sets. O(E) time and
  /// space — the cost of snapshotting the exact baseline, quantified by
  /// bench F17.
  std::unique_ptr<LinkPredictor> Clone() const override {
    return std::make_unique<ExactPredictor>(*this);
  }

  /// Universal snapshot envelope, kind "exact". Neighbor sets are written
  /// sorted (hash-set iteration order is nondeterministic), so repeated
  /// saves of equal graphs are byte-identical. O(E log d) time.
  Status SaveRows(BinaryWriter& writer, const ShardRows& rows,
                  uint64_t edges, uint64_t deletes) const override;

  /// Payload decoder for an already-consumed envelope header.
  static Result<ExactPredictor> LoadFrom(BinaryReader& reader,
                                         uint32_t payload_version);

 protected:
  // Whole edges keep AddEdge/RemoveEdge, which maintain graph().
  // num_edges(); the half-edge kernels (AddArc/RemoveArc) do not, so a
  // shard's count stays zero and a snapshot counts arcs instead.
  void ProcessBatch(const EdgeBatch& batch) override {
    AddProcessedEdges(batch.size());
    for (const Edge& e : batch) graph_.AddEdge(e);
  }
  void ProcessDeleteBatch(const EdgeBatch& batch) override {
    AddProcessedDeletes(batch.size());
    for (const Edge& e : batch) graph_.RemoveEdge(e);
  }

 private:
  AdjacencyGraph graph_;
};

}  // namespace streamlink

#endif  // STREAMLINK_CORE_EXACT_PREDICTOR_H_
