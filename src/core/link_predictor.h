#ifndef STREAMLINK_CORE_LINK_PREDICTOR_H_
#define STREAMLINK_CORE_LINK_PREDICTOR_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/exact_measures.h"
#include "graph/types.h"
#include "stream/edge_batch.h"
#include "util/status.h"

namespace streamlink {

class BinaryReader;
class BinaryWriter;

/// The estimated overlap structure of a vertex pair — the approximate
/// counterpart of PairOverlap. All fields are real-valued estimates; the
/// exact predictor fills them with exact values.
struct OverlapEstimate {
  double degree_u = 0.0;
  double degree_v = 0.0;
  double intersection = 0.0;        // ≈ |N(u) ∩ N(v)|  (common neighbors)
  double union_size = 0.0;          // ≈ |N(u) ∪ N(v)|
  double jaccard = 0.0;             // ≈ |∩| / |∪|
  double adamic_adar = 0.0;         // ≈ Σ_{w∈∩} 1/ln d(w)
  double resource_allocation = 0.0; // ≈ Σ_{w∈∩} 1/d(w)
};

/// Derives any LinkMeasure score from an overlap estimate (the approximate
/// analogue of MeasureFromOverlap).
double MeasureFromEstimate(LinkMeasure measure, const OverlapEstimate& e);

/// A streaming link predictor: ingests a graph stream edge by edge and
/// answers pairwise neighborhood-overlap queries at any point, online.
///
/// Contract (mirrors the paper's abstract):
///  * per-edge update cost is O(sketch size) — constant, independent of
///    the graph;
///  * per-vertex state is O(sketch size) — constant;
///  * queries read only the two vertices' state.
///
/// Streams are expected to be *simple* (each undirected edge appears
/// once). The sketches themselves are duplicate-idempotent, but exact
/// degree counters are not; wrap multigraph sources in DedupEdgeStream.
class LinkPredictor {
 public:
  virtual ~LinkPredictor() = default;

  /// Short identifier, e.g. "minhash", "bottomk", "exact".
  virtual std::string name() const = 0;

  /// Estimates the full overlap structure of (u, v) on the stream so far.
  /// Vertices never seen in the stream are treated as isolated.
  virtual OverlapEstimate EstimateOverlap(VertexId u, VertexId v) const = 0;

  /// Convenience: a single measure's estimated score.
  double Score(LinkMeasure measure, VertexId u, VertexId v) const {
    return MeasureFromEstimate(measure, EstimateOverlap(u, v));
  }

  /// Many measures of one pair from a single overlap estimate. Score(m)
  /// recomputes the full EstimateOverlap per call; batch callers (the
  /// serving layer, multi-measure top-k) use this to pay for the estimate
  /// once. The result is parallel to `measures`.
  std::vector<double> Scores(std::span<const LinkMeasure> measures,
                             VertexId u, VertexId v) const;

  /// Deep-copies the predictor's full state into an independent instance —
  /// the snapshot primitive the serving layer (QueryService) publishes
  /// through. Clones answer queries bit-identically to the source at clone
  /// time and never observe later ingestion. In-tree predictors override
  /// this with their copy constructor (all state is value-semantic); the
  /// base default returns nullptr, meaning "not snapshottable" — callers
  /// must check. ShardedPredictor's override copies every shard behind a
  /// new routing view.
  virtual std::unique_ptr<LinkPredictor> Clone() const { return nullptr; }

  /// Serializes the predictor's full state into `writer` as a tagged
  /// snapshot envelope (kind string + payload version, see util/serde.h)
  /// followed by the kind-specific payload. A sharded build writes its
  /// kind's envelope (HalfEdgePredictor::SaveRows); the tombstone
  /// container nests its inner kind's envelope. The base
  /// default returns FailedPrecondition, meaning "not snapshottable" —
  /// every in-tree kind overrides it. Restore through
  /// LoadPredictorSnapshot / LoadPredictorFrom (core/predictor_factory.h).
  virtual Status SaveTo(BinaryWriter& writer) const;

  /// Writes a crash-safe snapshot file: SaveTo routed through
  /// WriteFileAtomic (temp file + fsync + atomic rename) with a
  /// whole-file checksum footer, so a crash mid-write can never leave a
  /// torn snapshot at `path`.
  Status Save(const std::string& path) const;

  /// Number of vertices with any state (max endpoint seen + 1).
  virtual VertexId num_vertices() const = 0;

  /// Edges ingested so far (inserts only; see deletes_processed()).
  uint64_t edges_processed() const { return edges_processed_; }

  /// Edge deletions applied so far (turnstile kinds only).
  uint64_t deletes_processed() const { return deletes_processed_; }

  /// Total heap footprint of the predictor's state in bytes.
  virtual uint64_t MemoryBytes() const = 0;

  /// Cold-path convenience for callers holding a single edge: delivers it
  /// as a one-edge batch.
  void OnEdge(const Edge& edge) { OnEdgeBatch(EdgeBatch::Single(edge)); }

  /// Retracts one previously inserted edge — the turnstile counterpart of
  /// OnEdge: delivers it as a one-edge delete batch. Only kinds the kind
  /// table (core/predictor_factory.h) marks deletable implement the
  /// kernel; calling this on any other kind is fatal.
  void DeleteEdge(const Edge& edge) {
    const EdgeOp op = EdgeOp::kDelete;
    OnEdgeBatch(EdgeBatch(&edge, 1, /*hash_u=*/nullptr, /*hash_v=*/nullptr,
                          &op));
  }

  /// The one delivery path (ParallelIngestEngine's sequential sink, and
  /// every caller feeding a predictor by hand): filters self-loops,
  /// accounts edges, and hands maximal self-loop-free same-op runs — hash
  /// lanes still aligned — to ProcessBatch / ProcessDeleteBatch in one
  /// virtual dispatch per run. The view (and its lanes) is only valid for
  /// the duration of the call. Batches without an op lane are all inserts.
  void OnEdgeBatch(const EdgeBatch& batch) {
    ForEachOpRun(batch, /*skip_self_loops=*/true,
                 [this](const EdgeBatch& run, EdgeOp op) {
                   if (op == EdgeOp::kInsert) {
                     ProcessBatch(run);
                   } else {
                     ProcessDeleteBatch(run);
                   }
                 });
  }

  /// Folds `count` externally-accounted edges into edges_processed().
  /// Used by disjoint-partition merges (MergeFrom) and by sharded builds,
  /// whose half-edge kernels (HalfEdgePredictor) deliberately do not count
  /// edges — two half-edges are one edge.
  void AddProcessedEdges(uint64_t count) { edges_processed_ += count; }

  /// The deletes_processed() analogue of AddProcessedEdges: folds `count`
  /// externally-accounted deletions (merged replicas, sharded half-edge
  /// retractions) into the counter.
  void AddProcessedDeletes(uint64_t count) { deletes_processed_ += count; }

 protected:
  /// Whole-edge kernel of the kinds that apply one edge at a time
  /// (windowed_minhash, vertex_biased, and the tombstone and sharded
  /// wrappers): the default ProcessBatch calls it once per non-self-loop
  /// edge. Kinds that override ProcessBatch never reach it; the default is
  /// fatal.
  virtual void ProcessEdge(const Edge& edge);

  /// Batched ingest kernel: a self-loop-free run of whole edges, hash
  /// lanes (when present) aligned. The kernel owns accounting so
  /// edges_processed() keeps its OnEdge-path meaning mid-run (the windowed
  /// kind reads it per edge for bucket rotation): the default increments
  /// before each ProcessEdge exactly like OnEdge; overrides that never
  /// read edges_processed() during the run bulk-account with
  /// AddProcessedEdges(batch.size()) instead.
  virtual void ProcessBatch(const EdgeBatch& batch) {
    for (const Edge& e : batch) {
      ++edges_processed_;
      ProcessEdge(e);
    }
  }

  /// Deletion kernel of whole-edge kinds: retracts one non-self-loop
  /// edge. The default ProcessDeleteBatch calls it once per edge; the
  /// default is fatal.
  virtual void ProcessDelete(const Edge& edge);

  /// Batched deletion kernel: a self-loop-free run of whole-edge deletes.
  /// Owns accounting exactly like ProcessBatch — the default increments
  /// before each ProcessDelete; overrides that bulk-apply use
  /// AddProcessedDeletes(batch.size()) instead.
  virtual void ProcessDeleteBatch(const EdgeBatch& batch) {
    for (const Edge& e : batch) {
      ++deletes_processed_;
      ProcessDelete(e);
    }
  }

 private:
  uint64_t edges_processed_ = 0;
  uint64_t deletes_processed_ = 0;
};

}  // namespace streamlink

#endif  // STREAMLINK_CORE_LINK_PREDICTOR_H_
