#ifndef STREAMLINK_CORE_TCM_PREDICTOR_H_
#define STREAMLINK_CORE_TCM_PREDICTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/half_edge_predictor.h"
#include "core/sketch_store.h"
#include "sketch/tcm.h"
#include "util/hashing.h"
#include "util/status.h"

namespace streamlink {

/// Options for TcmPredictor.
struct TcmPredictorOptions {
  /// Cells per sketch row (the factory maps --k / sketch_size here).
  /// Per-row collision mass for a pair (u, v) is ~ d(u)·d(v)/width.
  uint32_t width = 64;
  /// Independent rows; the excess-overlap tail shrinks as slack^(-depth).
  uint32_t depth = 3;
  /// Master seed of the shared per-row hash family.
  uint64_t seed = 0x5eed;

  bool operator==(const TcmPredictorOptions&) const = default;
};

/// The turnstile predictor: per-vertex TCM/GSS-style signed count strips
/// (sketch/tcm.h) plus signed exact degree counters. The only in-tree kind
/// whose DeleteEdge is native — retracting an edge subtracts exactly what
/// inserting it added, cell-for-cell and counter-for-counter, so
/// insert∘delete annihilation is bit-identical and holds across every
/// sharded ingest configuration (all state is order-independent sums).
///
/// Estimators: common neighbors from the one-sided TCM intersection
/// estimate (clamped to min(d(u), d(v))); Jaccard via |∪| = d(u)+d(v)−|∩|.
/// Adamic-Adar / Resource-Allocation need per-common-neighbor identity the
/// count strips deliberately discard and are reported as 0 — the
/// capability matrix in docs/algorithms.md and docs/turnstile.md document
/// the contract, and the
/// differential oracle checks CN/Jaccard only for this kind.
class TcmPredictor : public HalfEdgePredictor {
 public:
  explicit TcmPredictor(const TcmPredictorOptions& options = {});

  std::string name() const override { return "tcm"; }
  VertexId num_vertices() const override { return store_.num_vertices(); }
  uint64_t MemoryBytes() const override;

  const TcmPredictorOptions& options() const { return options_; }
  /// Net degree of `u` (inserts minus deletes), clamped at 0: a replica
  /// that saw a delete before the matching insert reads 0, not −1.
  int64_t Degree(VertexId u) const {
    if (u >= degrees_.size()) return 0;
    return degrees_[u] > 0 ? degrees_[u] : 0;
  }
  const TcmSketch* Sketch(VertexId u) const { return store_.Get(u); }

  // Half-edge kernels (HalfEdgePredictor): strips and signed degrees are
  // per-vertex sums, so half-edge inserts AND retractions decompose across
  // shards exactly like minhash inserts do — native deletes.
  void ObserveNeighborBatch(const EdgeBatch& batch) override {
    for (const Edge& e : batch) UpdateVertex(e.u, e.v, +1);
  }
  void RetractNeighborBatch(const EdgeBatch& batch) override {
    for (const Edge& e : batch) UpdateVertex(e.u, e.v, -1);
  }
  double OwnedDegree(VertexId u) const override {
    return static_cast<double>(Degree(u));
  }
  bool SameOptions(const HalfEdgePredictor& other) const override {
    return SameKindAndOptions(*this, other);
  }
  OverlapEstimate EstimateOverlapSharded(
      VertexId u_row, const HalfEdgePredictor& v_home, VertexId v_row,
      const DegreeFn& degree_of) const override;

  /// Disjoint-partition fold: cells and degrees add, insert and delete
  /// counters both carry over. Aborts if options differ.
  void MergeFrom(const TcmPredictor& other);

  std::unique_ptr<LinkPredictor> Clone() const override {
    return std::make_unique<TcmPredictor>(*this);
  }

  /// Snapshot envelope kind "tcm"; payload carries both stream counters
  /// (edges and deletes), the signed degree table, and per-vertex cell
  /// strips.
  Status SaveRows(BinaryWriter& writer, const ShardRows& rows,
                  uint64_t edges, uint64_t deletes) const override;
  static Result<TcmPredictor> LoadFrom(BinaryReader& reader,
                                       uint32_t payload_version);

 private:
  void UpdateVertex(VertexId u, VertexId neighbor, int32_t delta) {
    store_.Mutable(u).Update(neighbor, family_, delta);
    if (u >= degrees_.size()) GrowDegrees(u);
    degrees_[u] += delta;
  }
  void GrowDegrees(VertexId u);

  TcmPredictorOptions options_;
  HashFamily family_;
  SketchStore<TcmSketch> store_;
  std::vector<int64_t> degrees_;  // signed net degrees, clamped at read
};

}  // namespace streamlink

#endif  // STREAMLINK_CORE_TCM_PREDICTOR_H_
