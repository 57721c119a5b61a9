#ifndef STREAMLINK_CORE_MINHASH_PREDICTOR_H_
#define STREAMLINK_CORE_MINHASH_PREDICTOR_H_

#include <string>

#include "core/half_edge_predictor.h"
#include "core/sketch_store.h"
#include "sketch/minhash.h"
#include "util/hashing.h"
#include "util/status.h"

namespace streamlink {

/// Options for MinHashPredictor.
struct MinHashPredictorOptions {
  /// Sketch width k: number of independent min-hash slots per vertex.
  /// Estimation error decays as 1/sqrt(k).
  uint32_t num_hashes = 64;
  /// Master seed of the shared hash family.
  uint64_t seed = 0x5eed;

  bool operator==(const MinHashPredictorOptions&) const = default;
};

/// The paper's primary method: per-vertex k-permutation MinHash sketches
/// of neighborhoods, updated in O(k) per edge, O(k) space per vertex.
///
/// Estimators (see DESIGN.md §3.1):
///  * Jaccard: fraction of matching slots — unbiased, Hoeffding
///    concentration 2·exp(−2kε²).
///  * Common neighbors: Ĵ/(1+Ĵ)·(d(u)+d(v)) with exact O(1) degree
///    counters. Exact when Ĵ is exact.
///  * Adamic-Adar / Resource-Allocation: intersection estimate times the
///    sample mean of 1/ln d(w) (resp. 1/d(w)) over the arg-min vertices of
///    matching slots — each matching slot is a *uniform* sample of
///    N(u) ∩ N(v) by min-wise symmetry.
class MinHashPredictor : public HalfEdgePredictor {
 public:
  explicit MinHashPredictor(const MinHashPredictorOptions& options = {});

  std::string name() const override { return "minhash"; }
  VertexId num_vertices() const override { return store_.num_vertices(); }
  uint64_t MemoryBytes() const override;

  const MinHashPredictorOptions& options() const { return options_; }
  uint32_t Degree(VertexId u) const { return degrees_.Degree(u); }

  /// The per-vertex sketch, or nullptr for never-seen vertices
  /// (exposed for tests and the space-accuracy experiments).
  const MinHashSketch* Sketch(VertexId u) const { return store_.Get(u); }

  // Half-edge kernel (HalfEdgePredictor): MinHash slots take slot-wise
  // minima and degree counters add, both per endpoint, so the predictor
  // decomposes cleanly across vertex shards. ShardedPredictor queries are
  // bit-identical to a sequential build. The k-permutation kernel
  // re-hashes regardless (no single pre-hash can feed k slots), so no
  // NeighborHashSeed — HashFamily caches the seed mixing instead.
  void ObserveNeighborBatch(const EdgeBatch& batch) override {
    for (const Edge& e : batch) {
      store_.Mutable(e.u).Update(e.v, family_);
      degrees_.Increment(e.u);
    }
  }
  double OwnedDegree(VertexId u) const override { return degrees_.Degree(u); }
  bool SameOptions(const HalfEdgePredictor& other) const override {
    return SameKindAndOptions(*this, other);
  }
  OverlapEstimate EstimateOverlapSharded(
      VertexId u_row, const HalfEdgePredictor& v_home, VertexId v_row,
      const DegreeFn& degree_of) const override;

  /// Folds in a peer predictor built over a *disjoint partition* of the
  /// same stream with identical options: sketches take slot-wise minima,
  /// degrees add. After merging, estimates equal those of a single
  /// predictor that saw the concatenated stream — the mergeability that
  /// makes the sketches usable in parallel and distributed ingestion.
  /// Aborts if options differ. Partitions sharing edges double-count
  /// degrees (sketches remain correct).
  void MergeFrom(const MinHashPredictor& other);

  /// Snapshot primitive: all state (options, hash family, sketch store,
  /// degrees) is value-semantic, so the copy constructor is a deep copy.
  std::unique_ptr<LinkPredictor> Clone() const override {
    return std::make_unique<MinHashPredictor>(*this);
  }

  /// Streams the full predictor state under the universal snapshot
  /// envelope (kind "minhash"). Whole-file writes go through the inherited
  /// Save(path), which wraps this in WriteFileAtomic + checksum footer.
  Status SaveRows(BinaryWriter& writer, const ShardRows& rows,
                  uint64_t edges, uint64_t deletes) const override;

  /// Payload decoder: reads the kind-specific payload that follows an
  /// already-consumed envelope header. Validates structural invariants
  /// (sketch widths, degree-table length vs vertex count) and returns
  /// InvalidArgument on any inconsistency instead of constructing a
  /// corrupt predictor.
  static Result<MinHashPredictor> LoadFrom(BinaryReader& reader,
                                           uint32_t payload_version);

 private:
  MinHashPredictorOptions options_;
  HashFamily family_;
  SketchStore<MinHashSketch> store_;
  DegreeTable degrees_;
};

}  // namespace streamlink

#endif  // STREAMLINK_CORE_MINHASH_PREDICTOR_H_
