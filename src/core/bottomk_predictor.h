#ifndef STREAMLINK_CORE_BOTTOMK_PREDICTOR_H_
#define STREAMLINK_CORE_BOTTOMK_PREDICTOR_H_

#include <string>

#include "core/half_edge_predictor.h"
#include "core/sketch_store.h"
#include "sketch/bottomk.h"
#include "util/status.h"

namespace streamlink {

/// Options for BottomKPredictor.
struct BottomKPredictorOptions {
  /// Sketch size k: number of minimum hash values kept per vertex.
  uint32_t k = 64;
  /// Seed of the single shared hash function.
  uint64_t seed = 0x5eed;
  /// When false, degrees come from the sketches' KMV cardinality
  /// estimators instead of exact counters — the fully self-contained
  /// variant whose state is pure sketch (mergeable, no exact side-state).
  bool track_exact_degrees = true;

  bool operator==(const BottomKPredictorOptions&) const = default;
};

/// Bottom-k (KMV) variant of the streaming link predictor.
///
/// One hash evaluation per edge endpoint (vs k for MinHash) and
/// cardinality estimates built in. Pairwise estimation walks the merged
/// bottom-k of the two neighborhoods: the union's k minima form a uniform
/// sample of N(u) ∪ N(v); the fraction present in both sketches estimates
/// Jaccard, the k-th smallest hash estimates |∪| (KMV), and the matched
/// items — uniform samples of the intersection — carry the Adamic-Adar /
/// Resource-Allocation weights exactly as in MinHashPredictor.
class BottomKPredictor : public HalfEdgePredictor {
 public:
  explicit BottomKPredictor(const BottomKPredictorOptions& options = {});

  std::string name() const override { return "bottomk"; }
  VertexId num_vertices() const override { return store_.num_vertices(); }
  uint64_t MemoryBytes() const override;

  const BottomKPredictorOptions& options() const { return options_; }

  /// Degree estimate: exact counter or KMV estimate per options.
  double Degree(VertexId u) const;

  const BottomKSketch* Sketch(VertexId u) const { return store_.Get(u); }

  // Half-edge kernel (HalfEdgePredictor): bottom-k sets union and degree
  // counters add per endpoint, in both degree modes — with sketched
  // degrees, a vertex's KMV estimate lives entirely in its owning shard's
  // sketch.
  /// Consumes the batch's hash_v lane when present — the producer already
  /// computed HashU64(neighbor, seed) once, so the KMV kernel does zero
  /// hashing here.
  void ObserveNeighborBatch(const EdgeBatch& batch) override;
  /// The single-hash kernel contract: producers pre-hash neighbors under
  /// this seed into the EdgeBatch hash_v lane.
  bool NeighborHashSeed(uint64_t* seed) const override {
    *seed = options_.seed;
    return true;
  }
  double OwnedDegree(VertexId u) const override { return Degree(u); }
  bool SameOptions(const HalfEdgePredictor& other) const override {
    return SameKindAndOptions(*this, other);
  }
  OverlapEstimate EstimateOverlapSharded(
      VertexId u_row, const HalfEdgePredictor& v_home, VertexId v_row,
      const DegreeFn& degree_of) const override;

  /// Disjoint-partition merge (see MinHashPredictor::MergeFrom): sketches
  /// take bottom-k unions, exact degree counters add. Aborts on differing
  /// options.
  void MergeFrom(const BottomKPredictor& other);

  /// Snapshot primitive: deep copy via the copy constructor (all state is
  /// value-semantic, in both degree modes).
  std::unique_ptr<LinkPredictor> Clone() const override {
    return std::make_unique<BottomKPredictor>(*this);
  }

  /// Streams the full predictor state under the universal snapshot
  /// envelope (kind "bottomk"); whole-file writes go through the inherited
  /// crash-safe Save(path).
  Status SaveRows(BinaryWriter& writer, const ShardRows& rows,
                  uint64_t edges, uint64_t deletes) const override;

  /// Payload decoder for an already-consumed envelope header; validates
  /// sketch sizes and the degree-table length against the vertex count.
  static Result<BottomKPredictor> LoadFrom(BinaryReader& reader,
                                           uint32_t payload_version);

 private:
  BottomKPredictorOptions options_;
  SketchStore<BottomKSketch> store_;
  DegreeTable degrees_;
};

}  // namespace streamlink

#endif  // STREAMLINK_CORE_BOTTOMK_PREDICTOR_H_
