#ifndef STREAMLINK_CORE_OPH_PREDICTOR_H_
#define STREAMLINK_CORE_OPH_PREDICTOR_H_

#include <string>

#include "core/half_edge_predictor.h"
#include "core/sketch_store.h"
#include "sketch/oph.h"
#include "util/status.h"

namespace streamlink {

/// Options for OphPredictor.
struct OphPredictorOptions {
  /// Number of bins per vertex (the k of the densified MinHash vector).
  uint32_t num_bins = 64;
  uint64_t seed = 0x5eed;

  bool operator==(const OphPredictorOptions&) const = default;
};

/// One-permutation-hashing variant of the streaming link predictor: the
/// fast-update extension. Per edge it computes ONE hash per endpoint
/// (vs k for MinHashPredictor) while still producing a k-wide min-wise
/// vector per vertex; estimation mirrors MinHashPredictor (matched
/// densified bins → Jaccard; degree counters → CN; matched-bin arg-min
/// items → AA/RA samples).
///
/// Tradeoff quantified by bench F10: near-k-permutation accuracy once
/// degrees reach a few times k; elevated variance on tiny neighborhoods
/// (densified bins are correlated); ~an order of magnitude faster ingest
/// at large k.
class OphPredictor : public HalfEdgePredictor {
 public:
  explicit OphPredictor(const OphPredictorOptions& options = {});

  std::string name() const override { return "oph"; }
  VertexId num_vertices() const override { return store_.num_vertices(); }
  uint64_t MemoryBytes() const override;

  const OphPredictorOptions& options() const { return options_; }
  uint32_t Degree(VertexId u) const { return degrees_.Degree(u); }
  const OphSketch* Sketch(VertexId u) const { return store_.Get(u); }

  // Half-edge kernel (HalfEdgePredictor): bin updates and densification
  // depend only on the owning vertex's inserts, so OPH decomposes across
  // vertex shards like plain MinHash. OPH hashes internally with its own
  // bin scheme, so the batch's hash lane is unused.
  void ObserveNeighborBatch(const EdgeBatch& batch) override {
    for (const Edge& e : batch) {
      store_.Mutable(e.u).Update(e.v);
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

  /// Snapshot primitive: deep copy via the copy constructor.
  std::unique_ptr<LinkPredictor> Clone() const override {
    return std::make_unique<OphPredictor>(*this);
  }

  /// Universal snapshot envelope, kind "oph"; whole-file writes go through
  /// the inherited crash-safe Save(path).
  Status SaveRows(BinaryWriter& writer, const ShardRows& rows,
                  uint64_t edges, uint64_t deletes) const override;

  /// Payload decoder for an already-consumed envelope header.
  static Result<OphPredictor> LoadFrom(BinaryReader& reader,
                                       uint32_t payload_version);

 private:
  OphPredictorOptions options_;
  SketchStore<OphSketch> store_;
  DegreeTable degrees_;
};

}  // namespace streamlink

#endif  // STREAMLINK_CORE_OPH_PREDICTOR_H_
