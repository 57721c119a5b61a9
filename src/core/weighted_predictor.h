#ifndef STREAMLINK_CORE_WEIGHTED_PREDICTOR_H_
#define STREAMLINK_CORE_WEIGHTED_PREDICTOR_H_

#include <string>
#include <vector>

#include "core/sketch_store.h"
#include "graph/weighted_graph.h"
#include "sketch/icws.h"
#include "util/status.h"

namespace streamlink {

class BinaryReader;
class BinaryWriter;

/// Options for WeightedJaccardPredictor.
struct WeightedPredictorOptions {
  /// ICWS slots per vertex; matched-slot error decays as 1/sqrt(k).
  uint32_t num_slots = 64;
  uint64_t seed = 0x5eed;
};

/// Weighted-stream extension of the streaming link predictor.
///
/// Input is a *weighted simple stream*: each undirected edge (u, v, w)
/// arrives once with its final positive weight (interaction strength,
/// co-occurrence count, channel capacity, ...). Per vertex it maintains
/// an ICWS sketch of the weighted neighborhood map x ↦ w_u(x) plus the
/// exact weighted degree (strength) S_u = Σ_x w_u(x) — the weighted
/// analogues of the paper's MinHash sketch + degree counter. Estimators:
///
///   generalized Jaccard  Ĵ_w = matched slots / k        (unbiased)
///   Σ min(w_u, w_v)      = Ĵ_w/(1+Ĵ_w) · (S_u + S_v)    (weighted CN,
///       from Σmin + Σmax = S_u + S_v, Ĵ_w = Σmin/Σmax)
///
/// With unit weights these collapse to the unweighted predictor exactly.
class WeightedJaccardPredictor {
 public:
  explicit WeightedJaccardPredictor(
      const WeightedPredictorOptions& options = {});

  std::string name() const { return "weighted_icws"; }

  /// Ingests one weighted edge. O(k). Weight must be positive.
  void OnWeightedEdge(const WeightedEdge& edge);
  void OnWeightedEdge(VertexId u, VertexId v, double weight) {
    OnWeightedEdge(WeightedEdge{u, v, weight});
  }

  uint64_t edges_processed() const { return edges_processed_; }
  VertexId num_vertices() const { return store_.num_vertices(); }

  /// Weighted degree of u on the stream so far.
  double Strength(VertexId u) const {
    return u < strength_.size() ? strength_[u] : 0.0;
  }

  /// Weighted overlap estimate (fields mirror WeightedOverlap; min_sum is
  /// the weighted common-neighbor mass).
  struct WeightedEstimate {
    double strength_u = 0.0;
    double strength_v = 0.0;
    double generalized_jaccard = 0.0;
    double min_sum = 0.0;
    double max_sum = 0.0;
  };
  WeightedEstimate Estimate(VertexId u, VertexId v) const;

  const IcwsSketch* Sketch(VertexId u) const { return store_.Get(u); }

  uint64_t MemoryBytes() const;

  // Snapshot I/O (kind "weighted_icws"). Not a LinkPredictor, so these are
  // plain members mirroring the virtual Save/SaveTo contract: SaveTo
  // writes the envelope + payload, Save wraps it in WriteFileAtomic with
  // a checksum footer, Load verifies both through ReadFileVerified.
  Status SaveTo(BinaryWriter& writer) const;
  Status Save(const std::string& path) const;
  static Result<WeightedJaccardPredictor> LoadFrom(BinaryReader& reader,
                                                   uint32_t payload_version);
  static Result<WeightedJaccardPredictor> Load(const std::string& path);

 private:
  WeightedPredictorOptions options_;
  SketchStore<IcwsSketch> store_;
  std::vector<double> strength_;
  uint64_t edges_processed_ = 0;
};

}  // namespace streamlink

#endif  // STREAMLINK_CORE_WEIGHTED_PREDICTOR_H_
