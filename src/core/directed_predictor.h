#ifndef STREAMLINK_CORE_DIRECTED_PREDICTOR_H_
#define STREAMLINK_CORE_DIRECTED_PREDICTOR_H_

#include <string>

#include "core/sketch_store.h"
#include "graph/digraph.h"
#include "graph/types.h"
#include "sketch/minhash.h"
#include "stream/stream_driver.h"
#include "util/hashing.h"
#include "util/status.h"

namespace streamlink {

class BinaryReader;
class BinaryWriter;

/// Options for DirectedMinHashPredictor.
struct DirectedPredictorOptions {
  /// MinHash slots per vertex *per side* (out and in each get this many).
  uint32_t num_hashes = 64;
  uint64_t seed = 0x5eed;
};

/// Directed-stream extension of the MinHash link predictor.
///
/// The paper's model is undirected; many real graph streams (follower
/// graphs, citations, web links) are not. This predictor keeps TWO
/// sketches per vertex — one over successors N+(u), one over predecessors
/// N-(u) — plus exact in/out degree counters. Any of the four directional
/// overlap combinations can then be estimated:
///
///   (kOut, kOut): common successors — "u and v link to the same pages"
///   (kIn,  kIn ): common predecessors — "u and v are cited together"
///   (kOut, kIn ): u's successors that are v's predecessors, etc.
///
/// Estimators mirror the undirected MinHashPredictor: matched slots give
/// Jaccard; the degree identity gives the intersection; matched arg-min
/// vertices weighted by 1/ln(total degree) give directed Adamic-Adar.
/// Streams are directed-simple (each arc at most once).
///
/// Note this is NOT a LinkPredictor (the unified interface is undirected);
/// it is a sibling with a direction-aware query surface.
class DirectedMinHashPredictor : public EdgeConsumer {
 public:
  explicit DirectedMinHashPredictor(
      const DirectedPredictorOptions& options = {});

  std::string name() const { return "directed_minhash"; }

  /// Ingests each arc edge.u -> edge.v in order (order is meaningful).
  /// Self-loops dropped; lanes unused (two per-side k-permutation families
  /// re-hash regardless).
  void OnEdgeBatch(const EdgeBatch& batch) override;

  uint64_t arcs_processed() const { return arcs_processed_; }
  VertexId num_vertices() const;
  uint32_t OutDegree(VertexId u) const { return out_degrees_.Degree(u); }
  uint32_t InDegree(VertexId u) const { return in_degrees_.Degree(u); }

  /// Directed overlap estimate between u's `du`-side neighborhood and v's
  /// `dv`-side neighborhood.
  struct DirectedEstimate {
    double size_u = 0.0;        // |N_du(u)|
    double size_v = 0.0;        // |N_dv(v)|
    double jaccard = 0.0;
    double intersection = 0.0;  // common neighbors in those directions
    double union_size = 0.0;
    double adamic_adar = 0.0;   // weights 1/ln(out+in degree of w)
  };
  DirectedEstimate Estimate(VertexId u, Direction du, VertexId v,
                            Direction dv) const;

  uint64_t MemoryBytes() const;

  // Snapshot I/O (kind "directed_minhash"). Not a LinkPredictor, so these
  // are plain members mirroring the virtual Save/SaveTo contract. The two
  // sides are serialized independently (their vertex sets differ: an arc
  // u->v grows only u's out side and v's in side).
  Status SaveTo(BinaryWriter& writer) const;
  Status Save(const std::string& path) const;
  static Result<DirectedMinHashPredictor> LoadFrom(BinaryReader& reader,
                                                   uint32_t payload_version);
  static Result<DirectedMinHashPredictor> Load(const std::string& path);

 private:
  const SketchStore<MinHashSketch>& SideStore(Direction direction) const {
    return direction == Direction::kOut ? out_store_ : in_store_;
  }
  double SideDegree(VertexId x, Direction direction) const {
    return direction == Direction::kOut ? out_degrees_.Degree(x)
                                        : in_degrees_.Degree(x);
  }

  DirectedPredictorOptions options_;
  HashFamily family_;
  SketchStore<MinHashSketch> out_store_;
  SketchStore<MinHashSketch> in_store_;
  DegreeTable out_degrees_;
  DegreeTable in_degrees_;
  uint64_t arcs_processed_ = 0;
};

}  // namespace streamlink

#endif  // STREAMLINK_CORE_DIRECTED_PREDICTOR_H_
