#ifndef STREAMLINK_CORE_SHARDED_PREDICTOR_H_
#define STREAMLINK_CORE_SHARDED_PREDICTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "core/half_edge_predictor.h"
#include "core/predictor_factory.h"
#include "util/status.h"

namespace streamlink {

/// A vertex-partitioned link predictor: a routing view over N
/// same-configured shards of one shardable kind (a HalfEdgePredictor).
/// Shard `u % N` owns vertex u and stores its state at row `u / N`, so the
/// N shards together hold one row per vertex, as a sequential build does.
///
/// Every edge (u, v) becomes two half-edges — (u owns v) and (v owns u) —
/// applied through the owning shards' half-edge batch kernels at the
/// owners' rows; neighbor ids stay global. Queries route to the two owning
/// shards and resolve neighbor degrees through a routed DegreeFn; because
/// each shard's EstimateOverlapSharded is the same code the sequential
/// predictor runs, estimates are bit-identical to a sequential build of
/// the same stream, and so is the snapshot: SaveTo runs the kind's one
/// row writer (HalfEdgePredictor::SaveRows) over all N shards in global
/// vertex order.
///
/// Ingestion through the LinkPredictor interface (OnEdge/OnEdgeBatch)
/// routes half-edges synchronously; ParallelIngestEngine ingests into the
/// shards from worker threads instead, one thread per shard.
///
/// Thread safety: distinct shards may be written concurrently (the engine
/// does); queries must not run concurrently with writes.
class ShardedPredictor : public LinkPredictor {
 public:
  /// Builds `config.threads` shards of `config.kind`. InvalidArgument if
  /// the kind table does not list the kind as shardable, if threads is 0,
  /// if a tombstone window is set (it is sequential-only), or if the
  /// per-shard config is itself invalid.
  static Result<std::unique_ptr<ShardedPredictor>> Make(
      const PredictorConfig& config);

  std::string name() const override { return "sharded:" + kind_; }
  OverlapEstimate EstimateOverlap(VertexId u, VertexId v) const override;
  VertexId num_vertices() const override;
  uint64_t MemoryBytes() const override;

  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  /// The shard owning vertex u's state.
  uint32_t OwnerOf(VertexId u) const { return u % num_shards(); }
  /// The row of vertex u in its owning shard.
  VertexId RowOf(VertexId u) const { return u / num_shards(); }

  HalfEdgePredictor& shard(uint32_t i) { return *shards_[i]; }
  const HalfEdgePredictor& shard(uint32_t i) const { return *shards_[i]; }

  /// The underlying predictor kind, e.g. "minhash".
  const std::string& kind() const { return kind_; }

  /// Snapshot primitive: copies every shard behind a new view, which
  /// answers queries bit-identically to this predictor at clone time.
  std::unique_ptr<LinkPredictor> Clone() const override;

  /// The kind's own envelope, byte-identical to a sequential build's.
  Status SaveTo(BinaryWriter& writer) const override;

  /// Decoder of the nested "sharded" envelope older builds wrote (read
  /// only): the underlying kind, the container's edge count (v2 adds its
  /// delete count), the shard count and one complete envelope per
  /// global-indexed shard. Returns a plain predictor of the kind. Each
  /// nested envelope must name the container's kind, which the kind table
  /// must list as shardable, and be configured like shard 0.
  static Result<std::unique_ptr<LinkPredictor>> LoadFrom(
      BinaryReader& reader, uint32_t payload_version);

 protected:
  /// Route the two half-edges (a delete retracts them, the mirror of
  /// insertion routing) through the owning shards' batch kernels.
  void ProcessEdge(const Edge& edge) override;
  void ProcessDelete(const Edge& edge) override;

 private:
  ShardedPredictor(std::string kind,
                   std::vector<std::unique_ptr<HalfEdgePredictor>> shards)
      : kind_(std::move(kind)), shards_(std::move(shards)) {}

  /// The shards as row-owned ShardRows.
  ShardRows Rows() const;

  std::string kind_;
  std::vector<std::unique_ptr<HalfEdgePredictor>> shards_;
};

}  // namespace streamlink

#endif  // STREAMLINK_CORE_SHARDED_PREDICTOR_H_
