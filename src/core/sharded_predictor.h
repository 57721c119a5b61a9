#ifndef STREAMLINK_CORE_SHARDED_PREDICTOR_H_
#define STREAMLINK_CORE_SHARDED_PREDICTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "core/half_edge_predictor.h"
#include "core/predictor_factory.h"
#include "util/status.h"

namespace streamlink {

/// A vertex-partitioned link predictor: N same-configured shards of one
/// shardable kind (a HalfEdgePredictor), where shard `u % N` owns vertex
/// u's state.
///
/// Every edge (u, v) becomes two half-edges — (u owns v) and (v owns u) —
/// applied through the owning shards' half-edge batch kernels. Queries
/// route to the two owning shards and resolve common-neighbor degrees
/// through a routed DegreeFn; because each shard's EstimateOverlapSharded
/// is the same code the sequential predictor runs, estimates are
/// bit-identical to a sequential build of the same stream.
///
/// Memory is not that of a single predictor: each shard's per-vertex
/// store is indexed by global vertex id, so every shard holds rows for all
/// vertices, not for 1/N of them, and N shards hold about N times the
/// per-vertex state. Clone() folds minhash, bottomk and tcm into one
/// single predictor, a further copy. Row-owned shards ("Shard by row
/// ownership" in ROADMAP.md) would remove both.
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

  HalfEdgePredictor& shard(uint32_t i) { return *shards_[i]; }
  const HalfEdgePredictor& shard(uint32_t i) const { return *shards_[i]; }

  /// The underlying predictor kind, e.g. "minhash".
  const std::string& kind() const { return kind_; }

  /// Snapshot primitive. Kinds with a lossless disjoint-partition merge
  /// (minhash, bottomk, tcm) are *folded* into one single predictor —
  /// vertex shards own disjoint vertex sets, so the merge is exact and the
  /// snapshot sheds the routing layer. Other kinds clone shard-wise into a
  /// new ShardedPredictor. Either way the clone answers queries
  /// bit-identically to this predictor at clone time.
  std::unique_ptr<LinkPredictor> Clone() const override;

  /// Universal snapshot envelope, kind "sharded": the underlying kind,
  /// the container's edge count, and one complete nested envelope per
  /// shard. The shard partition (vertex u -> shard u % N) is positional,
  /// so restoring the shards in order reproduces the routing exactly.
  Status SaveTo(BinaryWriter& writer) const override;

  /// Payload decoder for an already-consumed envelope header. Each nested
  /// shard envelope must name the container's kind, which the kind table
  /// must list as shardable; its payload is decoded by that table row.
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

  std::string kind_;
  std::vector<std::unique_ptr<HalfEdgePredictor>> shards_;
};

}  // namespace streamlink

#endif  // STREAMLINK_CORE_SHARDED_PREDICTOR_H_
