#ifndef STREAMLINK_CORE_HALF_EDGE_PREDICTOR_H_
#define STREAMLINK_CORE_HALF_EDGE_PREDICTOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/link_predictor.h"
#include "graph/types.h"
#include "stream/edge_batch.h"

namespace streamlink {

/// Routes a degree read to whatever owns the vertex's state. In a
/// single predictor this is its own degree table; in a vertex-sharded
/// build (ShardedPredictor) it dispatches to the owning shard. Exact
/// counters return integral doubles; KMV-backed degrees are fractional.
using DegreeFn = std::function<double(VertexId)>;

class HalfEdgePredictor;

/// The vertex rows of one logical predictor spread over N same-configured
/// shards, walked in global vertex order: the layout a kind's snapshot
/// writer (HalfEdgePredictor::SaveRows) reads. In a row-owned sharded
/// build (ShardedPredictor) vertex g is row g / N of shard g % N; a plain
/// predictor is its own only shard, where row and id coincide. The nested
/// "sharded" snapshots of older builds held global-indexed shards, where
/// vertex g is row g of shard g % N (`global_rows`).
class ShardRows {
 public:
  explicit ShardRows(const HalfEdgePredictor& only);
  ShardRows(std::vector<const HalfEdgePredictor*> shards, bool global_rows);

  /// One past the highest vertex id any shard holds a row for.
  VertexId num_vertices() const { return num_vertices_; }

  /// Calls fn(shard, row) for every vertex id below num_vertices(), in
  /// id order, with the vertex's shard as a PredictorT. The row may lie
  /// past the shard's rows: the vertex has no state there, so the writer
  /// emits what the kind's factory makes and a zero degree.
  template <typename PredictorT, typename Fn>
  void ForEach(const Fn& fn) const {
    const VertexId n = static_cast<VertexId>(shards_.size());
    for (VertexId g = 0; g < num_vertices_; ++g) {
      fn(static_cast<const PredictorT&>(*shards_[g % n]),
         global_rows_ ? g : g / n);
    }
  }

 private:
  std::vector<const HalfEdgePredictor*> shards_;
  bool global_rows_;
  VertexId num_vertices_ = 0;
};

/// A predictor whose state decomposes per *vertex* (see
/// docs/parallel_ingest.md): every vertex's state (sketch + degree) is
/// written only by half-edge updates of that vertex, and a pairwise
/// estimate reads only the two endpoints' state plus routed degree
/// lookups. Edge (u, v) is "v joins N(u)" plus "u joins N(v)".
///
/// The half-edge batch kernels are a kind's only ingest code: whole-edge
/// ingest, the single-predictor query and the snapshot envelope are
/// derived from them here, once. The kernels and queries address a
/// vertex's state by its *row*; neighbor ids (and anything a sketch keeps
/// of them) stay global. A plain predictor's rows are the vertex ids.
/// ParallelIngestEngine partitions vertices across N same-configured
/// instances (shard t owns u with u % N == t and stores it at row u / N)
/// and ShardedPredictor routes queries to the two owning shards; because
/// both paths run the same kernels, the same EstimateOverlapSharded and
/// the same SaveRows, answers and snapshots are bit-identical to a
/// sequential build. The kind table (core/predictor_factory.h) marks a
/// kind shardable exactly when it derives from this class.
class HalfEdgePredictor : public LinkPredictor {
 public:
  /// Half-edge kernel: every element (u, v) of `batch` means "the vertex
  /// at row u gained neighbor v" and touches only that row's state (in a
  /// shard, u is an owned row; v is a global id). Does not advance
  /// edges_processed() (two half-edges are one edge). When the batch
  /// carries a hash_v lane it holds HashU64(v, NeighborHashSeed) for each
  /// element, and kinds that announce a seed may consume it instead of
  /// re-hashing.
  virtual void ObserveNeighborBatch(const EdgeBatch& batch) = 0;

  /// Half-edge retraction kernel: every element (u, v) means "u lost
  /// neighbor v" — the delete-side mirror of ObserveNeighborBatch. Does
  /// not advance deletes_processed(). Only deletable kinds implement it;
  /// the default is fatal.
  virtual void RetractNeighborBatch(const EdgeBatch& batch);

  /// Applies a half-edge batch, dispatching each maximal same-op run to
  /// ObserveNeighborBatch or RetractNeighborBatch. Batches without an op
  /// lane go straight to ObserveNeighborBatch (zero turnstile overhead on
  /// the insert-only hot path). Half-edge batches never contain
  /// self-loops, so runs split on op alone.
  void ApplyHalfEdges(const EdgeBatch& batch);

  /// When the half-edge kernel consumes a single seeded neighbor hash
  /// HashU64(neighbor, seed), returns true and writes that seed — the
  /// producer then pre-computes the hash once per half-edge into the
  /// batch's hash_v lane (the "pre-hashed EdgeBatch" contract). Kinds that
  /// hash k times (minhash) or not at all return false.
  virtual bool NeighborHashSeed(uint64_t* /*seed*/) const { return false; }

  /// Current degree of the vertex at row `row` — the per-shard leg of a
  /// routed DegreeFn.
  virtual double OwnedDegree(VertexId row) const = 0;

  /// True when `other` is this kind with the same options: the pairs
  /// EstimateOverlapSharded accepts, and what each shard of a loaded
  /// sharded snapshot must be to its shard 0.
  virtual bool SameOptions(const HalfEdgePredictor& other) const = 0;

  /// Pairwise estimate across shards: u's state is row `u_row` of this
  /// predictor, v's is row `v_row` of `v_home` (SameOptions; may be
  /// `*this`), and `degree_of` routes a neighbor's degree, by global id,
  /// to its owner. Fatal when not SameOptions.
  virtual OverlapEstimate EstimateOverlapSharded(
      VertexId u_row, const HalfEdgePredictor& v_home, VertexId v_row,
      const DegreeFn& degree_of) const = 0;

  /// EstimateOverlapSharded with this predictor as v's home and its own
  /// degrees, so sequential and sharded queries agree bit for bit.
  OverlapEstimate EstimateOverlap(VertexId u, VertexId v) const final;

  /// The kind's one snapshot writer: the kind's envelope over `rows` (this
  /// predictor and its SameOptions peers), in global vertex order, with the
  /// stream's edge and delete counts. A sharded build therefore writes the
  /// same bytes as a sequential build of the same stream.
  virtual Status SaveRows(BinaryWriter& writer, const ShardRows& rows,
                          uint64_t edges, uint64_t deletes) const = 0;

  /// SaveRows with this predictor as its only shard.
  Status SaveTo(BinaryWriter& writer) const final;

 protected:
  /// SameOptions of a kind whose options() compare with ==.
  template <typename PredictorT>
  static bool SameKindAndOptions(const PredictorT& self,
                                 const HalfEdgePredictor& other) {
    const auto* peer = dynamic_cast<const PredictorT*>(&other);
    return peer != nullptr && peer->options() == self.options();
  }

  /// Whole-edge batches: each edge (u, v) becomes the half-edges (u, v)
  /// and (v, u), in stream order, and the kernel receives them as one
  /// batch; the edge or delete count advances once per batch. Every
  /// vertex sees its neighbors in stream order, as in a sharded build.
  void ProcessBatch(const EdgeBatch& batch) override;
  void ProcessDeleteBatch(const EdgeBatch& batch) override;

 private:
  /// Rewrites `batch` as its half-edges in scratch_.
  EdgeBatch HalfEdgesOf(const EdgeBatch& batch);

  /// Working memory of the whole-edge batches, not predictor state:
  /// copies start empty, and MemoryBytes and SaveTo ignore it.
  struct Scratch {
    Scratch() = default;
    Scratch(const Scratch& /*other*/) {}
    Scratch& operator=(const Scratch& /*other*/) { return *this; }
    EdgeList half_edges;
  };
  Scratch scratch_;
};

}  // namespace streamlink

#endif  // STREAMLINK_CORE_HALF_EDGE_PREDICTOR_H_
