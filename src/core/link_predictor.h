#ifndef STREAMLINK_CORE_LINK_PREDICTOR_H_
#define STREAMLINK_CORE_LINK_PREDICTOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/exact_measures.h"
#include "graph/types.h"
#include "stream/stream_driver.h"
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

/// Routes a degree read to whatever owns the vertex's state. In a
/// single predictor this is its own degree table; in a vertex-sharded
/// build (ShardedPredictor) it dispatches to the owning shard. Exact
/// counters return integral doubles; KMV-backed degrees are fractional.
using DegreeFn = std::function<double(VertexId)>;

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
class LinkPredictor : public EdgeConsumer {
 public:
  ~LinkPredictor() override = default;

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
  /// must check. ShardedPredictor's override folds mergeable kinds into a
  /// single compact predictor first (see its docs).
  virtual std::unique_ptr<LinkPredictor> Clone() const { return nullptr; }

  /// Serializes the predictor's full state into `writer` as a tagged
  /// snapshot envelope (kind string + payload version, see util/serde.h)
  /// followed by the kind-specific payload. Container kinds
  /// (ShardedPredictor) nest one complete envelope per shard. The base
  /// default returns FailedPrecondition, meaning "not snapshottable" —
  /// every in-tree kind overrides it. Restore through
  /// LoadPredictorSnapshot / LoadPredictorFrom (core/predictor_factory.h).
  virtual Status SaveTo(BinaryWriter& writer) const;

  /// Writes a crash-safe snapshot file: SaveTo routed through
  /// WriteFileAtomic (temp file + fsync + atomic rename) with a
  /// whole-file checksum footer, so a crash mid-write can never leave a
  /// torn snapshot at `path`. The default covers every kind with SaveTo;
  /// virtual so out-of-tree predictors can substitute their own storage.
  virtual Status Save(const std::string& path) const;

  /// Number of vertices with any state (max endpoint seen + 1).
  virtual VertexId num_vertices() const = 0;

  /// Edges ingested so far (inserts only; see deletes_processed()).
  uint64_t edges_processed() const { return edges_processed_; }

  /// Edge deletions applied so far (turnstile kinds only).
  uint64_t deletes_processed() const { return deletes_processed_; }

  /// Total heap footprint of the predictor's state in bytes.
  virtual uint64_t MemoryBytes() const = 0;

  /// Retracts one previously inserted edge — the turnstile counterpart of
  /// OnEdge. Filters self-loops, accounts the delete, and hands the edge to
  /// ProcessDelete. Only kinds with SupportsDeletions() implement the
  /// kernel; calling this on any other kind is fatal.
  void DeleteEdge(const Edge& edge) {
    if (edge.IsSelfLoop()) return;
    ++deletes_processed_;
    ProcessDelete(edge);
  }

  /// Primary delivery path (StreamDriver and ParallelIngestEngine arrive
  /// here): filters self-loops, accounts edges, and hands maximal
  /// self-loop-free same-op runs — hash lanes still aligned — to
  /// ProcessBatch / ProcessDeleteBatch in one virtual dispatch per run.
  /// Batches without an op lane take the historical all-insert path.
  void OnEdgeBatch(const EdgeBatch& batch) final {
    if (!batch.has_ops()) {
      size_t run_start = 0;
      for (size_t i = 0; i < batch.size(); ++i) {
        if (batch[i].IsSelfLoop()) {
          if (i > run_start) {
            ProcessBatch(batch.Slice(run_start, i - run_start));
          }
          run_start = i + 1;
        }
      }
      if (batch.size() > run_start) {
        ProcessBatch(batch.Slice(run_start, batch.size() - run_start));
      }
      return;
    }
    size_t run_start = 0;
    EdgeOp run_op = EdgeOp::kInsert;
    auto flush = [&](size_t end) {
      if (end <= run_start) return;
      EdgeBatch run = batch.Slice(run_start, end - run_start);
      if (run_op == EdgeOp::kInsert) {
        ProcessBatch(run);
      } else {
        ProcessDeleteBatch(run);
      }
    };
    for (size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].IsSelfLoop()) {
        flush(i);
        run_start = i + 1;
        continue;
      }
      if (batch.op(i) != run_op) {
        flush(i);
        run_start = i;
        run_op = batch.op(i);
      }
    }
    flush(batch.size());
  }

  /// Folds `count` externally-accounted edges into edges_processed().
  /// Used by disjoint-partition merges (MergeFrom) and by sharded builds,
  /// whose half-edge updates (ObserveNeighbor) deliberately do not count
  /// edges — two half-edges are one edge.
  void AddProcessedEdges(uint64_t count) { edges_processed_ += count; }

  /// The deletes_processed() analogue of AddProcessedEdges: folds `count`
  /// externally-accounted deletions (merged replicas, sharded half-edge
  /// retractions) into the counter.
  void AddProcessedDeletes(uint64_t count) { deletes_processed_ += count; }

  /// True if the kind can retract edges natively (turnstile model):
  /// DeleteEdge / delete-tagged batches / RetractNeighbor are implemented
  /// and insert∘delete of the same edge restores the prior state exactly.
  /// Insert-only kinds return false; wrap them in TombstoneWindowPredictor
  /// (core/tombstone_predictor.h) for bounded-lag delete support.
  virtual bool SupportsDeletions() const { return false; }

  // --- Vertex-sharded operation (see docs/parallel_ingest.md) ---
  //
  // A shardable predictor decomposes per *vertex*: every vertex's state
  // (sketch + degree) is written only by half-edge updates of that vertex,
  // and a pairwise estimate reads only the two endpoints' state plus
  // routed degree lookups. ParallelIngestEngine partitions vertices across
  // N same-configured predictors (shard t owns u with u % N == t) and
  // ShardedPredictor routes queries to the two owning shards; results are
  // bit-identical to a sequential build.

  /// True if the predictor implements the half-edge / cross-shard hooks
  /// below. Kinds whose updates depend on global stream state (windowed
  /// bucket rotation, neighbor-degree-dependent sampling) return false.
  virtual bool SupportsSharding() const { return false; }

  /// Half-edge update for vertex-partitioned ingestion: records that
  /// `neighbor` joined N(u), touching ONLY u's state. A full edge (u, v)
  /// is two half-edges, routed to (possibly) different shards that each
  /// own a disjoint slice of the vertex space, so total state equals a
  /// single-predictor build. Does not advance edges_processed()
  /// (half-edges are not edges). Fatal on unshardable kinds.
  virtual void ObserveNeighbor(VertexId u, VertexId neighbor);

  /// Batched half-edge updates: every element (u, v) of `batch` means "u
  /// gained neighbor v" and every u must be owned by this predictor — the
  /// unit a parallel-ingest shard worker applies per ring hand-off. When
  /// the batch carries a hash_v lane it holds HashU64(v, NeighborHashSeed)
  /// for each element, and kinds that announce a seed may consume it
  /// instead of re-hashing. Default loops ObserveNeighbor; shardable kinds
  /// override to hoist per-call overhead out of the loop. Fatal on
  /// unshardable kinds.
  virtual void ObserveNeighborBatch(const EdgeBatch& batch) {
    for (const Edge& e : batch) ObserveNeighbor(e.u, e.v);
  }

  /// Half-edge retraction: records that `neighbor` left N(u), touching
  /// ONLY u's state — the delete-side mirror of ObserveNeighbor. Does not
  /// advance deletes_processed(). Fatal on kinds without both sharding and
  /// deletion support.
  virtual void RetractNeighbor(VertexId u, VertexId neighbor);

  /// Batched half-edge retractions; same contract as ObserveNeighborBatch
  /// with delete semantics. Default loops RetractNeighbor.
  virtual void RetractNeighborBatch(const EdgeBatch& batch) {
    for (const Edge& e : batch) RetractNeighbor(e.u, e.v);
  }

  /// Applies a half-edge batch, dispatching each maximal same-op run to
  /// ObserveNeighborBatch or RetractNeighborBatch. Batches without an op
  /// lane go straight to ObserveNeighborBatch (zero turnstile overhead on
  /// the insert-only hot path). Half-edge batches never contain self-loops,
  /// so runs split on op alone.
  void ApplyHalfEdges(const EdgeBatch& batch) {
    if (!batch.has_ops()) {
      ObserveNeighborBatch(batch);
      return;
    }
    size_t run_start = 0;
    EdgeOp run_op = batch.op(0);
    auto flush = [&](size_t end) {
      if (end <= run_start) return;
      EdgeBatch run = batch.Slice(run_start, end - run_start);
      if (run_op == EdgeOp::kInsert) {
        ObserveNeighborBatch(run);
      } else {
        RetractNeighborBatch(run);
      }
    };
    for (size_t i = 0; i < batch.size(); ++i) {
      if (batch.op(i) != run_op) {
        flush(i);
        run_start = i;
        run_op = batch.op(i);
      }
    }
    flush(batch.size());
  }

  /// When the predictor's half-edge kernel consumes a single seeded
  /// neighbor hash HashU64(neighbor, seed), returns true and writes that
  /// seed — the producer then pre-computes the hash once per half-edge
  /// into the batch's hash_v lane (the "pre-hashed EdgeBatch" contract).
  /// Kinds that hash k times (minhash) or not at all return false.
  virtual bool NeighborHashSeed(uint64_t* /*seed*/) const { return false; }

  /// Current degree of a vertex this predictor owns — the per-shard leg of
  /// a routed DegreeFn. Fatal on unshardable kinds.
  virtual double OwnedDegree(VertexId u) const;

  /// Pairwise estimate across shards: `this` owns u's state, `v_home`
  /// (same kind, same options; may be `*this`) owns v's, and `degree_of`
  /// routes any vertex's degree to its owner. Single-predictor
  /// EstimateOverlap delegates here with itself as v_home, so sequential
  /// and sharded queries run the same code and agree bit for bit. Fatal on
  /// unshardable kinds and cross-kind or cross-option pairs.
  virtual OverlapEstimate EstimateOverlapSharded(
      VertexId u, const LinkPredictor& v_home, VertexId v,
      const DegreeFn& degree_of) const;

 protected:
  /// Implementations ingest one non-self-loop edge here.
  virtual void ProcessEdge(const Edge& edge) = 0;

  /// Batched ingest kernel: a self-loop-free run of whole edges, hash
  /// lanes (when present) aligned. The kernel owns accounting so
  /// edges_processed() keeps its OnEdge-path meaning mid-run (the windowed
  /// kind reads it per edge for bucket rotation): the default increments
  /// before each ProcessEdge exactly like OnEdge; overrides that never
  /// read edges_processed() during the run bulk-account with
  /// AddProcessedEdges(batch.size()) instead. Overriding ProcessEdge alone
  /// stays correct.
  virtual void ProcessBatch(const EdgeBatch& batch) {
    for (const Edge& e : batch) {
      ++edges_processed_;
      ProcessEdge(e);
    }
  }

  /// Deletion kernel: retracts one non-self-loop edge. Only kinds with
  /// SupportsDeletions() override; the base default is fatal.
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
