#ifndef STREAMLINK_STREAM_EDGE_BATCH_H_
#define STREAMLINK_STREAM_EDGE_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/types.h"

namespace streamlink {

/// Turnstile op tag carried (optionally) alongside each batch element.
/// kInsert adds the edge (or half-edge) to the stream; kDelete retracts a
/// previously inserted one. A batch with no op lane is all-inserts — the
/// pre-turnstile wire format, still the common case.
enum class EdgeOp : uint8_t {
  kInsert = 0,
  kDelete = 1,
};

/// A non-owning view of a contiguous run of stream edges, optionally
/// annotated with pre-computed per-endpoint vertex hashes — the unit of
/// delivery into a predictor (LinkPredictor::OnEdgeBatch, and the shard
/// kernels' HalfEdgePredictor::ApplyHalfEdges) and the payload the
/// parallel ingest engine hands across threads.
///
/// Lanes:
///  * `edges` (always present): the run itself. For *whole-edge* batches
///    each element is an undirected stream edge; for the engine's
///    *half-edge* batches, element (u, v) means "u gained neighbor v" and
///    u is always owned by the receiving shard.
///  * `ops` (optional): the turnstile op of each element (EdgeOp). Absent
///    means every element is an insert, so insert-only producers and
///    consumers pay nothing for the lane's existence.
///  * `hash_u` / `hash_v` (optional, independently nullable): the seeded
///    vertex hash `HashU64(edge.u, seed)` / `HashU64(edge.v, seed)` of each
///    element, computed ONCE by the producer under the seed the consumer
///    announced (HalfEdgePredictor::NeighborHashSeed), so single-hash
///    sketch kernels (bottom-k) never re-hash on the hot path. Only the
///    half-edge kernels read a lane, the `hash_v` (neighbor) lane the
///    sharded router fills; whole-edge ingest ignores both.
///
/// The view is valid only for the duration of the call it is passed to;
/// a predictor must copy anything it keeps. A batch is semantically
/// identical to delivering its edges through LinkPredictor::OnEdge in order
/// (the hash lanes are a pure evaluation-strategy hint — they never change
/// what state an update produces).
class EdgeBatch {
 public:
  EdgeBatch() = default;
  EdgeBatch(const Edge* edges, size_t count)
      : edges_(edges), count_(count) {}
  EdgeBatch(const Edge* edges, size_t count, const uint64_t* hash_u,
            const uint64_t* hash_v)
      : edges_(edges), count_(count), hash_u_(hash_u), hash_v_(hash_v) {}
  EdgeBatch(const Edge* edges, size_t count, const uint64_t* hash_u,
            const uint64_t* hash_v, const EdgeOp* ops)
      : edges_(edges),
        count_(count),
        hash_u_(hash_u),
        hash_v_(hash_v),
        ops_(ops) {}

  /// Wraps one edge as a size-1 batch — what the cold-path OnEdge
  /// convenience forwards through. The edge must outlive the view.
  static EdgeBatch Single(const Edge& edge) { return EdgeBatch(&edge, 1); }

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  const Edge* data() const { return edges_; }
  const Edge& operator[](size_t i) const { return edges_[i]; }
  const Edge* begin() const { return edges_; }
  const Edge* end() const { return edges_ + count_; }

  bool has_hash_u() const { return hash_u_ != nullptr; }
  bool has_hash_v() const { return hash_v_ != nullptr; }
  /// Pre-computed HashU64(edge.u / edge.v, seed). Precondition:
  /// has_hash_u() / has_hash_v().
  uint64_t hash_u(size_t i) const { return hash_u_[i]; }
  uint64_t hash_v(size_t i) const { return hash_v_[i]; }
  const uint64_t* hash_u_lane() const { return hash_u_; }
  const uint64_t* hash_v_lane() const { return hash_v_; }

  bool has_ops() const { return ops_ != nullptr; }
  /// Per-element turnstile op. Batches without an op lane are all-inserts,
  /// so op(i) is total: it answers kInsert when the lane is absent.
  EdgeOp op(size_t i) const {
    return ops_ != nullptr ? ops_[i] : EdgeOp::kInsert;
  }
  const EdgeOp* ops_lane() const { return ops_; }

  /// Span-style sub-view of `count` edges starting at `offset`, lanes
  /// included. Precondition: offset + count <= size().
  EdgeBatch Slice(size_t offset, size_t count) const {
    return EdgeBatch(edges_ + offset, count,
                     hash_u_ != nullptr ? hash_u_ + offset : nullptr,
                     hash_v_ != nullptr ? hash_v_ + offset : nullptr,
                     ops_ != nullptr ? ops_ + offset : nullptr);
  }
  /// The first `count` edges (or all of them, if fewer).
  EdgeBatch Prefix(size_t count) const {
    return Slice(0, count < count_ ? count : count_);
  }

 private:
  const Edge* edges_ = nullptr;
  size_t count_ = 0;
  const uint64_t* hash_u_ = nullptr;
  const uint64_t* hash_v_ = nullptr;
  const EdgeOp* ops_ = nullptr;
};

/// Calls `apply(run, op)` on each maximal run of consecutive elements that
/// share one op, in batch order, lanes still aligned. With
/// `skip_self_loops`, a self-loop also ends the run and is left out.
template <typename Apply>
void ForEachOpRun(const EdgeBatch& batch, bool skip_self_loops,
                  Apply&& apply) {
  size_t start = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    const bool self_loop = skip_self_loops && batch[i].IsSelfLoop();
    if (!self_loop && batch.op(i) == batch.op(start)) continue;
    if (i > start) apply(batch.Slice(start, i - start), batch.op(start));
    start = self_loop ? i + 1 : i;
  }
  if (batch.size() > start) {
    apply(batch.Slice(start, batch.size() - start), batch.op(start));
  }
}

/// Owning storage a producer fills and ships (by move) to a consumer, which
/// reads it through View(). Appending with a hash on one element and
/// without on another is a bug — hash lanes are all-or-nothing per buffer,
/// and View() drops a lane whose length disagrees with the edge count.
struct EdgeBatchBuffer {
  EdgeList edges;
  std::vector<uint64_t> hash_v;
  std::vector<EdgeOp> ops;

  void Reserve(size_t n, bool with_hash_v) {
    edges.reserve(n);
    if (with_hash_v) hash_v.reserve(n);
  }

  void Clear() {
    edges.clear();
    hash_v.clear();
    ops.clear();
  }

  size_t size() const { return edges.size(); }
  bool empty() const { return edges.empty(); }

  /// Appends a whole edge, or a half-edge (owner u, neighbor v) without a
  /// hash lane.
  void Append(const Edge& e, EdgeOp op = EdgeOp::kInsert) {
    AppendOpLane(op);
    edges.push_back(e);
  }

  /// Appends a half-edge (owner u, neighbor v) with the neighbor's
  /// pre-computed hash.
  void AppendHalfEdge(VertexId u, VertexId v, uint64_t neighbor_hash,
                      EdgeOp op = EdgeOp::kInsert) {
    AppendOpLane(op);
    edges.emplace_back(u, v);
    hash_v.push_back(neighbor_hash);
  }

  EdgeBatch View() const {
    return EdgeBatch(
        edges.data(), edges.size(), /*hash_u=*/nullptr,
        hash_v.size() == edges.size() && !edges.empty() ? hash_v.data()
                                                        : nullptr,
        ops.size() == edges.size() && !edges.empty() ? ops.data() : nullptr);
  }

 private:
  /// The op lane is materialized at the first delete, earlier elements
  /// backfilled as inserts, so an insert-only batch carries no op lane and
  /// keeps the op-free fast path.
  void AppendOpLane(EdgeOp op) {
    if (ops.empty()) {
      if (op == EdgeOp::kInsert) return;
      ops.reserve(edges.capacity());
      ops.assign(edges.size(), EdgeOp::kInsert);
    }
    ops.push_back(op);
  }
};

}  // namespace streamlink

#endif  // STREAMLINK_STREAM_EDGE_BATCH_H_
