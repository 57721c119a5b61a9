#ifndef STREAMLINK_GRAPH_ADJACENCY_GRAPH_H_
#define STREAMLINK_GRAPH_ADJACENCY_GRAPH_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "graph/types.h"

namespace streamlink {

/// Dynamic undirected simple graph backed by one hash set per vertex.
///
/// This is the *exact* substrate: it stores full neighborhoods and is what
/// the sketches are measured against for accuracy, memory, and speed. Edge
/// insertion is idempotent (duplicates and self-loops are rejected), so
/// feeding the same stream twice yields the same graph.
class AdjacencyGraph {
 public:
  /// Creates a graph with `num_vertices` isolated vertices.
  explicit AdjacencyGraph(VertexId num_vertices = 0);

  /// Grows the vertex set to at least `num_vertices` (never shrinks).
  void EnsureVertices(VertexId num_vertices);

  /// Inserts undirected edge {u, v}, growing the vertex set as needed.
  /// Returns true if the edge was new; false for duplicates or self-loops.
  bool AddEdge(VertexId u, VertexId v);
  bool AddEdge(const Edge& e) { return AddEdge(e.u, e.v); }

  /// Inserts only the half-edge u→v: v joins N(u) and the vertex set grows
  /// to include u, but N(v) is untouched. The building block of
  /// vertex-sharded ingestion, where each shard applies just the halves of
  /// edges it owns, at u's row there — a row, not a vertex id, so u == v
  /// is no self-loop: callers drop self-loops as whole edges.
  /// num_edges() counts whole AddEdge insertions only. Returns true if v
  /// was new in N(u); false for duplicates.
  bool AddArc(VertexId u, VertexId v);

  /// Removes undirected edge {u, v}. Returns true if it was present.
  bool RemoveEdge(VertexId u, VertexId v);
  bool RemoveEdge(const Edge& e) { return RemoveEdge(e.u, e.v); }

  /// Removes only the half-edge u→v: v leaves N(u), N(v) is untouched —
  /// the retraction mirror of AddArc for vertex-sharded turnstile
  /// ingestion. Does not touch num_edges(). Returns true if v was in N(u).
  bool RemoveArc(VertexId u, VertexId v);

  bool HasEdge(VertexId u, VertexId v) const;

  VertexId num_vertices() const {
    return static_cast<VertexId>(adjacency_.size());
  }
  uint64_t num_edges() const { return num_edges_; }

  /// Restores the whole-edge counter after a rebuild through AddArc
  /// (which deliberately does not count edges). Snapshot restore only.
  void SetNumEdges(uint64_t num_edges) { num_edges_ = num_edges; }

  /// Degree (= neighborhood size; the graph is simple). 0 for ids beyond
  /// the current vertex set.
  uint32_t Degree(VertexId u) const;

  /// Neighborhood of u. Precondition: u < num_vertices().
  const std::unordered_set<VertexId>& Neighbors(VertexId u) const;

  /// All edges in canonical (u <= v) form, sorted. O(E log E).
  EdgeList SortedEdges() const;

  /// Estimated heap footprint in bytes (buckets + nodes), used by the
  /// memory experiments. An estimate: hash-set internals are approximated
  /// from bucket_count and size.
  uint64_t MemoryBytes() const;

 private:
  std::vector<std::unordered_set<VertexId>> adjacency_;
  uint64_t num_edges_ = 0;
};

}  // namespace streamlink

#endif  // STREAMLINK_GRAPH_ADJACENCY_GRAPH_H_
