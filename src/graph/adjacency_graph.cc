#include "graph/adjacency_graph.h"

#include <algorithm>

#include "util/logging.h"

namespace streamlink {

AdjacencyGraph::AdjacencyGraph(VertexId num_vertices)
    : adjacency_(num_vertices) {}

void AdjacencyGraph::EnsureVertices(VertexId num_vertices) {
  if (num_vertices > adjacency_.size()) adjacency_.resize(num_vertices);
}

bool AdjacencyGraph::AddEdge(VertexId u, VertexId v) {
  if (u == v) return false;
  EnsureVertices(std::max(u, v) + 1);
  if (!adjacency_[u].insert(v).second) return false;
  adjacency_[v].insert(u);
  ++num_edges_;
  return true;
}

bool AdjacencyGraph::AddArc(VertexId u, VertexId v) {
  EnsureVertices(u + 1);
  return adjacency_[u].insert(v).second;
}

bool AdjacencyGraph::RemoveArc(VertexId u, VertexId v) {
  if (u >= adjacency_.size()) return false;
  return adjacency_[u].erase(v) > 0;
}

bool AdjacencyGraph::RemoveEdge(VertexId u, VertexId v) {
  if (u >= adjacency_.size() || v >= adjacency_.size()) return false;
  if (adjacency_[u].erase(v) == 0) return false;
  adjacency_[v].erase(u);
  --num_edges_;
  return true;
}

bool AdjacencyGraph::HasEdge(VertexId u, VertexId v) const {
  if (u >= adjacency_.size()) return false;
  return adjacency_[u].count(v) > 0;
}

uint32_t AdjacencyGraph::Degree(VertexId u) const {
  if (u >= adjacency_.size()) return 0;
  return static_cast<uint32_t>(adjacency_[u].size());
}

const std::unordered_set<VertexId>& AdjacencyGraph::Neighbors(
    VertexId u) const {
  SL_CHECK(u < adjacency_.size()) << "vertex " << u << " out of range";
  return adjacency_[u];
}

EdgeList AdjacencyGraph::SortedEdges() const {
  EdgeList edges;
  edges.reserve(num_edges_);
  for (VertexId u = 0; u < adjacency_.size(); ++u) {
    for (VertexId v : adjacency_[u]) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

uint64_t AdjacencyGraph::MemoryBytes() const {
  uint64_t bytes = adjacency_.capacity() * sizeof(adjacency_[0]);
  for (const auto& nbrs : adjacency_) {
    // libstdc++ unordered_set: one bucket pointer per bucket plus one heap
    // node (hash + value + next pointer, padded) per element.
    bytes += nbrs.bucket_count() * sizeof(void*);
    bytes += nbrs.size() * (sizeof(void*) + sizeof(size_t) + sizeof(VertexId) +
                            4 /* padding */);
  }
  return bytes;
}

}  // namespace streamlink
