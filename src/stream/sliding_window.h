#ifndef STREAMLINK_STREAM_SLIDING_WINDOW_H_
#define STREAMLINK_STREAM_SLIDING_WINDOW_H_

#include <cstdint>
#include <deque>

#include "graph/adjacency_graph.h"
#include "graph/types.h"

namespace streamlink {

/// Count-based sliding-window graph: maintains the exact graph induced by
/// the most recent `window_size` *distinct* inserted edges, expiring the
/// oldest as new edges arrive.
///
/// This is the extension layer for recency-weighted link prediction (the
/// paper's model is insert-only; windowing is listed as the natural
/// follow-up and exercised by the drifting-graph example). Duplicate
/// arrivals refresh an edge's position in the window.
class SlidingWindowGraph {
 public:
  explicit SlidingWindowGraph(uint64_t window_size);

  /// Inserts an edge, expiring the oldest if the window overflows.
  /// Returns the number of edges expired (0 or 1; duplicates expire none).
  uint32_t Add(const Edge& edge);

  uint64_t window_size() const { return window_size_; }
  uint64_t current_edges() const { return order_.size(); }

  /// The graph of the current window contents.
  const AdjacencyGraph& graph() const { return graph_; }

 private:
  uint64_t window_size_;
  AdjacencyGraph graph_;
  std::deque<Edge> order_;  // canonical edges, oldest first
};

}  // namespace streamlink

#endif  // STREAMLINK_STREAM_SLIDING_WINDOW_H_
