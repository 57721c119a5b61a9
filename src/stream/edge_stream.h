#ifndef STREAMLINK_STREAM_EDGE_STREAM_H_
#define STREAMLINK_STREAM_EDGE_STREAM_H_

#include <cstdint>
#include <memory>
#include <unordered_set>

#include "graph/types.h"

namespace streamlink {

/// Pull-based source of stream edges. Implementations are single-pass
/// cursors that can be Reset() to the beginning (all current sources are
/// replayable; a genuinely one-shot source may make Reset a fatal error).
class EdgeStream {
 public:
  virtual ~EdgeStream() = default;

  /// Produces the next edge. Returns false at end of stream.
  virtual bool Next(Edge* edge) = 0;

  /// Rewinds to the beginning of the stream.
  virtual void Reset() = 0;

  /// Total number of edges if known, 0 otherwise.
  virtual uint64_t SizeHint() const { return 0; }
};

/// Stream over an in-memory edge list (does not own external storage when
/// constructed from a reference; see the two constructors).
class VectorEdgeStream : public EdgeStream {
 public:
  /// Owns a copy/move of the edges.
  explicit VectorEdgeStream(EdgeList edges);

  bool Next(Edge* edge) override;
  void Reset() override { position_ = 0; }
  uint64_t SizeHint() const override { return edges_.size(); }

 private:
  EdgeList edges_;
  size_t position_ = 0;
};

/// Decorator that drops duplicate (canonicalized) edges and self-loops,
/// turning a multigraph source into a simple-graph stream. Uses an exact
/// hash set: O(1) per edge, O(E) total memory — acceptable because it is a
/// *test/benchmark tool*; the sketches themselves are duplicate-idempotent
/// and do not need it.
class DedupEdgeStream : public EdgeStream {
 public:
  explicit DedupEdgeStream(std::unique_ptr<EdgeStream> inner);

  bool Next(Edge* edge) override;
  void Reset() override;
  uint64_t SizeHint() const override { return inner_->SizeHint(); }

 private:
  std::unique_ptr<EdgeStream> inner_;
  std::unordered_set<Edge, EdgeHash> seen_;
};

/// Decorator exposing only the first `limit` edges of the inner stream.
class PrefixEdgeStream : public EdgeStream {
 public:
  PrefixEdgeStream(std::unique_ptr<EdgeStream> inner, uint64_t limit);

  bool Next(Edge* edge) override;
  void Reset() override;
  uint64_t SizeHint() const override;

 private:
  std::unique_ptr<EdgeStream> inner_;
  uint64_t limit_;
  uint64_t produced_ = 0;
};

}  // namespace streamlink

#endif  // STREAMLINK_STREAM_EDGE_STREAM_H_
