#ifndef STREAMLINK_STREAM_OP_STREAM_H_
#define STREAMLINK_STREAM_OP_STREAM_H_

#include <cstddef>
#include <vector>

#include "graph/types.h"
#include "stream/edge_batch.h"
#include "stream/edge_stream.h"

namespace streamlink {

/// One turnstile stream event: an edge plus whether it is being inserted
/// or retracted. The replayable unit of a delete-capable workload.
struct EdgeEvent {
  Edge edge;
  EdgeOp op = EdgeOp::kInsert;

  EdgeEvent() = default;
  EdgeEvent(const Edge& e, EdgeOp o) : edge(e), op(o) {}

  bool operator==(const EdgeEvent& other) const {
    return edge == other.edge && op == other.op;
  }
};

using EdgeEventList = std::vector<EdgeEvent>;

/// A pull-based source of turnstile events — the delete-capable analogue of
/// EdgeStream. Implementations must be replayable via Reset() so the
/// verification cross products can rebuild the same stream repeatedly.
class OpStream {
 public:
  virtual ~OpStream() = default;

  /// Writes the next event and returns true, or returns false at
  /// end-of-stream.
  virtual bool Next(EdgeEvent* event) = 0;

  /// Rewinds to the beginning of the stream.
  virtual void Reset() = 0;

  /// Total number of events if known, 0 otherwise (sizing hint only).
  virtual size_t SizeHint() const { return 0; }
};

/// OpStream over an in-memory event list (non-owning by default via copy;
/// cheap for verification-scale workloads).
class VectorOpStream : public OpStream {
 public:
  explicit VectorOpStream(EdgeEventList events)
      : events_(std::move(events)) {}

  bool Next(EdgeEvent* event) override {
    if (pos_ >= events_.size()) return false;
    *event = events_[pos_++];
    return true;
  }

  void Reset() override { pos_ = 0; }
  size_t SizeHint() const override { return events_.size(); }

 private:
  EdgeEventList events_;
  size_t pos_ = 0;
};

/// An EdgeStream read as an OpStream whose every event is an insert — how
/// an insert-only stream enters code written once for turnstile streams
/// (ParallelIngestEngine's ingest loop). Does not own the edge stream.
class InsertOnlyOpStream final : public OpStream {
 public:
  explicit InsertOnlyOpStream(EdgeStream& edges) : edges_(edges) {}

  bool Next(EdgeEvent* event) override {
    event->op = EdgeOp::kInsert;
    return edges_.Next(&event->edge);
  }
  void Reset() override { edges_.Reset(); }
  size_t SizeHint() const override {
    return static_cast<size_t>(edges_.SizeHint());
  }

 private:
  EdgeStream& edges_;
};

}  // namespace streamlink

#endif  // STREAMLINK_STREAM_OP_STREAM_H_
