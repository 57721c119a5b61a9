#ifndef STREAMLINK_CORE_TOMBSTONE_PREDICTOR_H_
#define STREAMLINK_CORE_TOMBSTONE_PREDICTOR_H_

#include <deque>
#include <memory>
#include <string>

#include "core/link_predictor.h"
#include "util/status.h"

namespace streamlink {

/// Bounded-lag turnstile support for kinds that cannot retract natively.
///
/// MinHash-style sketches are monotone (a slot only ever decreases), so an
/// edge, once applied, is unremovable. The tombstone window defers instead
/// of retracting: inserts are buffered in a FIFO of capacity W before they
/// touch the wrapped predictor, and a delete that finds its edge still
/// buffered annihilates it — the inner sketch never sees either op. When
/// the buffer overflows, the oldest insert is flushed permanently; a
/// delete whose edge was already flushed (or never inserted) is counted in
/// unretractable_deletes() and otherwise dropped.
///
/// Error contract (docs/turnstile.md): queries reflect the inner
/// predictor, which lags the true stream by at most W buffered inserts and
/// permanently over-counts one edge per unretractable delete. Deletes that
/// arrive within W inserts of their edge are handled exactly. Call Flush()
/// at end-of-stream (the sequential ingest engine does) to drain the lag
/// before final queries.
///
/// The wrapper is a transport adapter, not a registered kind: it does not
/// shard (the window is a global FIFO), and MakePredictor builds it when
/// config.tombstone_window > 0 names a non-deletable kind.
class TombstoneWindowPredictor : public LinkPredictor {
 public:
  /// Preconditions: inner is a registered kind the kind table marks not
  /// deletable, window >= 1 (enforced by the factory).
  TombstoneWindowPredictor(std::unique_ptr<LinkPredictor> inner,
                           uint32_t window);

  std::string name() const override { return "tombstone"; }
  OverlapEstimate EstimateOverlap(VertexId u, VertexId v) const override {
    return inner_->EstimateOverlap(u, v);
  }
  VertexId num_vertices() const override { return inner_->num_vertices(); }
  uint64_t MemoryBytes() const override;

  const LinkPredictor& inner() const { return *inner_; }
  uint32_t window() const { return window_; }
  size_t pending_inserts() const { return pending_.size(); }
  /// Deletes that missed the window: their edge had already been flushed
  /// into the inner predictor (or was never inserted at all).
  uint64_t unretractable_deletes() const { return unretractable_deletes_; }

  /// Drains every buffered insert into the inner predictor. Idempotent.
  void Flush();

  std::unique_ptr<LinkPredictor> Clone() const override;

  /// Envelope kind "tombstone": wrapper state followed by the inner
  /// predictor's complete nested envelope.
  Status SaveTo(BinaryWriter& writer) const override;

  /// Payload decoder for an already-consumed envelope header. The inner
  /// envelope must hold a registered kind that cannot delete.
  static Result<std::unique_ptr<LinkPredictor>> LoadFrom(
      BinaryReader& reader, uint32_t payload_version);

 protected:
  void ProcessEdge(const Edge& edge) override;
  void ProcessDelete(const Edge& edge) override;

 private:
  std::unique_ptr<LinkPredictor> inner_;
  uint32_t window_;
  std::deque<Edge> pending_;  // FIFO of not-yet-applied inserts
  uint64_t unretractable_deletes_ = 0;
};

}  // namespace streamlink

#endif  // STREAMLINK_CORE_TOMBSTONE_PREDICTOR_H_
