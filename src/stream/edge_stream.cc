#include "stream/edge_stream.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace streamlink {

VectorEdgeStream::VectorEdgeStream(EdgeList edges)
    : edges_(std::move(edges)) {}

bool VectorEdgeStream::Next(Edge* edge) {
  if (position_ >= edges_.size()) return false;
  *edge = edges_[position_++];
  return true;
}

DedupEdgeStream::DedupEdgeStream(std::unique_ptr<EdgeStream> inner)
    : inner_(std::move(inner)) {
  SL_CHECK(inner_ != nullptr) << "DedupEdgeStream needs an inner stream";
}

bool DedupEdgeStream::Next(Edge* edge) {
  Edge e;
  while (inner_->Next(&e)) {
    if (e.IsSelfLoop()) continue;
    if (!seen_.insert(e.Canonical()).second) continue;
    *edge = e;
    return true;
  }
  return false;
}

void DedupEdgeStream::Reset() {
  inner_->Reset();
  seen_.clear();
}

PrefixEdgeStream::PrefixEdgeStream(std::unique_ptr<EdgeStream> inner,
                                   uint64_t limit)
    : inner_(std::move(inner)), limit_(limit) {
  SL_CHECK(inner_ != nullptr) << "PrefixEdgeStream needs an inner stream";
}

bool PrefixEdgeStream::Next(Edge* edge) {
  if (produced_ >= limit_) return false;
  if (!inner_->Next(edge)) return false;
  ++produced_;
  return true;
}

void PrefixEdgeStream::Reset() {
  inner_->Reset();
  produced_ = 0;
}

uint64_t PrefixEdgeStream::SizeHint() const {
  uint64_t inner_hint = inner_->SizeHint();
  return inner_hint == 0 ? limit_ : std::min(inner_hint, limit_);
}

}  // namespace streamlink
