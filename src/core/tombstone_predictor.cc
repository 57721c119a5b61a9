#include "core/tombstone_predictor.h"

#include <algorithm>

#include "core/predictor_factory.h"
#include "util/logging.h"
#include "util/serde.h"

namespace streamlink {

TombstoneWindowPredictor::TombstoneWindowPredictor(
    std::unique_ptr<LinkPredictor> inner, uint32_t window)
    : inner_(std::move(inner)), window_(window) {
  SL_CHECK(inner_ != nullptr) << "tombstone window needs an inner predictor";
  SL_CHECK(window_ >= 1) << "tombstone window must be >= 1";
  const PredictorKind* kind = FindPredictorKind(inner_->name());
  SL_CHECK(kind != nullptr && !kind->deletable)
      << inner_->name() << " is not an insert-only registered kind";
}

void TombstoneWindowPredictor::ProcessEdge(const Edge& edge) {
  pending_.push_back(edge.Canonical());
  if (pending_.size() > window_) {
    inner_->OnEdge(pending_.front());
    pending_.pop_front();
  }
}

void TombstoneWindowPredictor::ProcessDelete(const Edge& edge) {
  const Edge canonical = edge.Canonical();
  auto it = std::find(pending_.begin(), pending_.end(), canonical);
  if (it != pending_.end()) {
    pending_.erase(it);  // insert∘delete annihilate inside the window
    return;
  }
  ++unretractable_deletes_;  // already flushed, or never inserted
}

void TombstoneWindowPredictor::Flush() {
  for (const Edge& e : pending_) inner_->OnEdge(e);
  pending_.clear();
}

uint64_t TombstoneWindowPredictor::MemoryBytes() const {
  return inner_->MemoryBytes() + sizeof(*this) +
         pending_.size() * sizeof(Edge);
}

std::unique_ptr<LinkPredictor> TombstoneWindowPredictor::Clone() const {
  std::unique_ptr<LinkPredictor> inner_clone = inner_->Clone();
  if (inner_clone == nullptr) return nullptr;
  auto clone = std::make_unique<TombstoneWindowPredictor>(
      std::move(inner_clone), window_);
  clone->pending_ = pending_;
  clone->unretractable_deletes_ = unretractable_deletes_;
  clone->AddProcessedEdges(edges_processed());
  clone->AddProcessedDeletes(deletes_processed());
  return clone;
}

namespace {
constexpr uint32_t kTombstonePayloadVersion = 1;
}  // namespace

Status TombstoneWindowPredictor::SaveTo(BinaryWriter& writer) const {
  WriteSnapshotHeader(writer, name(), kTombstonePayloadVersion);
  writer.WriteU32(window_);
  writer.WriteU64(unretractable_deletes_);
  writer.WriteU64(edges_processed());
  writer.WriteU64(deletes_processed());
  EdgeList pending(pending_.begin(), pending_.end());
  writer.WriteVector(pending);
  return inner_->SaveTo(writer);
}

Result<std::unique_ptr<LinkPredictor>> TombstoneWindowPredictor::LoadFrom(
    BinaryReader& reader, uint32_t payload_version) {
  if (payload_version != kTombstonePayloadVersion) {
    return Status::InvalidArgument("unsupported tombstone payload version " +
                                   std::to_string(payload_version));
  }
  const uint32_t window = reader.ReadU32();
  const uint64_t unretractable = reader.ReadU64();
  const uint64_t edges = reader.ReadU64();
  const uint64_t deletes = reader.ReadU64();
  auto pending = reader.ReadVector<Edge>();
  if (!reader.ok()) return reader.status();
  if (window == 0) {
    return Status::InvalidArgument("corrupt snapshot: zero tombstone window");
  }
  if (pending.size() > window) {
    return Status::InvalidArgument(
        "corrupt snapshot: tombstone pending list exceeds its window");
  }
  // The inner header is checked before its payload is decoded, so a
  // crafted chain of nested envelopes never recurses.
  Result<SnapshotHeader> header = ReadSnapshotHeader(reader);
  if (!header.ok()) return header.status();
  const PredictorKind* kind = FindPredictorKind(header->kind);
  if (kind == nullptr || kind->deletable) {
    return Status::InvalidArgument(
        "corrupt snapshot: tombstone window around '" + header->kind +
        "', which is not an insert-only registered kind");
  }
  auto inner = kind->load(reader, header->payload_version);
  if (!inner.ok()) return inner.status();
  auto wrapper =
      std::make_unique<TombstoneWindowPredictor>(std::move(*inner), window);
  wrapper->pending_.assign(pending.begin(), pending.end());
  wrapper->unretractable_deletes_ = unretractable;
  wrapper->AddProcessedEdges(edges);
  wrapper->AddProcessedDeletes(deletes);
  return std::unique_ptr<LinkPredictor>(std::move(wrapper));
}

}  // namespace streamlink
