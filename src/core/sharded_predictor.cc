#include "core/sharded_predictor.h"

#include "util/logging.h"
#include "util/serde.h"

namespace streamlink {

namespace {

/// Shards are made, loaded and cloned as LinkPredictors of a kind the
/// kind table lists as shardable, which makes them HalfEdgePredictors.
std::unique_ptr<HalfEdgePredictor> AsShard(
    std::unique_ptr<LinkPredictor> predictor) {
  auto* shard = dynamic_cast<HalfEdgePredictor*>(predictor.release());
  SL_CHECK(shard != nullptr) << "a shard is not a HalfEdgePredictor";
  return std::unique_ptr<HalfEdgePredictor>(shard);
}

std::vector<const HalfEdgePredictor*> Pointers(
    const std::vector<std::unique_ptr<HalfEdgePredictor>>& shards) {
  std::vector<const HalfEdgePredictor*> pointers;
  pointers.reserve(shards.size());
  for (const auto& shard : shards) pointers.push_back(shard.get());
  return pointers;
}

}  // namespace

std::unique_ptr<LinkPredictor> ShardedPredictor::Clone() const {
  std::vector<std::unique_ptr<HalfEdgePredictor>> copies;
  copies.reserve(shards_.size());
  for (const auto& shard : shards_) copies.push_back(AsShard(shard->Clone()));
  auto copy = std::unique_ptr<ShardedPredictor>(
      new ShardedPredictor(kind_, std::move(copies)));
  copy->AddProcessedEdges(edges_processed());
  copy->AddProcessedDeletes(deletes_processed());
  return copy;
}

Result<std::unique_ptr<ShardedPredictor>> ShardedPredictor::Make(
    const PredictorConfig& config) {
  if (config.threads == 0) {
    return Status::InvalidArgument("threads must be >= 1, got 0");
  }
  if (config.tombstone_window > 0) {
    return Status::InvalidArgument(
        "tombstone window is sequential-only (the FIFO spans the whole "
        "stream); use threads=1");
  }
  const PredictorKind* kind = FindPredictorKind(config.kind);
  if (kind == nullptr || !kind->shardable) {
    return Status::InvalidArgument(
        "predictor kind '" + config.kind +
        "' does not support sharded ingestion (threads > 1)");
  }
  PredictorConfig shard_config = config;
  shard_config.threads = 1;
  std::vector<std::unique_ptr<HalfEdgePredictor>> shards;
  shards.reserve(config.threads);
  for (uint32_t t = 0; t < config.threads; ++t) {
    auto shard = kind->make(shard_config);
    if (!shard.ok()) return shard.status();
    shards.push_back(AsShard(std::move(*shard)));
  }
  return std::unique_ptr<ShardedPredictor>(
      new ShardedPredictor(config.kind, std::move(shards)));
}

void ShardedPredictor::ProcessEdge(const Edge& edge) {
  for (const Edge& half : {edge, Edge(edge.v, edge.u)}) {
    const Edge owned(RowOf(half.u), half.v);
    shards_[OwnerOf(half.u)]->ObserveNeighborBatch(EdgeBatch::Single(owned));
  }
}

void ShardedPredictor::ProcessDelete(const Edge& edge) {
  for (const Edge& half : {edge, Edge(edge.v, edge.u)}) {
    const Edge owned(RowOf(half.u), half.v);
    shards_[OwnerOf(half.u)]->RetractNeighborBatch(EdgeBatch::Single(owned));
  }
}

OverlapEstimate ShardedPredictor::EstimateOverlap(VertexId u,
                                                  VertexId v) const {
  DegreeFn degree_of = [this](VertexId w) -> double {
    return shards_[OwnerOf(w)]->OwnedDegree(RowOf(w));
  };
  return shards_[OwnerOf(u)]->EstimateOverlapSharded(
      RowOf(u), *shards_[OwnerOf(v)], RowOf(v), degree_of);
}

ShardRows ShardedPredictor::Rows() const {
  return ShardRows(Pointers(shards_), /*global_rows=*/false);
}

VertexId ShardedPredictor::num_vertices() const {
  return Rows().num_vertices();
}

uint64_t ShardedPredictor::MemoryBytes() const {
  uint64_t bytes = sizeof(*this) +
                   shards_.capacity() * sizeof(shards_[0]);
  for (const auto& shard : shards_) bytes += shard->MemoryBytes();
  return bytes;
}

Status ShardedPredictor::SaveTo(BinaryWriter& writer) const {
  return shards_.front()->SaveRows(writer, Rows(), edges_processed(),
                                   deletes_processed());
}

namespace {
// Nested envelopes, v1: kind, edges, shard count, shard envelopes
// (pre-turnstile). v2 adds the container's delete count after the edge
// count. Both are read only.
constexpr uint32_t kShardedPayloadVersion = 2;
}  // namespace

Result<std::unique_ptr<LinkPredictor>> ShardedPredictor::LoadFrom(
    BinaryReader& reader, uint32_t payload_version) {
  if (payload_version != 1 && payload_version != kShardedPayloadVersion) {
    return Status::InvalidArgument("unsupported sharded payload version " +
                                   std::to_string(payload_version));
  }
  std::string kind = reader.ReadString();
  uint64_t edges = reader.ReadU64();
  uint64_t deletes = payload_version >= 2 ? reader.ReadU64() : 0;
  uint32_t num_shards = reader.ReadU32();
  if (!reader.ok()) return reader.status();
  // A sharded container only ever wraps shardable leaf kinds; anything
  // else (including a nested "sharded") is corruption. Each shard's header
  // is checked before its payload is decoded, so nothing here recurses.
  const PredictorKind* shard_kind = FindPredictorKind(kind);
  if (shard_kind == nullptr || !shard_kind->shardable) {
    return Status::InvalidArgument(
        "corrupt snapshot: unshardable shard kind '" + kind + "'");
  }
  if (num_shards == 0) {
    return Status::InvalidArgument("corrupt snapshot: zero shards");
  }

  // No reserve: num_shards is untrusted, and a short file ends the loop.
  std::vector<std::unique_ptr<HalfEdgePredictor>> shards;
  for (uint32_t t = 0; t < num_shards; ++t) {
    Result<SnapshotHeader> header = ReadSnapshotHeader(reader);
    if (!header.ok()) return header.status();
    if (header->kind != kind) {
      return Status::InvalidArgument("corrupt snapshot: shard " +
                                     std::to_string(t) + " holds '" +
                                     header->kind + "', expected '" + kind +
                                     "'");
    }
    auto shard = shard_kind->load(reader, header->payload_version);
    if (!shard.ok()) return shard.status();
    shards.push_back(AsShard(std::move(*shard)));
    // Queries pair any two shards, which must be configured alike.
    if (!shards.front()->SameOptions(*shards.back())) {
      return Status::InvalidArgument("corrupt snapshot: shard " +
                                     std::to_string(t) +
                                     " is configured unlike shard 0");
    }
  }
  // The shards are global-indexed (vertex g at row g of shard g % N), and
  // count nothing: the container holds the stream's edge and delete
  // counts. Their kind's row writer re-encodes them as the sequential
  // envelope, which its sequential loader decodes.
  BinaryWriter writer;
  if (Status st = shards.front()->SaveRows(
          writer, ShardRows(Pointers(shards), /*global_rows=*/true), edges,
          deletes);
      !st.ok()) {
    return st;
  }
  shards.clear();
  const std::string bytes = writer.TakeBytes();
  BinaryReader sequential(bytes);
  Result<SnapshotHeader> header = ReadSnapshotHeader(sequential);
  if (!header.ok()) return header.status();
  return shard_kind->load(sequential, header->payload_version);
}

}  // namespace streamlink
