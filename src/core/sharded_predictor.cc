#include "core/sharded_predictor.h"

#include <algorithm>

#include "core/bottomk_predictor.h"
#include "core/minhash_predictor.h"
#include "core/tcm_predictor.h"
#include "util/logging.h"
#include "util/serde.h"

namespace streamlink {

namespace {

/// Folds all shards of `sharded` into one predictor of type PredictorT.
/// Shards partition the vertex set, so MergeFrom is lossless here even for
/// state (like exact degree counters) that double-counts on overlapping
/// partitions.
template <typename PredictorT>
std::unique_ptr<LinkPredictor> FoldShards(const ShardedPredictor& sharded) {
  const auto& first =
      dynamic_cast<const PredictorT&>(sharded.shard(0));
  auto folded = std::make_unique<PredictorT>(first.options());
  for (uint32_t t = 0; t < sharded.num_shards(); ++t) {
    folded->MergeFrom(dynamic_cast<const PredictorT&>(sharded.shard(t)));
  }
  folded->AddProcessedEdges(sharded.edges_processed());
  folded->AddProcessedDeletes(sharded.deletes_processed());
  return folded;
}

/// Shards are made, loaded and cloned as LinkPredictors of a kind the
/// kind table lists as shardable, which makes them HalfEdgePredictors.
std::unique_ptr<HalfEdgePredictor> AsShard(
    std::unique_ptr<LinkPredictor> predictor) {
  auto* shard = dynamic_cast<HalfEdgePredictor*>(predictor.release());
  SL_CHECK(shard != nullptr) << "a shard is not a HalfEdgePredictor";
  return std::unique_ptr<HalfEdgePredictor>(shard);
}

}  // namespace

std::unique_ptr<LinkPredictor> ShardedPredictor::Clone() const {
  if (kind_ == "minhash") return FoldShards<MinHashPredictor>(*this);
  if (kind_ == "bottomk") return FoldShards<BottomKPredictor>(*this);
  if (kind_ == "tcm") return FoldShards<TcmPredictor>(*this);
  // No lossless fold for this kind: clone every shard and keep routing.
  std::vector<std::unique_ptr<HalfEdgePredictor>> clones;
  clones.reserve(shards_.size());
  for (const auto& shard : shards_) clones.push_back(AsShard(shard->Clone()));
  auto copy = std::unique_ptr<ShardedPredictor>(
      new ShardedPredictor(kind_, std::move(clones)));
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
    shards_[OwnerOf(half.u)]->ObserveNeighborBatch(EdgeBatch::Single(half));
  }
}

void ShardedPredictor::ProcessDelete(const Edge& edge) {
  for (const Edge& half : {edge, Edge(edge.v, edge.u)}) {
    shards_[OwnerOf(half.u)]->RetractNeighborBatch(EdgeBatch::Single(half));
  }
}

OverlapEstimate ShardedPredictor::EstimateOverlap(VertexId u,
                                                  VertexId v) const {
  DegreeFn degree_of = [this](VertexId w) -> double {
    return shards_[OwnerOf(w)]->OwnedDegree(w);
  };
  return shards_[OwnerOf(u)]->EstimateOverlapSharded(
      u, *shards_[OwnerOf(v)], v, degree_of);
}

VertexId ShardedPredictor::num_vertices() const {
  VertexId max_vertices = 0;
  for (const auto& shard : shards_) {
    max_vertices = std::max(max_vertices, shard->num_vertices());
  }
  return max_vertices;
}

uint64_t ShardedPredictor::MemoryBytes() const {
  uint64_t bytes = sizeof(*this) +
                   shards_.capacity() * sizeof(shards_[0]);
  for (const auto& shard : shards_) bytes += shard->MemoryBytes();
  return bytes;
}

namespace {
// v1: kind, edges, shard count, nested envelopes (pre-turnstile).
// v2 adds the container's delete count after the edge count. v1 snapshots
// are still accepted (their streams had no deletes).
constexpr uint32_t kShardedPayloadVersion = 2;
}  // namespace

Status ShardedPredictor::SaveTo(BinaryWriter& writer) const {
  WriteSnapshotHeader(writer, "sharded", kShardedPayloadVersion);
  writer.WriteString(kind_);
  writer.WriteU64(edges_processed());
  writer.WriteU64(deletes_processed());
  writer.WriteU32(num_shards());
  for (const auto& shard : shards_) {
    if (Status st = shard->SaveTo(writer); !st.ok()) return st;
  }
  return writer.status();
}

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
  auto predictor = std::unique_ptr<ShardedPredictor>(
      new ShardedPredictor(std::move(kind), std::move(shards)));
  // Shards count nothing (they ingest half-edges); the container holds the
  // stream's edge and delete counts.
  predictor->AddProcessedEdges(edges);
  predictor->AddProcessedDeletes(deletes);
  return std::unique_ptr<LinkPredictor>(std::move(predictor));
}

}  // namespace streamlink
