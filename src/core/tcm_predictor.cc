#include "core/tcm_predictor.h"

#include <algorithm>

#include "util/logging.h"
#include "util/serde.h"

namespace streamlink {

TcmPredictor::TcmPredictor(const TcmPredictorOptions& options)
    : options_(options),
      family_(options.seed, options.depth),
      store_([d = options.depth, w = options.width] {
        return TcmSketch(d, w);
      }) {
  SL_CHECK(options.depth >= 1) << "tcm depth must be >= 1";
  SL_CHECK(options.width >= 2) << "tcm width must be >= 2";
}

void TcmPredictor::GrowDegrees(VertexId u) {
  const size_t needed = static_cast<size_t>(u) + 1;
  if (needed > degrees_.capacity()) {
    degrees_.reserve(std::max(needed, degrees_.capacity() * 2));
  }
  degrees_.resize(needed, 0);
}

OverlapEstimate TcmPredictor::EstimateOverlapSharded(
    VertexId u_row, const HalfEdgePredictor& v_home, VertexId v_row,
    const DegreeFn& /*degree_of*/) const {
  SL_CHECK(SameOptions(v_home))
      << "cross-shard query between differently-configured predictors: "
      << name() << " vs " << v_home.name();
  const auto* peer = static_cast<const TcmPredictor*>(&v_home);

  OverlapEstimate est;
  est.degree_u = OwnedDegree(u_row);
  est.degree_v = peer->OwnedDegree(v_row);
  const double degree_sum = est.degree_u + est.degree_v;

  const TcmSketch* su = store_.Get(u_row);
  const TcmSketch* sv = peer->store_.Get(v_row);
  if (su == nullptr || sv == nullptr) {
    est.union_size = degree_sum;
    return est;
  }

  // One-sided raw estimate, clamped into the feasible range
  // [0, min(d(u), d(v))] — a common neighbor is a neighbor of both.
  double intersection = static_cast<double>(su->IntersectionEstimate(*sv));
  intersection = std::min(intersection, std::min(est.degree_u, est.degree_v));
  est.intersection = intersection;
  est.union_size = degree_sum - intersection;
  est.jaccard = est.union_size > 0 ? intersection / est.union_size : 0.0;
  // AA/RA need common-neighbor identities the count strips discard;
  // reported as 0 by contract (docs/turnstile.md).
  return est;
}

uint64_t TcmPredictor::MemoryBytes() const {
  return store_.MemoryBytes() + sizeof(degrees_) +
         degrees_.capacity() * sizeof(int64_t);
}

void TcmPredictor::MergeFrom(const TcmPredictor& other) {
  SL_CHECK(options_ == other.options_)
      << "cannot merge predictors with different options";
  store_.MergeFrom(other.store_,
                   [](TcmSketch& mine, const TcmSketch& theirs) {
                     mine.MergeFrom(theirs);
                   });
  if (!other.degrees_.empty()) {
    if (other.degrees_.size() > degrees_.size()) {
      GrowDegrees(static_cast<VertexId>(other.degrees_.size() - 1));
    }
    for (size_t u = 0; u < other.degrees_.size(); ++u) {
      degrees_[u] += other.degrees_[u];
    }
  }
  AddProcessedEdges(other.edges_processed());
  AddProcessedDeletes(other.deletes_processed());
}

namespace {
constexpr uint32_t kTcmPayloadVersion = 1;
}  // namespace

Status TcmPredictor::SaveRows(BinaryWriter& writer, const ShardRows& rows,
                              uint64_t edges, uint64_t deletes) const {
  WriteSnapshotHeader(writer, name(), kTcmPayloadVersion);
  writer.WriteU32(options_.width);
  writer.WriteU32(options_.depth);
  writer.WriteU64(options_.seed);
  writer.WriteU64(edges);
  writer.WriteU64(deletes);
  writer.WriteU64(rows.num_vertices());  // the degree table's length
  rows.ForEach<TcmPredictor>([&writer](const TcmPredictor& shard,
                                       VertexId row) {
    // The signed net degree, unclamped: a snapshot keeps the exact sums.
    writer.WriteU64(static_cast<uint64_t>(
        row < shard.degrees_.size() ? shard.degrees_[row] : 0));
  });
  writer.WriteU64(rows.num_vertices());
  const TcmSketch empty(options_.depth, options_.width);
  rows.ForEach<TcmPredictor>([&](const TcmPredictor& shard, VertexId row) {
    const TcmSketch* sketch = shard.store_.Get(row);
    writer.WriteVector((sketch != nullptr ? *sketch : empty).cells());
  });
  return writer.status();
}

Result<TcmPredictor> TcmPredictor::LoadFrom(BinaryReader& reader,
                                            uint32_t payload_version) {
  if (payload_version != kTcmPayloadVersion) {
    return Status::InvalidArgument("unsupported tcm payload version " +
                                   std::to_string(payload_version));
  }
  TcmPredictorOptions options;
  options.width = reader.ReadU32();
  options.depth = reader.ReadU32();
  options.seed = reader.ReadU64();
  uint64_t edges = reader.ReadU64();
  uint64_t deletes = reader.ReadU64();
  if (!reader.ok()) return reader.status();
  if (options.width < 2 || options.depth < 1) {
    return Status::InvalidArgument("corrupt snapshot: bad tcm geometry");
  }

  auto degrees = reader.ReadVector<int64_t>();
  uint64_t num_vertices = reader.ReadU64();
  if (!reader.ok()) return reader.status();
  // Strips and degrees grow in lockstep (UpdateVertex touches both), so a
  // length mismatch can only mean corruption.
  if (degrees.size() != num_vertices) {
    return Status::InvalidArgument(
        "corrupt snapshot: degree table covers " +
        std::to_string(degrees.size()) + " vertices, sketch store " +
        std::to_string(num_vertices));
  }

  TcmPredictor predictor(options);
  predictor.degrees_ = std::move(degrees);
  const size_t cells_per_vertex =
      static_cast<size_t>(options.depth) * options.width;
  for (uint64_t u = 0; u < num_vertices && reader.ok(); ++u) {
    auto cells = reader.ReadVector<int32_t>();
    if (!reader.ok()) break;
    if (cells.size() != cells_per_vertex) {
      return Status::InvalidArgument("corrupt snapshot: bad tcm strip size");
    }
    predictor.store_.Append(
        TcmSketch::FromCells(options.depth, options.width, std::move(cells)));
  }
  if (!reader.ok()) return reader.status();
  predictor.AddProcessedEdges(edges);
  predictor.AddProcessedDeletes(deletes);
  return predictor;
}

}  // namespace streamlink
