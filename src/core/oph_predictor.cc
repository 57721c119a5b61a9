#include "core/oph_predictor.h"

#include <vector>

#include "graph/exact_measures.h"
#include "util/logging.h"
#include "util/serde.h"

namespace streamlink {

OphPredictor::OphPredictor(const OphPredictorOptions& options)
    : options_(options), store_([options] {
        return OphSketch(options.num_bins, options.seed);
      }) {
  SL_CHECK(options.num_bins >= 2) << "num_bins must be >= 2";
}

OverlapEstimate OphPredictor::EstimateOverlapSharded(
    VertexId u_row, const HalfEdgePredictor& v_home, VertexId v_row,
    const DegreeFn& degree_of) const {
  SL_CHECK(SameOptions(v_home))
      << "cross-shard query between differently-configured predictors: "
      << name() << " vs " << v_home.name();
  const auto* peer = static_cast<const OphPredictor*>(&v_home);

  OverlapEstimate est;
  est.degree_u = OwnedDegree(u_row);
  est.degree_v = peer->OwnedDegree(v_row);
  const double degree_sum = est.degree_u + est.degree_v;

  const OphSketch* su = store_.Get(u_row);
  const OphSketch* sv = peer->store_.Get(v_row);
  if (su == nullptr || sv == nullptr || su->IsEmpty() || sv->IsEmpty()) {
    est.union_size = degree_sum;
    return est;
  }

  std::vector<uint64_t> matched_items;
  uint32_t matches = OphSketch::CountMatches(*su, *sv, &matched_items);
  est.jaccard = static_cast<double>(matches) / su->num_bins();
  est.union_size = degree_sum / (1.0 + est.jaccard);
  est.intersection = est.jaccard * est.union_size;

  if (!matched_items.empty()) {
    double aa_weight_sum = 0.0;
    double ra_weight_sum = 0.0;
    for (uint64_t item : matched_items) {
      uint32_t dw =
          static_cast<uint32_t>(degree_of(static_cast<VertexId>(item)));
      aa_weight_sum += AdamicAdarWeight(dw);
      if (dw > 0) ra_weight_sum += 1.0 / dw;
    }
    est.adamic_adar =
        est.intersection * (aa_weight_sum / matched_items.size());
    est.resource_allocation =
        est.intersection * (ra_weight_sum / matched_items.size());
  }
  return est;
}

uint64_t OphPredictor::MemoryBytes() const {
  return store_.MemoryBytes() + degrees_.MemoryBytes();
}

namespace {
constexpr uint32_t kOphPayloadVersion = 1;
}  // namespace

Status OphPredictor::SaveRows(BinaryWriter& writer, const ShardRows& rows,
                              uint64_t edges, uint64_t /*deletes*/) const {
  WriteSnapshotHeader(writer, name(), kOphPayloadVersion);
  writer.WriteU32(options_.num_bins);
  writer.WriteU64(options_.seed);
  writer.WriteU64(edges);
  writer.WriteU64(rows.num_vertices());  // the degree table's length
  rows.ForEach<OphPredictor>([&writer](const OphPredictor& shard,
                                       VertexId row) {
    writer.WriteU32(shard.degrees_.Degree(row));
  });
  writer.WriteU64(rows.num_vertices());
  const OphSketch empty(options_.num_bins, options_.seed);
  rows.ForEach<OphPredictor>([&](const OphPredictor& shard, VertexId row) {
    const OphSketch* sketch = shard.store_.Get(row);
    writer.WriteVector((sketch != nullptr ? *sketch : empty).bins());
  });
  return writer.status();
}

Result<OphPredictor> OphPredictor::LoadFrom(BinaryReader& reader,
                                            uint32_t payload_version) {
  if (payload_version != kOphPayloadVersion) {
    return Status::InvalidArgument("unsupported oph payload version " +
                                   std::to_string(payload_version));
  }
  OphPredictorOptions options;
  options.num_bins = reader.ReadU32();
  options.seed = reader.ReadU64();
  uint64_t edges = reader.ReadU64();
  if (!reader.ok()) return reader.status();
  // Validate before constructing: the predictor/sketch constructors treat
  // bad bin counts as programmer error (fatal), but here they mean a
  // corrupt file, which must surface as a Status.
  if (options.num_bins < 2) {
    return Status::InvalidArgument("corrupt snapshot: bad bin count " +
                                   std::to_string(options.num_bins));
  }

  auto degrees = reader.ReadVector<uint32_t>();
  uint64_t num_vertices = reader.ReadU64();
  if (!reader.ok()) return reader.status();
  if (degrees.size() != num_vertices) {
    return Status::InvalidArgument(
        "corrupt snapshot: degree table covers " +
        std::to_string(degrees.size()) + " vertices, sketch store " +
        std::to_string(num_vertices));
  }

  OphPredictor predictor(options);
  predictor.degrees_.SetRaw(std::move(degrees));
  for (uint64_t u = 0; u < num_vertices && reader.ok(); ++u) {
    auto bins = reader.ReadVector<OphSketch::Bin>();
    if (!reader.ok()) break;
    if (bins.size() != options.num_bins) {
      return Status::InvalidArgument("corrupt snapshot: bad sketch width");
    }
    predictor.store_.Append(OphSketch::FromBins(options.seed, std::move(bins)));
  }
  if (!reader.ok()) return reader.status();
  predictor.AddProcessedEdges(edges);
  return predictor;
}

}  // namespace streamlink
