#include "core/bottomk_predictor.h"

#include <algorithm>

#include "graph/exact_measures.h"
#include "util/hashing.h"
#include "util/serde.h"
#include "util/logging.h"

namespace streamlink {

BottomKPredictor::BottomKPredictor(const BottomKPredictorOptions& options)
    : options_(options), store_([k = options.k] { return BottomKSketch(k); }) {
  SL_CHECK(options.k >= 2) << "bottom-k predictor needs k >= 2";
}

void BottomKPredictor::ObserveNeighborBatch(const EdgeBatch& batch) {
  if (batch.has_hash_v()) {
    // Producer pre-hashed every neighbor under our seed (NeighborHashSeed
    // contract): the kernel is pure sketch insertion, zero hashing.
    for (size_t i = 0; i < batch.size(); ++i) {
      const Edge& e = batch[i];
      store_.Mutable(e.u).Update(batch.hash_v(i), e.v);
      if (options_.track_exact_degrees) degrees_.Increment(e.u);
    }
    return;
  }
  const uint64_t mixed_seed = MixSeed(options_.seed);
  for (const Edge& e : batch) {
    store_.Mutable(e.u).Update(HashU64WithMixedSeed(e.v, mixed_seed), e.v);
    if (options_.track_exact_degrees) degrees_.Increment(e.u);
  }
}

double BottomKPredictor::Degree(VertexId u) const {
  if (options_.track_exact_degrees) return degrees_.Degree(u);
  const BottomKSketch* s = store_.Get(u);
  return s == nullptr ? 0.0 : s->EstimateCardinality();
}

OverlapEstimate BottomKPredictor::EstimateOverlapSharded(
    VertexId u_row, const HalfEdgePredictor& v_home, VertexId v_row,
    const DegreeFn& degree_of) const {
  SL_CHECK(SameOptions(v_home))
      << "cross-shard query between differently-configured predictors: "
      << name() << " vs " << v_home.name();
  const auto* peer = static_cast<const BottomKPredictor*>(&v_home);

  OverlapEstimate est;
  est.degree_u = OwnedDegree(u_row);
  est.degree_v = peer->OwnedDegree(v_row);

  const BottomKSketch* su = store_.Get(u_row);
  const BottomKSketch* sv = peer->store_.Get(v_row);
  if (su == nullptr || sv == nullptr || su->IsEmpty() || sv->IsEmpty()) {
    est.union_size = est.degree_u + est.degree_v;
    return est;
  }

  BottomKSketch::PairEstimate pair = BottomKSketch::EstimatePair(*su, *sv);
  est.jaccard = pair.jaccard;
  if (options_.track_exact_degrees) {
    // Exact degrees give the lower-variance closed form (as in MinHash).
    double degree_sum = est.degree_u + est.degree_v;
    est.union_size = degree_sum / (1.0 + est.jaccard);
    est.intersection = est.jaccard * est.union_size;
  } else {
    est.union_size = pair.union_cardinality;
    est.intersection = pair.intersection_cardinality;
  }

  // Adamic-Adar / RA: matched entries of the merged bottom-k are uniform
  // intersection samples; weight them by current degree, wherever it lives.
  uint32_t matched = 0;
  double aa_weight_sum = 0.0;
  double ra_weight_sum = 0.0;
  const auto& ea = su->entries();
  const auto& eb = sv->entries();
  const uint64_t tau = std::min(su->Threshold(), sv->Threshold());
  size_t i = 0, j = 0;
  while (i < ea.size() && j < eb.size()) {
    if (ea[i].hash < eb[j].hash) {
      ++i;
    } else if (ea[i].hash > eb[j].hash) {
      ++j;
    } else {
      if (ea[i].hash <= tau) {
        ++matched;
        double dw = degree_of(static_cast<VertexId>(ea[i].item));
        uint32_t dw_int = static_cast<uint32_t>(dw + 0.5);
        aa_weight_sum += AdamicAdarWeight(dw_int);
        if (dw > 0) ra_weight_sum += 1.0 / dw;
      }
      ++i;
      ++j;
    }
  }
  if (matched > 0) {
    est.adamic_adar = est.intersection * (aa_weight_sum / matched);
    est.resource_allocation = est.intersection * (ra_weight_sum / matched);
  }
  return est;
}

uint64_t BottomKPredictor::MemoryBytes() const {
  uint64_t bytes = store_.MemoryBytes();
  if (options_.track_exact_degrees) bytes += degrees_.MemoryBytes();
  return bytes;
}

void BottomKPredictor::MergeFrom(const BottomKPredictor& other) {
  SL_CHECK(options_ == other.options_)
      << "cannot merge predictors with different options";
  store_.MergeFrom(other.store_,
                   [](BottomKSketch& mine, const BottomKSketch& theirs) {
                     mine.MergeUnion(theirs);
                   });
  if (options_.track_exact_degrees) degrees_.MergeFrom(other.degrees_);
  AddProcessedEdges(other.edges_processed());
}

namespace {
constexpr uint32_t kBottomKPayloadVersion = 1;
}  // namespace

Status BottomKPredictor::SaveRows(BinaryWriter& writer,
                                  const ShardRows& rows, uint64_t edges,
                                  uint64_t /*deletes*/) const {
  WriteSnapshotHeader(writer, name(), kBottomKPayloadVersion);
  writer.WriteU32(options_.k);
  writer.WriteU64(options_.seed);
  writer.WriteU32(options_.track_exact_degrees ? 1 : 0);
  writer.WriteU64(edges);
  // KMV degrees keep no counter table.
  if (options_.track_exact_degrees) {
    writer.WriteU64(rows.num_vertices());
    rows.ForEach<BottomKPredictor>(
        [&writer](const BottomKPredictor& shard, VertexId row) {
          writer.WriteU32(shard.degrees_.Degree(row));
        });
  } else {
    writer.WriteU64(0);
  }
  writer.WriteU64(rows.num_vertices());
  const BottomKSketch empty(options_.k);
  rows.ForEach<BottomKPredictor>(
      [&](const BottomKPredictor& shard, VertexId row) {
        const BottomKSketch* sketch = shard.store_.Get(row);
        writer.WriteVector((sketch != nullptr ? *sketch : empty).entries());
      });
  return writer.status();
}

Result<BottomKPredictor> BottomKPredictor::LoadFrom(BinaryReader& reader,
                                                    uint32_t payload_version) {
  if (payload_version != kBottomKPayloadVersion) {
    return Status::InvalidArgument("unsupported bottomk payload version " +
                                   std::to_string(payload_version));
  }
  BottomKPredictorOptions options;
  options.k = reader.ReadU32();
  options.seed = reader.ReadU64();
  options.track_exact_degrees = reader.ReadU32() != 0;
  uint64_t edges = reader.ReadU64();
  if (!reader.ok()) return reader.status();
  if (options.k < 2) {
    return Status::InvalidArgument("corrupt snapshot: bad k");
  }

  auto degrees = reader.ReadVector<uint32_t>();
  uint64_t num_vertices = reader.ReadU64();
  if (!reader.ok()) return reader.status();
  // With exact degrees, the counter table and sketch store grow in
  // lockstep; with KMV degrees, no counters are kept at all. Either way a
  // mismatched length is corruption, not a loadable state.
  const size_t expected_degrees =
      options.track_exact_degrees ? num_vertices : 0;
  if (degrees.size() != expected_degrees) {
    return Status::InvalidArgument(
        "corrupt snapshot: degree table covers " +
        std::to_string(degrees.size()) + " vertices, expected " +
        std::to_string(expected_degrees));
  }

  BottomKPredictor predictor(options);
  predictor.degrees_.SetRaw(std::move(degrees));
  for (uint64_t u = 0; u < num_vertices && reader.ok(); ++u) {
    auto entries = reader.ReadVector<BottomKSketch::Entry>();
    if (!reader.ok()) break;
    if (entries.size() > options.k) {
      return Status::InvalidArgument("corrupt snapshot: oversized sketch");
    }
    BottomKSketch sketch(options.k);
    for (const auto& entry : entries) sketch.Update(entry.hash, entry.item);
    predictor.store_.Append(std::move(sketch));
  }
  if (!reader.ok()) return reader.status();
  predictor.AddProcessedEdges(edges);
  return predictor;
}

}  // namespace streamlink
