#include "core/vertex_biased_predictor.h"

#include <algorithm>
#include <cmath>

#include "graph/exact_measures.h"
#include "util/logging.h"
#include "util/serde.h"

namespace streamlink {

VertexBiasedPredictor::VertexBiasedPredictor(
    const VertexBiasedPredictorOptions& options)
    : options_(options),
      family_(options.seed, options.num_hashes),
      exp_seed_(Mix64(options.seed ^ 0xb1a5edULL)),
      minhash_store_([k = options.num_hashes] { return MinHashSketch(k); }),
      weighted_store_([k = options.num_weighted_samples] {
        return WeightedBottomKSampler(k);
      }) {
  SL_CHECK(options.num_hashes >= 1) << "num_hashes must be >= 1";
  SL_CHECK(options.num_weighted_samples >= 1)
      << "num_weighted_samples must be >= 1";
}

double VertexBiasedPredictor::SamplingWeight(uint32_t degree) {
  return 1.0 / std::log(static_cast<double>(degree) + M_E);
}

void VertexBiasedPredictor::ProcessEdge(const Edge& edge) {
  degrees_.Increment(edge.u);
  degrees_.Increment(edge.v);

  minhash_store_.Mutable(edge.u).Update(edge.v, family_);
  minhash_store_.Mutable(edge.v).Update(edge.u, family_);

  // Coordinated Exp(1) variates: derived from the neighbor's id only, so
  // the same vertex carries the same variate in every sampler.
  double exp_u = HashToExp(HashU64(edge.u, exp_seed_));
  double exp_v = HashToExp(HashU64(edge.v, exp_seed_));
  weighted_store_.Mutable(edge.u).Offer(edge.v, exp_v,
                                        SamplingWeight(degrees_.Degree(edge.v)));
  weighted_store_.Mutable(edge.v).Offer(edge.u, exp_u,
                                        SamplingWeight(degrees_.Degree(edge.u)));
}

VertexId VertexBiasedPredictor::num_vertices() const {
  return std::max(minhash_store_.num_vertices(),
                  weighted_store_.num_vertices());
}

OverlapEstimate VertexBiasedPredictor::EstimateOverlap(VertexId u,
                                                       VertexId v) const {
  OverlapEstimate est;
  est.degree_u = degrees_.Degree(u);
  est.degree_v = degrees_.Degree(v);
  const double degree_sum = est.degree_u + est.degree_v;

  const MinHashSketch* su = minhash_store_.Get(u);
  const MinHashSketch* sv = minhash_store_.Get(v);
  if (su == nullptr || sv == nullptr || su->IsEmpty() || sv->IsEmpty()) {
    est.union_size = degree_sum;
    return est;
  }

  est.jaccard = MinHashSketch::EstimateJaccard(*su, *sv);
  est.union_size = degree_sum / (1.0 + est.jaccard);
  est.intersection = est.jaccard * est.union_size;

  // Adamic-Adar via the coordinated weighted samplers: estimate
  // Σ_{w ∈ ∩} aa_weight(w) directly (no uniform-sample detour).
  const WeightedBottomKSampler* wu = weighted_store_.Get(u);
  const WeightedBottomKSampler* wv = weighted_store_.Get(v);
  if (wu != nullptr && wv != nullptr) {
    auto aa_now = [this](uint64_t item) {
      return AdamicAdarWeight(degrees_.Degree(static_cast<VertexId>(item)));
    };
    est.adamic_adar = WeightedBottomKSampler::EstimateWeightedIntersection(
        *wu, *wv, aa_now);
    auto ra_now = [this](uint64_t item) {
      uint32_t d = degrees_.Degree(static_cast<VertexId>(item));
      return d > 0 ? 1.0 / d : 0.0;
    };
    est.resource_allocation =
        WeightedBottomKSampler::EstimateWeightedIntersection(*wu, *wv,
                                                             ra_now);
  }
  return est;
}

uint64_t VertexBiasedPredictor::MemoryBytes() const {
  return minhash_store_.MemoryBytes() + weighted_store_.MemoryBytes() +
         degrees_.MemoryBytes();
}

namespace {
constexpr uint32_t kVertexBiasedPayloadVersion = 1;
}  // namespace

Status VertexBiasedPredictor::SaveTo(BinaryWriter& writer) const {
  WriteSnapshotHeader(writer, name(), kVertexBiasedPayloadVersion);
  writer.WriteU32(options_.num_hashes);
  writer.WriteU32(options_.num_weighted_samples);
  writer.WriteU64(options_.seed);
  writer.WriteU64(edges_processed());
  writer.WriteVector(degrees_.raw());
  writer.WriteU64(minhash_store_.num_vertices());
  for (VertexId u = 0; u < minhash_store_.num_vertices(); ++u) {
    writer.WriteVector(minhash_store_.Get(u)->slots());
    writer.WriteVector(weighted_store_.Get(u)->entries());
  }
  return writer.status();
}

Result<VertexBiasedPredictor> VertexBiasedPredictor::LoadFrom(
    BinaryReader& reader, uint32_t payload_version) {
  if (payload_version != kVertexBiasedPayloadVersion) {
    return Status::InvalidArgument(
        "unsupported vertex_biased payload version " +
        std::to_string(payload_version));
  }
  VertexBiasedPredictorOptions options;
  options.num_hashes = reader.ReadU32();
  options.num_weighted_samples = reader.ReadU32();
  options.seed = reader.ReadU64();
  uint64_t edges = reader.ReadU64();
  if (!reader.ok()) return reader.status();
  if (options.num_hashes < 1 || options.num_weighted_samples < 1) {
    return Status::InvalidArgument("corrupt snapshot: bad sketch sizes");
  }

  auto degrees = reader.ReadVector<uint32_t>();
  uint64_t num_vertices = reader.ReadU64();
  if (!reader.ok()) return reader.status();
  // All three per-vertex structures (minhash, sampler, degrees) grow in
  // lockstep — both endpoints of every edge touch each of them.
  if (degrees.size() != num_vertices) {
    return Status::InvalidArgument(
        "corrupt snapshot: degree table covers " +
        std::to_string(degrees.size()) + " vertices, sketch store " +
        std::to_string(num_vertices));
  }

  VertexBiasedPredictor predictor(options);
  predictor.degrees_.SetRaw(std::move(degrees));
  for (uint64_t u = 0; u < num_vertices && reader.ok(); ++u) {
    auto slots = reader.ReadVector<MinHashSketch::Slot>();
    auto entries = reader.ReadVector<WeightedBottomKSampler::Entry>();
    if (!reader.ok()) break;
    if (slots.size() != options.num_hashes) {
      return Status::InvalidArgument("corrupt snapshot: bad sketch width");
    }
    if (entries.size() > options.num_weighted_samples) {
      return Status::InvalidArgument("corrupt snapshot: oversized sampler");
    }
    for (size_t i = 1; i < entries.size(); ++i) {
      if (entries[i].rank < entries[i - 1].rank) {
        return Status::InvalidArgument(
            "corrupt snapshot: sampler ranks out of order");
      }
    }
    predictor.minhash_store_.Append(MinHashSketch::FromSlots(std::move(slots)));
    predictor.weighted_store_.Append(WeightedBottomKSampler::FromEntries(
        options.num_weighted_samples, std::move(entries)));
  }
  if (!reader.ok()) return reader.status();
  predictor.AddProcessedEdges(edges);
  return predictor;
}

}  // namespace streamlink
