#include "core/weighted_predictor.h"

#include "util/logging.h"
#include "util/serde.h"

namespace streamlink {

WeightedJaccardPredictor::WeightedJaccardPredictor(
    const WeightedPredictorOptions& options)
    : options_(options), store_([options] {
        return IcwsSketch(options.num_slots, options.seed);
      }) {
  SL_CHECK(options.num_slots >= 1) << "num_slots must be >= 1";
}

void WeightedJaccardPredictor::OnWeightedEdge(const WeightedEdge& edge) {
  if (edge.u == edge.v) return;
  SL_CHECK(edge.weight > 0.0) << "edge weights must be positive";
  ++edges_processed_;
  store_.Mutable(edge.u).Update(edge.v, edge.weight);
  store_.Mutable(edge.v).Update(edge.u, edge.weight);
  VertexId needed = std::max(edge.u, edge.v) + 1;
  if (needed > strength_.size()) strength_.resize(needed, 0.0);
  strength_[edge.u] += edge.weight;
  strength_[edge.v] += edge.weight;
}

WeightedJaccardPredictor::WeightedEstimate WeightedJaccardPredictor::Estimate(
    VertexId u, VertexId v) const {
  WeightedEstimate est;
  est.strength_u = Strength(u);
  est.strength_v = Strength(v);
  const double strength_sum = est.strength_u + est.strength_v;

  const IcwsSketch* su = store_.Get(u);
  const IcwsSketch* sv = store_.Get(v);
  if (su == nullptr || sv == nullptr || su->IsEmpty() || sv->IsEmpty()) {
    est.max_sum = strength_sum;
    return est;
  }
  est.generalized_jaccard = IcwsSketch::EstimateGeneralizedJaccard(*su, *sv);
  // Σmin + Σmax = S_u + S_v and J = Σmin/Σmax.
  est.max_sum = strength_sum / (1.0 + est.generalized_jaccard);
  est.min_sum = est.generalized_jaccard * est.max_sum;
  return est;
}

uint64_t WeightedJaccardPredictor::MemoryBytes() const {
  return store_.MemoryBytes() + sizeof(*this) +
         strength_.capacity() * sizeof(double);
}

namespace {
constexpr uint32_t kWeightedPayloadVersion = 1;
}  // namespace

Status WeightedJaccardPredictor::SaveTo(BinaryWriter& writer) const {
  WriteSnapshotHeader(writer, name(), kWeightedPayloadVersion);
  writer.WriteU32(options_.num_slots);
  writer.WriteU64(options_.seed);
  writer.WriteU64(edges_processed_);
  writer.WriteVector(strength_);
  writer.WriteU64(store_.num_vertices());
  for (VertexId u = 0; u < store_.num_vertices(); ++u) {
    writer.WriteVector(store_.Get(u)->slots());
  }
  return writer.status();
}

Status WeightedJaccardPredictor::Save(const std::string& path) const {
  return WriteFileAtomic(
      path, [this](BinaryWriter& writer) { return SaveTo(writer); });
}

Result<WeightedJaccardPredictor> WeightedJaccardPredictor::LoadFrom(
    BinaryReader& reader, uint32_t payload_version) {
  if (payload_version != kWeightedPayloadVersion) {
    return Status::InvalidArgument(
        "unsupported weighted_icws payload version " +
        std::to_string(payload_version));
  }
  WeightedPredictorOptions options;
  options.num_slots = reader.ReadU32();
  options.seed = reader.ReadU64();
  uint64_t edges = reader.ReadU64();
  if (!reader.ok()) return reader.status();
  if (options.num_slots < 1) {
    return Status::InvalidArgument("corrupt snapshot: zero sketch width");
  }

  auto strength = reader.ReadVector<double>();
  uint64_t num_vertices = reader.ReadU64();
  if (!reader.ok()) return reader.status();
  // Strengths and sketches grow in lockstep (both endpoints of every
  // weighted edge touch both).
  if (strength.size() != num_vertices) {
    return Status::InvalidArgument(
        "corrupt snapshot: strength table covers " +
        std::to_string(strength.size()) + " vertices, sketch store " +
        std::to_string(num_vertices));
  }

  WeightedJaccardPredictor predictor(options);
  predictor.strength_ = std::move(strength);
  for (uint64_t u = 0; u < num_vertices && reader.ok(); ++u) {
    auto slots = reader.ReadVector<IcwsSketch::Slot>();
    if (!reader.ok()) break;
    if (slots.size() != options.num_slots) {
      return Status::InvalidArgument("corrupt snapshot: bad sketch width");
    }
    predictor.store_.Append(
        IcwsSketch::FromSlots(options.seed, std::move(slots)));
  }
  if (!reader.ok()) return reader.status();
  predictor.edges_processed_ = edges;
  return predictor;
}

Result<WeightedJaccardPredictor> WeightedJaccardPredictor::Load(
    const std::string& path) {
  Result<WeightedJaccardPredictor> predictor = Status::Internal("unread");
  Status st = ReadFileVerified(path, [&](BinaryReader& reader) {
    Result<SnapshotHeader> header = ReadSnapshotHeader(reader);
    if (!header.ok()) return header.status();
    if (header->kind != "weighted_icws") {
      return Status::InvalidArgument(
          "snapshot holds a '" + header->kind +
          "' predictor, expected weighted_icws: " + path);
    }
    predictor = LoadFrom(reader, header->payload_version);
    return predictor.status();
  });
  if (!st.ok()) return st;
  return predictor;
}

}  // namespace streamlink
