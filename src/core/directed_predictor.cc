#include "core/directed_predictor.h"

#include <algorithm>

#include "graph/exact_measures.h"
#include "util/logging.h"
#include "util/serde.h"

namespace streamlink {

DirectedMinHashPredictor::DirectedMinHashPredictor(
    const DirectedPredictorOptions& options)
    : options_(options),
      family_(options.seed, options.num_hashes),
      out_store_([k = options.num_hashes] { return MinHashSketch(k); }),
      in_store_([k = options.num_hashes] { return MinHashSketch(k); }) {
  SL_CHECK(options.num_hashes >= 1) << "num_hashes must be >= 1";
}

void DirectedMinHashPredictor::OnEdgeBatch(const EdgeBatch& batch) {
  for (const Edge& edge : batch) {
    if (edge.IsSelfLoop()) continue;
    ++arcs_processed_;
    out_store_.Mutable(edge.u).Update(edge.v, family_);
    in_store_.Mutable(edge.v).Update(edge.u, family_);
    out_degrees_.Increment(edge.u);
    in_degrees_.Increment(edge.v);
  }
}

VertexId DirectedMinHashPredictor::num_vertices() const {
  return std::max(out_store_.num_vertices(), in_store_.num_vertices());
}

DirectedMinHashPredictor::DirectedEstimate DirectedMinHashPredictor::Estimate(
    VertexId u, Direction du, VertexId v, Direction dv) const {
  DirectedEstimate est;
  est.size_u = SideDegree(u, du);
  est.size_v = SideDegree(v, dv);
  const double size_sum = est.size_u + est.size_v;

  const MinHashSketch* su = SideStore(du).Get(u);
  const MinHashSketch* sv = SideStore(dv).Get(v);
  if (su == nullptr || sv == nullptr || su->IsEmpty() || sv->IsEmpty()) {
    est.union_size = size_sum;
    return est;
  }

  const uint32_t k = su->num_slots();
  uint32_t matches = 0;
  double aa_weight_sum = 0.0;
  for (uint32_t i = 0; i < k; ++i) {
    const auto& a = su->slot(i);
    const auto& b = sv->slot(i);
    if (a.hash != b.hash || a.hash == ~0ULL) continue;
    ++matches;
    VertexId w = static_cast<VertexId>(a.item);
    aa_weight_sum +=
        AdamicAdarWeight(out_degrees_.Degree(w) + in_degrees_.Degree(w));
  }
  est.jaccard = static_cast<double>(matches) / k;
  est.union_size = size_sum / (1.0 + est.jaccard);
  est.intersection = est.jaccard * est.union_size;
  if (matches > 0) {
    est.adamic_adar = est.intersection * (aa_weight_sum / matches);
  }
  return est;
}

uint64_t DirectedMinHashPredictor::MemoryBytes() const {
  return out_store_.MemoryBytes() + in_store_.MemoryBytes() +
         out_degrees_.MemoryBytes() + in_degrees_.MemoryBytes();
}

namespace {
constexpr uint32_t kDirectedPayloadVersion = 1;

void WriteSide(BinaryWriter& writer, const SketchStore<MinHashSketch>& store,
               const DegreeTable& degrees) {
  writer.WriteVector(degrees.raw());
  writer.WriteU64(store.num_vertices());
  for (VertexId u = 0; u < store.num_vertices(); ++u) {
    writer.WriteVector(store.Get(u)->slots());
  }
}

Status ReadSide(BinaryReader& reader, uint32_t num_hashes,
                SketchStore<MinHashSketch>& store, DegreeTable& degrees) {
  auto raw_degrees = reader.ReadVector<uint32_t>();
  uint64_t num_vertices = reader.ReadU64();
  if (!reader.ok()) return reader.status();
  // Each side's degree counter and sketch store grow in lockstep (an arc
  // u->v touches only u's out pair and v's in pair).
  if (raw_degrees.size() != num_vertices) {
    return Status::InvalidArgument(
        "corrupt snapshot: degree table covers " +
        std::to_string(raw_degrees.size()) + " vertices, sketch store " +
        std::to_string(num_vertices));
  }
  degrees.SetRaw(std::move(raw_degrees));
  for (uint64_t u = 0; u < num_vertices && reader.ok(); ++u) {
    auto slots = reader.ReadVector<MinHashSketch::Slot>();
    if (!reader.ok()) break;
    if (slots.size() != num_hashes) {
      return Status::InvalidArgument("corrupt snapshot: bad sketch width");
    }
    store.Append(MinHashSketch::FromSlots(std::move(slots)));
  }
  return reader.status();
}

}  // namespace

Status DirectedMinHashPredictor::SaveTo(BinaryWriter& writer) const {
  WriteSnapshotHeader(writer, name(), kDirectedPayloadVersion);
  writer.WriteU32(options_.num_hashes);
  writer.WriteU64(options_.seed);
  writer.WriteU64(arcs_processed_);
  WriteSide(writer, out_store_, out_degrees_);
  WriteSide(writer, in_store_, in_degrees_);
  return writer.status();
}

Status DirectedMinHashPredictor::Save(const std::string& path) const {
  return WriteFileAtomic(
      path, [this](BinaryWriter& writer) { return SaveTo(writer); });
}

Result<DirectedMinHashPredictor> DirectedMinHashPredictor::LoadFrom(
    BinaryReader& reader, uint32_t payload_version) {
  if (payload_version != kDirectedPayloadVersion) {
    return Status::InvalidArgument(
        "unsupported directed_minhash payload version " +
        std::to_string(payload_version));
  }
  DirectedPredictorOptions options;
  options.num_hashes = reader.ReadU32();
  options.seed = reader.ReadU64();
  uint64_t arcs = reader.ReadU64();
  if (!reader.ok()) return reader.status();
  if (options.num_hashes < 1) {
    return Status::InvalidArgument("corrupt snapshot: zero sketch width");
  }

  DirectedMinHashPredictor predictor(options);
  if (Status st = ReadSide(reader, options.num_hashes, predictor.out_store_,
                           predictor.out_degrees_);
      !st.ok()) {
    return st;
  }
  if (Status st = ReadSide(reader, options.num_hashes, predictor.in_store_,
                           predictor.in_degrees_);
      !st.ok()) {
    return st;
  }
  predictor.arcs_processed_ = arcs;
  return predictor;
}

Result<DirectedMinHashPredictor> DirectedMinHashPredictor::Load(
    const std::string& path) {
  Result<DirectedMinHashPredictor> predictor = Status::Internal("unread");
  Status st = ReadFileVerified(path, [&](BinaryReader& reader) {
    Result<SnapshotHeader> header = ReadSnapshotHeader(reader);
    if (!header.ok()) return header.status();
    if (header->kind != "directed_minhash") {
      return Status::InvalidArgument(
          "snapshot holds a '" + header->kind +
          "' predictor, expected directed_minhash: " + path);
    }
    predictor = LoadFrom(reader, header->payload_version);
    return predictor.status();
  });
  if (!st.ok()) return st;
  return predictor;
}

}  // namespace streamlink
