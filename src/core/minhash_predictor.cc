#include "core/minhash_predictor.h"

#include "graph/exact_measures.h"
#include "util/serde.h"
#include "util/logging.h"

namespace streamlink {

MinHashPredictor::MinHashPredictor(const MinHashPredictorOptions& options)
    : options_(options),
      family_(options.seed, options.num_hashes),
      store_([k = options.num_hashes] { return MinHashSketch(k); }) {
  SL_CHECK(options.num_hashes >= 1) << "num_hashes must be >= 1";
}

OverlapEstimate MinHashPredictor::EstimateOverlapSharded(
    VertexId u_row, const HalfEdgePredictor& v_home, VertexId v_row,
    const DegreeFn& degree_of) const {
  SL_CHECK(SameOptions(v_home))
      << "cross-shard query between differently-configured predictors: "
      << name() << " vs " << v_home.name();
  const auto* peer = static_cast<const MinHashPredictor*>(&v_home);

  OverlapEstimate est;
  est.degree_u = OwnedDegree(u_row);
  est.degree_v = peer->OwnedDegree(v_row);
  const double degree_sum = est.degree_u + est.degree_v;

  const MinHashSketch* su = store_.Get(u_row);
  const MinHashSketch* sv = peer->store_.Get(v_row);
  if (su == nullptr || sv == nullptr || su->IsEmpty() || sv->IsEmpty()) {
    // At least one endpoint is isolated: every overlap quantity is zero.
    est.union_size = degree_sum;
    return est;
  }

  const uint32_t k = su->num_slots();
  uint32_t matches = 0;
  double aa_weight_sum = 0.0;
  double ra_weight_sum = 0.0;
  for (uint32_t i = 0; i < k; ++i) {
    const auto& a = su->slot(i);
    const auto& b = sv->slot(i);
    if (a.hash != b.hash || a.hash == ~0ULL) continue;
    ++matches;
    // Matching slot => the arg-min vertex is a uniform sample of the
    // intersection. Weight it by its *current* degree, wherever it lives.
    uint32_t dw =
        static_cast<uint32_t>(degree_of(static_cast<VertexId>(a.item)));
    aa_weight_sum += AdamicAdarWeight(dw);
    if (dw > 0) ra_weight_sum += 1.0 / dw;
  }

  est.jaccard = static_cast<double>(matches) / k;
  // |∩| = J·|∪| and |∪| = d(u)+d(v)−|∩| imply the closed forms below.
  est.union_size = degree_sum / (1.0 + est.jaccard);
  est.intersection = est.jaccard * est.union_size;
  if (matches > 0) {
    est.adamic_adar = est.intersection * (aa_weight_sum / matches);
    est.resource_allocation = est.intersection * (ra_weight_sum / matches);
  }
  return est;
}

uint64_t MinHashPredictor::MemoryBytes() const {
  return store_.MemoryBytes() + degrees_.MemoryBytes();
}

void MinHashPredictor::MergeFrom(const MinHashPredictor& other) {
  SL_CHECK(options_ == other.options_)
      << "cannot merge predictors with different options";
  store_.MergeFrom(other.store_,
                   [](MinHashSketch& mine, const MinHashSketch& theirs) {
                     mine.MergeUnion(theirs);
                   });
  degrees_.MergeFrom(other.degrees_);
  AddProcessedEdges(other.edges_processed());
}

namespace {
constexpr uint32_t kMinHashPayloadVersion = 1;
}  // namespace

Status MinHashPredictor::SaveRows(BinaryWriter& writer,
                                  const ShardRows& rows, uint64_t edges,
                                  uint64_t /*deletes*/) const {
  WriteSnapshotHeader(writer, name(), kMinHashPayloadVersion);
  writer.WriteU32(options_.num_hashes);
  writer.WriteU64(options_.seed);
  writer.WriteU64(edges);
  writer.WriteU64(rows.num_vertices());  // the degree table's length
  rows.ForEach<MinHashPredictor>(
      [&writer](const MinHashPredictor& shard, VertexId row) {
        writer.WriteU32(shard.degrees_.Degree(row));
      });
  writer.WriteU64(rows.num_vertices());
  const MinHashSketch empty(options_.num_hashes);
  rows.ForEach<MinHashPredictor>(
      [&](const MinHashPredictor& shard, VertexId row) {
        const MinHashSketch* sketch = shard.store_.Get(row);
        writer.WriteVector((sketch != nullptr ? *sketch : empty).slots());
      });
  return writer.status();
}

Result<MinHashPredictor> MinHashPredictor::LoadFrom(BinaryReader& reader,
                                                    uint32_t payload_version) {
  if (payload_version != kMinHashPayloadVersion) {
    return Status::InvalidArgument("unsupported minhash payload version " +
                                   std::to_string(payload_version));
  }
  MinHashPredictorOptions options;
  options.num_hashes = reader.ReadU32();
  options.seed = reader.ReadU64();
  uint64_t edges = reader.ReadU64();
  if (!reader.ok()) return reader.status();
  if (options.num_hashes == 0) {
    return Status::InvalidArgument("corrupt snapshot: zero sketch width");
  }

  auto degrees = reader.ReadVector<uint32_t>();
  uint64_t num_vertices = reader.ReadU64();
  if (!reader.ok()) return reader.status();
  // Degrees and sketches grow in lockstep (both endpoints of every edge
  // touch both tables), so a length mismatch can only mean corruption —
  // e.g. a truncated-then-padded file whose sizes are self-consistent but
  // cross-inconsistent.
  if (degrees.size() != num_vertices) {
    return Status::InvalidArgument(
        "corrupt snapshot: degree table covers " +
        std::to_string(degrees.size()) + " vertices, sketch store " +
        std::to_string(num_vertices));
  }

  MinHashPredictor predictor(options);
  predictor.degrees_.SetRaw(std::move(degrees));
  for (uint64_t u = 0; u < num_vertices && reader.ok(); ++u) {
    auto slots = reader.ReadVector<MinHashSketch::Slot>();
    if (!reader.ok()) break;
    if (slots.size() != options.num_hashes) {
      return Status::InvalidArgument("corrupt snapshot: bad sketch width");
    }
    predictor.store_.Append(MinHashSketch::FromSlots(std::move(slots)));
  }
  if (!reader.ok()) return reader.status();
  predictor.AddProcessedEdges(edges);
  return predictor;
}

}  // namespace streamlink
