#include "core/windowed_predictor.h"

#include <algorithm>

#include "graph/exact_measures.h"
#include "util/logging.h"
#include "util/serde.h"

namespace streamlink {

WindowedMinHashPredictor::WindowedMinHashPredictor(
    const WindowedPredictorOptions& options)
    : options_(options),
      bucket_width_(std::max<uint64_t>(1, options.window_edges /
                                              std::max(1u, options.num_buckets))),
      family_(options.seed, options.num_hashes) {
  SL_CHECK(options.num_hashes >= 1) << "num_hashes must be >= 1";
  SL_CHECK(options.num_buckets >= 2) << "need at least 2 buckets";
  SL_CHECK(options.window_edges >= options.num_buckets)
      << "window must be at least one edge per bucket";
}

void WindowedMinHashPredictor::Touch(VertexId u, VertexId neighbor) {
  if (u >= vertices_.size()) {
    vertices_.resize(u + 1);
  }
  VertexState& state = vertices_[u];
  if (state.buckets.empty()) {
    state.buckets.reserve(options_.num_buckets);
    for (uint32_t i = 0; i < options_.num_buckets; ++i) {
      state.buckets.emplace_back(options_.num_hashes);
    }
  }
  const uint64_t epoch = CurrentEpoch();
  Bucket& bucket = state.buckets[epoch % options_.num_buckets];
  if (bucket.epoch != epoch) {
    // Lazily reclaim a bucket whose epoch expired (or was never used).
    bucket.epoch = epoch;
    bucket.degree = 0;
    bucket.sketch = MinHashSketch(options_.num_hashes);
  }
  bucket.sketch.Update(neighbor, family_);
  ++bucket.degree;
}

void WindowedMinHashPredictor::ProcessEdge(const Edge& edge) {
  Touch(edge.u, edge.v);
  Touch(edge.v, edge.u);
}

uint32_t WindowedMinHashPredictor::MergeLive(VertexId u,
                                             MinHashSketch& out) const {
  if (u >= vertices_.size() || vertices_[u].buckets.empty()) return 0;
  uint32_t degree = 0;
  for (const Bucket& bucket : vertices_[u].buckets) {
    if (!EpochIsLive(bucket.epoch)) continue;
    out.MergeUnion(bucket.sketch);
    degree += bucket.degree;
  }
  return degree;
}

uint32_t WindowedMinHashPredictor::WindowDegree(VertexId u) const {
  if (u >= vertices_.size()) return 0;
  uint32_t degree = 0;
  for (const Bucket& bucket : vertices_[u].buckets) {
    if (EpochIsLive(bucket.epoch)) degree += bucket.degree;
  }
  return degree;
}

OverlapEstimate WindowedMinHashPredictor::EstimateOverlap(VertexId u,
                                                          VertexId v) const {
  OverlapEstimate est;
  MinHashSketch su(options_.num_hashes), sv(options_.num_hashes);
  est.degree_u = MergeLive(u, su);
  est.degree_v = MergeLive(v, sv);
  const double degree_sum = est.degree_u + est.degree_v;
  if (su.IsEmpty() || sv.IsEmpty()) {
    est.union_size = degree_sum;
    return est;
  }

  const uint32_t k = options_.num_hashes;
  uint32_t matches = 0;
  double aa_weight_sum = 0.0;
  double ra_weight_sum = 0.0;
  for (uint32_t i = 0; i < k; ++i) {
    const auto& a = su.slot(i);
    const auto& b = sv.slot(i);
    if (a.hash != b.hash || a.hash == ~0ULL) continue;
    ++matches;
    uint32_t dw = WindowDegree(static_cast<VertexId>(a.item));
    aa_weight_sum += AdamicAdarWeight(dw);
    if (dw > 0) ra_weight_sum += 1.0 / dw;
  }
  est.jaccard = static_cast<double>(matches) / k;
  est.union_size = degree_sum / (1.0 + est.jaccard);
  est.intersection = est.jaccard * est.union_size;
  if (matches > 0) {
    est.adamic_adar = est.intersection * (aa_weight_sum / matches);
    est.resource_allocation = est.intersection * (ra_weight_sum / matches);
  }
  return est;
}

uint64_t WindowedMinHashPredictor::MemoryBytes() const {
  uint64_t bytes = sizeof(*this) + vertices_.capacity() * sizeof(VertexState);
  for (const VertexState& state : vertices_) {
    bytes += state.buckets.capacity() * sizeof(Bucket);
    for (const Bucket& bucket : state.buckets) {
      bytes += bucket.sketch.MemoryBytes() - sizeof(MinHashSketch);
    }
  }
  return bytes;
}

namespace {
constexpr uint32_t kWindowedPayloadVersion = 1;
}  // namespace

Status WindowedMinHashPredictor::SaveTo(BinaryWriter& writer) const {
  WriteSnapshotHeader(writer, name(), kWindowedPayloadVersion);
  writer.WriteU32(options_.num_hashes);
  writer.WriteU64(options_.window_edges);
  writer.WriteU32(options_.num_buckets);
  writer.WriteU64(options_.seed);
  writer.WriteU64(edges_processed());
  writer.WriteU64(vertices_.size());
  for (const VertexState& state : vertices_) {
    // Buckets are allocated lazily on first touch: either none or all.
    writer.WriteU64(state.buckets.size());
    for (const Bucket& bucket : state.buckets) {
      writer.WriteU64(bucket.epoch);
      writer.WriteU32(bucket.degree);
      writer.WriteVector(bucket.sketch.slots());
    }
  }
  return writer.status();
}

Result<WindowedMinHashPredictor> WindowedMinHashPredictor::LoadFrom(
    BinaryReader& reader, uint32_t payload_version) {
  if (payload_version != kWindowedPayloadVersion) {
    return Status::InvalidArgument(
        "unsupported windowed_minhash payload version " +
        std::to_string(payload_version));
  }
  WindowedPredictorOptions options;
  options.num_hashes = reader.ReadU32();
  options.window_edges = reader.ReadU64();
  options.num_buckets = reader.ReadU32();
  options.seed = reader.ReadU64();
  uint64_t edges = reader.ReadU64();
  uint64_t num_vertices = reader.ReadU64();
  if (!reader.ok()) return reader.status();
  // The constructor treats these as programmer errors (fatal); from a file
  // they mean corruption, so validate first and return a Status.
  if (options.num_hashes < 1 || options.num_buckets < 2 ||
      options.window_edges < options.num_buckets) {
    return Status::InvalidArgument("corrupt snapshot: bad window options");
  }

  // Each vertex holds at least its bucket count.
  if (!reader.CheckCount(num_vertices, sizeof(uint64_t))) {
    return reader.status();
  }

  WindowedMinHashPredictor predictor(options);
  predictor.vertices_.resize(num_vertices);
  for (uint64_t u = 0; u < num_vertices && reader.ok(); ++u) {
    uint64_t bucket_count = reader.ReadU64();
    if (!reader.ok()) break;
    if (bucket_count == 0) continue;  // vertex never touched
    if (bucket_count != options.num_buckets) {
      return Status::InvalidArgument("corrupt snapshot: bad bucket count " +
                                     std::to_string(bucket_count));
    }
    VertexState& state = predictor.vertices_[u];
    state.buckets.reserve(options.num_buckets);
    for (uint32_t b = 0; b < options.num_buckets && reader.ok(); ++b) {
      Bucket bucket(options.num_hashes);
      bucket.epoch = reader.ReadU64();
      bucket.degree = reader.ReadU32();
      auto slots = reader.ReadVector<MinHashSketch::Slot>();
      if (!reader.ok()) break;
      if (slots.size() != options.num_hashes) {
        return Status::InvalidArgument("corrupt snapshot: bad sketch width");
      }
      bucket.sketch = MinHashSketch::FromSlots(std::move(slots));
      state.buckets.push_back(std::move(bucket));
    }
  }
  if (!reader.ok()) return reader.status();
  predictor.AddProcessedEdges(edges);
  return predictor;
}

}  // namespace streamlink
