#include "core/exact_predictor.h"

#include <algorithm>

#include "graph/exact_measures.h"
#include "util/logging.h"
#include "util/serde.h"

namespace streamlink {

OverlapEstimate ExactPredictor::EstimateOverlapSharded(
    VertexId u_row, const HalfEdgePredictor& v_home, VertexId v_row,
    const DegreeFn& degree_of) const {
  SL_CHECK(SameOptions(v_home))
      << "cross-shard query between differently-configured predictors: "
      << name() << " vs " << v_home.name();
  const auto* peer = static_cast<const ExactPredictor*>(&v_home);

  OverlapEstimate est;
  const uint32_t du = graph_.Degree(u_row);
  const uint32_t dv = peer->graph_.Degree(v_row);
  est.degree_u = du;
  est.degree_v = dv;

  uint32_t intersection = 0;
  double adamic_adar = 0.0;
  double resource_allocation = 0.0;
  if (du > 0 && dv > 0) {
    // As in ComputeOverlap: iterate the smaller set, probe the larger
    // (ties keep u's side as the iterated set, preserving its fold order).
    const auto& nu = graph_.Neighbors(u_row);
    const auto& nv = peer->graph_.Neighbors(v_row);
    const auto& small = du > dv ? nv : nu;
    const auto& probe = du > dv ? nu : nv;
    for (VertexId w : small) {
      if (probe.count(w) == 0) continue;
      ++intersection;
      uint32_t dw = static_cast<uint32_t>(degree_of(w));
      adamic_adar += AdamicAdarWeight(dw);
      if (dw > 0) resource_allocation += 1.0 / dw;
    }
  }
  const uint32_t union_size = du + dv - intersection;
  est.intersection = intersection;
  est.union_size = union_size;
  est.jaccard = union_size == 0
                    ? 0.0
                    : static_cast<double>(intersection) / union_size;
  est.adamic_adar = adamic_adar;
  est.resource_allocation = resource_allocation;
  return est;
}

namespace {
constexpr uint32_t kExactPayloadVersion = 1;
}  // namespace

Status ExactPredictor::SaveRows(BinaryWriter& writer,
                                const ShardRows& rows, uint64_t edges,
                                uint64_t /*deletes*/) const {
  // Every edge is two arcs, one in each endpoint's row, whichever shard
  // holds it; AddArc counts no whole edges, so count arcs.
  uint64_t arcs = 0;
  rows.ForEach<ExactPredictor>([&arcs](const ExactPredictor& shard,
                                       VertexId row) {
    arcs += shard.graph_.Degree(row);
  });
  WriteSnapshotHeader(writer, name(), kExactPayloadVersion);
  writer.WriteU64(edges);
  writer.WriteU64(arcs / 2);
  writer.WriteU64(rows.num_vertices());
  std::vector<VertexId> neighbors;
  rows.ForEach<ExactPredictor>([&](const ExactPredictor& shard,
                                   VertexId row) {
    neighbors.clear();
    if (row < shard.graph_.num_vertices()) {
      const auto& set = shard.graph_.Neighbors(row);
      neighbors.assign(set.begin(), set.end());
    }
    // Hash-set iteration order is nondeterministic across processes;
    // sorting makes equal graphs serialize byte-identically.
    std::sort(neighbors.begin(), neighbors.end());
    writer.WriteVector(neighbors);
  });
  return writer.status();
}

Result<ExactPredictor> ExactPredictor::LoadFrom(BinaryReader& reader,
                                                uint32_t payload_version) {
  if (payload_version != kExactPayloadVersion) {
    return Status::InvalidArgument("unsupported exact payload version " +
                                   std::to_string(payload_version));
  }
  uint64_t edges = reader.ReadU64();
  uint64_t num_edges = reader.ReadU64();
  uint64_t num_vertices = reader.ReadU64();
  // Each vertex's neighbor list holds at least its length.
  if (!reader.CheckCount(num_vertices, sizeof(uint64_t))) {
    return reader.status();
  }

  // A graph names only its own vertices. The exception is a shard of the
  // nested sharded envelope of older builds: it counts no edges (shards
  // never did) and lists neighbors that other shards own, past its own
  // rows. Its loader re-encodes all shards as one graph and decodes that
  // here again, with the container's edge count, so the check still runs
  // on the whole graph.
  const bool shard = edges == 0;
  ExactPredictor predictor;
  predictor.graph_.EnsureVertices(static_cast<VertexId>(num_vertices));
  for (uint64_t u = 0; u < num_vertices && reader.ok(); ++u) {
    auto neighbors = reader.ReadVector<VertexId>();
    if (!reader.ok()) break;
    for (VertexId v : neighbors) {
      if ((v >= num_vertices && !shard) || v == u) {
        return Status::InvalidArgument(
            "corrupt snapshot: neighbor id " + std::to_string(v) +
            " of vertex " + std::to_string(u) + " beyond vertex count " +
            std::to_string(num_vertices) + " or a self-loop");
      }
      predictor.graph_.AddArc(static_cast<VertexId>(u), v);
    }
  }
  if (!reader.ok()) return reader.status();
  // AddArc deliberately does not count whole edges; restore the counter.
  predictor.graph_.SetNumEdges(num_edges);
  predictor.AddProcessedEdges(edges);
  return predictor;
}

}  // namespace streamlink
