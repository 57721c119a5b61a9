#include "core/link_predictor.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/serde.h"

namespace streamlink {

double MeasureFromEstimate(LinkMeasure measure, const OverlapEstimate& e) {
  switch (measure) {
    case LinkMeasure::kCommonNeighbors:
      return e.intersection;
    case LinkMeasure::kJaccard:
      return e.jaccard;
    case LinkMeasure::kAdamicAdar:
      return e.adamic_adar;
    case LinkMeasure::kResourceAllocation:
      return e.resource_allocation;
    case LinkMeasure::kPreferentialAttachment:
      return e.degree_u * e.degree_v;
    case LinkMeasure::kSalton: {
      double denom = std::sqrt(e.degree_u * e.degree_v);
      return denom > 0 ? e.intersection / denom : 0.0;
    }
    case LinkMeasure::kSorensen: {
      double denom = e.degree_u + e.degree_v;
      return denom > 0 ? 2.0 * e.intersection / denom : 0.0;
    }
    case LinkMeasure::kHubPromoted: {
      double denom = std::min(e.degree_u, e.degree_v);
      return denom > 0 ? e.intersection / denom : 0.0;
    }
    case LinkMeasure::kHubDepressed: {
      double denom = std::max(e.degree_u, e.degree_v);
      return denom > 0 ? e.intersection / denom : 0.0;
    }
    case LinkMeasure::kLeichtHolmeNewman: {
      double denom = e.degree_u * e.degree_v;
      return denom > 0 ? e.intersection / denom : 0.0;
    }
  }
  SL_LOG(kFatal) << "unhandled LinkMeasure";
  return 0.0;
}

std::vector<double> LinkPredictor::Scores(
    std::span<const LinkMeasure> measures, VertexId u, VertexId v) const {
  const OverlapEstimate estimate = EstimateOverlap(u, v);
  std::vector<double> scores;
  scores.reserve(measures.size());
  for (LinkMeasure m : measures) {
    scores.push_back(MeasureFromEstimate(m, estimate));
  }
  return scores;
}

Status LinkPredictor::SaveTo(BinaryWriter&) const {
  return Status::FailedPrecondition(name() + " does not support snapshots");
}

Status LinkPredictor::Save(const std::string& path) const {
  return WriteFileAtomic(
      path, [this](BinaryWriter& writer) { return SaveTo(writer); });
}

void LinkPredictor::ProcessEdge(const Edge&) {
  SL_LOG(kFatal) << name() << " overrides neither ProcessEdge nor "
                            "ProcessBatch";
}

void LinkPredictor::ProcessDelete(const Edge&) {
  SL_LOG(kFatal) << name()
                 << " does not support edge deletions (turnstile); wrap in "
                    "a tombstone window or use a deletable kind";
}

}  // namespace streamlink
