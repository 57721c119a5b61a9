#include "serve/query_codec.h"

#include <utility>

#include "util/serde.h"

namespace streamlink {

namespace {

/// The highest LinkMeasure value the codec accepts; keep in sync with the
/// enum in graph/exact_measures.h (a static_assert-able mirror would need
/// a kCount sentinel there; the decode-side range check is what matters
/// for wire safety).
constexpr uint32_t kMaxMeasureValue =
    static_cast<uint32_t>(LinkMeasure::kLeichtHolmeNewman);

/// The encoded size of a result pair with no scores: the two ids, the
/// seven estimate fields and the score count.
constexpr size_t kResultPairMinBytes =
    2 * sizeof(uint32_t) + 7 * sizeof(double) + sizeof(uint64_t);

void WriteEnvelope(BinaryWriter& writer, QueryMessageKind kind) {
  writer.WriteU32(kQueryMessageMagic);
  writer.WriteU32(kQueryCodecVersion);
  writer.WriteU32(static_cast<uint32_t>(kind));
}

/// Validates magic/version/kind. InvalidArgument on any mismatch.
Status ReadEnvelope(BinaryReader& reader, QueryMessageKind expected) {
  const uint32_t magic = reader.ReadU32();
  if (!reader.ok()) return reader.status();
  if (magic != kQueryMessageMagic) {
    return Status::InvalidArgument("not a query message (bad magic)");
  }
  const uint32_t version = reader.ReadU32();
  if (!reader.ok()) return reader.status();
  if (version != kQueryCodecVersion) {
    return Status::InvalidArgument("unsupported query codec version " +
                                   std::to_string(version));
  }
  const uint32_t kind = reader.ReadU32();
  if (!reader.ok()) return reader.status();
  if (kind != static_cast<uint32_t>(expected)) {
    return Status::InvalidArgument("unexpected query message kind " +
                                   std::to_string(kind));
  }
  return Status::Ok();
}

}  // namespace

const char* NackReasonName(NackReason reason) {
  switch (reason) {
    case NackReason::kQueueFull:
      return "queue_full";
    case NackReason::kStaleSnapshot:
      return "stale_snapshot";
    case NackReason::kBadRequest:
      return "bad_request";
    case NackReason::kShuttingDown:
      return "shutting_down";
  }
  return "unknown";
}

std::string EncodeQueryRequest(const QueryRequest& request) {
  BinaryWriter writer;
  WriteEnvelope(writer, QueryMessageKind::kRequest);
  writer.WriteU32(request.top_k);
  writer.WriteU32(request.trace ? 1 : 0);
  writer.WriteU64(request.measures.size());
  for (LinkMeasure m : request.measures) {
    writer.WriteU32(static_cast<uint32_t>(m));
  }
  writer.WriteU64(request.pairs.size());
  for (const QueryPair& pair : request.pairs) {
    writer.WriteU32(pair.u);
    writer.WriteU32(pair.v);
  }
  writer.WriteChecksumFooter();
  return writer.TakeBytes();
}

Result<QueryRequest> DecodeQueryRequest(std::string_view bytes) {
  BinaryReader reader(bytes);
  if (Status st = ReadEnvelope(reader, QueryMessageKind::kRequest); !st.ok()) {
    return st;
  }
  QueryRequest request;
  request.top_k = reader.ReadU32();
  // Any non-zero value opts in; the checksum footer already rejects
  // corrupted bytes, so no range check is needed for wire safety.
  request.trace = reader.ReadU32() != 0;
  const uint64_t measures = reader.ReadU64();
  if (!reader.ok()) return reader.status();
  if (measures > kMaxCodecMeasures) {
    return Status::InvalidArgument("request measure count implausible: " +
                                   std::to_string(measures));
  }
  if (!reader.CheckCount(measures, sizeof(uint32_t))) return reader.status();
  request.measures.reserve(measures);
  for (uint64_t i = 0; i < measures; ++i) {
    const uint32_t value = reader.ReadU32();
    if (!reader.ok()) return reader.status();
    if (value > kMaxMeasureValue) {
      return Status::InvalidArgument("unknown link measure value " +
                                     std::to_string(value));
    }
    request.measures.push_back(static_cast<LinkMeasure>(value));
  }
  const uint64_t pairs = reader.ReadU64();
  if (!reader.ok()) return reader.status();
  if (pairs > kMaxCodecPairs) {
    return Status::InvalidArgument("request pair count implausible: " +
                                   std::to_string(pairs));
  }
  if (!reader.CheckCount(pairs, 2 * sizeof(uint32_t))) {
    return reader.status();
  }
  request.pairs.reserve(pairs);
  for (uint64_t i = 0; i < pairs; ++i) {
    QueryPair pair;
    pair.u = reader.ReadU32();
    pair.v = reader.ReadU32();
    request.pairs.push_back(pair);
  }
  if (!reader.ok()) return reader.status();
  if (Status st = reader.VerifyChecksumFooter(); !st.ok()) return st;
  return request;
}

std::string EncodeQueryResult(const QueryResult& result) {
  BinaryWriter writer;
  WriteEnvelope(writer, QueryMessageKind::kResult);
  writer.WriteU64(result.meta.snapshot_version);
  writer.WriteU64(result.meta.snapshot_edges);
  writer.WriteU64(result.meta.live_edges);
  writer.WriteU64(result.meta.staleness_edges);
  writer.WriteDouble(result.meta.latency_us);
  writer.WriteU64(result.stages.size());
  for (const StageSample& stage : result.stages) {
    writer.WriteU32(stage.stage);
    writer.WriteU64(stage.ns);
  }
  writer.WriteU64(result.pairs.size());
  for (const PairResult& pr : result.pairs) {
    writer.WriteU32(pr.pair.u);
    writer.WriteU32(pr.pair.v);
    writer.WriteDouble(pr.estimate.degree_u);
    writer.WriteDouble(pr.estimate.degree_v);
    writer.WriteDouble(pr.estimate.intersection);
    writer.WriteDouble(pr.estimate.union_size);
    writer.WriteDouble(pr.estimate.jaccard);
    writer.WriteDouble(pr.estimate.adamic_adar);
    writer.WriteDouble(pr.estimate.resource_allocation);
    writer.WriteU64(pr.scores.size());
    for (double score : pr.scores) writer.WriteDouble(score);
  }
  writer.WriteChecksumFooter();
  return writer.TakeBytes();
}

Result<QueryResult> DecodeQueryResult(std::string_view bytes) {
  BinaryReader reader(bytes);
  if (Status st = ReadEnvelope(reader, QueryMessageKind::kResult); !st.ok()) {
    return st;
  }
  QueryResult result;
  result.meta.snapshot_version = reader.ReadU64();
  result.meta.snapshot_edges = reader.ReadU64();
  result.meta.live_edges = reader.ReadU64();
  result.meta.staleness_edges = reader.ReadU64();
  result.meta.latency_us = reader.ReadDouble();
  const uint64_t stages = reader.ReadU64();
  if (!reader.ok()) return reader.status();
  if (stages > kMaxCodecStages) {
    return Status::InvalidArgument("result stage count implausible: " +
                                   std::to_string(stages));
  }
  if (!reader.CheckCount(stages, sizeof(uint32_t) + sizeof(uint64_t))) {
    return reader.status();
  }
  result.stages.reserve(stages);
  for (uint64_t i = 0; i < stages; ++i) {
    StageSample stage;
    stage.stage = reader.ReadU32();
    stage.ns = reader.ReadU64();
    result.stages.push_back(stage);
  }
  const uint64_t pairs = reader.ReadU64();
  if (!reader.ok()) return reader.status();
  if (pairs > kMaxCodecPairs) {
    return Status::InvalidArgument("result pair count implausible: " +
                                   std::to_string(pairs));
  }
  if (!reader.CheckCount(pairs, kResultPairMinBytes)) return reader.status();
  result.pairs.reserve(pairs);
  for (uint64_t i = 0; i < pairs; ++i) {
    PairResult pr;
    pr.pair.u = reader.ReadU32();
    pr.pair.v = reader.ReadU32();
    pr.estimate.degree_u = reader.ReadDouble();
    pr.estimate.degree_v = reader.ReadDouble();
    pr.estimate.intersection = reader.ReadDouble();
    pr.estimate.union_size = reader.ReadDouble();
    pr.estimate.jaccard = reader.ReadDouble();
    pr.estimate.adamic_adar = reader.ReadDouble();
    pr.estimate.resource_allocation = reader.ReadDouble();
    const uint64_t scores = reader.ReadU64();
    if (!reader.ok()) return reader.status();
    if (scores > kMaxCodecMeasures) {
      return Status::InvalidArgument("result score count implausible: " +
                                     std::to_string(scores));
    }
    if (!reader.CheckCount(scores, sizeof(double))) return reader.status();
    pr.scores.reserve(scores);
    for (uint64_t s = 0; s < scores; ++s) {
      pr.scores.push_back(reader.ReadDouble());
    }
    result.pairs.push_back(std::move(pr));
  }
  if (!reader.ok()) return reader.status();
  if (Status st = reader.VerifyChecksumFooter(); !st.ok()) return st;
  return result;
}

std::string EncodeNack(const NackInfo& nack) {
  BinaryWriter writer;
  WriteEnvelope(writer, QueryMessageKind::kNack);
  writer.WriteU32(static_cast<uint32_t>(nack.reason));
  writer.WriteU32(nack.retry_after_ms);
  writer.WriteString(nack.message);
  writer.WriteChecksumFooter();
  return writer.TakeBytes();
}

Result<NackInfo> DecodeNack(std::string_view bytes) {
  BinaryReader reader(bytes);
  if (Status st = ReadEnvelope(reader, QueryMessageKind::kNack); !st.ok()) {
    return st;
  }
  NackInfo nack;
  const uint32_t reason = reader.ReadU32();
  if (!reader.ok()) return reader.status();
  if (reason < static_cast<uint32_t>(NackReason::kQueueFull) ||
      reason > static_cast<uint32_t>(NackReason::kShuttingDown)) {
    return Status::InvalidArgument("unknown NACK reason " +
                                   std::to_string(reason));
  }
  nack.reason = static_cast<NackReason>(reason);
  nack.retry_after_ms = reader.ReadU32();
  nack.message = reader.ReadString();
  if (!reader.ok()) return reader.status();
  if (Status st = reader.VerifyChecksumFooter(); !st.ok()) return st;
  return nack;
}

}  // namespace streamlink
