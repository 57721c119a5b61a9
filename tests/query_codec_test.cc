#include "serve/query_codec.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "util/serde.h"

namespace streamlink {
namespace {

QueryRequest SampleRequest() {
  QueryRequest request;
  request.top_k = 5;
  request.trace = true;
  request.measures = {LinkMeasure::kJaccard, LinkMeasure::kAdamicAdar};
  for (uint32_t i = 0; i < 17; ++i) {
    request.pairs.push_back(QueryPair{i, i * 7 + 1});
  }
  return request;
}

QueryResult SampleResult() {
  QueryResult result;
  result.meta.snapshot_version = 9;
  result.meta.snapshot_edges = 1200;
  result.meta.live_edges = 1450;
  result.meta.staleness_edges = 250;
  result.meta.latency_us = 37.5;
  result.stages = {{0, 1200}, {2, 88000}, {3, 5400}};
  for (uint32_t i = 0; i < 6; ++i) {
    PairResult pr;
    pr.pair = QueryPair{i, i + 100};
    pr.estimate.degree_u = i + 1.0;
    pr.estimate.degree_v = i + 2.0;
    pr.estimate.intersection = i * 0.5;
    pr.estimate.union_size = i * 1.5 + 1.0;
    pr.estimate.jaccard = i * 0.1;
    pr.estimate.adamic_adar = i * 0.2;
    pr.estimate.resource_allocation = i * 0.05;
    pr.scores = {i * 0.1, i * 0.2};
    result.pairs.push_back(pr);
  }
  return result;
}

TEST(QueryCodec, RequestRoundTrips) {
  const QueryRequest request = SampleRequest();
  const std::string bytes = EncodeQueryRequest(request);
  Result<QueryRequest> decoded = DecodeQueryRequest(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->top_k, request.top_k);
  EXPECT_TRUE(decoded->trace);
  ASSERT_EQ(decoded->measures.size(), request.measures.size());
  for (size_t i = 0; i < request.measures.size(); ++i) {
    EXPECT_EQ(decoded->measures[i], request.measures[i]);
  }
  ASSERT_EQ(decoded->pairs.size(), request.pairs.size());
  for (size_t i = 0; i < request.pairs.size(); ++i) {
    EXPECT_EQ(decoded->pairs[i].u, request.pairs[i].u);
    EXPECT_EQ(decoded->pairs[i].v, request.pairs[i].v);
  }
}

TEST(QueryCodec, EmptyRequestRoundTrips) {
  QueryRequest request;
  Result<QueryRequest> decoded = DecodeQueryRequest(EncodeQueryRequest(request));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->top_k, 0u);
  EXPECT_FALSE(decoded->trace);  // trace is opt-in; the default stays off
  EXPECT_TRUE(decoded->measures.empty());
  EXPECT_TRUE(decoded->pairs.empty());
}

TEST(QueryCodec, ResultRoundTrips) {
  const QueryResult result = SampleResult();
  Result<QueryResult> decoded = DecodeQueryResult(EncodeQueryResult(result));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->meta.snapshot_version, result.meta.snapshot_version);
  EXPECT_EQ(decoded->meta.snapshot_edges, result.meta.snapshot_edges);
  EXPECT_EQ(decoded->meta.live_edges, result.meta.live_edges);
  EXPECT_EQ(decoded->meta.staleness_edges, result.meta.staleness_edges);
  EXPECT_EQ(decoded->meta.latency_us, result.meta.latency_us);
  ASSERT_EQ(decoded->stages.size(), result.stages.size());
  for (size_t i = 0; i < result.stages.size(); ++i) {
    EXPECT_EQ(decoded->stages[i].stage, result.stages[i].stage);
    EXPECT_EQ(decoded->stages[i].ns, result.stages[i].ns);
  }
  ASSERT_EQ(decoded->pairs.size(), result.pairs.size());
  for (size_t i = 0; i < result.pairs.size(); ++i) {
    const PairResult& a = decoded->pairs[i];
    const PairResult& b = result.pairs[i];
    EXPECT_EQ(a.pair.u, b.pair.u);
    EXPECT_EQ(a.pair.v, b.pair.v);
    EXPECT_EQ(a.estimate.jaccard, b.estimate.jaccard);
    EXPECT_EQ(a.estimate.adamic_adar, b.estimate.adamic_adar);
    EXPECT_EQ(a.estimate.union_size, b.estimate.union_size);
    ASSERT_EQ(a.scores.size(), b.scores.size());
    for (size_t s = 0; s < b.scores.size(); ++s) {
      EXPECT_EQ(a.scores[s], b.scores[s]);
    }
  }
}

TEST(QueryCodec, NackRoundTrips) {
  NackInfo nack;
  nack.reason = NackReason::kQueueFull;
  nack.retry_after_ms = 75;
  nack.message = "queue at capacity";
  Result<NackInfo> decoded = DecodeNack(EncodeNack(nack));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->reason, nack.reason);
  EXPECT_EQ(decoded->retry_after_ms, nack.retry_after_ms);
  EXPECT_EQ(decoded->message, nack.message);
}

TEST(QueryCodec, NackReasonNamesAreStable) {
  EXPECT_STREQ(NackReasonName(NackReason::kQueueFull), "queue_full");
  EXPECT_STREQ(NackReasonName(NackReason::kStaleSnapshot), "stale_snapshot");
  EXPECT_STREQ(NackReasonName(NackReason::kBadRequest), "bad_request");
  EXPECT_STREQ(NackReasonName(NackReason::kShuttingDown), "shutting_down");
}

// --- Corruption: the acceptance criterion is that EVERY single-byte ----
// --- flip and every truncation is rejected, not just a sampled few. ----

TEST(QueryCodec, RequestRejectsEverySingleByteFlip) {
  const std::string bytes = EncodeQueryRequest(SampleRequest());
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (uint8_t flip : {0x01, 0x80, 0xff}) {
      std::string corrupt = bytes;
      corrupt[i] = static_cast<char>(corrupt[i] ^ flip);
      EXPECT_FALSE(DecodeQueryRequest(corrupt).ok())
          << "flip 0x" << std::hex << static_cast<int>(flip)
          << " at byte " << std::dec << i << " was not detected";
    }
  }
}

TEST(QueryCodec, ResultRejectsEverySingleByteFlip) {
  const std::string bytes = EncodeQueryResult(SampleResult());
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x01);
    EXPECT_FALSE(DecodeQueryResult(corrupt).ok())
        << "flip at byte " << i << " was not detected";
  }
}

TEST(QueryCodec, NackRejectsEverySingleByteFlip) {
  NackInfo nack;
  nack.reason = NackReason::kStaleSnapshot;
  nack.retry_after_ms = 10;
  nack.message = "snapshot too old";
  const std::string bytes = EncodeNack(nack);
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x01);
    EXPECT_FALSE(DecodeNack(corrupt).ok())
        << "flip at byte " << i << " was not detected";
  }
}

TEST(QueryCodec, RejectsEveryTruncation) {
  const std::string bytes = EncodeQueryRequest(SampleRequest());
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(DecodeQueryRequest(bytes.substr(0, len)).ok())
        << "truncation to " << len << " bytes was not detected";
  }
}

TEST(QueryCodec, RejectsWrongMessageKind) {
  // A valid result envelope is not a request, even though its checksum
  // verifies.
  const std::string bytes = EncodeQueryResult(SampleResult());
  EXPECT_FALSE(DecodeQueryRequest(bytes).ok());
  EXPECT_FALSE(DecodeNack(bytes).ok());
}

TEST(QueryCodec, UntracedResultCarriesNoStages) {
  QueryResult result = SampleResult();
  result.stages.clear();
  Result<QueryResult> decoded = DecodeQueryResult(EncodeQueryResult(result));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->stages.empty());
}

// A count within the codec's caps but beyond the message's bytes fails as
// a truncation before the decoder reserves room for it.
TEST(QueryCodec, PairCountBeyondTheMessageFailsAsTruncation) {
  BinaryWriter w;
  w.WriteU32(kQueryMessageMagic);
  w.WriteU32(kQueryCodecVersion);
  w.WriteU32(static_cast<uint32_t>(QueryMessageKind::kResult));
  for (int i = 0; i < 4; ++i) w.WriteU64(0);  // snapshot metadata
  w.WriteDouble(0);                            // latency
  w.WriteU64(0);                               // stages
  w.WriteU64(kMaxCodecPairs);                  // pairs, none follow
  const std::string bytes = w.TakeBytes();
  ASSERT_EQ(bytes.size(), 68u);
  Result<QueryResult> decoded = DecodeQueryResult(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kIoError);
  EXPECT_EQ(decoded.status().message(), "unexpected end of input");
}

// Both ends of the wire come from one build: a version-2 message, whose
// footer is FNV-1a, is refused by its version word.
TEST(QueryCodec, RejectsVersionTwoMessages) {
  std::string bytes = EncodeQueryRequest(SampleRequest());
  const uint32_t version = 2;
  std::memcpy(&bytes[sizeof(uint32_t)], &version, sizeof(version));
  const size_t body = bytes.size() - sizeof(uint64_t);
  const uint64_t footer = Fnv1aUpdate(kFnv1aOffset, bytes.data(), body);
  std::memcpy(&bytes[body], &footer, sizeof(footer));
  Result<QueryRequest> decoded = DecodeQueryRequest(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(decoded.status().message(), "unsupported query codec version 2");
}

TEST(QueryCodec, RejectsGarbage) {
  EXPECT_FALSE(DecodeQueryRequest("").ok());
  EXPECT_FALSE(DecodeQueryRequest("not a message").ok());
  std::string zeros(64, '\0');
  EXPECT_FALSE(DecodeQueryRequest(zeros).ok());
}

}  // namespace
}  // namespace streamlink
