#ifndef STREAMLINK_SERVE_QUERY_CODEC_H_
#define STREAMLINK_SERVE_QUERY_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "serve/query_service.h"
#include "util/status.h"

namespace streamlink {

// The transport-neutral wire codec for the serving surface: QueryRequest,
// QueryResult, and admission NACKs encode to self-contained byte strings
// that any carrier (the src/net/ frame protocol, a file, a test vector)
// can move verbatim. This is the ONE encode/decode implementation — the
// net server, the net client, the load generator, and the tests all call
// these functions; nothing else in the tree serializes these structs.
//
// Format, mirroring the SLSN snapshot discipline (util/serde.h):
//
//   u32 magic "SLQM" | u32 codec version | u32 message kind |
//   kind-specific payload | u64 checksum footer (util/serde.h Checksum)
//
// All fields little-endian through BinaryWriter/BinaryReader, so the wire
// bytes share the snapshot format's portability story: encoders append
// to the writer's buffer and return it, decoders read the given bytes in
// place. The checksum footer covers every preceding byte: decoders verify
// it and require the input to end there, so ANY single-byte flip,
// truncation, or trailing garbage is rejected with a clean Status
// (query_codec_test proves the every-flip property). Decoders also check
// every count against its cap and against the bytes left before
// allocating, so corrupt lengths can never trigger huge allocations.

inline constexpr uint32_t kQueryMessageMagic = 0x534c514d;  // "SLQM"
/// v2 added the request trace-opt-in flag and the result's per-stage
/// latency breakdown; v3 changed the footer from FNV-1a to the word-wise
/// Checksum and nothing else. Both ends of the wire come from one build,
/// so only v3 is read: v1 and v2 are rejected.
inline constexpr uint32_t kQueryCodecVersion = 3;

/// Decode-side plausibility caps. Generous for real traffic, tight enough
/// that a corrupted count cannot allocate more than a few MiB.
inline constexpr uint64_t kMaxCodecPairs = 1u << 20;
inline constexpr uint64_t kMaxCodecMeasures = 64;
inline constexpr uint64_t kMaxCodecStages = 64;

enum class QueryMessageKind : uint32_t {
  kRequest = 1,
  kResult = 2,
  kNack = 3,
};

/// Why an admission controller refused a request (docs/net.md).
enum class NackReason : uint32_t {
  kQueueFull = 1,      // bounded request queue at capacity
  kStaleSnapshot = 2,  // no snapshot, or staler than the configured bound
  kBadRequest = 3,     // request decoded but was rejected by the service
  kShuttingDown = 4,   // server is stopping
};

/// Short stable name ("queue_full", ...), for logs and metrics.
const char* NackReasonName(NackReason reason);

/// The fast-NACK payload of a shed request: why, and when it is worth
/// retrying. `retry_after_ms` == 0 means "don't retry" (bad request).
struct NackInfo {
  NackReason reason = NackReason::kQueueFull;
  uint32_t retry_after_ms = 0;
  std::string message;
};

std::string EncodeQueryRequest(const QueryRequest& request);
Result<QueryRequest> DecodeQueryRequest(std::string_view bytes);

std::string EncodeQueryResult(const QueryResult& result);
Result<QueryResult> DecodeQueryResult(std::string_view bytes);

std::string EncodeNack(const NackInfo& nack);
Result<NackInfo> DecodeNack(std::string_view bytes);

}  // namespace streamlink

#endif  // STREAMLINK_SERVE_QUERY_CODEC_H_
