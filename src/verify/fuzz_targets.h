#ifndef STREAMLINK_VERIFY_FUZZ_TARGETS_H_
#define STREAMLINK_VERIFY_FUZZ_TARGETS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace streamlink {

/// libFuzzer-compatible fuzz targets for the two untrusted-input surfaces:
/// the snapshot loader (bytes from disk) and the edge-list text parser
/// (bytes from datasets). Each target takes one arbitrary input and must
/// never crash, abort, or hang — corrupt input always surfaces as a clean
/// Status. The fuzz/ directory wraps these in LLVMFuzzerTestOneInput for
/// real fuzzing (-DSTREAMLINK_FUZZ=ON, clang only); the corpus-replay
/// test (tests/fuzz_replay_test.cc) drives the same targets over the
/// checked-in corpus plus seeded mutations, so regressions are caught in
/// every CI run without a fuzzing toolchain.

/// Snapshot loader target. Routes the bytes through BOTH load paths:
/// LoadPredictorSnapshot (one verified read of a scratch file, the
/// production path) and LoadPredictorFrom on a reader over the input
/// bytes (no checksum — exercises every kind decoder's own validation,
/// the way a nested shard envelope reaches them). If either path accepts the input, the result must re-save
/// cleanly (parse/serialize closure). Returns 0 always.
int FuzzSnapshotLoader(const uint8_t* data, size_t size);

/// Edge-list text parser target: ParseEdgeList and ParseWeightedEdgeList
/// under both id-remapping modes, with a bounded max_edges. On success the
/// parsed result must satisfy the parser's postconditions (remapped
/// endpoints dense, edge count within bounds). Returns 0 always.
int FuzzEdgeListParser(const uint8_t* data, size_t size);

/// Network request-frame decoder target (the third untrusted surface:
/// bytes from a socket). Feeds the input through net::FrameDecoder both
/// whole and split — chunking must never change the decode — and pushes
/// every decoded payload, plus the raw bytes, through the query-codec
/// decoders. Invariant violations abort; corrupt input must always
/// surface as a clean Status. Returns 0 always.
int FuzzNetFrame(const uint8_t* data, size_t size);

/// One named target, for drivers that iterate.
struct FuzzTarget {
  std::string name;  // also the corpus subdirectory name
  int (*run)(const uint8_t* data, size_t size);
};

/// Every registered target, in a stable order.
std::vector<FuzzTarget> AllFuzzTargets();

/// Replays every regular file under `dir` (the corpus layout is one input
/// per file, see fuzz/README.md) through the target. Returns the number
/// of inputs replayed; NotFound when the directory does not exist.
Result<uint64_t> ReplayCorpusDir(const std::string& dir,
                                 const FuzzTarget& target);

/// Deterministic in-process mutation engine: derives `iterations` inputs
/// from `seed_input` with seeded structural mutations (byte flips, bit
/// flips, truncations, interior deletions, duplications, random splices)
/// and feeds each through the target. The same (seed_input, iterations,
/// seed) triple always replays the identical input sequence — CI runs
/// this as a cheap, reproducible stand-in for a fuzzing campaign.
void MutateAndReplay(const std::string& seed_input, uint32_t iterations,
                     uint64_t seed, const FuzzTarget& target);

}  // namespace streamlink

#endif  // STREAMLINK_VERIFY_FUZZ_TARGETS_H_
