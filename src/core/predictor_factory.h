#ifndef STREAMLINK_CORE_PREDICTOR_FACTORY_H_
#define STREAMLINK_CORE_PREDICTOR_FACTORY_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/link_predictor.h"
#include "util/status.h"

namespace streamlink {

class BinaryReader;
class FlagParser;

/// Unified construction knobs for all predictor kinds (bench binaries map
/// flags straight onto this).
struct PredictorConfig {
  /// A registered kind name (PredictorKinds()).
  std::string kind = "minhash";
  /// Sketch size (slots per vertex). For "vertex_biased" the budget is
  /// split evenly between the MinHash part and the weighted part; for
  /// "windowed_minhash" it is the per-bucket width.
  uint32_t sketch_size = 64;
  uint64_t seed = 0x5eed;
  /// BottomK only: use KMV degree estimates instead of exact counters.
  bool sketch_degrees = false;
  /// windowed_minhash only: count-based window length and bucket count.
  uint64_t window_edges = 100000;
  uint32_t window_buckets = 8;
  /// Ingestion parallelism. 1 builds a plain sequential predictor; > 1
  /// builds a vertex-sharded predictor with one shard per thread (only for
  /// kinds the kind table marks shardable). 0 is InvalidArgument.
  uint32_t threads = 1;
  /// tcm only: rows per count strip (the excess-overlap tail shrinks
  /// geometrically in depth; width is sketch_size).
  uint32_t tcm_depth = 3;
  /// > 0 wraps a kind the kind table marks not deletable in a
  /// TombstoneWindowPredictor of this capacity, giving it bounded-lag
  /// delete support (sequential only). InvalidArgument for deletable kinds
  /// or threads > 1.
  uint64_t tombstone_window = 0;
};

/// One registered predictor kind: every per-kind fact the factory, the
/// loader, the ingest engine, the verifiers and the CLI read.
struct PredictorKind {
  std::string_view name;
  /// Builds with threads > 1: the kind is a HalfEdgePredictor, whose state
  /// splits by vertex across shards (core/sharded_predictor.h). The
  /// others depend on global stream state (current neighbor degrees,
  /// global edge count) and cannot be sharded losslessly.
  bool shardable;
  /// Retracts edges natively (turnstile): DeleteEdge and delete-tagged
  /// batches are exact inverse updates. The others need a tombstone
  /// window (PredictorConfig::tombstone_window) for bounded-lag deletes.
  bool deletable;
  /// A plain sequential predictor (no sharding, no tombstone window);
  /// InvalidArgument for out-of-range sizes.
  Result<std::unique_ptr<LinkPredictor>> (*make)(const PredictorConfig&);
  /// Decodes the payload that follows this kind's envelope header.
  Result<std::unique_ptr<LinkPredictor>> (*load)(BinaryReader& reader,
                                                 uint32_t payload_version);
};

/// The kind table: one row per registered kind, in PredictorKinds() order.
std::span<const PredictorKind> PredictorKindTable();

/// The row of `kind`, or nullptr if no registered kind has that name.
const PredictorKind* FindPredictorKind(std::string_view kind);

/// All predictor kind names MakePredictor accepts, in table order.
std::vector<std::string> PredictorKinds();

/// Builds a predictor from the config; InvalidArgument on unknown kinds or
/// out-of-range sizes.
Result<std::unique_ptr<LinkPredictor>> MakePredictor(
    const PredictorConfig& config);

// --- Universal snapshot loading ---
//
// The restore side of LinkPredictor::SaveTo/Save: every snapshot opens
// with the universal envelope (util/serde.h), whose kind string selects a
// kind table row to decode the payload, or one of the two container
// envelopes (tombstone, and the nested sharded envelope older builds
// wrote, which loads as a plain predictor), each of which may hold only a
// registered kind. The sibling kind that is not a LinkPredictor
// (weighted_icws) has its own static Load and is rejected with a pointer
// to it.

/// Decodes one complete snapshot envelope (header + payload) from the
/// reader. Does NOT verify a file checksum; use LoadPredictorSnapshot for
/// whole files.
Result<std::unique_ptr<LinkPredictor>> LoadPredictorFrom(BinaryReader& reader);

/// Restores a predictor of any kind from a Save(path) snapshot file,
/// verifying the envelope and the whole-file checksum. InvalidArgument for
/// foreign or corrupt content, IoError for truncation/unreadable files.
Result<std::unique_ptr<LinkPredictor>> LoadPredictorSnapshot(
    const std::string& path);

// --- Shared command-line mapping ---
//
// Every binary that lets the user pick a predictor (the CLI subcommands,
// the bench harness) consumes the SAME flag set through the two helpers
// below, so a new PredictorConfig knob lands in exactly one place:
//
//   --kind NAME          predictor kind (see PredictorKinds)
//   --k N                sketch size (slots per vertex)
//   --seed N             master hash seed
//   --threads N          ingestion parallelism (vertex-sharded when > 1)
//   --sketch-degrees     bottomk: KMV degree estimates, no exact counters
//   --window-edges N     windowed_minhash: count-based window length
//   --window-buckets N   windowed_minhash: buckets per window
//   --tcm-depth N        tcm: rows per count strip
//   --tombstone-window N wrap a non-deletable kind for bounded-lag deletes

/// The flag names PredictorConfigFromFlags consumes — append these to a
/// FlagParser::CheckUnknown allowlist.
std::vector<std::string> PredictorFlagNames();

/// One line per predictor flag, for usage/help text.
std::string PredictorFlagsHelp();

/// Maps the shared predictor flags onto a PredictorConfig. Flags that are
/// absent keep the value from `defaults` (so each binary chooses its own
/// default kind/size/seed without re-mapping every knob).
PredictorConfig PredictorConfigFromFlags(const FlagParser& flags,
                                         const PredictorConfig& defaults = {});

}  // namespace streamlink

#endif  // STREAMLINK_CORE_PREDICTOR_FACTORY_H_
