#include "core/predictor_factory.h"

#include <type_traits>

#include "util/flags.h"

#include "core/bottomk_predictor.h"
#include "core/exact_predictor.h"
#include "core/half_edge_predictor.h"
#include "core/minhash_predictor.h"
#include "core/oph_predictor.h"
#include "core/sharded_predictor.h"
#include "core/tcm_predictor.h"
#include "core/tombstone_predictor.h"
#include "core/vertex_biased_predictor.h"
#include "core/windowed_predictor.h"
#include "util/serde.h"

namespace streamlink {

namespace {

using Made = Result<std::unique_ptr<LinkPredictor>>;

/// Builds a sketch kind, which needs at least two slots per vertex.
template <typename PredictorT, typename OptionsT>
Made Sketch(const PredictorConfig& config, const OptionsT& options) {
  if (config.sketch_size < 2) {
    return Status::InvalidArgument("sketch_size must be >= 2, got " +
                                   std::to_string(config.sketch_size));
  }
  return std::unique_ptr<LinkPredictor>(new PredictorT(options));
}

Made MakeMinHash(const PredictorConfig& config) {
  MinHashPredictorOptions options;
  options.num_hashes = config.sketch_size;
  options.seed = config.seed;
  return Sketch<MinHashPredictor>(config, options);
}

Made MakeBottomK(const PredictorConfig& config) {
  BottomKPredictorOptions options;
  options.k = config.sketch_size;
  options.seed = config.seed;
  options.track_exact_degrees = !config.sketch_degrees;
  return Sketch<BottomKPredictor>(config, options);
}

Made MakeVertexBiased(const PredictorConfig& config) {
  VertexBiasedPredictorOptions options;
  options.num_hashes = config.sketch_size / 2;
  options.num_weighted_samples = config.sketch_size - options.num_hashes;
  options.seed = config.seed;
  return Sketch<VertexBiasedPredictor>(config, options);
}

Made MakeOph(const PredictorConfig& config) {
  OphPredictorOptions options;
  options.num_bins = config.sketch_size;
  options.seed = config.seed;
  return Sketch<OphPredictor>(config, options);
}

Made MakeWindowedMinHash(const PredictorConfig& config) {
  WindowedPredictorOptions options;
  options.num_hashes = config.sketch_size;
  options.seed = config.seed;
  options.window_edges = config.window_edges;
  options.num_buckets = config.window_buckets;
  return Sketch<WindowedMinHashPredictor>(config, options);
}

Made MakeTcm(const PredictorConfig& config) {
  if (config.tcm_depth < 1) {
    return Status::InvalidArgument("tcm_depth must be >= 1, got " +
                                   std::to_string(config.tcm_depth));
  }
  TcmPredictorOptions options;
  options.width = config.sketch_size;
  options.depth = config.tcm_depth;
  options.seed = config.seed;
  return Sketch<TcmPredictor>(config, options);
}

/// The exact baseline has no sketch, so it ignores sketch_size.
Made MakeExact(const PredictorConfig& /*config*/) {
  return std::unique_ptr<LinkPredictor>(new ExactPredictor());
}

template <typename PredictorT>
Made Load(BinaryReader& reader, uint32_t payload_version) {
  Result<PredictorT> loaded = PredictorT::LoadFrom(reader, payload_version);
  if (!loaded.ok()) return loaded.status();
  return std::unique_ptr<LinkPredictor>(
      new PredictorT(std::move(loaded).value()));
}

/// A row whose `shardable` is the type fact it stands for.
template <typename PredictorT>
constexpr PredictorKind Row(std::string_view name, bool deletable,
                            Made (*make)(const PredictorConfig&)) {
  return {name, std::is_base_of_v<HalfEdgePredictor, PredictorT>, deletable,
          make, &Load<PredictorT>};
}

constexpr PredictorKind kKinds[] = {
    Row<MinHashPredictor>("minhash", /*deletable=*/false, MakeMinHash),
    Row<BottomKPredictor>("bottomk", /*deletable=*/false, MakeBottomK),
    Row<VertexBiasedPredictor>("vertex_biased", /*deletable=*/false,
                               MakeVertexBiased),
    Row<OphPredictor>("oph", /*deletable=*/false, MakeOph),
    Row<WindowedMinHashPredictor>("windowed_minhash", /*deletable=*/false,
                                  MakeWindowedMinHash),
    Row<TcmPredictor>("tcm", /*deletable=*/true, MakeTcm),
    Row<ExactPredictor>("exact", /*deletable=*/true, MakeExact),
};

}  // namespace

std::span<const PredictorKind> PredictorKindTable() { return kKinds; }

const PredictorKind* FindPredictorKind(std::string_view kind) {
  for (const PredictorKind& row : kKinds) {
    if (row.name == kind) return &row;
  }
  return nullptr;
}

std::vector<std::string> PredictorKinds() {
  std::vector<std::string> names;
  for (const PredictorKind& row : kKinds) names.emplace_back(row.name);
  return names;
}

Result<std::unique_ptr<LinkPredictor>> MakePredictor(
    const PredictorConfig& config) {
  if (config.threads == 0) {
    return Status::InvalidArgument("threads must be >= 1, got 0");
  }
  if (config.threads > 1) {
    auto sharded = ShardedPredictor::Make(config);
    if (!sharded.ok()) return sharded.status();
    return std::unique_ptr<LinkPredictor>(std::move(*sharded));
  }
  const PredictorKind* kind = FindPredictorKind(config.kind);
  if (kind == nullptr) {
    return Status::InvalidArgument("unknown predictor kind: " + config.kind);
  }
  if (config.tombstone_window == 0) return kind->make(config);
  if (kind->deletable) {
    return Status::InvalidArgument(config.kind +
                                   " deletes natively; drop tombstone_window");
  }
  if (config.tombstone_window > UINT32_MAX) {
    return Status::InvalidArgument("tombstone_window too large");
  }
  auto inner = kind->make(config);
  if (!inner.ok()) return inner.status();
  return std::unique_ptr<LinkPredictor>(new TombstoneWindowPredictor(
      std::move(*inner), static_cast<uint32_t>(config.tombstone_window)));
}

Result<std::unique_ptr<LinkPredictor>> LoadPredictorFrom(
    BinaryReader& reader) {
  Result<SnapshotHeader> header = ReadSnapshotHeader(reader);
  if (!header.ok()) return header.status();
  const std::string& kind = header->kind;
  const uint32_t version = header->payload_version;
  if (const PredictorKind* row = FindPredictorKind(kind)) {
    return row->load(reader, version);
  }
  if (kind == "tombstone") {
    return TombstoneWindowPredictor::LoadFrom(reader, version);
  }
  if (kind == "sharded") return ShardedPredictor::LoadFrom(reader, version);
  if (kind == "weighted_icws") {
    return Status::InvalidArgument(
        "snapshot holds a 'weighted_icws' predictor, which is not a "
        "LinkPredictor — load it with WeightedJaccardPredictor::Load");
  }
  return Status::InvalidArgument("snapshot holds unknown predictor kind '" +
                                 kind + "'");
}

Result<std::unique_ptr<LinkPredictor>> LoadPredictorSnapshot(
    const std::string& path) {
  Result<std::unique_ptr<LinkPredictor>> predictor = Status::Internal("unread");
  Status st = ReadFileVerified(path, [&predictor](BinaryReader& reader) {
    predictor = LoadPredictorFrom(reader);
    return predictor.status();
  });
  if (!st.ok()) return st;
  return predictor;
}

std::vector<std::string> PredictorFlagNames() {
  return {"kind",           "k",            "seed",          "threads",
          "sketch-degrees", "window-edges", "window-buckets", "tcm-depth",
          "tombstone-window"};
}

std::string PredictorFlagsHelp() {
  std::string kinds;
  for (const PredictorKind& row : kKinds) {
    if (!kinds.empty()) kinds += '|';
    kinds += row.name;
  }
  return
      "  --kind NAME          predictor kind (" + kinds + ")\n"
      "  --k N                sketch size (slots per vertex)\n"
      "  --seed N             master hash seed\n"
      "  --threads N          ingestion threads (vertex-sharded when > 1)\n"
      "  --sketch-degrees     bottomk: KMV degree estimates\n"
      "  --window-edges N     windowed_minhash: window length in edges\n"
      "  --window-buckets N   windowed_minhash: buckets per window\n"
      "  --tcm-depth N        tcm: rows per count strip\n"
      "  --tombstone-window N wrap a non-deletable kind for bounded-lag "
      "deletes\n";
}

PredictorConfig PredictorConfigFromFlags(const FlagParser& flags,
                                         const PredictorConfig& defaults) {
  PredictorConfig config = defaults;
  config.kind = flags.GetString("kind", defaults.kind);
  config.sketch_size = static_cast<uint32_t>(
      flags.GetInt("k", defaults.sketch_size));
  config.seed = static_cast<uint64_t>(
      flags.GetInt("seed", static_cast<int64_t>(defaults.seed)));
  config.threads = static_cast<uint32_t>(
      flags.GetInt("threads", defaults.threads));
  config.sketch_degrees =
      flags.GetBool("sketch-degrees", defaults.sketch_degrees);
  config.window_edges = static_cast<uint64_t>(
      flags.GetInt("window-edges", static_cast<int64_t>(defaults.window_edges)));
  config.window_buckets = static_cast<uint32_t>(
      flags.GetInt("window-buckets", defaults.window_buckets));
  config.tcm_depth = static_cast<uint32_t>(
      flags.GetInt("tcm-depth", defaults.tcm_depth));
  config.tombstone_window = static_cast<uint64_t>(flags.GetInt(
      "tombstone-window", static_cast<int64_t>(defaults.tombstone_window)));
  return config;
}

}  // namespace streamlink
