#include "verify/invariants.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>

#include "core/bottomk_predictor.h"
#include "core/minhash_predictor.h"
#include "core/tcm_predictor.h"
#include "eval/experiment.h"
#include "gen/churn.h"
#include "stream/edge_batch.h"
#include "stream/edge_stream.h"
#include "stream/op_stream.h"
#include "stream/parallel_ingest.h"
#include "util/hashing.h"
#include "util/random.h"

namespace streamlink {

namespace {

/// A process-unique scratch file under the context's temp dir; invariants
/// create and remove these as they go.
class ScratchFile {
 public:
  ScratchFile(const InvariantContext& context, const std::string& tag) {
    static std::atomic<uint64_t> counter{0};
    // The pid disambiguates parallel ctest workers sharing one temp dir.
    path_ = context.temp_dir + "/verify_" + std::to_string(::getpid()) + "_" +
            tag + "_" + std::to_string(counter.fetch_add(1)) + ".snap";
  }
  ~ScratchFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

Result<std::unique_ptr<LinkPredictor>> BuildSequential(
    const InvariantContext& context) {
  PredictorConfig config = context.config;
  config.threads = 1;
  auto predictor = MakePredictor(config);
  if (!predictor.ok()) return predictor.status();
  FeedStream(**predictor, context.edges);
  return predictor;
}

/// Compares two predictors' answers on seeded random pairs. Equality is
/// exact (==, not approximate): every invariant here promises
/// bit-identical execution, so any ULP of divergence is a failure.
/// `compare_counters` additionally requires the bookkeeping (processed
/// tallies, vertex-set size) to agree — right for two replays of the SAME
/// stream, wrong when comparing a churn replay against its insert-only
/// equivalent (same answers, legitimately different histories).
Status CompareEstimates(const std::string& label, const LinkPredictor& a,
                        const LinkPredictor& b,
                        const InvariantContext& context,
                        bool compare_counters = true) {
  if (compare_counters && a.edges_processed() != b.edges_processed()) {
    return Status::Internal(label + ": edges_processed diverges: " +
                            std::to_string(a.edges_processed()) + " vs " +
                            std::to_string(b.edges_processed()));
  }
  if (compare_counters && a.num_vertices() != b.num_vertices()) {
    return Status::Internal(label + ": num_vertices diverges: " +
                            std::to_string(a.num_vertices()) + " vs " +
                            std::to_string(b.num_vertices()));
  }
  VertexId n = context.num_vertices > 0 ? context.num_vertices : 1;
  Rng rng(Mix64(context.seed ^ 0xc0837a7e));
  for (uint32_t i = 0; i < context.sample_pairs; ++i) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(n));
    VertexId v = static_cast<VertexId>(rng.NextBounded(n));
    OverlapEstimate ea = a.EstimateOverlap(u, v);
    OverlapEstimate eb = b.EstimateOverlap(u, v);
    const struct {
      const char* field;
      double lhs, rhs;
    } fields[] = {
        {"degree_u", ea.degree_u, eb.degree_u},
        {"degree_v", ea.degree_v, eb.degree_v},
        {"intersection", ea.intersection, eb.intersection},
        {"union_size", ea.union_size, eb.union_size},
        {"jaccard", ea.jaccard, eb.jaccard},
        {"adamic_adar", ea.adamic_adar, eb.adamic_adar},
        {"resource_allocation", ea.resource_allocation,
         eb.resource_allocation},
    };
    for (const auto& f : fields) {
      // Exact equality, except that scores summed over hash-set
      // neighborhoods (exact predictor's AA/RA) may differ in the last
      // bits when a rebuild changes set iteration (= summation) order.
      double tolerance = 4e-15 * std::max(std::abs(f.lhs), std::abs(f.rhs));
      if (std::abs(f.lhs - f.rhs) > tolerance) {
        std::ostringstream out;
        out.precision(17);
        out << label << ": " << context.config.kind << " pair (" << u << ","
            << v << ") field " << f.field << " diverges: " << f.lhs << " vs "
            << f.rhs;
        return Status::Internal(out.str());
      }
    }
  }
  return Status::Ok();
}

/// Save + slurp: the byte-level fingerprint of a predictor's full state.
Result<std::string> SnapshotBytes(const LinkPredictor& predictor,
                                  const InvariantContext& context,
                                  const std::string& tag) {
  ScratchFile file(context, tag);
  if (Status st = predictor.Save(file.path()); !st.ok()) return st;
  std::string bytes = ReadFileBytes(file.path());
  if (bytes.empty()) return Status::IoError("empty snapshot at " + file.path());
  return bytes;
}

}  // namespace

Status CheckShardCountInvariance(const InvariantContext& context) {
  const PredictorKind* kind = FindPredictorKind(context.config.kind);
  if (kind == nullptr || !kind->shardable) return Status::Ok();
  auto sequential = BuildSequential(context);
  if (!sequential.ok()) return sequential.status();

  for (uint32_t threads : {2u, 3u}) {
    PredictorConfig config = context.config;
    config.threads = threads;

    // Path 1: synchronous half-edge routing through ShardedPredictor.
    auto routed = MakePredictor(config);
    if (!routed.ok()) return routed.status();
    FeedStream(**routed, context.edges);
    if (Status st = CompareEstimates(
            "shard-invariance(routed, threads=" + std::to_string(threads) +
                ")",
            **sequential, **routed, context);
        !st.ok()) {
      return st;
    }

    // Path 2: the real worker-threaded engine.
    ParallelIngestEngine engine(config);
    VectorEdgeStream stream(context.edges);
    auto parallel = engine.Build(stream);
    if (!parallel.ok()) return parallel.status();
    if (Status st = CompareEstimates(
            "shard-invariance(engine, threads=" + std::to_string(threads) +
                ")",
            **sequential, **parallel, context);
        !st.ok()) {
      return st;
    }
  }
  return Status::Ok();
}

Status CheckOrderedIngestInvariance(const InvariantContext& context) {
  const PredictorKind* kind = FindPredictorKind(context.config.kind);
  if (kind == nullptr || !kind->shardable) return Status::Ok();
  auto sequential = BuildSequential(context);
  if (!sequential.ok()) return sequential.status();

  // Thread count × batch size × ring capacity are all free parameters of
  // the ordered engine; none may change a single output bit. batch=1 with
  // a capacity-1 ring maximizes hand-off and backpressure churn; the large
  // batch exercises the one-big-batch path.
  for (uint32_t threads : {2u, 3u}) {
    for (uint32_t batch_edges : {1u, 7u, 4096u}) {
      VectorEdgeStream stream(context.edges);
      auto parallel = IngestEngineBuilder(context.config)
                          .Threads(threads)
                          .BatchEdges(batch_edges)
                          .RingBatches(batch_edges == 1 ? 1 : 64)
                          .Ingest(stream);
      if (!parallel.ok()) return parallel.status();
      if (Status st = CompareEstimates(
              "ordered-ingest-invariance(threads=" + std::to_string(threads) +
                  ", batch=" + std::to_string(batch_edges) + ")",
              **sequential, **parallel, context);
          !st.ok()) {
        return st;
      }
    }
  }

  // Row-owned shards snapshot through the kind's one row writer, in global
  // vertex order: the 3-thread snapshot is the sequential one, byte for
  // byte.
  VectorEdgeStream stream(context.edges);
  auto parallel =
      IngestEngineBuilder(context.config).Threads(3).Ingest(stream);
  if (!parallel.ok()) return parallel.status();
  auto want = SnapshotBytes(**sequential, context, "ordered_seq");
  auto got = SnapshotBytes(**parallel, context, "ordered_sharded");
  for (auto* bytes : {&want, &got}) {
    if (!bytes->ok()) return bytes->status();
  }
  if (*got != *want) {
    return Status::Internal(
        "ordered-ingest-invariance: " + context.config.kind +
        " 3-thread snapshot differs from the sequential one");
  }
  return Status::Ok();
}

Status CheckBatchSizeInvariance(const InvariantContext& context) {
  auto single = BuildSequential(context);
  if (!single.ok()) return single.status();
  auto reference = SnapshotBytes(**single, context, "batch_ref");
  if (!reference.ok()) return reference.status();

  for (size_t batch : {size_t{1}, size_t{7}, size_t{64}, size_t{1024}}) {
    PredictorConfig config = context.config;
    config.threads = 1;
    auto batched = MakePredictor(config);
    if (!batched.ok()) return batched.status();
    for (size_t i = 0; i < context.edges.size(); i += batch) {
      size_t count = std::min(batch, context.edges.size() - i);
      (*batched)->OnEdgeBatch(EdgeBatch(context.edges.data() + i, count));
    }
    auto bytes = SnapshotBytes(**batched, context, "batch");
    if (!bytes.ok()) return bytes.status();
    if (*bytes != *reference) {
      return Status::Internal(
          "batch-invariance: " + context.config.kind + " snapshot at batch=" +
          std::to_string(batch) + " differs from one-at-a-time delivery");
    }
  }
  return Status::Ok();
}

Status CheckCloneIsolation(const InvariantContext& context) {
  // Clone mid-stream so "later ingestion" has something left to ingest.
  size_t split = context.edges.size() * 2 / 3;
  PredictorConfig config = context.config;
  config.threads = 1;
  auto source = MakePredictor(config);
  if (!source.ok()) return source.status();
  FeedStream(**source,
             EdgeList(context.edges.begin(), context.edges.begin() + split));

  std::unique_ptr<LinkPredictor> clone = (*source)->Clone();
  if (clone == nullptr) {
    return Status::Internal("clone-isolation: " + context.config.kind +
                            " Clone() returned nullptr");
  }
  if (Status st =
          CompareEstimates("clone-isolation(at clone)", **source, *clone,
                           context);
      !st.ok()) {
    return st;
  }

  // The clone must be frozen: record its answers, pour the suffix into the
  // source only, and require the recorded answers to stand.
  VertexId n = context.num_vertices > 0 ? context.num_vertices : 1;
  Rng rng(Mix64(context.seed ^ 0x15071a7e));
  std::vector<QueryPair> probes;
  std::vector<OverlapEstimate> before;
  for (uint32_t i = 0; i < context.sample_pairs; ++i) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(n));
    VertexId v = static_cast<VertexId>(rng.NextBounded(n));
    probes.push_back({u, v});
    before.push_back(clone->EstimateOverlap(u, v));
  }
  FeedStream(**source,
             EdgeList(context.edges.begin() + split, context.edges.end()));
  for (size_t i = 0; i < probes.size(); ++i) {
    OverlapEstimate after = clone->EstimateOverlap(probes[i].u, probes[i].v);
    if (after.jaccard != before[i].jaccard ||
        after.intersection != before[i].intersection ||
        after.degree_u != before[i].degree_u ||
        after.adamic_adar != before[i].adamic_adar) {
      std::ostringstream out;
      out << "clone-isolation: " << context.config.kind << " clone observed "
          << "post-clone ingestion at pair (" << probes[i].u << ","
          << probes[i].v << ")";
      return Status::Internal(out.str());
    }
  }
  return Status::Ok();
}

namespace {

/// Typed leg of CheckMergeAssociativity: partitions the stream three ways,
/// folds left- and right-associated, and requires both to match the
/// single-pass build byte for byte.
template <typename PredictorT>
Status MergeAssociativityImpl(const InvariantContext& context) {
  PredictorConfig config = context.config;
  config.threads = 1;

  auto make_part = [&](size_t begin, size_t end)
      -> Result<std::unique_ptr<LinkPredictor>> {
    auto part = MakePredictor(config);
    if (!part.ok()) return part.status();
    FeedStream(**part, EdgeList(context.edges.begin() + begin,
                                context.edges.begin() + end));
    return part;
  };

  size_t third = context.edges.size() / 3;
  auto a = make_part(0, third);
  auto b = make_part(third, 2 * third);
  auto c = make_part(2 * third, context.edges.size());
  for (auto* part : {&a, &b, &c}) {
    if (!part->ok()) return part->status();
  }
  auto single = BuildSequential(context);
  if (!single.ok()) return single.status();

  auto as_typed = [](std::unique_ptr<LinkPredictor>& p) {
    return dynamic_cast<PredictorT*>(p.get());
  };

  // (A ⊔ B) ⊔ C
  std::unique_ptr<LinkPredictor> left = (*a)->Clone();
  as_typed(left)->MergeFrom(*as_typed(*b));
  as_typed(left)->MergeFrom(*as_typed(*c));

  // A ⊔ (B ⊔ C)
  std::unique_ptr<LinkPredictor> bc = (*b)->Clone();
  as_typed(bc)->MergeFrom(*as_typed(*c));
  std::unique_ptr<LinkPredictor> right = (*a)->Clone();
  as_typed(right)->MergeFrom(*as_typed(bc));

  auto want = SnapshotBytes(**single, context, "merge_single");
  auto left_bytes = SnapshotBytes(*left, context, "merge_left");
  auto right_bytes = SnapshotBytes(*right, context, "merge_right");
  for (auto* bytes : {&want, &left_bytes, &right_bytes}) {
    if (!bytes->ok()) return bytes->status();
  }
  if (*left_bytes != *want) {
    return Status::Internal("merge-associativity: " + context.config.kind +
                            " (A+B)+C differs from the single-pass build");
  }
  if (*right_bytes != *want) {
    return Status::Internal("merge-associativity: " + context.config.kind +
                            " A+(B+C) differs from the single-pass build");
  }
  return Status::Ok();
}

}  // namespace

Status CheckMergeAssociativity(const InvariantContext& context) {
  if (context.edges.size() < 9) {
    return Status::InvalidArgument(
        "merge-associativity needs at least 9 edges");
  }
  if (context.config.kind == "minhash") {
    return MergeAssociativityImpl<MinHashPredictor>(context);
  }
  if (context.config.kind == "bottomk") {
    return MergeAssociativityImpl<BottomKPredictor>(context);
  }
  if (context.config.kind == "tcm") {
    return MergeAssociativityImpl<TcmPredictor>(context);
  }
  return Status::Ok();  // no disjoint-partition merge for this kind
}

Status CheckTurnstileAnnihilation(const InvariantContext& context) {
  const PredictorKind* kind = FindPredictorKind(context.config.kind);
  if (kind == nullptr || !kind->deletable) return Status::Ok();
  // Churn derived from the context's own stream: inserts stay in stream
  // order, every delete targets a then-live edge, and net_edges is exactly
  // the surviving set.
  TurnstileWorkload churn = MakeChurnFromEdges(
      context.edges, context.num_vertices, /*delete_fraction=*/0.35,
      Mix64(context.seed ^ 0x7e4a57), context.config.kind + "_churn");
  if (churn.deletes == 0) {
    return Status::InvalidArgument(
        "turnstile-annihilation: churn produced no deletes (stream too "
        "small?)");
  }

  PredictorConfig config = context.config;
  config.threads = 1;

  // Reference: sequential replay of the event stream through the engine.
  VectorOpStream seq_stream(churn.events);
  ParallelIngestEngine seq_engine(config);
  auto sequential = seq_engine.Build(seq_stream);
  if (!sequential.ok()) return sequential.status();

  // insert ∘ delete annihilation: every deleted edge leaves zero trace, so
  // the churn replay answers exactly like an insert-only build of the
  // surviving edges. Histories differ (more inserts happened), so only the
  // estimates are compared.
  auto net = MakePredictor(config);
  if (!net.ok()) return net.status();
  FeedStream(**net, churn.net_edges);
  if (Status st = CompareEstimates("turnstile-annihilation(net)",
                                   **sequential, **net, context,
                                   /*compare_counters=*/false);
      !st.ok()) {
    return st;
  }

  // Engine cross product: thread count × batch size × ring capacity replay
  // the same events bit-identically to the sequential replay, counters
  // included.
  for (uint32_t threads : {2u, 3u}) {
    for (uint32_t batch_edges : {1u, 7u, 256u}) {
      VectorOpStream stream(churn.events);
      ParallelIngestEngine engine =
          IngestEngineBuilder(context.config)
              .Threads(threads)
              .BatchEdges(batch_edges)
              .RingBatches(batch_edges == 1 ? 1 : 64)
              .BuildEngine();
      auto parallel = engine.Build(stream);
      if (!parallel.ok()) return parallel.status();
      if (Status st = CompareEstimates(
              "turnstile-annihilation(engine, threads=" +
                  std::to_string(threads) + ", batch=" +
                  std::to_string(batch_edges) + ")",
              **sequential, **parallel, context);
          !st.ok()) {
        return st;
      }
    }
  }

  return Status::Ok();
}

Status CheckSnapshotRoundTrip(const InvariantContext& context) {
  auto original = BuildSequential(context);
  if (!original.ok()) return original.status();

  ScratchFile first(context, "rt_first");
  if (Status st = (*original)->Save(first.path()); !st.ok()) return st;
  auto loaded = LoadPredictorSnapshot(first.path());
  if (!loaded.ok()) {
    return Status::Internal("round-trip: " + context.config.kind +
                            " reload failed: " + loaded.status().ToString());
  }
  if (Status st =
          CompareEstimates("round-trip", **original, **loaded, context);
      !st.ok()) {
    return st;
  }
  auto second = SnapshotBytes(**loaded, context, "rt_second");
  if (!second.ok()) return second.status();
  if (*second != ReadFileBytes(first.path())) {
    return Status::Internal("round-trip: " + context.config.kind +
                            " second-generation snapshot differs");
  }
  return Status::Ok();
}

Status CheckResumeEquivalence(const InvariantContext& context) {
  auto uninterrupted = BuildSequential(context);
  if (!uninterrupted.ok()) return uninterrupted.status();
  auto want = SnapshotBytes(**uninterrupted, context, "resume_want");
  if (!want.ok()) return want.status();

  // "Kill" at several interior checkpoints: an engine build of the prefix
  // (at 1 worker, and at 3 for a shardable kind) is snapshotted, reloaded
  // cold, and resumed through the engine over the suffix.
  std::vector<uint32_t> checkpoint_threads = {1};
  const PredictorKind* kind = FindPredictorKind(context.config.kind);
  if (kind != nullptr && kind->shardable) checkpoint_threads.push_back(3);
  PredictorConfig sequential = context.config;
  sequential.threads = 1;
  const size_t total = context.edges.size();
  for (uint32_t threads : checkpoint_threads) {
    PredictorConfig config = context.config;
    config.threads = threads;
    for (size_t numerator = 1; numerator <= 4; ++numerator) {
      const size_t kill_at = total * numerator / 5;
      const auto kill = context.edges.begin() + kill_at;
      VectorEdgeStream prefix(EdgeList(context.edges.begin(), kill));
      auto interrupted = IngestEngineBuilder(config).Ingest(prefix);
      if (!interrupted.ok()) return interrupted.status();

      ScratchFile checkpoint(context, "resume_ckpt");
      if (Status st = (*interrupted)->Save(checkpoint.path()); !st.ok()) {
        return st;
      }
      auto restored = LoadPredictorSnapshot(checkpoint.path());
      if (!restored.ok()) return restored.status();
      VectorEdgeStream tail(EdgeList(kill, context.edges.end()));
      auto resumed = ParallelIngestEngine(sequential)
                         .Resume(std::move(*restored), kill_at, tail);
      if (!resumed.ok()) return resumed.status();

      auto got = SnapshotBytes(**resumed, context, "resume_got");
      if (!got.ok()) return got.status();
      if (*got != *want) {
        return Status::Internal(
            "resume-equivalence: " + context.config.kind + " killed at edge " +
            std::to_string(kill_at) + "/" + std::to_string(total) + " of a " +
            std::to_string(threads) +
            "-worker build resumes to a different final snapshot");
      }
    }
  }
  return Status::Ok();
}

std::vector<Invariant> AllInvariants() {
  return {
      {"shard-count-invariance", CheckShardCountInvariance},
      {"ordered-ingest-invariance", CheckOrderedIngestInvariance},
      {"batch-size-invariance", CheckBatchSizeInvariance},
      {"clone-isolation", CheckCloneIsolation},
      {"merge-associativity", CheckMergeAssociativity},
      {"turnstile-annihilation", CheckTurnstileAnnihilation},
      {"snapshot-round-trip", CheckSnapshotRoundTrip},
      {"resume-equivalence", CheckResumeEquivalence},
  };
}

std::vector<PredictorConfig> VerificationKindConfigs() {
  std::vector<PredictorConfig> configs;
  auto add = [&configs](const std::string& kind, auto... tweak) {
    PredictorConfig config;
    config.kind = kind;
    config.sketch_size = 16;
    config.seed = 7;
    (tweak(config), ...);
    configs.push_back(config);
  };
  add("minhash");
  add("bottomk");
  add("bottomk", [](PredictorConfig& c) { c.sketch_degrees = true; });
  add("oph");
  add("vertex_biased");
  add("windowed_minhash", [](PredictorConfig& c) {
    c.window_edges = 200;
    c.window_buckets = 4;
  });
  add("tcm");
  add("exact");
  return configs;
}

Status RunAllInvariants(
    const InvariantContext& context,
    const std::function<void(const std::string&, const Status&)>& on_result) {
  std::string failures;
  for (const Invariant& invariant : AllInvariants()) {
    Status status = invariant.check(context);
    if (on_result) on_result(invariant.name, status);
    if (!status.ok()) {
      if (!failures.empty()) failures += "; ";
      failures += invariant.name + ": " + status.ToString();
    }
  }
  if (failures.empty()) return Status::Ok();
  return Status::Internal(failures);
}

}  // namespace streamlink
