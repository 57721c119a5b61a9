#include "cli/commands.h"

#include <atomic>
#include <chrono>
#include <optional>
#include <ostream>
#include <thread>

#include "core/exact_predictor.h"
#include "core/predictor_factory.h"
#include "core/top_k_engine.h"
#include "eval/experiment.h"
#include "gen/pair_sampler.h"
#include "gen/workloads.h"
#include "graph/csr_graph.h"
#include "graph/edge_list_io.h"
#include "graph/graph_stats.h"
#include "net/client.h"
#include "net/load_gen.h"
#include "net/server.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/proc_stats.h"
#include "obs/slo.h"
#include "obs/stats_reporter.h"
#include "obs/trace.h"
#include "persist/checkpoint.h"
#include "serve/query_service.h"
#include "stream/edge_stream.h"
#include "stream/parallel_ingest.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace streamlink {

namespace {

/// Parses "u:v,u:v,..." into query pairs.
Result<std::vector<QueryPair>> ParsePairs(const std::string& text) {
  std::vector<QueryPair> pairs;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    std::string token = text.substr(pos, comma - pos);
    size_t colon = token.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument("bad pair (want u:v): '" + token + "'");
    }
    char* end = nullptr;
    unsigned long u = std::strtoul(token.c_str(), &end, 10);
    unsigned long v = std::strtoul(token.c_str() + colon + 1, &end, 10);
    pairs.push_back(QueryPair{static_cast<VertexId>(u),
                              static_cast<VertexId>(v)});
    pos = comma + 1;
  }
  if (pairs.empty()) return Status::InvalidArgument("no pairs given");
  return pairs;
}

Result<LinkMeasure> ParseMeasure(const std::string& name) {
  for (LinkMeasure m : AllLinkMeasures()) {
    if (name == LinkMeasureName(m)) return m;
  }
  return Status::InvalidArgument("unknown measure: " + name);
}

/// Builds a predictor from the edges with `config.threads` ingestion
/// workers (sequentially when threads == 1); bit-identical either way.
Result<std::unique_ptr<LinkPredictor>> BuildPredictor(
    const PredictorConfig& config, const EdgeList& edges) {
  VectorEdgeStream stream(edges);
  return IngestEngineBuilder(config).Ingest(stream);
}

/// The shared predictor flag names plus a command's own flags, for
/// CheckUnknown.
std::vector<std::string> WithPredictorFlags(
    std::initializer_list<const char*> own) {
  std::vector<std::string> names = PredictorFlagNames();
  for (const char* name : own) names.emplace_back(name);
  return names;
}

/// Appends the shared observability flag names (--metrics-out,
/// --metrics-every, --trace-out) for CheckUnknown.
std::vector<std::string> WithObsFlags(std::vector<std::string> names) {
  names.emplace_back("metrics-out");
  names.emplace_back("metrics-every");
  names.emplace_back("trace-out");
  return names;
}

/// Per-command observability wiring for the shared --metrics-out,
/// --metrics-every, and --trace-out flags: owns the command's
/// MetricsRegistry, an optional periodic StatsReporter, and the process
/// tracer's enablement. registry() is nullptr when --metrics-out is absent,
/// so instrumented subsystems skip all metric work. Call Finish at the end
/// of the command for the final dump and the Chrome trace; the destructor
/// only cleans up (stops the reporter, disables the tracer).
class ObsScope {
 public:
  ObsScope() = default;
  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;

  ~ObsScope() {
    if (reporter_ != nullptr) reporter_->Stop();
    if (!trace_path_.empty()) obs::Tracer::Get().Disable();
  }

  Status Init(const FlagParser& flags) {
    metrics_path_ = flags.GetString("metrics-out", "");
    trace_path_ = flags.GetString("trace-out", "");
    const double every = flags.GetDouble("metrics-every", 0.0);
    if (metrics_path_.empty() && (flags.Has("metrics-every"))) {
      return Status::InvalidArgument("--metrics-every needs --metrics-out");
    }
    if (every < 0) {
      return Status::InvalidArgument("--metrics-every must be >= 0");
    }
    if (every > 0) {
      obs::StatsReporterOptions options;
      options.path = metrics_path_;
      options.period_seconds = every;
      reporter_ =
          std::make_unique<obs::StatsReporter>(registry_, std::move(options));
      if (auto st = reporter_->Start(); !st.ok()) return st;
    }
    if (!trace_path_.empty()) obs::Tracer::Get().Enable();
    return Status::Ok();
  }

  /// The registry instrumented subsystems should bind to, or nullptr when
  /// metrics were not requested.
  obs::MetricsRegistry* registry() {
    return metrics_path_.empty() ? nullptr : &registry_;
  }

  /// Final metrics dump (format by extension: .prom/.txt Prometheus text,
  /// .csv appended rows, else JSON) and Chrome trace write-out.
  Status Finish(std::ostream& out) {
    if (reporter_ != nullptr) {
      reporter_->Stop();
      reporter_.reset();
    }
    if (!metrics_path_.empty()) {
      obs::StatsReporterOptions options;
      options.path = metrics_path_;
      obs::StatsReporter final_dump(registry_, std::move(options));
      if (auto st = final_dump.WriteOnce(); !st.ok()) return st;
      out << "metrics written to " << metrics_path_ << "\n";
    }
    if (!trace_path_.empty()) {
      obs::Tracer& tracer = obs::Tracer::Get();
      if (auto st = tracer.WriteChromeTrace(trace_path_); !st.ok()) {
        return st;
      }
      tracer.Disable();
      out << "trace written to " << trace_path_
          << " (open in chrome://tracing or Perfetto)\n";
    }
    return Status::Ok();
  }

 private:
  obs::MetricsRegistry registry_;
  std::unique_ptr<obs::StatsReporter> reporter_;
  std::string metrics_path_;
  std::string trace_path_;
};

Status CmdGenerate(const FlagParser& flags, std::ostream& out) {
  if (auto st = flags.CheckUnknown({"workload", "scale", "seed", "out"});
      !st.ok()) {
    return st;
  }
  std::string workload = flags.GetString("workload", "ba");
  std::string path = flags.GetString("out", "");
  if (path.empty()) return Status::InvalidArgument("--out is required");
  bool known = false;
  for (const std::string& name : StandardWorkloadNames()) {
    known = known || name == workload;
  }
  if (!known) {
    return Status::InvalidArgument("unknown workload: " + workload);
  }
  GeneratedGraph g = MakeWorkload(
      WorkloadSpec{workload, flags.GetDouble("scale", 1.0),
                   static_cast<uint64_t>(flags.GetInt("seed", 42))});
  if (auto st = WriteEdgeList(path, g.edges); !st.ok()) return st;
  out << "wrote " << g.edges.size() << " edges (" << g.num_vertices
      << " vertices) to " << path << "\n";
  return Status::Ok();
}

/// `stats --metrics FILE`: pretty-prints a JSON metrics dump written by
/// --metrics-out (the human face of the exporter round-trip).
Status CmdStatsMetrics(const std::string& path, std::ostream& out) {
  auto snapshot = obs::ReadJsonDumpFile(path);
  if (!snapshot.ok()) return snapshot.status();
  if (!snapshot->counters.empty()) {
    TablePrinter counters({"counter", "value"});
    for (const obs::CounterSample& c : snapshot->counters) {
      counters.AddRow({c.name, std::to_string(c.value)});
    }
    counters.Print(out);
  }
  if (!snapshot->gauges.empty()) {
    TablePrinter gauges({"gauge", "value"});
    for (const obs::GaugeSample& g : snapshot->gauges) {
      gauges.AddRow({g.name, TablePrinter::FormatCell(g.value)});
    }
    gauges.Print(out);
  }
  if (!snapshot->histograms.empty()) {
    TablePrinter histograms(
        {"histogram", "count", "mean", "p50", "p99", "max"});
    for (const obs::HistogramSample& h : snapshot->histograms) {
      histograms.AddRow({h.name, std::to_string(h.count),
                         TablePrinter::FormatCell(h.mean),
                         TablePrinter::FormatCell(h.p50),
                         TablePrinter::FormatCell(h.p99),
                         TablePrinter::FormatCell(h.max)});
    }
    histograms.Print(out);
  }
  if (snapshot->counters.empty() && snapshot->gauges.empty() &&
      snapshot->histograms.empty()) {
    out << "no metrics in " << path << "\n";
  }
  return Status::Ok();
}

Status CmdStats(const FlagParser& flags, std::ostream& out) {
  if (auto st = flags.CheckUnknown({"input", "metrics"}); !st.ok()) return st;
  if (flags.Has("metrics")) {
    if (flags.Has("input")) {
      return Status::InvalidArgument(
          "--metrics and --input are mutually exclusive");
    }
    return CmdStatsMetrics(flags.GetString("metrics", ""), out);
  }
  std::string path = flags.GetString("input", "");
  if (path.empty()) return Status::InvalidArgument("--input is required");
  auto file = ReadEdgeList(path);
  if (!file.ok()) return file.status();
  CsrGraph graph = CsrGraph::FromEdges(file->edges, file->num_vertices);
  GraphStats stats = ComputeGraphStats(graph);
  TablePrinter table({"metric", "value"});
  table.AddRow({"vertices", std::to_string(stats.num_vertices)});
  table.AddRow({"edges", std::to_string(stats.num_edges)});
  table.AddRow({"avg_degree", TablePrinter::FormatCell(stats.avg_degree)});
  table.AddRow({"max_degree", std::to_string(stats.max_degree)});
  table.AddRow(
      {"clustering", TablePrinter::FormatCell(stats.global_clustering)});
  table.AddRow({"triangles", std::to_string(stats.num_triangles)});
  table.AddRow({"isolated", std::to_string(stats.num_isolated)});
  table.Print(out);
  return Status::Ok();
}

/// The checkpoint wiring `build` and `resume` share: opens --checkpoint-dir
/// (retaining --checkpoint-keep snapshots, default 3) into `manager` and
/// has `builder` checkpoint into it every --checkpoint-every stream edges
/// (default 10000) and at end-of-stream. Without a directory it leaves
/// both untouched, and the other two flags are InvalidArgument.
Status WireCheckpoints(const FlagParser& flags, obs::MetricsRegistry* registry,
                       std::optional<CheckpointManager>& manager,
                       IngestEngineBuilder& builder) {
  std::string dir = flags.GetString("checkpoint-dir", "");
  if (dir.empty()) {
    if (flags.Has("checkpoint-every") || flags.Has("checkpoint-keep")) {
      return Status::InvalidArgument(
          "--checkpoint-every/--checkpoint-keep need --checkpoint-dir");
    }
    return Status::Ok();
  }
  const uint64_t every =
      static_cast<uint64_t>(flags.GetInt("checkpoint-every", 10000));
  if (every == 0) {
    return Status::InvalidArgument("--checkpoint-every must be > 0");
  }
  CheckpointOptions options;
  options.dir = dir;
  options.keep = static_cast<uint32_t>(flags.GetInt("checkpoint-keep", 3));
  auto opened = CheckpointManager::Open(options);
  if (!opened.ok()) return opened.status();
  manager.emplace(std::move(opened).value());
  manager->BindMetrics(registry);
  builder.PublishEveryEdges(every).PublishTo(*manager);
  return Status::Ok();
}

Status CmdBuild(const FlagParser& flags, std::ostream& out) {
  if (auto st = flags.CheckUnknown(WithObsFlags(WithPredictorFlags(
          {"input", "snapshot", "checkpoint-dir", "checkpoint-every",
           "checkpoint-keep"})));
      !st.ok()) {
    return st;
  }
  std::string input = flags.GetString("input", "");
  std::string snapshot = flags.GetString("snapshot", "");
  if (input.empty() || snapshot.empty()) {
    return Status::InvalidArgument("--input and --snapshot are required");
  }
  ObsScope obs;
  if (auto st = obs.Init(flags); !st.ok()) return st;
  auto file = ReadEdgeList(input);
  if (!file.ok()) return file.status();

  PredictorConfig defaults;
  defaults.sketch_size = 64;
  defaults.seed = 42;
  PredictorConfig config = PredictorConfigFromFlags(flags, defaults);

  IngestEngineBuilder builder(config);
  builder.Metrics(obs.registry());
  std::optional<CheckpointManager> manager;
  if (auto st = WireCheckpoints(flags, obs.registry(), manager, builder);
      !st.ok()) {
    return st;
  }

  VectorEdgeStream stream(file->edges);
  auto built = builder.Ingest(stream);
  if (!built.ok()) return built.status();
  std::unique_ptr<LinkPredictor> predictor = std::move(*built);
  if (auto st = predictor->Save(snapshot); !st.ok()) return st;
  out << "ingested " << predictor->edges_processed() << " edges over "
      << predictor->num_vertices() << " vertices";
  if (config.threads > 1) out << " (" << config.threads << " ingest threads)";
  if (manager.has_value()) {
    out << "; " << manager->entries().size() << " checkpoints in "
        << manager->options().dir;
  }
  out << "; snapshot (" << predictor->MemoryBytes() / 1024
      << " KiB of state) saved to " << snapshot << "\n";
  return obs.Finish(out);
}

/// Continues an interrupted `build --checkpoint-dir` run: restores the
/// newest valid checkpoint and resumes the ingest engine from its cursor
/// over the rest of --input, checkpointing as `build` does, and writes the
/// final snapshot — byte-identical to what the uninterrupted build would
/// have saved.
Status CmdResume(const FlagParser& flags, std::ostream& out) {
  if (auto st = flags.CheckUnknown(WithObsFlags(
          {"input", "snapshot", "checkpoint-dir", "checkpoint-every",
           "checkpoint-keep"}));
      !st.ok()) {
    return st;
  }
  std::string input = flags.GetString("input", "");
  std::string snapshot = flags.GetString("snapshot", "");
  if (input.empty() || snapshot.empty()) {
    return Status::InvalidArgument("--input and --snapshot are required");
  }
  if (flags.GetString("checkpoint-dir", "").empty()) {
    return Status::InvalidArgument("--checkpoint-dir is required");
  }
  ObsScope obs;
  if (auto st = obs.Init(flags); !st.ok()) return st;
  IngestEngineBuilder builder;
  builder.Metrics(obs.registry());
  std::optional<CheckpointManager> manager;
  if (auto st = WireCheckpoints(flags, obs.registry(), manager, builder);
      !st.ok()) {
    return st;
  }
  auto restored = manager->RestoreLatest();
  if (!restored.ok()) return restored.status();

  auto file = ReadEdgeList(input);
  if (!file.ok()) return file.status();
  const uint64_t start = restored->entry.stream_edges;
  if (start > file->edges.size()) {
    return Status::InvalidArgument(
        "checkpoint is ahead of --input: cursor " + std::to_string(start) +
        ", stream has " + std::to_string(file->edges.size()) + " edges");
  }
  if (obs.registry() != nullptr) {
    // Edges the restored checkpoint saved this run from re-ingesting.
    obs.registry()->GetCounter("persist.resume_skipped_edges").Add(start);
  }
  EdgeList& edges = file->edges;
  edges.erase(edges.begin(), edges.begin() + static_cast<ptrdiff_t>(start));
  VectorEdgeStream tail(std::move(edges));

  ParallelIngestEngine engine = builder.BuildEngine();
  auto resumed = engine.Resume(std::move(restored->predictor), start, tail);
  if (!resumed.ok()) return resumed.status();
  std::unique_ptr<LinkPredictor> predictor = std::move(*resumed);
  if (auto st = predictor->Save(snapshot); !st.ok()) return st;
  const uint64_t cursor = engine.edges_ingested();
  out << "resumed " << predictor->name() << " from checkpoint at stream edge "
      << start << " (" << restored->path << "); ingested " << (cursor - start)
      << " more edges to " << cursor << "; snapshot saved to " << snapshot
      << "\n";
  return obs.Finish(out);
}

Status CmdQuery(const FlagParser& flags, std::ostream& out) {
  if (auto st = flags.CheckUnknown({"snapshot", "pairs", "measure"});
      !st.ok()) {
    return st;
  }
  std::string snapshot = flags.GetString("snapshot", "");
  if (snapshot.empty()) return Status::InvalidArgument("--snapshot required");
  auto pairs = ParsePairs(flags.GetString("pairs", ""));
  if (!pairs.ok()) return pairs.status();
  // Universal loader: the envelope's kind tag picks the decoder, so any
  // `build --kind ...` snapshot (including older nested sharded ones)
  // queries.
  auto predictor = LoadPredictorSnapshot(snapshot);
  if (!predictor.ok()) return predictor.status();

  // One overlap estimate per pair, scored on every column at once
  // (LinkPredictor::Scores); --measure appends an extra column.
  std::vector<LinkMeasure> measures = {LinkMeasure::kJaccard,
                                       LinkMeasure::kCommonNeighbors,
                                       LinkMeasure::kAdamicAdar};
  std::vector<std::string> columns = {"u", "v", "jaccard", "common",
                                      "adamic_adar"};
  if (flags.Has("measure")) {
    auto extra = ParseMeasure(flags.GetString("measure", ""));
    if (!extra.ok()) return extra.status();
    measures.push_back(*extra);
    columns.emplace_back(LinkMeasureName(*extra));
  }

  TablePrinter table(columns);
  for (const QueryPair& p : *pairs) {
    std::vector<double> scores = (*predictor)->Scores(measures, p.u, p.v);
    std::vector<std::string> row = {std::to_string(p.u), std::to_string(p.v)};
    for (double score : scores) row.push_back(TablePrinter::FormatCell(score));
    table.AddRow(std::move(row));
  }
  table.Print(out);
  return Status::Ok();
}

Status CmdTopK(const FlagParser& flags, std::ostream& out) {
  if (auto st = flags.CheckUnknown(
          WithPredictorFlags({"input", "vertex", "top", "measure"}));
      !st.ok()) {
    return st;
  }
  std::string input = flags.GetString("input", "");
  if (input.empty()) return Status::InvalidArgument("--input is required");
  auto file = ReadEdgeList(input);
  if (!file.ok()) return file.status();
  auto measure = ParseMeasure(flags.GetString("measure", "adamic_adar"));
  if (!measure.ok()) return measure.status();

  VertexId vertex = static_cast<VertexId>(flags.GetInt("vertex", 0));
  if (vertex >= file->num_vertices) {
    return Status::OutOfRange("--vertex " + std::to_string(vertex) +
                              " not in graph");
  }
  PredictorConfig defaults;
  defaults.sketch_size = 128;
  defaults.seed = 42;
  PredictorConfig config = PredictorConfigFromFlags(flags, defaults);
  auto predictor = BuildPredictor(config, file->edges);
  if (!predictor.ok()) return predictor.status();

  CsrGraph snapshot = CsrGraph::FromEdges(file->edges, file->num_vertices);
  auto candidates = TwoHopCandidates(snapshot, vertex);
  // Rank on the requested measure and report jaccard alongside it from the
  // same single overlap estimate per candidate (TopKScored).
  std::vector<LinkMeasure> measures = {*measure};
  const bool with_jaccard = *measure != LinkMeasure::kJaccard;
  if (with_jaccard) measures.push_back(LinkMeasure::kJaccard);
  TopKEngine engine(**predictor, *measure);
  auto top = engine.TopKScored(
      candidates, measures, static_cast<uint32_t>(flags.GetInt("top", 10)));

  std::vector<std::string> columns = {"candidate", LinkMeasureName(*measure)};
  if (with_jaccard) columns.emplace_back("jaccard");
  TablePrinter table(columns);
  for (const MultiScoredPair& s : top) {
    VertexId other = s.pair.u == vertex ? s.pair.v : s.pair.u;
    std::vector<std::string> row = {std::to_string(other)};
    for (double score : s.scores) row.push_back(TablePrinter::FormatCell(score));
    table.AddRow(std::move(row));
  }
  table.Print(out);
  return Status::Ok();
}

Status CmdCompare(const FlagParser& flags, std::ostream& out) {
  if (auto st = flags.CheckUnknown(WithPredictorFlags({"input", "pairs"}));
      !st.ok()) {
    return st;
  }
  if (flags.Has("kind")) {
    return Status::InvalidArgument(
        "compare scores every predictor kind; --kind is not accepted");
  }
  std::string input = flags.GetString("input", "");
  if (input.empty()) return Status::InvalidArgument("--input is required");
  auto file = ReadEdgeList(input);
  if (!file.ok()) return file.status();

  GeneratedGraph graph;
  graph.name = input;
  graph.edges = file->edges;
  graph.num_vertices = file->num_vertices;
  CsrGraph csr = CsrGraph::FromEdges(graph.edges, graph.num_vertices);

  PredictorConfig defaults;
  defaults.sketch_size = 128;
  defaults.seed = 42;
  const PredictorConfig base = PredictorConfigFromFlags(flags, defaults);
  if (base.threads == 0) {
    return Status::InvalidArgument("--threads must be >= 1");
  }
  Rng rng(base.seed);
  auto pairs = SampleOverlappingPairs(
      csr, static_cast<uint32_t>(flags.GetInt("pairs", 500)), rng);

  TablePrinter table({"predictor", "k", "jaccard_mae", "cn_mre", "aa_mre",
                      "mbytes"});
  for (const PredictorKind& kind : PredictorKindTable()) {
    if (kind.name == "exact" || kind.name == "windowed_minhash") continue;
    PredictorConfig config = base;
    config.kind = kind.name;
    // Kinds without vertex sharding build sequentially so the comparison
    // still covers every predictor.
    if (!kind.shardable) config.threads = 1;
    auto predictor = BuildPredictor(config, graph.edges);
    if (!predictor.ok()) return predictor.status();
    ExactPredictor exact;
    FeedStream(exact, graph.edges);
    AccuracyReport report = MeasureAccuracyAgainst(**predictor, exact, pairs);
    table.AddRow(
        {config.kind, std::to_string(config.sketch_size),
         TablePrinter::FormatCell(report.jaccard.MeanAbsoluteError()),
         TablePrinter::FormatCell(report.common_neighbors.MeanRelativeError()),
         TablePrinter::FormatCell(report.adamic_adar.MeanRelativeError()),
         TablePrinter::FormatCell((*predictor)->MemoryBytes() / 1e6)});
  }
  table.Print(out);
  return Status::Ok();
}

/// Ingests --input on the calling thread (via ParallelIngestEngine, so
/// --threads N shards the build) while --readers query threads hammer a
/// QueryService fed by the engine's publish hook. Reports query throughput
/// and latency alongside the ingest rate — the CLI face of the serving
/// subsystem (docs/serving.md); bench_f17_serving is the scaling study.
Status CmdServeBench(const FlagParser& flags, std::ostream& out) {
  if (auto st = flags.CheckUnknown(WithObsFlags(WithPredictorFlags(
          {"input", "readers", "pairs", "publish-edges", "publish-seconds",
           "checkpoint-dir"})));
      !st.ok()) {
    return st;
  }
  std::string input = flags.GetString("input", "");
  if (input.empty()) return Status::InvalidArgument("--input is required");
  auto file = ReadEdgeList(input);
  if (!file.ok()) return file.status();

  PredictorConfig defaults;
  defaults.sketch_size = 64;
  defaults.seed = 42;
  const PredictorConfig config = PredictorConfigFromFlags(flags, defaults);
  const uint32_t readers =
      static_cast<uint32_t>(flags.GetInt("readers", 4));
  if (readers == 0) return Status::InvalidArgument("--readers must be >= 1");

  // Query workload: overlapping pairs sampled from the final graph,
  // scored in fixed-size batches on two measures.
  CsrGraph csr = CsrGraph::FromEdges(file->edges, file->num_vertices);
  Rng rng(config.seed);
  QueryRequest request;
  request.pairs = SampleOverlappingPairs(
      csr, static_cast<uint32_t>(flags.GetInt("pairs", 64)), rng);
  if (request.pairs.empty()) {
    return Status::InvalidArgument("graph too small to sample query pairs");
  }
  request.measures = {LinkMeasure::kJaccard, LinkMeasure::kAdamicAdar};

  // Declared before the ObsScope on purpose: the registry's scrape-time
  // gauges call back into the service, so the ObsScope (which stops the
  // periodic scraper on destruction) must go away first.
  std::unique_ptr<QueryService> service_holder;
  ObsScope obs;
  if (auto st = obs.Init(flags); !st.ok()) return st;

  // With --checkpoint-dir, readers get answers from the newest durable
  // checkpoint before the build's first publish (warm start). An empty or
  // fully corrupt directory is not an error — the service just starts
  // cold, as without the flag.
  uint64_t warm_edges = 0;
  std::optional<CheckpointManager> manager;
  QueryServiceBuilder service_builder;
  service_builder.Metrics(obs.registry());
  std::string ckpt_dir = flags.GetString("checkpoint-dir", "");
  if (!ckpt_dir.empty()) {
    CheckpointOptions ckpt_options;
    ckpt_options.dir = ckpt_dir;
    auto opened = CheckpointManager::Open(ckpt_options);
    if (!opened.ok()) return opened.status();
    manager.emplace(std::move(*opened));
    manager->BindMetrics(obs.registry());
    service_builder.WarmStartFrom(*manager, &warm_edges);
  }
  auto built_service = service_builder.Build();
  if (!built_service.ok()) return built_service.status();
  service_holder = std::move(*built_service);
  QueryService& service = *service_holder;

  IngestEngineBuilder builder(config);
  builder.Metrics(obs.registry())
      .PublishEveryEdges(
          static_cast<uint64_t>(flags.GetInt("publish-edges", 5000)))
      .PublishEverySeconds(flags.GetDouble("publish-seconds", 0.0))
      .PublishTo(service);
  if (builder.options().publish_every_edges == 0 &&
      builder.options().publish_every_seconds <= 0) {
    return Status::InvalidArgument(
        "--publish-edges or --publish-seconds must be > 0");
  }

  std::atomic<bool> done{false};
  std::vector<uint64_t> query_counts(readers, 0);
  std::vector<std::thread> reader_threads;
  reader_threads.reserve(readers);
  for (uint32_t r = 0; r < readers; ++r) {
    reader_threads.emplace_back([&, r] {
      while (!done.load(std::memory_order_acquire)) {
        auto result = service.Query(request);
        // NotFound just means the first snapshot is not out yet.
        if (result.ok()) ++query_counts[r];
      }
    });
  }

  ParallelIngestEngine engine = builder.BuildEngine();
  VectorEdgeStream raw(file->edges);
  std::unique_ptr<EdgeStream> tapped = service.WrapStream(raw);
  Stopwatch ingest_clock;
  auto built = engine.Build(*tapped);
  const double ingest_seconds = ingest_clock.ElapsedSeconds();
  done.store(true, std::memory_order_release);
  for (auto& t : reader_threads) t.join();
  if (!built.ok()) return built.status();

  uint64_t queries = 0;
  for (uint64_t c : query_counts) queries += c;
  auto snap = service.snapshot();
  SL_CHECK(snap != nullptr);

  TablePrinter table({"metric", "value"});
  table.AddRow({"kind", config.kind});
  table.AddRow({"ingest_threads", std::to_string(config.threads)});
  table.AddRow({"edges", std::to_string(engine.edges_ingested())});
  table.AddRow({"ingest_eps",
                TablePrinter::FormatCell(ingest_seconds > 0
                    ? engine.edges_ingested() / ingest_seconds : 0.0)});
  table.AddRow({"publishes", std::to_string(service.publish_count())});
  table.AddRow({"warm_start_edges", std::to_string(warm_edges)});
  table.AddRow({"readers", std::to_string(readers)});
  table.AddRow({"queries", std::to_string(queries)});
  table.AddRow({"qps", TablePrinter::FormatCell(ingest_seconds > 0
                    ? queries / ingest_seconds : 0.0)});
  table.AddRow({"query_p50_us",
                TablePrinter::FormatCell(service.latency().PercentileMicros(0.5))});
  table.AddRow({"query_p99_us",
                TablePrinter::FormatCell(service.latency().PercentileMicros(0.99))});
  table.AddRow({"final_snapshot_edges", std::to_string(snap->stream_edges)});
  table.AddRow({"final_staleness",
                std::to_string(service.live_edges() - snap->stream_edges)});
  table.Print(out);
  return obs.Finish(out);
}

Status CmdNetServe(const FlagParser& flags, std::ostream& out) {
  if (auto st = flags.CheckUnknown(WithObsFlags(
          {"snapshot", "host", "port", "workers", "queue",
           "staleness-edges", "max-age", "retry-after-ms", "duration",
           "admin-port", "admin-host", "healthz-staleness-edges",
           "healthz-max-age", "tracez-slots", "slo-latency-us",
           "slo-target", "hot-keys"}));
      !st.ok()) {
    return st;
  }
  const std::string snapshot = flags.GetString("snapshot", "");
  if (snapshot.empty()) return Status::InvalidArgument("--snapshot is required");
  auto predictor = LoadPredictorSnapshot(snapshot);
  if (!predictor.ok()) return predictor.status();
  // The service adopts the loaded predictor, the one copy of the state.
  const std::string kind = (*predictor)->name();
  const uint64_t edges = (*predictor)->edges_processed();

  const bool admin_enabled = flags.Has("admin-port");

  // SLO tracker + hot-key sampler feed the service's query path, so they
  // must outlive the service (declared first = destroyed last).
  obs::SloOptions slo_options;
  slo_options.objective_latency_ns = static_cast<uint64_t>(
      flags.GetDouble("slo-latency-us", 5000.0) * 1000.0);
  slo_options.target = flags.GetDouble("slo-target", 0.999);
  obs::SloTracker slo(slo_options);
  obs::KeyFrequencyTopK key_sampler(
      static_cast<uint32_t>(flags.GetInt("hot-keys", 64)));

  std::unique_ptr<QueryService> service;  // outlives the ObsScope gauges
  // The admin plane needs a registry to serve /metrics even when no
  // --metrics-out dump was asked for.
  obs::MetricsRegistry standalone_registry;
  ObsScope obs;
  if (auto st = obs.Init(flags); !st.ok()) return st;
  obs::MetricsRegistry* registry = obs.registry();
  if (registry == nullptr && admin_enabled) registry = &standalone_registry;
  if (registry != nullptr) {
    obs::BindProcessMetrics(*registry);
    obs::BindTracerMetrics(*registry);
    slo.BindMetrics(*registry);
    key_sampler.BindMetrics(*registry);
  }
  auto built = QueryServiceBuilder()
                   .Metrics(registry)
                   .Slo(&slo)
                   .KeySampler(&key_sampler)
                   .InitialSnapshot(std::shared_ptr<const LinkPredictor>(
                                        std::move(*predictor)),
                                    edges)
                   .Build();
  if (!built.ok()) return built.status();
  service = std::move(*built);

  net::NetServerOptions options;
  options.host = flags.GetString("host", "127.0.0.1");
  options.port = static_cast<uint16_t>(flags.GetInt("port", 7433));
  options.workers = static_cast<uint32_t>(flags.GetInt("workers", 2));
  options.admission.queue_capacity =
      static_cast<uint32_t>(flags.GetInt("queue", 64));
  options.admission.max_staleness_edges =
      static_cast<uint64_t>(flags.GetInt("staleness-edges", 0));
  options.admission.max_snapshot_age_seconds = flags.GetDouble("max-age", 0.0);
  options.admission.retry_after_ms =
      static_cast<uint32_t>(flags.GetInt("retry-after-ms", 50));
  options.metrics = registry;
  options.admin.enabled = admin_enabled;
  options.admin.host = flags.GetString("admin-host", "127.0.0.1");
  options.admin.port = static_cast<uint16_t>(flags.GetInt("admin-port", 0));
  options.admin.healthz_max_staleness_edges =
      static_cast<uint64_t>(flags.GetInt("healthz-staleness-edges", 0));
  options.admin.healthz_max_age_seconds =
      flags.GetDouble("healthz-max-age", 0.0);
  options.admin.tracez_slots =
      static_cast<size_t>(flags.GetInt("tracez-slots", 32));
  options.admin.key_sampler = &key_sampler;

  net::NetServer server;
  if (auto st = server.Start(*service, options); !st.ok()) return st;
  const double duration = flags.GetDouble("duration", 0.0);
  out << "serving " << kind << " snapshot (" << edges << " edges) on "
      << options.host << ":" << server.port()
      << (duration > 0 ? " for " + TablePrinter::FormatCell(duration) + "s"
                       : " until interrupted")
      << "\n";
  if (admin_enabled) {
    out << "admin plane on " << options.admin.host << ":"
        << server.admin_port()
        << " (/metrics /metrics.json /healthz /statusz /tracez)\n";
  }
  out << std::flush;
  if (duration > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(duration));
  } else {
    // No signal plumbing on purpose: the process serves until killed.
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(3600));
  }
  server.Stop();
  return obs.Finish(out);
}

Status CmdNetAdmin(const FlagParser& flags, std::ostream& out) {
  if (auto st = flags.CheckUnknown({"host", "port", "page"}); !st.ok()) {
    return st;
  }
  const int port = static_cast<int>(flags.GetInt("port", 0));
  if (port <= 0 || port > 65535) {
    return Status::InvalidArgument("--port is required (1-65535)");
  }
  std::string page = flags.GetString("page", "tracez");
  if (!page.empty() && page[0] != '/') page = "/" + page;
  auto fetched = net::FetchAdminPage(flags.GetString("host", "127.0.0.1"),
                                     static_cast<uint16_t>(port), page);
  if (!fetched.ok()) return fetched.status();
  out << fetched->body;
  if (fetched->status != 200) {
    return Status::FailedPrecondition(page + " answered HTTP " +
                                      std::to_string(fetched->status));
  }
  return Status::Ok();
}

Status CmdNetLoad(const FlagParser& flags, std::ostream& out) {
  if (auto st = flags.CheckUnknown(
          {"host", "port", "connections", "qps", "duration", "shape",
           "pairs", "top", "universe", "closed-loop", "trace", "seed"});
      !st.ok()) {
    return st;
  }
  net::LoadGenOptions options;
  options.host = flags.GetString("host", "127.0.0.1");
  const int port = static_cast<int>(flags.GetInt("port", 0));
  if (port <= 0 || port > 65535) {
    return Status::InvalidArgument("--port is required (1-65535)");
  }
  options.port = static_cast<uint16_t>(port);
  options.connections = static_cast<uint32_t>(flags.GetInt("connections", 4));
  options.target_qps = flags.GetDouble("qps", 1000.0);
  options.duration_seconds = flags.GetDouble("duration", 2.0);
  options.pairs_per_request = static_cast<uint32_t>(flags.GetInt("pairs", 8));
  options.top_k = static_cast<uint32_t>(flags.GetInt("top", 0));
  options.node_universe =
      static_cast<uint32_t>(flags.GetInt("universe", 4096));
  options.closed_loop = flags.GetBool("closed-loop", false);
  options.trace = flags.GetBool("trace", false);
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const std::string shape = flags.GetString("shape", "steady");
  if (shape == "steady") {
    options.shape = net::LoadShape::kSteady;
  } else if (shape == "diurnal") {
    options.shape = net::LoadShape::kDiurnal;
  } else if (shape == "bursty") {
    options.shape = net::LoadShape::kBursty;
  } else if (shape == "hotkey") {
    options.shape = net::LoadShape::kHotKey;
  } else {
    return Status::InvalidArgument(
        "--shape must be steady|diurnal|bursty|hotkey");
  }

  auto report = net::RunLoad(options);
  if (!report.ok()) return report.status();

  TablePrinter table({"metric", "value"});
  table.AddRow({"shape", net::LoadShapeName(options.shape)});
  table.AddRow({"mode", options.closed_loop ? "closed-loop" : "open-loop"});
  table.AddRow({"connections", std::to_string(options.connections)});
  table.AddRow({"sent", std::to_string(report->sent)});
  table.AddRow({"ok", std::to_string(report->ok)});
  table.AddRow({"shed", std::to_string(report->shed)});
  table.AddRow({"retried", std::to_string(report->retried)});
  table.AddRow({"dropped", std::to_string(report->dropped)});
  table.AddRow({"errors", std::to_string(report->errors)});
  table.AddRow({"achieved_qps", TablePrinter::FormatCell(report->achieved_qps)});
  table.AddRow({"shed_rate", TablePrinter::FormatCell(report->shed_rate)});
  table.AddRow({"p50_us", TablePrinter::FormatCell(report->p50_us)});
  table.AddRow({"p90_us", TablePrinter::FormatCell(report->p90_us)});
  table.AddRow({"p99_us", TablePrinter::FormatCell(report->p99_us)});
  table.AddRow({"p999_us", TablePrinter::FormatCell(report->p999_us)});
  table.AddRow({"service_p50_us",
                TablePrinter::FormatCell(report->service_p50_us)});
  table.AddRow({"service_p99_us",
                TablePrinter::FormatCell(report->service_p99_us)});
  table.Print(out);
  if (options.trace && report->traced > 0) {
    TablePrinter stages({"stage", "mean_us", "p99_us"});
    for (size_t i = 0; i < obs::kNumServeStages; ++i) {
      // Encode/write happen at/after reply encoding and cannot be echoed;
      // skip their all-zero rows (server-side histograms carry them).
      if (report->stage_mean_us[i] == 0.0 && report->stage_p99_us[i] == 0.0) {
        continue;
      }
      stages.AddRow({obs::ServeStageName(static_cast<obs::ServeStage>(i)),
                     TablePrinter::FormatCell(report->stage_mean_us[i]),
                     TablePrinter::FormatCell(report->stage_p99_us[i])});
    }
    out << "server-side stage breakdown (" << report->traced
        << " traced responses):\n";
    stages.Print(out);
  }
  return Status::Ok();
}

}  // namespace

std::string CliUsage() {
  return
      "usage: streamlink_cli <command> [flags]\n"
      "commands:\n"
      "  generate  --workload ba|er|ws|rmat|sbm|plconfig [--scale S] "
      "[--seed N] --out FILE\n"
      "  stats     --input FILE | --metrics DUMP.json\n"
      "  build     --input FILE [--k N] [--seed N] [--threads N] "
      "--snapshot FILE\n"
      "            [--checkpoint-dir DIR [--checkpoint-every N] "
      "[--checkpoint-keep N]] [obs flags]\n"
      "  resume    --input FILE --checkpoint-dir DIR --snapshot FILE\n"
      "            [--checkpoint-every N] [--checkpoint-keep N] [obs flags]\n"
      "  query     --snapshot FILE --pairs u:v[,u:v...]\n"
      "  topk      --input FILE --vertex U [--top N] [--k N] "
      "[--measure NAME] [--threads N]\n"
      "  compare   --input FILE [--k N] [--pairs N] [--seed N] "
      "[--threads N]\n"
      "  serve-bench --input FILE [--readers N] [--pairs N] "
      "[--publish-edges N] [--publish-seconds S] [--checkpoint-dir DIR] "
      "[predictor flags] [obs flags]\n"
      "  net-serve --snapshot FILE [--host A] [--port N] [--workers N] "
      "[--queue N] [--staleness-edges N] [--max-age S] "
      "[--retry-after-ms N] [--duration S] [--admin-port N [--admin-host A] "
      "[--healthz-staleness-edges N] [--healthz-max-age S] "
      "[--tracez-slots N]] [--slo-latency-us U] [--slo-target F] "
      "[--hot-keys N] [obs flags]\n"
      "  net-load  --port N [--host A] [--connections N] [--qps R] "
      "[--duration S] [--shape steady|diurnal|bursty|hotkey] [--pairs N] "
      "[--top N] [--universe N] [--closed-loop] [--trace] [--seed N]\n"
      "  net-admin --port N [--host A] [--page metrics|metrics.json|healthz|"
      "statusz|tracez]\n"
      "obs flags (build/resume/serve-bench; docs/observability.md):\n"
      "  --metrics-out FILE   final metrics dump (.prom/.txt Prometheus "
      "text, .csv rows, else JSON)\n"
      "  --metrics-every S    also rewrite FILE every S seconds while "
      "running\n"
      "  --trace-out FILE     Chrome trace_event JSON of the run's spans\n"
      "predictor flags (build/topk/compare/serve-bench):\n" +
      PredictorFlagsHelp();
}

Status RunCliCommand(const std::vector<std::string>& args,
                     std::ostream& out) {
  if (args.empty()) {
    return Status::InvalidArgument("missing command\n" + CliUsage());
  }
  const std::string& command = args[0];
  FlagParser flags(std::vector<std::string>(args.begin() + 1, args.end()));
  if (command == "generate") return CmdGenerate(flags, out);
  if (command == "stats") return CmdStats(flags, out);
  if (command == "build") return CmdBuild(flags, out);
  if (command == "resume") return CmdResume(flags, out);
  if (command == "query") return CmdQuery(flags, out);
  if (command == "topk") return CmdTopK(flags, out);
  if (command == "compare") return CmdCompare(flags, out);
  if (command == "serve-bench") return CmdServeBench(flags, out);
  if (command == "net-serve") return CmdNetServe(flags, out);
  if (command == "net-load") return CmdNetLoad(flags, out);
  if (command == "net-admin") return CmdNetAdmin(flags, out);
  return Status::InvalidArgument("unknown command: " + command + "\n" +
                                 CliUsage());
}

}  // namespace streamlink
