// F18: checkpoint/restore cost and kill-and-resume equivalence. Part 1
// sweeps the checkpoint cadence and reports what periodic crash-safe
// snapshots cost a live build (wall-clock overhead vs a no-checkpoint
// baseline, snapshot bytes, checkpoints taken). Part 2 simulates a crash
// at ~50% of the stream, resumes from the newest checkpoint, and reports
// restore + resume time plus the acceptance check: the resumed build's
// snapshot is byte-identical to the uninterrupted build's.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>

#include "bench_common.h"
#include "gen/workloads.h"
#include "persist/checkpoint.h"
#include "stream/edge_stream.h"
#include "stream/parallel_ingest.h"

namespace streamlink {
namespace bench {
namespace {

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

uint64_t DirSnapshotBytes(const CheckpointManager& manager) {
  uint64_t total = 0;
  for (const CheckpointEntry& entry : manager.entries()) {
    std::error_code ec;
    uint64_t size = std::filesystem::file_size(
        manager.PathFor(entry.stream_edges), ec);
    if (!ec) total += size;
  }
  return total;
}

void Run(const BenchConfig& config) {
  Banner("F18", "checkpoint cost and crash-resume equivalence");

  GeneratedGraph g =
      MakeWorkload(WorkloadSpec{"rmat", config.scale, config.seed});
  std::printf("stream: %zu edges, %u vertices\n", g.edges.size(),
              g.num_vertices);

  PredictorConfig predictor_config = config.predictor;
  predictor_config.sketch_size = 128;

  const std::string base_dir =
      (std::filesystem::temp_directory_path() / "streamlink_f18").string();
  std::filesystem::remove_all(base_dir);

  // No-checkpoint baseline build.
  double baseline_seconds;
  {
    VectorEdgeStream stream(g.edges);
    Stopwatch timer;
    SL_CHECK_OK(IngestEngineBuilder(predictor_config).Ingest(stream).status());
    baseline_seconds = timer.ElapsedSeconds();
  }
  std::printf("baseline build (no checkpoints): %.3fs\n\n", baseline_seconds);

  // Part 1: cadence sweep.
  ResultTable sweep({"cadence_edges", "checkpoints", "snapshot_mb",
                     "build_seconds", "overhead", "ckpt_ms_each"});
  for (uint64_t divisor : {4u, 10u, 20u}) {
    const uint64_t cadence =
        std::max<uint64_t>(1, g.edges.size() / divisor);
    const std::string dir = base_dir + "/sweep_" + std::to_string(divisor);
    auto manager =
        CheckpointManager::Open(CheckpointOptions{dir, /*keep=*/3});
    SL_CHECK(manager.ok()) << manager.status().ToString();

    ParallelIngestEngine engine = IngestEngineBuilder(predictor_config)
                                      .PublishEveryEdges(cadence)
                                      .PublishTo(*manager)
                                      .BuildEngine();
    VectorEdgeStream stream(g.edges);
    Stopwatch timer;
    SL_CHECK_OK(engine.Build(stream).status());
    const double seconds = timer.ElapsedSeconds();

    const uint64_t checkpoints = g.edges.size() / cadence +
                                 (g.edges.size() % cadence ? 1 : 0);
    sweep.AddRow(
        {std::to_string(cadence), std::to_string(checkpoints),
         ResultTable::Cell(DirSnapshotBytes(*manager) / 1e6),
         ResultTable::Cell(seconds),
         ResultTable::Cell(baseline_seconds > 0 ? seconds / baseline_seconds
                                                : 0.0),
         ResultTable::Cell(checkpoints > 0
                               ? (seconds - baseline_seconds) * 1e3 /
                                     checkpoints
                               : 0.0)});
  }
  sweep.Emit(config);

  // Part 2: kill at ~50%, resume, verify byte identity.
  std::printf("\nkill-and-resume (crash at 50%% of the stream):\n");
  const uint64_t killed_at = g.edges.size() / 2;
  const std::string resume_dir = base_dir + "/resume";
  const std::string ref_snap = base_dir + "/reference.snap";
  const std::string resumed_snap = base_dir + "/resumed.snap";

  // Reference: the uninterrupted build.
  {
    VectorEdgeStream stream(g.edges);
    auto built = IngestEngineBuilder(predictor_config).Ingest(stream);
    SL_CHECK_OK(built.status());
    SL_CHECK_OK((*built)->Save(ref_snap));
  }

  // Interrupted run: the engine only ever sees the stream prefix.
  {
    auto manager = CheckpointManager::Open(
        CheckpointOptions{resume_dir, /*keep=*/3});
    SL_CHECK(manager.ok());
    ParallelIngestEngine engine =
        IngestEngineBuilder(predictor_config)
            .PublishEveryEdges(std::max<uint64_t>(1, g.edges.size() / 10))
            .PublishTo(*manager)
            .BuildEngine();
    PrefixEdgeStream prefix(std::make_unique<VectorEdgeStream>(g.edges),
                            killed_at);
    SL_CHECK_OK(engine.Build(prefix).status());
  }

  // Resume in a fresh manager (a fresh process image after the crash).
  auto manager = CheckpointManager::Open(
      CheckpointOptions{resume_dir, /*keep=*/3});
  SL_CHECK(manager.ok());
  Stopwatch restore_clock;
  auto restored = manager->RestoreLatest();
  const double restore_seconds = restore_clock.ElapsedSeconds();
  SL_CHECK(restored.ok()) << restored.status().ToString();

  const uint64_t cursor = restored->entry.stream_edges;
  VectorEdgeStream tail(EdgeList(g.edges.begin() + cursor, g.edges.end()));
  Stopwatch resume_clock;
  auto resumed = IngestEngineBuilder(predictor_config)
                     .Threads(1)
                     .BuildEngine()
                     .Resume(std::move(restored->predictor), cursor, tail);
  const double resume_seconds = resume_clock.ElapsedSeconds();
  SL_CHECK_OK(resumed.status());
  SL_CHECK_OK((*resumed)->Save(resumed_snap));

  const bool identical =
      ReadFileBytes(ref_snap) == ReadFileBytes(resumed_snap);
  ResultTable resume_table({"restored_at_edge", "restore_seconds",
                            "resume_seconds", "full_build_seconds",
                            "byte_identical"});
  resume_table.AddRow({std::to_string(restored->entry.stream_edges),
                       ResultTable::Cell(restore_seconds),
                       ResultTable::Cell(resume_seconds),
                       ResultTable::Cell(baseline_seconds),
                       identical ? "yes" : "NO"});
  BenchReport& report = BenchReport::Get();
  report.AddMetric("restore_seconds", restore_seconds);
  report.AddMetric("resume_seconds", resume_seconds);
  BenchConfig no_csv = config;
  no_csv.out.clear();  // the CSV (if any) carries the sweep table
  resume_table.Emit(no_csv);
  SL_CHECK(identical) << "resumed snapshot differs from reference";

  std::filesystem::remove_all(base_dir);
}

}  // namespace
}  // namespace bench
}  // namespace streamlink

int main(int argc, char** argv) {
  streamlink::bench::Run(
      streamlink::bench::BenchConfig::FromFlags(argc, argv, 1.0, 64));
  return 0;
}
