// Parallel ingestion with IngestEngineBuilder.
//
// MinHash sketches form a commutative idempotent monoid under slot-wise
// minimum, and degree counters add — so a stream can be vertex-sharded
// across worker threads (shard t owns vertices with u % threads == t) and
// the result stays bit-identical to a single-pass sequential build. The
// engine routes each edge's two half-edges to the endpoint owners through
// bounded SPSC rings carrying large pre-hashed batches; the returned
// ShardedPredictor answers queries by routing to the owning shards, so
// there is no merge step at all.
//
// Run:  ./examples/parallel_ingest [--threads 4] [--scale 2.0]

#include <cstdio>
#include <thread>

#include "core/predictor_factory.h"
#include "gen/workloads.h"
#include "stream/edge_stream.h"
#include "stream/parallel_ingest.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/timer.h"

using namespace streamlink;  // example code only; library code never does this  // NOLINT

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  SL_CHECK_OK(flags.CheckUnknown({"threads", "scale"}));
  const int num_threads = static_cast<int>(flags.GetInt("threads", 4));
  const double scale = flags.GetDouble("scale", 2.0);
  SL_CHECK(num_threads >= 1) << "--threads must be >= 1";

  GeneratedGraph g = MakeWorkload(WorkloadSpec{"rmat", scale, 7});
  std::printf("stream: %zu edges\n\n", g.edges.size());

  PredictorConfig config;
  config.kind = "minhash";
  config.sketch_size = 256;
  config.seed = 99;

  // Sequential reference.
  Stopwatch sequential_timer;
  config.threads = 1;
  VectorEdgeStream sequential_stream(g.edges);
  auto sequential = IngestEngineBuilder(config).Ingest(sequential_stream);
  SL_CHECK_OK(sequential.status());
  double sequential_seconds = sequential_timer.ElapsedSeconds();
  std::printf("sequential build: %s\n",
              FormatDuration(sequential_seconds).c_str());

  // Parallel build through the builder: the calling thread routes
  // pre-hashed half-edge batches to per-shard rings; one worker per shard
  // applies them. Every vertex's sketch lives in exactly one shard, so
  // total memory matches the sequential build.
  Stopwatch parallel_timer;
  VectorEdgeStream parallel_stream(g.edges);
  uint64_t edges_ingested = 0;
  auto parallel =
      IngestEngineBuilder(config)
          .Threads(static_cast<uint32_t>(num_threads))
          .Ingest(parallel_stream, &edges_ingested);
  SL_CHECK_OK(parallel.status());
  double parallel_seconds = parallel_timer.ElapsedSeconds();
  unsigned hardware = std::thread::hardware_concurrency();
  std::printf("%d-thread build:  %s  (%.2fx on %u hardware thread%s)\n",
              num_threads, FormatDuration(parallel_seconds).c_str(),
              sequential_seconds / parallel_seconds, hardware,
              hardware == 1 ? "" : "s");
  if (hardware < static_cast<unsigned>(num_threads)) {
    std::printf(
        "  (speedup requires >= %d cores; this machine has %u — the run\n"
        "   still demonstrates the engine's equivalence contract)\n",
        num_threads, hardware);
  }
  std::printf("ingested %llu edges; %s processed %llu\n\n",
              static_cast<unsigned long long>(edges_ingested),
              (*parallel)->name().c_str(),
              static_cast<unsigned long long>((*parallel)->edges_processed()));

  // Verify estimates on random pairs against the sequential build: they
  // must match bit-for-bit.
  Rng rng(1);
  int checked = 0, identical = 0;
  for (int i = 0; i < 1000; ++i) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(g.num_vertices));
    VertexId v = static_cast<VertexId>(rng.NextBounded(g.num_vertices));
    OverlapEstimate a = (*sequential)->EstimateOverlap(u, v);
    OverlapEstimate b = (*parallel)->EstimateOverlap(u, v);
    ++checked;
    identical += (a.jaccard == b.jaccard && a.intersection == b.intersection &&
                  a.adamic_adar == b.adamic_adar);
  }
  std::printf("parallel == sequential on %d/%d sampled queries\n", identical,
              checked);
  SL_CHECK(identical == checked) << "parallel build diverged from sequential";
  return 0;
}
