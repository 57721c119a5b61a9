// F20: turnstile ingest — edge deletions end-to-end (docs/turnstile.md).
// Generates a delete-heavy churn stream (~35% of events are deletes of a
// uniformly random live edge), then measures event throughput of the tcm
// predictor through the ingest engine:
//
//   1. sequential replay (threads=1) — the reference path;
//   2. ordered vertex-sharded ingest (threads=2, op-tagged half-edge
//      batches) — must stay bit-identical to sequential.
//
// Every run re-verifies the correctness claims before timing anything:
// the turnstile differential oracle (exact-replay comparison under the
// Markov tolerance) must pass, and the ordered build must answer a pair
// sample identically to the sequential build. Throughput metrics
// (events/sec, *_eps) are best-of-3 and diff-gated by
// check-bench-turnstile at a wide tripwire threshold — a 2-core shared
// box swings with co-tenant load.

#include <memory>

#include "bench_common.h"
#include "gen/churn.h"
#include "stream/op_stream.h"
#include "stream/parallel_ingest.h"
#include "util/timer.h"
#include "verify/differential.h"

namespace streamlink {
namespace bench {
namespace {

struct ModeResult {
  std::unique_ptr<LinkPredictor> predictor;
  double best_eps = 0.0;
  double best_seconds = 0.0;
};

ModeResult RunMode(const PredictorConfig& config, uint32_t threads,
                   const TurnstileWorkload& w) {
  ModeResult result;
  PredictorConfig run_config = config;
  run_config.threads = threads;
  for (int round = 0; round < 3; ++round) {
    VectorOpStream stream(w.events);
    Stopwatch clock;
    auto built = IngestEngineBuilder(run_config).Ingest(stream);
    const double seconds = clock.ElapsedSeconds();
    SL_CHECK(built.ok()) << built.status().ToString();
    const double eps =
        seconds > 0 ? static_cast<double>(w.events.size()) / seconds : 0.0;
    if (eps > result.best_eps) {
      result.best_eps = eps;
      result.best_seconds = seconds;
    }
    result.predictor = std::move(*built);
  }
  return result;
}

void ExpectIdentical(const LinkPredictor& a, const LinkPredictor& b,
                     VertexId num_vertices, const char* mode) {
  const VertexId stride = num_vertices > 512 ? num_vertices / 256 : 1;
  for (VertexId u = 0; u < num_vertices; u += stride) {
    const VertexId v = (u + stride + 1) % num_vertices;
    OverlapEstimate ea = a.EstimateOverlap(u, v);
    OverlapEstimate eb = b.EstimateOverlap(u, v);
    SL_CHECK(ea.jaccard == eb.jaccard && ea.intersection == eb.intersection)
        << mode << " diverged from sequential at (" << u << "," << v << ")";
  }
}

void Run(const BenchConfig& config) {
  Banner("F20", "turnstile ingest: delete-heavy churn, sequential and 2T");

  ChurnSpec spec;
  spec.base_workload = "ba";
  spec.scale = config.scale;
  spec.seed = config.seed;
  spec.delete_fraction = 0.35;
  const TurnstileWorkload w = MakeChurnWorkload(spec);
  const double realized = static_cast<double>(w.deletes) /
                          static_cast<double>(w.events.size());
  std::printf("%s: %zu events (%llu inserts, %llu deletes, %.1f%% deletes), "
              "%llu net edges, %u vertices\n\n",
              w.name.c_str(), w.events.size(),
              static_cast<unsigned long long>(w.inserts),
              static_cast<unsigned long long>(w.deletes), 100.0 * realized,
              static_cast<unsigned long long>(w.net_edges.size()),
              w.num_vertices);
  SL_CHECK(realized >= 0.30) << "churn generator missed the delete target";

  // Correctness first: the differential oracle on a delete-heavy seeded
  // workload (CI-sized — the claim is statistical, not throughput-bound).
  TurnstileOracleOptions oracle;
  oracle.seed = config.seed;
  auto oracle_report = RunTurnstileOracle(oracle);
  SL_CHECK(oracle_report.ok()) << oracle_report.status().ToString();
  std::printf("%s\n", FormatReport(*oracle_report).c_str());
  SL_CHECK(oracle_report->all_passed)
      << "turnstile differential oracle failed";

  PredictorConfig predictor_config = config.predictor;
  predictor_config.kind = "tcm";
  predictor_config.sketch_size = 64;

  ResultTable table(
      {"mode", "threads", "events", "deletes", "best_s", "events_per_s"});
  auto add_row = [&](const char* mode, uint32_t threads,
                     const ModeResult& r) {
    table.AddRow({mode, std::to_string(threads),
                  std::to_string(w.events.size()),
                  std::to_string(w.deletes), ResultTable::Cell(r.best_seconds),
                  ResultTable::Cell(r.best_eps)});
  };

  ModeResult sequential = RunMode(predictor_config, 1, w);
  add_row("sequential", 1, sequential);

  ModeResult ordered = RunMode(predictor_config, 2, w);
  ExpectIdentical(*sequential.predictor, *ordered.predictor, w.num_vertices,
                  "ordered");
  add_row("ordered", 2, ordered);

  BenchReport& report = BenchReport::Get();
  report.AddMetric("turnstile_seq_eps", sequential.best_eps);
  report.AddMetric("turnstile_ordered2_eps", ordered.best_eps);
  // Informational: workload shape, so a baseline diff shows when the
  // stream itself changed rather than the code under it.
  report.AddMetric("delete_fraction", realized);
  report.AddMetric("stream_events", static_cast<double>(w.events.size()));
  table.Emit(config);
}

}  // namespace
}  // namespace bench
}  // namespace streamlink

int main(int argc, char** argv) {
  streamlink::bench::Run(
      streamlink::bench::BenchConfig::FromFlags(argc, argv, 1.0, 256));
  return 0;
}
