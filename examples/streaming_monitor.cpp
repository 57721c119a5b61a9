// Live monitoring of an evolving interaction stream.
//
// Models an ops-style deployment: an unbounded stream of interactions
// (e.g. network flows, co-purchases, message edges) flows through the
// system; at periodic checkpoints the monitor reports
//   * ingest throughput (edges/sec) and sketch memory,
//   * the current hottest vertices (space-saving heavy hitters),
//   * link-strength estimates for a fixed watchlist of pairs,
//   * the distribution of each edge's "prior similarity" — the Jaccard of
//     its endpoints estimated just BEFORE insertion (one score per edge,
//     summarized with nearest-rank percentiles): edges between
//     already-similar endpoints are expected; links between dissimilar
//     busy endpoints are the surprising ones an anomaly pipeline would
//     flag.
// Everything is computed online; nothing about the graph is stored beyond
// the sketches, the heavy-hitter counters, the degree table, and the
// per-edge similarity scores.
//
// Run:  ./examples/streaming_monitor [--edges 400000] [--checkpoints 8]

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/minhash_predictor.h"
#include "gen/rmat.h"
#include "sketch/space_saving.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/percentile.h"
#include "util/random.h"
#include "util/timer.h"

using namespace streamlink;  // example code only; library code never does this  // NOLINT

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  SL_CHECK_OK(flags.CheckUnknown({"edges", "checkpoints"}));
  const uint64_t num_edges =
      static_cast<uint64_t>(flags.GetInt("edges", 400000));
  const int num_checkpoints =
      static_cast<int>(flags.GetInt("checkpoints", 8));

  // A skewed interaction stream (R-MAT): a few "servers" see most flows.
  Rng rng(99);
  RmatParams params;
  params.scale = 16;
  params.num_edges = num_edges;
  GeneratedGraph traffic = GenerateRmat(params, rng);
  std::printf("monitoring %zu interactions over up to %u endpoints\n\n",
              traffic.edges.size(), traffic.num_vertices);

  MinHashPredictor predictor(MinHashPredictorOptions{64, 5});
  SpaceSaving hot(256);

  // Watchlist: pairs of likely hubs (low R-MAT ids) we want link-strength
  // estimates for at every checkpoint.
  const std::vector<std::pair<VertexId, VertexId>> watchlist = {
      {0, 1}, {0, 2}, {1, 3}};

  // Progress reports land after max(1, floor(i / checkpoints * total))
  // edges, i = 1..checkpoints.
  const uint64_t total = traffic.edges.size();
  std::vector<uint64_t> report_at;
  for (int i = 1; i <= num_checkpoints; ++i) {
    const double fraction = static_cast<double>(i) / num_checkpoints;
    report_at.push_back(
        std::max<uint64_t>(1, static_cast<uint64_t>(fraction * total)));
  }

  // One pass: score each edge's prior similarity (the estimate before the
  // predictor takes the edge in), apply it, and count both endpoints.
  std::vector<double> prior;
  prior.reserve(total);
  Stopwatch stopwatch;
  size_t next_report = 0;
  uint64_t consumed = 0;
  for (const Edge& edge : traffic.edges) {
    prior.push_back(predictor.EstimateOverlap(edge.u, edge.v).jaccard);
    predictor.OnEdge(edge);
    hot.Offer(edge.u);
    hot.Offer(edge.v);
    ++consumed;
    for (; next_report < report_at.size() &&
           report_at[next_report] <= consumed;
         ++next_report) {
      std::printf("[%5.1f%%] %9lu edges  %8.0f edges/s  %6.2f MB sketch\n",
                  static_cast<double>(consumed) / total * 100,
                  static_cast<unsigned long>(consumed),
                  stopwatch.Rate(consumed), predictor.MemoryBytes() / 1e6);
    }
  }

  std::printf("\nhottest endpoints (space-saving, capacity 256):\n");
  for (const auto& counter : hot.TopK(5)) {
    std::printf("  vertex %-8lu ~%lu touches (error <= %lu)\n",
                static_cast<unsigned long>(counter.item),
                static_cast<unsigned long>(counter.count),
                static_cast<unsigned long>(counter.error));
  }

  std::sort(prior.begin(), prior.end());
  std::printf("\nper-edge prior similarity (%zu edges):\n", prior.size());
  std::printf("  p50=%.4f  p90=%.4f  p99=%.4f  max=%.4f\n",
              PercentileSorted(prior, 0.5), PercentileSorted(prior, 0.9),
              PercentileSorted(prior, 0.99), PercentileSorted(prior, 1.0));
  std::printf(
      "  (edges arriving between already-similar endpoints score high; an\n"
      "   anomaly pipeline would flag busy pairs scoring near zero)\n");

  std::printf("\nwatchlist link strengths (streaming estimates):\n");
  std::printf("  %-12s %-9s %-9s %-9s\n", "pair", "jaccard", "common",
              "adamic");
  for (auto [u, v] : watchlist) {
    OverlapEstimate est = predictor.EstimateOverlap(u, v);
    std::printf("  (%4u,%4u)  %-9.3f %-9.1f %-9.2f\n", u, v, est.jaccard,
                est.intersection, est.adamic_adar);
  }
  return 0;
}
