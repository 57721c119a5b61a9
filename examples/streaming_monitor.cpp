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
#include "core/triangle_counter.h"
#include "gen/rmat.h"
#include "sketch/space_saving.h"
#include "stream/edge_stream.h"
#include "stream/rate_meter.h"
#include "stream/stream_driver.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/percentile.h"
#include "util/random.h"
#include "util/timer.h"

using namespace streamlink;  // example code only; library code never does this  // NOLINT

namespace {

/// Routes each edge's endpoints into the heavy-hitter sketch.
class HotVertexTracker : public EdgeConsumer {
 public:
  explicit HotVertexTracker(uint32_t capacity) : sketch_(capacity) {}

  void OnEdgeBatch(const EdgeBatch& batch) override {
    for (const Edge& edge : batch) {
      sketch_.Offer(edge.u);
      sketch_.Offer(edge.v);
    }
  }

  const SpaceSaving& sketch() const { return sketch_; }

 private:
  SpaceSaving sketch_;
};

/// Scores each edge's endpoint similarity just before the predictor
/// absorbs it. Register BEFORE the predictor so the estimate excludes the
/// edge itself.
class PriorSimilarityTracker : public EdgeConsumer {
 public:
  explicit PriorSimilarityTracker(const MinHashPredictor& predictor)
      : predictor_(predictor) {}

  void OnEdgeBatch(const EdgeBatch& batch) override {
    for (const Edge& edge : batch) {
      scores_.push_back(predictor_.EstimateOverlap(edge.u, edge.v).jaccard);
    }
  }

  /// The scores so far, ascending.
  std::vector<double> Sorted() const {
    std::vector<double> sorted = scores_;
    std::sort(sorted.begin(), sorted.end());
    return sorted;
  }

 private:
  const MinHashPredictor& predictor_;
  std::vector<double> scores_;
};

}  // namespace

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
  HotVertexTracker hot(256);

  // Watchlist: pairs of likely hubs (low R-MAT ids) we want link-strength
  // estimates for at every checkpoint.
  const std::vector<std::pair<VertexId, VertexId>> watchlist = {
      {0, 1}, {0, 2}, {1, 3}};

  PriorSimilarityTracker similarity(predictor);
  StreamingTriangleCounter triangles(TriangleCounterOptions{64, 6});

  StreamDriver driver;
  driver.AddConsumer(&similarity);  // must observe the pre-insert state
  driver.AddConsumer(&predictor);
  driver.AddConsumer(&hot);
  driver.AddConsumer(&triangles);

  Stopwatch stopwatch;
  std::vector<double> fractions;
  for (int i = 1; i <= num_checkpoints; ++i) {
    fractions.push_back(static_cast<double>(i) / num_checkpoints);
  }
  driver.SetCheckpoints(fractions, [&](uint64_t consumed, double fraction) {
    std::printf("[%5.1f%%] %9lu edges  %8.0f edges/s  %6.2f MB sketch\n",
                fraction * 100, static_cast<unsigned long>(consumed),
                stopwatch.Rate(consumed), predictor.MemoryBytes() / 1e6);
    if (fraction >= 0.999) return;  // full report printed below
  });

  VectorEdgeStream stream(traffic.edges);
  driver.Run(stream);

  std::printf("\nhottest endpoints (space-saving, capacity 256):\n");
  for (const auto& counter : hot.sketch().TopK(5)) {
    std::printf("  vertex %-8lu ~%lu touches (error <= %lu)\n",
                static_cast<unsigned long>(counter.item),
                static_cast<unsigned long>(counter.count),
                static_cast<unsigned long>(counter.error));
  }

  const std::vector<double> q = similarity.Sorted();
  std::printf("\nper-edge prior similarity (%zu edges):\n", q.size());
  std::printf("  p50=%.4f  p90=%.4f  p99=%.4f  max=%.4f\n",
              PercentileSorted(q, 0.5), PercentileSorted(q, 0.9),
              PercentileSorted(q, 0.99), PercentileSorted(q, 1.0));
  std::printf(
      "  (edges arriving between already-similar endpoints score high; an\n"
      "   anomaly pipeline would flag busy pairs scoring near zero)\n");

  std::printf("\nestimated triangles closed so far: %.0f\n",
              triangles.Estimate());

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
