// Experiment F3: estimation error over stream progress.
//
// The paper shows the sketches stay accurate *throughout* the stream, not
// just at the end: estimation error measured at checkpoints while the
// stream is consumed. Expected shape: roughly flat error (the sketch
// tracks the evolving graph with no drift).

#include <algorithm>
#include <iostream>

#include "bench_common.h"
#include "core/exact_predictor.h"
#include "util/random.h"

namespace streamlink {
namespace bench {
namespace {

int Run(const BenchConfig& config) {
  Banner("F3", "estimation error at checkpoints over the stream");
  ResultTable table({"workload", "predictor", "fraction", "edges",
                     "jaccard_mae", "cn_mre", "aa_mre"});

  const std::vector<std::string> workloads = {"ba", "ws"};
  const uint32_t k = 128;

  for (const std::string& workload : workloads) {
    GeneratedGraph g =
        MakeWorkload(WorkloadSpec{workload, config.scale, config.seed});
    CsrGraph csr = CsrGraph::FromEdges(g.edges, g.num_vertices);
    Rng rng(config.seed + 13);
    // Pairs are sampled from the *final* graph; at early checkpoints their
    // overlap is smaller but the exact baseline evolves in lockstep.
    auto pairs = SampleOverlappingPairs(csr, config.pairs, rng);

    for (const std::string& kind :
         {std::string("minhash"), std::string("bottomk")}) {
      PredictorConfig pc = config.predictor;
      pc.kind = kind;
      pc.sketch_size = k;
      auto predictor = MustMakePredictor(pc);
      ExactPredictor exact;

      // Both predictors take in the stream up to each checkpoint position,
      // max(1, floor(f * total)), as one contiguous batch.
      const uint64_t total = g.edges.size();
      uint64_t consumed = 0;
      for (double f : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}) {
        const uint64_t end =
            std::max<uint64_t>(1, static_cast<uint64_t>(f * total));
        const EdgeBatch slice(g.edges.data() + consumed, end - consumed);
        predictor->OnEdgeBatch(slice);
        exact.OnEdgeBatch(slice);
        consumed = end;
        AccuracyReport report =
            MeasureAccuracyAgainst(*predictor, exact, pairs);
        table.AddRow(
            {workload, kind,
             ResultTable::Cell(static_cast<double>(consumed) / total),
             std::to_string(consumed),
             ResultTable::Cell(report.jaccard.MeanAbsoluteError()),
             ResultTable::Cell(report.common_neighbors.MeanRelativeError()),
             ResultTable::Cell(report.adamic_adar.MeanRelativeError())});
      }
    }
  }
  table.Emit(config);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace streamlink

int main(int argc, char** argv) {
  return streamlink::bench::Run(streamlink::bench::BenchConfig::FromFlags(
      argc, argv, /*scale=*/0.2, /*pairs=*/400));
}
