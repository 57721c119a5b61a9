#ifndef STREAMLINK_VERIFY_DIFFERENTIAL_H_
#define STREAMLINK_VERIFY_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/predictor_factory.h"
#include "gen/stream_order.h"
#include "stream/parallel_ingest.h"
#include "util/status.h"

namespace streamlink {

/// Differential-testing oracle: streams one seeded generated graph into
/// ExactPredictor and every sketch predictor kind simultaneously, then
/// checks each kind's per-query estimates against the Chernoff-style
/// tolerance from core/error_bounds — a *statistical* assertion (bounded
/// count of per-query tolerance violations), not pointwise equality,
/// because the sketches are randomized estimators whose guarantee is
/// itself probabilistic. This is the automated analogue of how Li et al.
/// (b-bit minwise) and Shrivastava/Li (OPH) validate estimators:
/// empirical error distributions against analytic bounds, at scale.
///
/// Everything is deterministic given the seeds in the options, so a
/// failure reproduces bit-for-bit.

/// Configuration of one oracle run. Defaults are sized for CI: a few
/// thousand edges, a few hundred queries per kind, well under a second
/// per kind.
struct DifferentialOracleOptions {
  /// Workload generator name (gen/workloads.h) and scale.
  std::string workload = "ba";
  double scale = 0.05;
  /// Master seed: drives generation, stream order, and query sampling.
  uint64_t seed = 1;
  /// Arrival order of the generated stream.
  StreamOrder order = StreamOrder::kGenerated;
  /// Sketch size for every kind under test.
  uint32_t sketch_size = 128;
  /// Query pairs per kind; sampled with SampleMixedPairs.
  uint32_t query_pairs = 256;
  /// Fraction of query pairs guaranteed to share a neighbor.
  double overlap_fraction = 0.7;
  /// Per-query two-sided confidence: the tolerance is
  /// epsilon = MinHashJaccardErrorAt(jaccard_slots, per_query_delta),
  /// i.e. each query violates it with probability <= per_query_delta.
  double per_query_delta = 0.05;
  /// Overall statistical budget: the allowed violation *count* is the
  /// Bernstein/Chernoff upper tail of Binomial(query_pairs,
  /// per_query_delta) at this failure probability
  /// (AllowedToleranceViolations).
  double overall_delta = 1e-9;
  /// Multiplier on the MinHash Hoeffding epsilon for estimator families
  /// whose concentration constant is close to, but not exactly, the
  /// k-permutation one (densified OPH; bottom-k sampling without
  /// replacement). 1.0 applies the bound as-is.
  double epsilon_slack = 1.0;
  /// Kinds to test; empty = every kind from PredictorKinds(). "exact" is
  /// always checked pointwise (epsilon 0) as an oracle self-test.
  std::vector<std::string> kinds;
  /// Ingestion parallelism for kinds that support it (sharded builds must
  /// agree with sequential ones, so the tolerance is unchanged). Kinds
  /// that cannot be sharded build sequentially, keeping the kind sweep
  /// complete.
  uint32_t threads = 1;
};

/// Per-kind outcome of an oracle run.
struct DifferentialKindReport {
  std::string kind;
  /// Slots backing the Jaccard estimate (kind-adjusted: vertex_biased
  /// spends half its budget on the weighted sampler).
  uint32_t jaccard_slots = 0;
  /// The per-query additive Jaccard tolerance applied.
  double epsilon = 0.0;
  uint64_t queries = 0;
  /// Queries whose |est − exact| Jaccard error exceeded epsilon.
  uint64_t jaccard_violations = 0;
  /// Queries whose common-neighbor error exceeded the propagated bound
  /// (CommonNeighborErrorBound, evaluated conservatively at J − ε).
  uint64_t common_neighbor_violations = 0;
  /// Statistical ceiling on either violation count.
  uint64_t allowed_violations = 0;
  /// Estimates with NaN/Inf fields, Jaccard outside [0,1], or negative
  /// counts — always 0 on a pass (structural, not statistical).
  uint64_t malformed_estimates = 0;
  double max_jaccard_error = 0.0;
  double mean_jaccard_error = 0.0;
  bool passed = false;
  /// Human-readable failure summary; empty on a pass.
  std::string detail;
};

/// Outcome of a whole oracle run.
struct DifferentialReport {
  std::vector<DifferentialKindReport> kinds;
  bool all_passed = false;
  /// Stream/graph shape, for logs.
  uint64_t stream_edges = 0;
  uint32_t num_vertices = 0;
};

/// Runs the oracle. A non-ok Status means the run itself could not be set
/// up (bad kind, bad config); estimator failures are reported through
/// DifferentialKindReport::passed so the caller can show every kind's
/// numbers, not just the first failure.
Result<DifferentialReport> RunDifferentialOracle(
    const DifferentialOracleOptions& options);

/// Configuration of a *turnstile* oracle run: a delete-heavy churn
/// workload (gen/churn.h) streamed as insert/delete events into every
/// deletable kind, checked against an ExactPredictor that replays the same
/// events. "exact" is compared pointwise (a self-test of the delete
/// plumbing); "tcm" gets a per-query tolerance derived from its Markov
/// tail — each count strip overestimates the true intersection by at most
/// slack * du * dv / width with probability 1 - per_query_delta, where
/// slack = per_query_delta^(-1/depth) (min over depth independent rows).
struct TurnstileOracleOptions {
  std::string workload = "ba";
  double scale = 0.05;
  uint64_t seed = 1;
  /// Target fraction of events that are deletes (see ChurnSpec).
  double delete_fraction = 0.35;
  uint32_t sketch_size = 128;
  uint32_t tcm_depth = 3;
  uint32_t query_pairs = 256;
  double overlap_fraction = 0.7;
  double per_query_delta = 0.05;
  double overall_delta = 1e-9;
  /// Kinds to test; empty = every kind the kind table marks deletable.
  std::vector<std::string> kinds;
  uint32_t threads = 1;
};

/// Runs the turnstile oracle. Same reporting contract as
/// RunDifferentialOracle; `stream_edges` in the report counts *events*.
Result<DifferentialReport> RunTurnstileOracle(
    const TurnstileOracleOptions& options);

/// Renders a report as one line per kind (for test logs and the bench
/// harness).
std::string FormatReport(const DifferentialReport& report);

}  // namespace streamlink

#endif  // STREAMLINK_VERIFY_DIFFERENTIAL_H_
