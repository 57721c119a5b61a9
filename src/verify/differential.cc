#include "verify/differential.h"

#include <cmath>
#include <sstream>

#include "core/error_bounds.h"
#include "core/exact_predictor.h"
#include "eval/experiment.h"
#include "gen/churn.h"
#include "gen/pair_sampler.h"
#include "gen/workloads.h"
#include "graph/csr_graph.h"
#include "util/hashing.h"

namespace streamlink {

namespace {

/// Slots backing the Jaccard estimate of one kind at a given sketch size.
/// vertex_biased splits its budget: only the MinHash half estimates
/// Jaccard (the weighted half serves Adamic-Adar variance reduction).
uint32_t JaccardSlots(const std::string& kind, uint32_t sketch_size) {
  if (kind == "vertex_biased") return sketch_size / 2;
  return sketch_size;
}

bool IsFiniteNonNegative(double v) { return std::isfinite(v) && v >= 0.0; }

/// Structural sanity of one estimate — holds for every estimator on every
/// input, independent of randomness.
bool EstimateIsWellFormed(const OverlapEstimate& e) {
  return IsFiniteNonNegative(e.degree_u) && IsFiniteNonNegative(e.degree_v) &&
         IsFiniteNonNegative(e.intersection) &&
         IsFiniteNonNegative(e.union_size) &&
         IsFiniteNonNegative(e.adamic_adar) &&
         IsFiniteNonNegative(e.resource_allocation) &&
         std::isfinite(e.jaccard) && e.jaccard >= 0.0 && e.jaccard <= 1.0;
}

/// How one kind's estimates are judged against exact truth.
struct KindTolerance {
  /// exact: zero tolerance everywhere (oracle self-test).
  bool pointwise = false;
  /// tcm: the tolerance depends on the query's true degrees — a count
  /// strip's intersection excess is bounded by Markov, not Hoeffding.
  bool degree_scaled = false;
  /// Fixed per-query Jaccard tolerance (MinHash-family kinds).
  double epsilon = 0.0;
  /// tcm: per-row excess multiplier per_query_delta^(-1/depth) and the
  /// strip width the excess divides by.
  double tcm_slack = 0.0;
  double tcm_width = 1.0;
};

/// The shared query loop of both oracles: scores `predictor` against
/// `exact` on `pairs` under `tol` and fills everything in the report
/// except `kind`/`jaccard_slots`/`epsilon` bookkeeping, which the caller
/// sets via the returned struct's fields it already primed.
void ComparePairs(const LinkPredictor& predictor, const ExactPredictor& exact,
                  const std::vector<QueryPair>& pairs,
                  const KindTolerance& tol, DifferentialKindReport* kr) {
  double error_sum = 0.0;
  for (const QueryPair& p : pairs) {
    OverlapEstimate truth = exact.EstimateOverlap(p.u, p.v);
    OverlapEstimate est = predictor.EstimateOverlap(p.u, p.v);
    if (!EstimateIsWellFormed(est)) {
      ++kr->malformed_estimates;
      continue;
    }
    double eps_q;
    double cn_bound;
    if (tol.degree_scaled) {
      // Per-row Markov tail: E[excess] <= du*dv/width per strip row, so
      // P(min over depth rows >= slack*du*dv/width) <= slack^(-depth) =
      // per_query_delta at slack = delta^(-1/depth). +1 absorbs integer
      // truncation at tiny degrees. The estimator is one-sided (clamped
      // min-of-sums never undershoots the true count), so the Jaccard
      // tolerance is the image of the count tolerance through
      // J = I / (du + dv - I), evaluated at the capped I.
      cn_bound =
          tol.tcm_slack * truth.degree_u * truth.degree_v / tol.tcm_width +
          1.0;
      const double imax =
          std::min(truth.intersection + cn_bound,
                   std::min(truth.degree_u, truth.degree_v));
      const double denom = truth.degree_u + truth.degree_v - imax;
      const double jmax = denom > 0.0 ? imax / denom : 0.0;
      eps_q = std::max(1e-9, jmax - truth.jaccard);
    } else {
      eps_q = tol.epsilon;
      // Propagated common-neighbor bound, evaluated at the conservative
      // end of the Jaccard interval (the derivative of x/(1+x) peaks at
      // the interval's low end).
      cn_bound = CommonNeighborErrorBound(
          tol.epsilon, std::max(0.0, truth.jaccard - tol.epsilon),
          truth.degree_u + truth.degree_v);
    }
    double jaccard_error = std::abs(est.jaccard - truth.jaccard);
    error_sum += jaccard_error;
    kr->max_jaccard_error = std::max(kr->max_jaccard_error, jaccard_error);
    if (jaccard_error > eps_q) ++kr->jaccard_violations;
    if (std::abs(est.intersection - truth.intersection) > cn_bound) {
      ++kr->common_neighbor_violations;
    }
  }
  kr->mean_jaccard_error =
      pairs.empty() ? 0.0 : error_sum / static_cast<double>(pairs.size());
  kr->passed = kr->malformed_estimates == 0 &&
               kr->jaccard_violations <= kr->allowed_violations &&
               kr->common_neighbor_violations <= kr->allowed_violations;
  if (!kr->passed) {
    std::ostringstream detail;
    detail << kr->kind << ": ";
    if (kr->malformed_estimates > 0) {
      detail << kr->malformed_estimates << " malformed estimates; ";
    }
    detail << kr->jaccard_violations << " jaccard + "
           << kr->common_neighbor_violations
           << " common-neighbor violations of eps=" << kr->epsilon
           << " exceed the allowance of " << kr->allowed_violations << " over "
           << kr->queries << " queries";
    kr->detail = detail.str();
  }
}

/// The Markov slack factor for a tcm strip of `depth` rows at confidence
/// `per_query_delta`.
double TcmSlack(uint32_t depth, double per_query_delta) {
  return std::pow(per_query_delta, -1.0 / static_cast<double>(depth));
}

}  // namespace

Result<DifferentialReport> RunDifferentialOracle(
    const DifferentialOracleOptions& options) {
  if (options.sketch_size < 4) {
    return Status::InvalidArgument("oracle needs sketch_size >= 4");
  }
  if (options.query_pairs == 0) {
    return Status::InvalidArgument("oracle needs query_pairs >= 1");
  }

  // One shared graph, stream order, and query set for every kind: the
  // whole point is that all predictors answer the *same* queries on the
  // *same* stream as the exact oracle.
  GeneratedGraph graph =
      MakeWorkload(WorkloadSpec{options.workload, options.scale, options.seed});
  Rng order_rng(Mix64(options.seed ^ 0x0cac1e));
  ApplyStreamOrder(options.order, graph.edges, order_rng);

  ExactPredictor exact;
  FeedStream(exact, graph.edges);

  CsrGraph csr = CsrGraph::FromEdges(graph.edges, graph.num_vertices);
  Rng pair_rng(Mix64(options.seed ^ 0x9a125));
  std::vector<QueryPair> pairs = SampleMixedPairs(
      csr, options.query_pairs, options.overlap_fraction, pair_rng);

  std::vector<std::string> kinds =
      options.kinds.empty() ? PredictorKinds() : options.kinds;

  DifferentialReport report;
  report.stream_edges = graph.edges.size();
  report.num_vertices = graph.num_vertices;
  report.all_passed = true;

  for (const std::string& kind : kinds) {
    PredictorConfig config;
    config.kind = kind;
    config.sketch_size = options.sketch_size;
    config.seed = options.seed;
    const PredictorKind* row = FindPredictorKind(kind);
    if (options.threads > 1 && row != nullptr && row->shardable) {
      config.threads = options.threads;
    }
    // The tolerance compares against the *whole-stream* exact measures, so
    // the windowed kind must keep every edge live: window >= stream.
    config.window_edges = graph.edges.size() + 1;

    VectorEdgeStream stream(graph.edges);
    auto predictor = IngestEngineBuilder(config).Ingest(stream);
    if (!predictor.ok()) return predictor.status();

    DifferentialKindReport kr;
    kr.kind = kind;
    kr.queries = pairs.size();
    KindTolerance tol;
    if (kind == "exact") {
      tol.pointwise = true;
    } else if (kind == "tcm") {
      tol.degree_scaled = true;
      tol.tcm_slack = TcmSlack(config.tcm_depth, options.per_query_delta);
      tol.tcm_width = options.sketch_size;
      kr.jaccard_slots = options.sketch_size;
      // The applied tolerance is degree-scaled per query; report its
      // leading coefficient (slack per unit du*dv/width) as the headline
      // epsilon so the report is never vacuously zero.
      tol.epsilon = tol.tcm_slack / tol.tcm_width;
    } else {
      kr.jaccard_slots = JaccardSlots(kind, options.sketch_size);
      tol.epsilon = options.epsilon_slack *
                    MinHashJaccardErrorAt(kr.jaccard_slots,
                                          options.per_query_delta);
    }
    kr.epsilon = tol.epsilon;
    kr.allowed_violations =
        tol.pointwise ? 0
                      : AllowedToleranceViolations(pairs.size(),
                                                  options.per_query_delta,
                                                  options.overall_delta);
    ComparePairs(**predictor, exact, pairs, tol, &kr);
    if (!kr.passed) report.all_passed = false;
    report.kinds.push_back(std::move(kr));
  }
  return report;
}

Result<DifferentialReport> RunTurnstileOracle(
    const TurnstileOracleOptions& options) {
  if (options.sketch_size < 4) {
    return Status::InvalidArgument("oracle needs sketch_size >= 4");
  }
  if (options.query_pairs == 0) {
    return Status::InvalidArgument("oracle needs query_pairs >= 1");
  }

  ChurnSpec churn;
  churn.base_workload = options.workload;
  churn.scale = options.scale;
  churn.seed = options.seed;
  churn.delete_fraction = options.delete_fraction;
  TurnstileWorkload workload = MakeChurnWorkload(churn);

  // Exact truth: a sequential replay of the very same event stream. Its
  // delete path (adjacency-set removal) is independent of every sketch
  // kind's, which is what makes this a differential oracle and not a
  // self-comparison.
  ExactPredictor exact;
  for (const EdgeEvent& event : workload.events) {
    if (event.op == EdgeOp::kDelete) {
      exact.DeleteEdge(event.edge);
    } else {
      exact.OnEdge(event.edge);
    }
  }

  // Queries target the *surviving* graph so the overlap fraction is about
  // edges that are actually live after the churn.
  CsrGraph csr =
      CsrGraph::FromEdges(workload.net_edges, workload.num_vertices);
  Rng pair_rng(Mix64(options.seed ^ 0x9a125));
  std::vector<QueryPair> pairs = SampleMixedPairs(
      csr, options.query_pairs, options.overlap_fraction, pair_rng);

  std::vector<std::string> kinds = options.kinds;
  if (kinds.empty()) {
    for (const PredictorKind& row : PredictorKindTable()) {
      if (row.deletable) kinds.emplace_back(row.name);
    }
  }

  DifferentialReport report;
  report.stream_edges = workload.events.size();
  report.num_vertices = workload.num_vertices;
  report.all_passed = true;

  for (const std::string& kind : kinds) {
    const PredictorKind* row = FindPredictorKind(kind);
    if (row == nullptr || !row->deletable) {
      return Status::InvalidArgument("turnstile oracle: kind '" + kind +
                                     "' does not support deletions");
    }
    PredictorConfig config;
    config.kind = kind;
    config.sketch_size = options.sketch_size;
    config.tcm_depth = options.tcm_depth;
    config.seed = options.seed;
    if (options.threads > 1) config.threads = options.threads;

    VectorOpStream stream(workload.events);
    auto predictor = IngestEngineBuilder(config).Ingest(stream);
    if (!predictor.ok()) return predictor.status();

    DifferentialKindReport kr;
    kr.kind = kind;
    kr.queries = pairs.size();
    KindTolerance tol;
    if (kind == "exact") {
      tol.pointwise = true;
    } else {
      tol.degree_scaled = true;
      tol.tcm_slack = TcmSlack(options.tcm_depth, options.per_query_delta);
      tol.tcm_width = options.sketch_size;
      kr.jaccard_slots = options.sketch_size;
      // Same headline convention as the insert-only oracle: report the
      // degree-scaled tolerance's leading coefficient as epsilon.
      tol.epsilon = tol.tcm_slack / tol.tcm_width;
    }
    kr.epsilon = tol.epsilon;
    kr.allowed_violations =
        tol.pointwise ? 0
                      : AllowedToleranceViolations(pairs.size(),
                                                  options.per_query_delta,
                                                  options.overall_delta);
    ComparePairs(**predictor, exact, pairs, tol, &kr);
    if (!kr.passed) report.all_passed = false;
    report.kinds.push_back(std::move(kr));
  }
  return report;
}

std::string FormatReport(const DifferentialReport& report) {
  std::ostringstream out;
  out << "differential oracle: " << report.stream_edges << " edges, "
      << report.num_vertices << " vertices\n";
  for (const DifferentialKindReport& kr : report.kinds) {
    out << "  " << (kr.passed ? "PASS" : "FAIL") << " " << kr.kind << " eps="
        << kr.epsilon << " violations=" << kr.jaccard_violations << "/"
        << kr.common_neighbor_violations << " (allowed "
        << kr.allowed_violations << " of " << kr.queries
        << ") max|dJ|=" << kr.max_jaccard_error
        << " mean|dJ|=" << kr.mean_jaccard_error;
    if (!kr.detail.empty()) out << " — " << kr.detail;
    out << "\n";
  }
  return out.str();
}

}  // namespace streamlink
