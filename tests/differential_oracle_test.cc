// Differential oracle: every sketch predictor kind, fed the same seeded
// stream as the exact predictor, must keep its per-query Jaccard and
// common-neighbor errors inside the Chernoff-style tolerance from
// core/error_bounds — with at most the statistically-allowed number of
// per-query violations. This is the paper's central claim, asserted
// automatically across kinds, stream orders, and thread counts.

#include <gtest/gtest.h>

#include "core/error_bounds.h"
#include "core/predictor_factory.h"
#include "verify/differential.h"

namespace streamlink {
namespace {

/// Every kind the factory registers must appear in the report exactly
/// once and pass; on failure the full per-kind table goes to the log.
void ExpectAllKindsPass(const DifferentialOracleOptions& options) {
  auto report = RunDifferentialOracle(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->kinds.size(),
            options.kinds.empty() ? PredictorKinds().size()
                                  : options.kinds.size());
  EXPECT_TRUE(report->all_passed) << FormatReport(*report);
  for (const DifferentialKindReport& kr : report->kinds) {
    EXPECT_TRUE(kr.passed) << kr.detail;
    EXPECT_EQ(kr.malformed_estimates, 0u) << kr.kind;
    EXPECT_EQ(kr.queries, options.query_pairs);
  }
}

TEST(DifferentialOracle, AllKindsWithinBoundsOnDefaultStream) {
  ExpectAllKindsPass(DifferentialOracleOptions{});
}

TEST(DifferentialOracle, ExactKindIsPointwiseExact) {
  DifferentialOracleOptions options;
  options.kinds = {"exact"};
  auto report = RunDifferentialOracle(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->kinds.size(), 1u);
  const DifferentialKindReport& kr = report->kinds[0];
  // The oracle self-test: epsilon 0, zero allowance, zero violations.
  EXPECT_EQ(kr.epsilon, 0.0);
  EXPECT_EQ(kr.allowed_violations, 0u);
  EXPECT_EQ(kr.jaccard_violations, 0u);
  EXPECT_EQ(kr.common_neighbor_violations, 0u);
  EXPECT_EQ(kr.max_jaccard_error, 0.0);
  EXPECT_TRUE(kr.passed);
}

TEST(DifferentialOracle, HoldsAcrossStreamOrders) {
  // Arrival order must not move any estimator outside its bound —
  // the robustness half of the paper's claim.
  for (StreamOrder order : {StreamOrder::kRandom, StreamOrder::kSortedBySource,
                            StreamOrder::kReversed}) {
    DifferentialOracleOptions options;
    options.order = order;
    options.scale = 0.03;
    options.query_pairs = 192;
    ExpectAllKindsPass(options);
  }
}

TEST(DifferentialOracle, HoldsAcrossWorkloadFamilies) {
  for (const char* workload : {"er", "ws", "sbm"}) {
    DifferentialOracleOptions options;
    options.workload = workload;
    options.scale = 0.03;
    options.query_pairs = 192;
    ExpectAllKindsPass(options);
  }
}

TEST(DifferentialOracle, ShardedBuildsObeyTheSameTolerance) {
  // threads > 1 builds are bit-identical to sequential (PR 1), so the
  // statistical tolerance carries over unchanged.
  DifferentialOracleOptions options;
  options.threads = 3;
  options.scale = 0.03;
  options.query_pairs = 192;
  ExpectAllKindsPass(options);
}

TEST(DifferentialOracle, ToleranceIsNotVacuous) {
  // Guard against a silently-degenerate oracle: at k=128 slots the
  // per-query tolerance must stay well below the trivial bound of 1.0
  // and the violation allowance well below the query count.
  DifferentialOracleOptions options;
  auto report = RunDifferentialOracle(options);
  ASSERT_TRUE(report.ok());
  for (const DifferentialKindReport& kr : report->kinds) {
    if (kr.kind == "exact") continue;
    EXPECT_GT(kr.epsilon, 0.0) << kr.kind;
    EXPECT_LT(kr.epsilon, 0.25) << kr.kind;
    EXPECT_LT(kr.allowed_violations, kr.queries / 4) << kr.kind;
  }
}

TEST(DifferentialOracle, RejectsDegenerateConfigs) {
  DifferentialOracleOptions tiny;
  tiny.sketch_size = 2;
  EXPECT_EQ(RunDifferentialOracle(tiny).status().code(),
            StatusCode::kInvalidArgument);

  DifferentialOracleOptions no_queries;
  no_queries.query_pairs = 0;
  EXPECT_EQ(RunDifferentialOracle(no_queries).status().code(),
            StatusCode::kInvalidArgument);

  DifferentialOracleOptions bad_kind;
  bad_kind.kinds = {"alien"};
  EXPECT_EQ(RunDifferentialOracle(bad_kind).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DifferentialOracle, IsDeterministic) {
  DifferentialOracleOptions options;
  options.scale = 0.03;
  options.query_pairs = 128;
  auto first = RunDifferentialOracle(options);
  auto second = RunDifferentialOracle(options);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->kinds.size(), second->kinds.size());
  for (size_t i = 0; i < first->kinds.size(); ++i) {
    EXPECT_EQ(first->kinds[i].jaccard_violations,
              second->kinds[i].jaccard_violations);
    EXPECT_EQ(first->kinds[i].max_jaccard_error,
              second->kinds[i].max_jaccard_error);
    EXPECT_EQ(first->kinds[i].mean_jaccard_error,
              second->kinds[i].mean_jaccard_error);
  }
}

}  // namespace
}  // namespace streamlink
