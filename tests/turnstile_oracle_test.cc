#include "verify/differential.h"

#include <gtest/gtest.h>

#include "util/logging.h"

namespace streamlink {
namespace {

TurnstileOracleOptions CiOptions() {
  TurnstileOracleOptions options;
  options.workload = "ba";
  options.scale = 0.05;
  options.seed = 1;
  options.delete_fraction = 0.35;
  options.sketch_size = 128;
  options.query_pairs = 256;
  return options;
}

// The ISSUE acceptance gate: every deletable kind passes the turnstile
// oracle on a delete-heavy seeded workload.
TEST(TurnstileOracle, AllDeletableKindsPassSequential) {
  auto report = RunTurnstileOracle(CiOptions());
  ASSERT_TRUE(report.ok()) << report.status().message();
  SL_LOG(kInfo) << FormatReport(*report);
  EXPECT_GE(report->kinds.size(), 2u);  // at least exact + tcm
  for (const auto& kind : report->kinds) {
    EXPECT_TRUE(kind.passed) << kind.kind << ": " << kind.detail;
    EXPECT_EQ(kind.malformed_estimates, 0u) << kind.kind;
    EXPECT_EQ(kind.queries, 256u) << kind.kind;
  }
  EXPECT_TRUE(report->all_passed);
  EXPECT_GT(report->stream_edges, 0u);
}

// Exact-vs-exact is a self-test of the delete plumbing: pointwise zero
// error, no statistical allowance needed.
TEST(TurnstileOracle, ExactSelfTestIsPointwise) {
  TurnstileOracleOptions options = CiOptions();
  options.kinds = {"exact"};
  auto report = RunTurnstileOracle(options);
  ASSERT_TRUE(report.ok()) << report.status().message();
  ASSERT_EQ(report->kinds.size(), 1u);
  EXPECT_TRUE(report->kinds[0].passed) << report->kinds[0].detail;
  EXPECT_EQ(report->kinds[0].max_jaccard_error, 0.0);
  EXPECT_EQ(report->kinds[0].jaccard_violations, 0u);
}

// Ordered parallel builds are bit-identical to sequential ones, so the
// same tolerances must hold at threads=2 (the container has 2 cores).
TEST(TurnstileOracle, TcmPassesWithOrderedThreads) {
  TurnstileOracleOptions options = CiOptions();
  options.kinds = {"tcm"};
  options.threads = 2;
  auto report = RunTurnstileOracle(options);
  ASSERT_TRUE(report.ok()) << report.status().message();
  ASSERT_EQ(report->kinds.size(), 1u);
  EXPECT_TRUE(report->kinds[0].passed) << report->kinds[0].detail;
}

TEST(TurnstileOracle, RejectsNonDeletableKind) {
  TurnstileOracleOptions options = CiOptions();
  options.kinds = {"minhash"};
  auto report = RunTurnstileOracle(options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(TurnstileOracle, DeterministicAcrossRuns) {
  TurnstileOracleOptions options = CiOptions();
  options.kinds = {"tcm"};
  auto a = RunTurnstileOracle(options);
  auto b = RunTurnstileOracle(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->kinds[0].max_jaccard_error, b->kinds[0].max_jaccard_error);
  EXPECT_EQ(a->kinds[0].mean_jaccard_error, b->kinds[0].mean_jaccard_error);
  EXPECT_EQ(a->kinds[0].jaccard_violations, b->kinds[0].jaccard_violations);
}

}  // namespace
}  // namespace streamlink
