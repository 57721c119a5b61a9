// Metamorphic invariants: the relations between *different executions*
// of the same predictor — shard-count invariance, batch-size invariance,
// clone isolation, merge associativity, snapshot round-trips, and
// kill-at-every-checkpoint resume — run as a full (invariant × kind)
// cross product via the reusable library in src/verify/invariants.h.

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>

#include "gen/workloads.h"
#include "verify/invariants.h"

namespace streamlink {
namespace {

InvariantContext MakeContext(const PredictorConfig& config) {
  InvariantContext context;
  context.config = config;
  GeneratedGraph g = MakeWorkload(WorkloadSpec{"ba", 0.03, 131});
  context.edges = std::move(g.edges);
  context.num_vertices = g.num_vertices;
  context.seed = 29;
  context.sample_pairs = 48;
  context.temp_dir = ::testing::TempDir();
  return context;
}

std::string LabelFor(const PredictorConfig& config) {
  std::string label = config.kind;
  if (config.sketch_degrees) label += "_kmv";
  std::replace(label.begin(), label.end(), '-', '_');
  return label;
}

}  // namespace

// gtest prints a test parameter through PrintTo, found by argument-dependent
// lookup in the parameter's namespace, and the printed value becomes part
// of the registered ctest id. The label keeps that id stable; the default
// printer would dump the struct's raw bytes, heap pointers included.
void PrintTo(const PredictorConfig& config, std::ostream* os) {
  *os << LabelFor(config);
}

namespace {

class MetamorphicKindTest : public ::testing::TestWithParam<PredictorConfig> {
};

TEST_P(MetamorphicKindTest, AllInvariantsHold) {
  InvariantContext context = MakeContext(GetParam());
  Status overall = RunAllInvariants(
      context, [](const std::string& name, const Status& status) {
        EXPECT_TRUE(status.ok()) << name << ": " << status.ToString();
      });
  EXPECT_TRUE(overall.ok()) << overall.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, MetamorphicKindTest,
    ::testing::ValuesIn(VerificationKindConfigs()),
    [](const ::testing::TestParamInfo<PredictorConfig>& info) {
      return LabelFor(info.param);
    });

TEST(MetamorphicRegistry, CoversEveryFactoryKind) {
  // A kind added to predictor_factory without a verification config would
  // silently escape the whole suite — fail loudly instead.
  std::vector<PredictorConfig> configs = VerificationKindConfigs();
  for (const std::string& kind : PredictorKinds()) {
    bool covered = std::any_of(
        configs.begin(), configs.end(),
        [&kind](const PredictorConfig& c) { return c.kind == kind; });
    EXPECT_TRUE(covered) << "kind '" << kind
                         << "' missing from VerificationKindConfigs()";
  }
}

TEST(MetamorphicRegistry, InvariantNamesAreStableAndUnique) {
  std::vector<Invariant> invariants = AllInvariants();
  ASSERT_GE(invariants.size(), 6u);
  for (size_t i = 0; i < invariants.size(); ++i) {
    EXPECT_FALSE(invariants[i].name.empty());
    for (size_t j = i + 1; j < invariants.size(); ++j) {
      EXPECT_NE(invariants[i].name, invariants[j].name);
    }
  }
}

TEST(MetamorphicRegistry, FailuresPropagate) {
  // A context too small for the merge partitioning must surface as a
  // non-ok aggregate, proving RunAllInvariants cannot swallow failures.
  InvariantContext context;
  context.config.kind = "minhash";
  context.config.sketch_size = 8;
  context.edges = {{0, 1}, {1, 2}};
  context.num_vertices = 3;
  context.temp_dir = ::testing::TempDir();
  Status overall = RunAllInvariants(context);
  EXPECT_FALSE(overall.ok());
  EXPECT_NE(overall.message().find("merge-associativity"), std::string::npos);
}

TEST(Metamorphic, InvariantsComposeOnAlternateStreamShapes) {
  // The invariants are workload-agnostic; spot-check a clustered and a
  // community-structured stream on the cheapest kind to keep CI fast.
  for (const char* workload : {"ws", "sbm"}) {
    PredictorConfig config;
    config.kind = "minhash";
    config.sketch_size = 8;
    config.seed = 11;
    InvariantContext context;
    context.config = config;
    GeneratedGraph g = MakeWorkload(WorkloadSpec{workload, 0.02, 17});
    context.edges = std::move(g.edges);
    context.num_vertices = g.num_vertices;
    context.temp_dir = ::testing::TempDir();
    context.sample_pairs = 32;
    Status overall = RunAllInvariants(context);
    EXPECT_TRUE(overall.ok()) << workload << ": " << overall.ToString();
  }
}

}  // namespace
}  // namespace streamlink
