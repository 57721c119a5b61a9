#ifndef STREAMLINK_VERIFY_INVARIANTS_H_
#define STREAMLINK_VERIFY_INVARIANTS_H_

#include <functional>
#include <string>
#include <vector>

#include "core/predictor_factory.h"
#include "graph/types.h"
#include "util/status.h"

namespace streamlink {

/// Metamorphic-invariant library: reusable, composable checks of the
/// relations that must hold between *different executions* of the same
/// predictor — the properties PRs 1–3 promised (shard-count invariance,
/// batch-size invariance, clone isolation, merge associativity, snapshot
/// round-trips, kill-and-resume equivalence), packaged so any test,
/// fuzzer, or CI lane can run every invariant against every kind without
/// re-deriving the scaffolding.
///
/// Each invariant is a pure function of an InvariantContext; it returns
/// OkStatus on a pass AND when it does not apply to the context's kind
/// (e.g. sharding invariance on an unshardable kind), so drivers can run
/// the full cross product blindly. Failures carry a reproducible
/// description (kind, knob values, first divergent field).

/// Inputs shared by every invariant: a predictor configuration (threads
/// is ignored — invariants pick their own), the stream to ingest, and
/// deterministic seeds/scratch space.
struct InvariantContext {
  PredictorConfig config;
  EdgeList edges;
  VertexId num_vertices = 0;
  /// Drives query-pair sampling inside checks; fixed => reproducible.
  uint64_t seed = 7;
  /// Pairs compared per equivalence check.
  uint32_t sample_pairs = 64;
  /// Writable scratch directory for snapshot-based invariants.
  std::string temp_dir = "/tmp";
};

/// One named invariant.
struct Invariant {
  std::string name;
  std::function<Status(const InvariantContext&)> check;
};

/// Every registered invariant, in a stable order.
std::vector<Invariant> AllInvariants();

/// The predictor configurations the verification suite exercises: every
/// LinkPredictor kind from predictor_factory, including both bottomk
/// degree modes and a windowed configuration small enough to rotate
/// buckets. sketch sizes are CI-sized.
std::vector<PredictorConfig> VerificationKindConfigs();

/// Runs every invariant against the context, collecting failures into one
/// Status (ok iff all pass). `on_result`, when set, observes each
/// (invariant name, status) — the hook tests use to report per-invariant.
Status RunAllInvariants(
    const InvariantContext& context,
    const std::function<void(const std::string&, const Status&)>& on_result =
        nullptr);

// --- Individual invariants (composable; also reachable via AllInvariants)

/// threads=1 and threads=N builds answer every query bit-identically
/// (PR 1's guarantee), for N in {2, 3}, through both the synchronous
/// routing path and ParallelIngestEngine's worker threads. Skips
/// unshardable kinds.
Status CheckShardCountInvariance(const InvariantContext& context);

/// The ordered parallel engine's free parameters — thread count × batch
/// size × ring capacity — never change a single output bit relative to a
/// sequential build, and a 3-thread build's snapshot is byte-identical to
/// the sequential one. Skips unshardable kinds.
Status CheckOrderedIngestInvariance(const InvariantContext& context);

/// Delivering the stream via OnEdge one at a time and via OnEdgeBatch at
/// several batch sizes produces byte-identical snapshots.
Status CheckBatchSizeInvariance(const InvariantContext& context);

/// Clone() equals the source at clone time and never observes later
/// ingestion (the serving layer's snapshot-isolation contract).
Status CheckCloneIsolation(const InvariantContext& context);

/// For kinds with a disjoint-partition MergeFrom (minhash, bottomk, tcm):
/// folding three stream partitions in either association order equals the
/// single-pass build, byte for byte. Skips other kinds.
Status CheckMergeAssociativity(const InvariantContext& context);

/// Turnstile triple (deletable kinds only; others pass trivially):
/// (1) insert ∘ delete annihilation — a churn event stream derived from
/// the context's edges answers exactly like an insert-only build of its
/// surviving edge set; (2) the parallel engine replays the same events
/// bit-identically across thread/batch/ring configurations.
Status CheckTurnstileAnnihilation(const InvariantContext& context);

/// Save -> Load -> Save is byte-identical and the loaded predictor keeps
/// answering identically (the persistence contract, as an invariant).
Status CheckSnapshotRoundTrip(const InvariantContext& context);

/// Kill-at-every-checkpoint resume: for several checkpoint positions,
/// snapshot an engine build of the prefix (at 1 worker, and at 3 for a
/// shardable kind), reload it, resume the engine from it over the suffix
/// (ParallelIngestEngine::Resume), and require the final snapshot to be
/// byte-identical to an uninterrupted build.
Status CheckResumeEquivalence(const InvariantContext& context);

}  // namespace streamlink

#endif  // STREAMLINK_VERIFY_INVARIANTS_H_
