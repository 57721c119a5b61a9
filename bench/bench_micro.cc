// Micro-benchmarks (google-benchmark): the primitive operations whose
// costs the experiment binaries aggregate — hashing, sketch updates and
// estimates, predictor edge ingestion and queries, snapshot and wire
// serialization, generators.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>

#include "core/bottomk_predictor.h"
#include "core/exact_predictor.h"
#include "core/minhash_predictor.h"
#include "core/predictor_factory.h"
#include "core/vertex_biased_predictor.h"
#include "gen/barabasi_albert.h"
#include "gen/erdos_renyi.h"
#include "gen/rmat.h"
#include "serve/query_codec.h"
#include "sketch/bbit_minhash.h"
#include "sketch/bottomk.h"
#include "sketch/icws.h"
#include "sketch/minhash.h"
#include "sketch/oph.h"
#include "sketch/space_saving.h"
#include "sketch/weighted_sampler.h"
#include "util/hashing.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/serde.h"

namespace streamlink {
namespace {

void BM_Mix64(benchmark::State& state) {
  uint64_t x = 0x1234;
  for (auto _ : state) {
    x = Mix64(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Mix64);

void BM_HashU64(benchmark::State& state) {
  uint64_t x = 0x1234;
  for (auto _ : state) {
    x = HashU64(x, 99);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_HashU64);

void BM_TabulationHash(benchmark::State& state) {
  TabulationHash h(7);
  uint64_t x = 0x1234;
  for (auto _ : state) {
    x = h(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_TabulationHash);

void BM_MinHashUpdate(benchmark::State& state) {
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  HashFamily family(1, k);
  MinHashSketch sketch(k);
  uint64_t item = 0;
  for (auto _ : state) {
    sketch.Update(item++, family);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MinHashUpdate)->Arg(16)->Arg(64)->Arg(256);

void BM_MinHashEstimate(benchmark::State& state) {
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  HashFamily family(1, k);
  MinHashSketch a(k), b(k);
  for (uint64_t i = 0; i < 100; ++i) {
    a.Update(i, family);
    b.Update(i + 50, family);
  }
  for (auto _ : state) {
    double j = MinHashSketch::EstimateJaccard(a, b);
    benchmark::DoNotOptimize(j);
  }
}
BENCHMARK(BM_MinHashEstimate)->Arg(16)->Arg(64)->Arg(256);

void BM_BottomKUpdate(benchmark::State& state) {
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  BottomKSketch sketch(k);
  uint64_t item = 0;
  for (auto _ : state) {
    sketch.Update(HashU64(item, 5), item);
    ++item;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BottomKUpdate)->Arg(16)->Arg(64)->Arg(256);

void BM_BottomKPairEstimate(benchmark::State& state) {
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  BottomKSketch a(k), b(k);
  for (uint64_t i = 0; i < 1000; ++i) {
    a.Update(HashU64(i, 5), i);
    b.Update(HashU64(i + 500, 5), i + 500);
  }
  for (auto _ : state) {
    auto est = BottomKSketch::EstimatePair(a, b);
    benchmark::DoNotOptimize(est);
  }
}
BENCHMARK(BM_BottomKPairEstimate)->Arg(64)->Arg(256);

void BM_OphUpdate(benchmark::State& state) {
  OphSketch sketch(static_cast<uint32_t>(state.range(0)), 7);
  uint64_t item = 0;
  for (auto _ : state) {
    sketch.Update(item++);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OphUpdate)->Arg(64)->Arg(256);

void BM_BBitUpdate(benchmark::State& state) {
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  HashFamily family(3, k);
  BBitMinHash sketch(k, 2);
  uint64_t item = 0;
  for (auto _ : state) {
    sketch.Update(item++, family);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BBitUpdate)->Arg(64)->Arg(256);

void BM_WeightedSamplerOffer(benchmark::State& state) {
  WeightedBottomKSampler sampler(static_cast<uint32_t>(state.range(0)));
  uint64_t item = 0;
  for (auto _ : state) {
    sampler.Offer(item, HashToExp(HashU64(item, 9)), 1.0);
    ++item;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WeightedSamplerOffer)->Arg(32)->Arg(128);

void BM_SpaceSavingOffer(benchmark::State& state) {
  SpaceSaving sketch(static_cast<uint32_t>(state.range(0)));
  Rng rng(4);
  for (auto _ : state) {
    sketch.Offer(rng.NextBounded(100000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpaceSavingOffer)->Arg(64)->Arg(1024);

void BM_IcwsUpdate(benchmark::State& state) {
  IcwsSketch sketch(static_cast<uint32_t>(state.range(0)), 8);
  uint64_t item = 0;
  for (auto _ : state) {
    sketch.Update(item, 1.0 + (item % 7));
    ++item;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IcwsUpdate)->Arg(16)->Arg(64);

/// One full predictor edge-ingest on a pre-generated BA stream.
template <typename PredictorT>
void IngestBenchmark(benchmark::State& state, uint32_t k) {
  Rng rng(1);
  BarabasiAlbertParams params;
  params.num_vertices = 20000;
  params.edges_per_vertex = 8;
  GeneratedGraph g = GenerateBarabasiAlbert(params, rng);
  for (auto _ : state) {
    state.PauseTiming();
    PredictorT predictor = [&] {
      if constexpr (std::is_same_v<PredictorT, MinHashPredictor>) {
        return MinHashPredictor(MinHashPredictorOptions{k, 1});
      } else if constexpr (std::is_same_v<PredictorT, BottomKPredictor>) {
        BottomKPredictorOptions options;
        options.k = k;
        return BottomKPredictor(options);
      } else {
        VertexBiasedPredictorOptions options;
        options.num_hashes = k / 2;
        options.num_weighted_samples = k - k / 2;
        return VertexBiasedPredictor(options);
      }
    }();
    state.ResumeTiming();
    for (const Edge& e : g.edges) predictor.OnEdge(e);
    benchmark::DoNotOptimize(predictor.edges_processed());
  }
  state.SetItemsProcessed(state.iterations() * g.edges.size());
}

void BM_MinHashPredictorIngest(benchmark::State& state) {
  IngestBenchmark<MinHashPredictor>(state,
                                    static_cast<uint32_t>(state.range(0)));
}
BENCHMARK(BM_MinHashPredictorIngest)->Arg(16)->Arg(64)->Unit(
    benchmark::kMillisecond);

void BM_BottomKPredictorIngest(benchmark::State& state) {
  IngestBenchmark<BottomKPredictor>(state,
                                    static_cast<uint32_t>(state.range(0)));
}
BENCHMARK(BM_BottomKPredictorIngest)->Arg(16)->Arg(64)->Unit(
    benchmark::kMillisecond);

void BM_VertexBiasedPredictorIngest(benchmark::State& state) {
  IngestBenchmark<VertexBiasedPredictor>(
      state, static_cast<uint32_t>(state.range(0)));
}
BENCHMARK(BM_VertexBiasedPredictorIngest)->Arg(64)->Unit(
    benchmark::kMillisecond);

void BM_ExactPredictorIngest(benchmark::State& state) {
  Rng rng(1);
  BarabasiAlbertParams params;
  params.num_vertices = 20000;
  params.edges_per_vertex = 8;
  GeneratedGraph g = GenerateBarabasiAlbert(params, rng);
  for (auto _ : state) {
    state.PauseTiming();
    ExactPredictor predictor;
    state.ResumeTiming();
    for (const Edge& e : g.edges) predictor.OnEdge(e);
    benchmark::DoNotOptimize(predictor.edges_processed());
  }
  state.SetItemsProcessed(state.iterations() * g.edges.size());
}
BENCHMARK(BM_ExactPredictorIngest)->Unit(benchmark::kMillisecond);

void BM_MinHashPredictorQuery(benchmark::State& state) {
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  Rng rng(1);
  BarabasiAlbertParams params;
  params.num_vertices = 20000;
  params.edges_per_vertex = 8;
  GeneratedGraph g = GenerateBarabasiAlbert(params, rng);
  MinHashPredictor predictor(MinHashPredictorOptions{k, 1});
  for (const Edge& e : g.edges) predictor.OnEdge(e);
  VertexId u = 0;
  for (auto _ : state) {
    auto est = predictor.EstimateOverlap(u % 20000, (u * 7 + 1) % 20000);
    benchmark::DoNotOptimize(est);
    ++u;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MinHashPredictorQuery)->Arg(16)->Arg(64)->Arg(256);

/// A k=64 minhash predictor over a 16k-vertex BA stream, saved once: a
/// snapshot of about 16 MB, removed at exit.
struct SnapshotFixture {
  SnapshotFixture() : predictor(MinHashPredictorOptions{64, 1}) {
    Rng rng(1);
    BarabasiAlbertParams params;
    params.num_vertices = 16000;
    params.edges_per_vertex = 8;
    for (const Edge& e : GenerateBarabasiAlbert(params, rng).edges) {
      predictor.OnEdge(e);
    }
    path = (std::filesystem::temp_directory_path() /
            ("bench_micro_" + std::to_string(::getpid()) + ".snap"))
               .string();
    SL_CHECK_OK(predictor.Save(path));
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ~SnapshotFixture() { std::remove(path.c_str()); }

  MinHashPredictor predictor;
  std::string path;
  std::string bytes;
};

const SnapshotFixture& Snapshot() {
  static const SnapshotFixture fixture;
  return fixture;
}

/// LinkPredictor::Save: encode, checksum, write and fsync.
void BM_SnapshotSave(benchmark::State& state) {
  const SnapshotFixture& s = Snapshot();
  for (auto _ : state) SL_CHECK_OK(s.predictor.Save(s.path));
  state.SetBytesProcessed(state.iterations() * s.bytes.size());
}
BENCHMARK(BM_SnapshotSave)->Unit(benchmark::kMillisecond);

/// LoadPredictorSnapshot: map, verify the checksum, decode.
void BM_SnapshotLoad(benchmark::State& state) {
  const SnapshotFixture& s = Snapshot();
  for (auto _ : state) {
    auto loaded = LoadPredictorSnapshot(s.path);
    SL_CHECK(loaded.ok()) << loaded.status().ToString();
    benchmark::DoNotOptimize(loaded);
  }
  state.SetBytesProcessed(state.iterations() * s.bytes.size());
}
BENCHMARK(BM_SnapshotLoad)->Unit(benchmark::kMillisecond);

/// The checksum floor of both: one Checksum pass over the snapshot's
/// bytes.
void BM_Checksum(benchmark::State& state) {
  const SnapshotFixture& s = Snapshot();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ChecksumOf(s.bytes.data(), s.bytes.size()));
  }
  state.SetBytesProcessed(state.iterations() * s.bytes.size());
}
BENCHMARK(BM_Checksum)->Unit(benchmark::kMillisecond);

/// The same bytes through FNV-1a, the footer of envelope-v1 snapshots.
void BM_Fnv1a(benchmark::State& state) {
  const SnapshotFixture& s = Snapshot();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Fnv1aUpdate(kFnv1aOffset, s.bytes.data(), s.bytes.size()));
  }
  state.SetBytesProcessed(state.iterations() * s.bytes.size());
}
BENCHMARK(BM_Fnv1a)->Unit(benchmark::kMillisecond);

/// An N-pair request and its N-pair answer (two measures, two scores per
/// pair) through the wire codec: both encodes and both decodes. At 16
/// pairs the result is about the size of perfbench's common answer.
void BM_QueryCodecRoundTrip(benchmark::State& state) {
  const auto num_pairs = static_cast<uint32_t>(state.range(0));
  QueryRequest request;
  request.measures = {LinkMeasure::kJaccard, LinkMeasure::kAdamicAdar};
  QueryResult result;
  result.meta.snapshot_version = 1;
  for (uint32_t i = 0; i < num_pairs; ++i) {
    request.pairs.push_back(QueryPair{i, i + 7});
    PairResult pr;
    pr.pair = request.pairs.back();
    pr.estimate.jaccard = 0.25 * i;
    pr.scores = {0.25 * i, 1.5 * i};
    result.pairs.push_back(pr);
  }
  for (auto _ : state) {
    auto decoded_request = DecodeQueryRequest(EncodeQueryRequest(request));
    auto decoded_result = DecodeQueryResult(EncodeQueryResult(result));
    benchmark::DoNotOptimize(decoded_request);
    benchmark::DoNotOptimize(decoded_result);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueryCodecRoundTrip)->Arg(4)->Arg(16)->Arg(64);

void BM_GenerateErdosRenyi(benchmark::State& state) {
  for (auto _ : state) {
    Rng rng(7);
    GeneratedGraph g = GenerateErdosRenyi({10000, 80000}, rng);
    benchmark::DoNotOptimize(g.edges.size());
  }
  state.SetItemsProcessed(state.iterations() * 80000);
}
BENCHMARK(BM_GenerateErdosRenyi)->Unit(benchmark::kMillisecond);

void BM_GenerateBarabasiAlbert(benchmark::State& state) {
  for (auto _ : state) {
    Rng rng(7);
    GeneratedGraph g = GenerateBarabasiAlbert({10000, 8}, rng);
    benchmark::DoNotOptimize(g.edges.size());
  }
  state.SetItemsProcessed(state.iterations() * 80000);
}
BENCHMARK(BM_GenerateBarabasiAlbert)->Unit(benchmark::kMillisecond);

void BM_GenerateRmat(benchmark::State& state) {
  for (auto _ : state) {
    Rng rng(7);
    RmatParams params;
    params.scale = 14;
    params.num_edges = 80000;
    GeneratedGraph g = GenerateRmat(params, rng);
    benchmark::DoNotOptimize(g.edges.size());
  }
  state.SetItemsProcessed(state.iterations() * 80000);
}
BENCHMARK(BM_GenerateRmat)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace streamlink

BENCHMARK_MAIN();
