#include "verify/fuzz_targets.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string_view>

#include "core/predictor_factory.h"
#include "graph/edge_list_io.h"
#include "net/frame.h"
#include "serve/query_codec.h"
#include "util/random.h"
#include "util/serde.h"

namespace streamlink {

namespace {

/// A per-call scratch path: fuzz targets may run from multiple processes
/// against the same temp dir, so the name carries the pid and a counter.
std::string ScratchPath(const char* tag) {
  static std::atomic<uint64_t> counter{0};
  return (std::filesystem::temp_directory_path() /
          ("slfuzz_" + std::string(tag) + "_" + std::to_string(getpid()) +
           "_" + std::to_string(counter.fetch_add(1))))
      .string();
}

void WriteBytes(const std::string& path, const uint8_t* data, size_t size) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(size));
}

}  // namespace

int FuzzSnapshotLoader(const uint8_t* data, size_t size) {
  // Inputs larger than any sane snapshot only slow the fuzzer down.
  if (size > (1u << 20)) return 0;
  std::string path = ScratchPath("snap");
  WriteBytes(path, data, size);

  // Production path: one verified read of the file, then the parse.
  auto checked = LoadPredictorSnapshot(path);

  // Raw path: the input bytes with no checksum, the way a nested shard
  // envelope reaches the kind decoders. Every decoder must reject
  // corruption on its own (length cross-checks, size caps, counts checked
  // against the bytes left) — never crash or overflow.
  BinaryReader reader(
      std::string_view(reinterpret_cast<const char*>(data), size));
  auto raw = LoadPredictorFrom(reader);

  // Parse/serialize closure: anything accepted must re-save cleanly.
  for (auto* loaded : {&checked, &raw}) {
    if (!loaded->ok()) continue;
    std::string resaved = ScratchPath("resave");
    Status st = (**loaded)->Save(resaved);
    std::remove(resaved.c_str());
    if (!st.ok()) {
      std::fprintf(stderr, "accepted snapshot failed to re-save: %s\n",
                   st.ToString().c_str());
      abort();  // a real finding — surface it to the fuzzer/test
    }
  }
  std::remove(path.c_str());
  return 0;
}

int FuzzEdgeListParser(const uint8_t* data, size_t size) {
  if (size > (1u << 20)) return 0;
  std::string text(reinterpret_cast<const char*>(data), size);
  EdgeListReadOptions options;
  options.max_edges = 10000;

  for (bool remap : {true, false}) {
    options.remap_ids = remap;
    auto parsed = ParseEdgeList(text, options);
    if (parsed.ok()) {
      if (parsed->edges.size() > options.max_edges) {
        std::fprintf(stderr, "parser exceeded max_edges\n");
        abort();
      }
      if (remap) {
        for (const Edge& e : parsed->edges) {
          if (e.u >= parsed->num_vertices || e.v >= parsed->num_vertices) {
            std::fprintf(stderr, "remapped endpoint out of range\n");
            abort();
          }
        }
      }
    }
    auto weighted = ParseWeightedEdgeList(text, options);
    if (weighted.ok() && weighted->edges.size() > options.max_edges) {
      std::fprintf(stderr, "weighted parser exceeded max_edges\n");
      abort();
    }
  }
  return 0;
}

int FuzzNetFrame(const uint8_t* data, size_t size) {
  if (size > (1u << 20)) return 0;
  net::FrameDecoderOptions options;
  options.max_payload_bytes = 1u << 16;

  // Decode the buffer whole and split in half; a streaming decoder must
  // produce the identical frame sequence regardless of chunking.
  std::vector<net::Frame> whole, split;
  net::FrameDecoder a(options);
  const Status sa = a.Feed(data, size, &whole);
  net::FrameDecoder b(options);
  const size_t half = size / 2;
  Status sb = b.Feed(data, half, &split);
  if (sb.ok()) sb = b.Feed(data + half, size - half, &split);
  if (sa.ok() != sb.ok() || whole.size() != split.size()) {
    std::fprintf(stderr, "frame decode depends on chunking\n");
    abort();
  }
  for (size_t i = 0; i < whole.size(); ++i) {
    if (whole[i].type != split[i].type ||
        whole[i].request_id != split[i].request_id ||
        whole[i].payload != split[i].payload) {
      std::fprintf(stderr, "frame %zu differs between chunkings\n", i);
      abort();
    }
  }

  for (const net::Frame& frame : whole) {
    // Accepted frames must re-encode/re-decode exactly (closure).
    const std::string wire = net::EncodeFrame(frame);
    net::FrameDecoder c(options);
    std::vector<net::Frame> again;
    if (!c.Feed(wire.data(), wire.size(), &again).ok() ||
        again.size() != 1 || again[0].payload != frame.payload) {
      std::fprintf(stderr, "re-encoded frame failed to round-trip\n");
      abort();
    }
    // Frame payloads reach the codec exactly this untrusted; none of the
    // decoders may crash on them.
    (void)DecodeQueryRequest(frame.payload);
    (void)DecodeQueryResult(frame.payload);
    (void)DecodeNack(frame.payload);
  }

  // The raw input also hits the codec surface directly (a server-side
  // worker sees arbitrary bytes only through these).
  const std::string_view view(reinterpret_cast<const char*>(data), size);
  (void)DecodeQueryRequest(view);
  (void)DecodeQueryResult(view);
  (void)DecodeNack(view);
  return 0;
}

std::vector<FuzzTarget> AllFuzzTargets() {
  return {
      {"snapshot_loader", FuzzSnapshotLoader},
      {"edge_parser", FuzzEdgeListParser},
      {"net_frame", FuzzNetFrame},
  };
}

Result<uint64_t> ReplayCorpusDir(const std::string& dir,
                                 const FuzzTarget& target) {
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) {
    return Status::NotFound("no corpus directory at " + dir);
  }
  // Sort for a deterministic replay order regardless of filesystem.
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  uint64_t replayed = 0;
  for (const auto& file : files) {
    std::ifstream in(file, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    target.run(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
    ++replayed;
  }
  return replayed;
}

void MutateAndReplay(const std::string& seed_input, uint32_t iterations,
                     uint64_t seed, const FuzzTarget& target) {
  Rng rng(seed);
  for (uint32_t i = 0; i < iterations; ++i) {
    std::string input = seed_input;
    // 1–4 stacked mutations per iteration, like a fuzzer's mutation chain.
    uint32_t stack = 1 + static_cast<uint32_t>(rng.NextBounded(4));
    for (uint32_t m = 0; m < stack && !input.empty(); ++m) {
      switch (rng.NextBounded(6)) {
        case 0: {  // byte flip
          size_t at = rng.NextBounded(input.size());
          input[at] = static_cast<char>(input[at] ^ 0xff);
          break;
        }
        case 1: {  // single bit flip
          size_t at = rng.NextBounded(input.size());
          input[at] = static_cast<char>(input[at] ^ (1u << rng.NextBounded(8)));
          break;
        }
        case 2:  // truncate to a prefix
          input.resize(rng.NextBounded(input.size() + 1));
          break;
        case 3: {  // delete an interior run
          size_t at = rng.NextBounded(input.size());
          size_t len = 1 + rng.NextBounded(16);
          input.erase(at, len);
          break;
        }
        case 4: {  // duplicate an interior run (grows the input)
          size_t at = rng.NextBounded(input.size());
          size_t len =
              std::min<size_t>(1 + rng.NextBounded(16), input.size() - at);
          input.insert(at, input.substr(at, len));
          break;
        }
        case 5: {  // splat random bytes over a run
          size_t at = rng.NextBounded(input.size());
          size_t len =
              std::min<size_t>(1 + rng.NextBounded(8), input.size() - at);
          for (size_t b = 0; b < len; ++b) {
            input[at + b] = static_cast<char>(rng.NextBounded(256));
          }
          break;
        }
      }
    }
    target.run(reinterpret_cast<const uint8_t*>(input.data()), input.size());
  }
}

}  // namespace streamlink
