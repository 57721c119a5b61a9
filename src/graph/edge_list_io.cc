#include "graph/edge_list_io.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace streamlink {

namespace {

/// Parses one edge line into (a, b). Returns false on blank/comment lines;
/// malformed content sets `error`.
bool ParseLine(std::string_view line, uint64_t& a, uint64_t& b,
               std::string* error) {
  size_t pos = 0;
  while (pos < line.size() && std::isspace(static_cast<unsigned char>(line[pos])))
    ++pos;
  if (pos == line.size() || line[pos] == '#' || line[pos] == '%') return false;

  auto parse_number = [&](uint64_t& out) -> bool {
    while (pos < line.size() &&
           std::isspace(static_cast<unsigned char>(line[pos])))
      ++pos;
    const char* begin = line.data() + pos;
    const char* end = line.data() + line.size();
    auto [ptr, ec] = std::from_chars(begin, end, out);
    if (ec != std::errc() || ptr == begin) return false;
    pos = ptr - line.data();
    return true;
  };

  if (!parse_number(a) || !parse_number(b)) {
    *error = "malformed edge line: '" + std::string(line) + "'";
    return false;
  }
  return true;
}

Result<EdgeListFile> ParseStream(std::istream& in,
                                 const EdgeListReadOptions& options) {
  EdgeListFile out;
  std::unordered_map<uint64_t, VertexId> remap;
  auto to_vertex = [&](uint64_t raw) -> VertexId {
    if (!options.remap_ids) return static_cast<VertexId>(raw);
    auto [it, inserted] =
        remap.try_emplace(raw, static_cast<VertexId>(remap.size()));
    (void)inserted;
    return it->second;
  };

  std::string line;
  uint64_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    uint64_t a = 0, b = 0;
    std::string error;
    if (!ParseLine(line, a, b, &error)) {
      if (!error.empty()) {
        return Status::InvalidArgument("line " + std::to_string(line_number) +
                                       ": " + error);
      }
      continue;
    }
    if (!options.remap_ids &&
        (a > kInvalidVertex - 1 || b > kInvalidVertex - 1)) {
      return Status::OutOfRange("line " + std::to_string(line_number) +
                                ": vertex id exceeds 32-bit range");
    }
    VertexId u = to_vertex(a);
    VertexId v = to_vertex(b);
    if (options.skip_self_loops && u == v) continue;
    out.edges.emplace_back(u, v);
    out.num_vertices = std::max(out.num_vertices,
                                static_cast<VertexId>(std::max(u, v) + 1));
    if (options.max_edges > 0 && out.edges.size() >= options.max_edges) break;
  }
  return out;
}

}  // namespace

Result<EdgeListFile> ReadEdgeList(const std::string& path,
                                  const EdgeListReadOptions& options) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IoError("cannot open edge list: " + path);
  }
  return ParseStream(in, options);
}

Result<EdgeListFile> ParseEdgeList(const std::string& text,
                                   const EdgeListReadOptions& options) {
  std::istringstream in(text);
  return ParseStream(in, options);
}

namespace {

/// Parses an optional trailing weight from `line` starting at `pos`;
/// defaults to 1.0 when the line ends. Returns false on malformed input.
bool ParseOptionalWeight(std::string_view line, size_t pos, double& weight,
                         std::string* error) {
  while (pos < line.size() &&
         std::isspace(static_cast<unsigned char>(line[pos])))
    ++pos;
  if (pos == line.size()) {
    weight = 1.0;
    return true;
  }
  const char* begin = line.data() + pos;
  char* end = nullptr;
  weight = std::strtod(begin, &end);
  if (end == begin) {
    *error = "malformed weight: '" + std::string(line.substr(pos)) + "'";
    return false;
  }
  return true;
}

Result<WeightedEdgeListFile> ParseWeightedStream(
    std::istream& in, const EdgeListReadOptions& options) {
  WeightedEdgeListFile out;
  std::unordered_map<uint64_t, VertexId> remap;
  auto to_vertex = [&](uint64_t raw) -> VertexId {
    if (!options.remap_ids) return static_cast<VertexId>(raw);
    auto [it, inserted] =
        remap.try_emplace(raw, static_cast<VertexId>(remap.size()));
    (void)inserted;
    return it->second;
  };

  std::string line;
  uint64_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    // Reuse the integer parsing of the unweighted loader by scanning the
    // two endpoints manually here (ParseLine is file-local above).
    size_t pos = 0;
    auto skip_ws = [&] {
      while (pos < line.size() &&
             std::isspace(static_cast<unsigned char>(line[pos])))
        ++pos;
    };
    skip_ws();
    if (pos == line.size() || line[pos] == '#' || line[pos] == '%') continue;

    uint64_t raw_u = 0, raw_v = 0;
    auto parse_number = [&](uint64_t& value) -> bool {
      skip_ws();
      const char* begin = line.data() + pos;
      const char* end = line.data() + line.size();
      auto [ptr, ec] = std::from_chars(begin, end, value);
      if (ec != std::errc() || ptr == begin) return false;
      pos = ptr - line.data();
      return true;
    };
    if (!parse_number(raw_u) || !parse_number(raw_v)) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_number) + ": malformed edge line: '" +
          line + "'");
    }
    double weight = 1.0;
    std::string error;
    if (!ParseOptionalWeight(line, pos, weight, &error)) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": " + error);
    }
    // The negated form also rejects NaN, which fails every comparison.
    if (!(weight > 0.0 && std::isfinite(weight))) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": weight must be finite and positive");
    }
    if (!options.remap_ids &&
        (raw_u > kInvalidVertex - 1 || raw_v > kInvalidVertex - 1)) {
      return Status::OutOfRange("line " + std::to_string(line_number) +
                                ": vertex id exceeds 32-bit range");
    }
    VertexId u = to_vertex(raw_u);
    VertexId v = to_vertex(raw_v);
    if (options.skip_self_loops && u == v) continue;
    out.edges.push_back(WeightedEdge{u, v, weight});
    out.num_vertices = std::max(out.num_vertices,
                                static_cast<VertexId>(std::max(u, v) + 1));
    if (options.max_edges > 0 && out.edges.size() >= options.max_edges) break;
  }
  return out;
}

}  // namespace

Result<WeightedEdgeListFile> ReadWeightedEdgeList(
    const std::string& path, const EdgeListReadOptions& options) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IoError("cannot open edge list: " + path);
  }
  return ParseWeightedStream(in, options);
}

Result<WeightedEdgeListFile> ParseWeightedEdgeList(
    const std::string& text, const EdgeListReadOptions& options) {
  std::istringstream in(text);
  return ParseWeightedStream(in, options);
}

Status WriteWeightedEdgeList(const std::string& path,
                             const WeightedEdgeList& edges) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::IoError("cannot open for writing: " + path);
  }
  out << "# streamlink weighted edge list: " << edges.size() << " edges\n";
  for (const WeightedEdge& e : edges) {
    out << e.u << ' ' << e.v << ' ' << e.weight << '\n';
  }
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

Status WriteEdgeList(const std::string& path, const EdgeList& edges) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::IoError("cannot open for writing: " + path);
  }
  out << "# streamlink edge list: " << edges.size() << " edges\n";
  for (const Edge& e : edges) {
    out << e.u << ' ' << e.v << '\n';
  }
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

}  // namespace streamlink
