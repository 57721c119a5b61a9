#ifndef STREAMLINK_GRAPH_EDGE_LIST_IO_H_
#define STREAMLINK_GRAPH_EDGE_LIST_IO_H_

#include <string>

#include "graph/types.h"
#include "graph/weighted_graph.h"
#include "util/status.h"

namespace streamlink {

/// Options for parsing whitespace-separated edge-list files (the SNAP-style
/// format real graph-stream datasets ship in: one "u v" pair per line,
/// '#'- or '%'-prefixed comment lines).
struct EdgeListReadOptions {
  /// Remap arbitrary ids to dense [0, n) in first-seen order. When false,
  /// ids are used verbatim and must fit VertexId.
  bool remap_ids = true;
  /// Drop (u, u) edges.
  bool skip_self_loops = true;
  /// Maximum number of edges to read; 0 = unlimited.
  uint64_t max_edges = 0;
};

struct EdgeListFile {
  EdgeList edges;        // in file order — this *is* the stream
  VertexId num_vertices = 0;
};

/// Reads an edge list from `path`. Lines that fail to parse yield an
/// InvalidArgument status (with line number) rather than silent skips.
Result<EdgeListFile> ReadEdgeList(const std::string& path,
                                  const EdgeListReadOptions& options = {});

/// Parses edge-list text directly (testing and embedded data).
Result<EdgeListFile> ParseEdgeList(const std::string& text,
                                   const EdgeListReadOptions& options = {});

/// Writes `edges` to `path`, one "u v" per line with a size comment header.
Status WriteEdgeList(const std::string& path, const EdgeList& edges);

/// Weighted variant of EdgeListFile: "u v w" lines (w a positive double).
struct WeightedEdgeListFile {
  WeightedEdgeList edges;
  VertexId num_vertices = 0;
};

/// Reads a weighted edge list ("u v w" per line; missing weight defaults
/// to 1.0, so plain edge lists load too). Same comment/remap semantics as
/// ReadEdgeList; a weight that is not finite and positive (zero,
/// negative, NaN, infinite, or beyond double range) is an InvalidArgument
/// error naming its line.
Result<WeightedEdgeListFile> ReadWeightedEdgeList(
    const std::string& path, const EdgeListReadOptions& options = {});

/// Parses weighted edge-list text directly.
Result<WeightedEdgeListFile> ParseWeightedEdgeList(
    const std::string& text, const EdgeListReadOptions& options = {});

/// Writes weighted edges as "u v w" lines.
Status WriteWeightedEdgeList(const std::string& path,
                             const WeightedEdgeList& edges);

}  // namespace streamlink

#endif  // STREAMLINK_GRAPH_EDGE_LIST_IO_H_
