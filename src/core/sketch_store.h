#ifndef STREAMLINK_CORE_SKETCH_STORE_H_
#define STREAMLINK_CORE_SKETCH_STORE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/types.h"
#include "util/logging.h"

namespace streamlink {

/// Growable per-vertex sketch storage. The vertex set of a graph stream is
/// unknown upfront; the store lazily creates a sketch the first time a
/// vertex appears, via the factory supplied at construction.
template <typename SketchT>
class SketchStore {
 public:
  using Factory = std::function<SketchT()>;

  explicit SketchStore(Factory factory) : factory_(std::move(factory)) {}

  VertexId num_vertices() const {
    return static_cast<VertexId>(sketches_.size());
  }

  /// Grows the store so `u` is valid; new vertices get factory() sketches.
  /// Growth is explicitly geometric: capacity at least doubles on every
  /// reallocation, no matter how far ahead of the current size `u` lands.
  /// A plain reserve(u + 1) per call would pin capacity exactly and turn
  /// incremental vertex arrival (the common case for temporal streams)
  /// into quadratic reallocation; a bare push_back loop leans on the
  /// library's growth policy and still moves every element once per
  /// reallocation step on a large forward jump.
  void EnsureVertex(VertexId u) {
    if (u < sketches_.size()) return;
    const size_t needed = static_cast<size_t>(u) + 1;
    if (needed > sketches_.capacity()) {
      const size_t doubled = sketches_.capacity() * 2;
      sketches_.reserve(needed > doubled ? needed : doubled);
    }
    while (sketches_.size() < needed) sketches_.push_back(factory_());
  }

  /// Appends the row of vertex num_vertices(): how a snapshot decoder
  /// restores rows in id order, building each row once.
  void Append(SketchT sketch) { sketches_.push_back(std::move(sketch)); }

  SketchT& Mutable(VertexId u) {
    EnsureVertex(u);
    return sketches_[u];
  }

  /// Read access; `u` beyond the store returns nullptr (vertex never seen).
  const SketchT* Get(VertexId u) const {
    return u < sketches_.size() ? &sketches_[u] : nullptr;
  }

  /// Folds another store in: for every vertex present in `other`, applies
  /// `merge(this_sketch, other_sketch)`. Grows this store as needed.
  template <typename MergeFn>
  void MergeFrom(const SketchStore& other, const MergeFn& merge) {
    if (other.num_vertices() > 0) EnsureVertex(other.num_vertices() - 1);
    for (VertexId u = 0; u < other.num_vertices(); ++u) {
      merge(sketches_[u], other.sketches_[u]);
    }
  }

  /// Sum of per-sketch MemoryBytes plus the vector spine.
  uint64_t MemoryBytes() const {
    uint64_t bytes = sizeof(*this) + sketches_.capacity() * sizeof(SketchT);
    for (const SketchT& s : sketches_) {
      bytes += s.MemoryBytes() - sizeof(SketchT);  // avoid double-counting
    }
    return bytes;
  }

 private:
  Factory factory_;
  std::vector<SketchT> sketches_;
};

/// Exact per-vertex degree counters — one uint32 per vertex, the O(1)
/// side-state the paper's estimators combine with the sketches (CN needs
/// |N(u)|+|N(v)|; AA needs d(w) of sampled common neighbors).
class DegreeTable {
 public:
  DegreeTable() = default;

  void Increment(VertexId u);
  uint32_t Degree(VertexId u) const {
    return u < degrees_.size() ? degrees_[u] : 0;
  }

  /// Element-wise addition (disjoint-stream merge).
  void MergeFrom(const DegreeTable& other);

  /// Raw access for serialization.
  const std::vector<uint32_t>& raw() const { return degrees_; }
  void SetRaw(std::vector<uint32_t> degrees) { degrees_ = std::move(degrees); }
  VertexId num_vertices() const {
    return static_cast<VertexId>(degrees_.size());
  }

  uint64_t MemoryBytes() const {
    return sizeof(*this) + degrees_.capacity() * sizeof(uint32_t);
  }

 private:
  std::vector<uint32_t> degrees_;
};

}  // namespace streamlink

#endif  // STREAMLINK_CORE_SKETCH_STORE_H_
