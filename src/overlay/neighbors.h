// Candidate-neighbor structure for the bandwidth-capped overlay.
//
// Full-mesh probing and link-state are O(n^2): fine for the paper's
// 30-node testbed, dead at 1000. NeighborSet caps the overlay graph:
// each node keeps its `fanout` nearest peers (by propagation delay, the
// only metric known before probing starts) plus an edge to every
// landmark. Landmarks are chosen by greedy farthest-point traversal so
// they spread across the geography; every node can reach any distant
// destination through src -> landmark -> dst with candidates drawn from
// N(src) u N(dst) u landmarks (arXiv:1310.8125's k-nearest + landmark
// alternate selection).
//
// The set is symmetric (a in N(b) <=> b in N(a)) and purely a function
// of (topology, fanout, landmarks): no RNG involved, so rebuilding it
// after a restore reproduces the same graph. Rows are sorted CSR, and
// every directed edge has a dense id e = row_offset(s) + rank — the flat
// storage key used by the overlay's estimator array and every
// link-state table (state is O(n * fanout) on a capped graph). Hot
// callers compute e once and carry it; `edge_index` (a binary search
// on an incomplete row) is for cold keyed callers only.
// `reverse_edge(e)` is the id of the opposite direction, precomputed.
//
// `full_mesh(n)` (also what `build` returns at fanout 0 or fanout >= n-1)
// is the same CSR with every row complete. A row is complete when
// degree(s) == n-1 — every full-mesh row and every landmark row of a
// capped graph — and on such a row the rank of d is d - (d > s), so
// `adjacent` and `edge_index` skip the binary search.

#ifndef RONPATH_OVERLAY_NEIGHBORS_H_
#define RONPATH_OVERLAY_NEIGHBORS_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/topology.h"
#include "util/ids.h"

namespace ronpath {

class NeighborSet {
 public:
  // The complete graph on n nodes (the paper's overlay shape).
  [[nodiscard]] static NeighborSet full_mesh(std::size_t n);

  // k-nearest (k = fanout) by (propagation delay, id), symmetrized,
  // plus all-nodes <-> landmark edges. fanout == 0 or >= n-1 yields the
  // full mesh (with no landmarks: every node already sees every other).
  [[nodiscard]] static NeighborSet build(const Topology& topo, std::size_t fanout,
                                         std::size_t landmarks);

  [[nodiscard]] std::size_t size() const { return offsets_.size() - 1; }

  [[nodiscard]] std::size_t degree(NodeId s) const { return offsets_[s + 1] - offsets_[s]; }
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId s) const {
    return {nbrs_.data() + offsets_[s], degree(s)};
  }
  // True when row s holds every other node.
  [[nodiscard]] bool complete(NodeId s) const { return degree(s) + 1 == size(); }
  [[nodiscard]] bool adjacent(NodeId a, NodeId b) const {
    if (a == b) return false;
    if (complete(a)) return true;
    const auto row = neighbors(a);
    return std::binary_search(row.begin(), row.end(), b);
  }

  // Dense id of directed edge (s, d): CSR row offset plus the rank of
  // d within row s. Asserts that the edge exists.
  [[nodiscard]] std::size_t edge_index(NodeId s, NodeId d) const {
    assert(s != d && d < size());
    if (complete(s)) return offsets_[s] + d - (d > s ? 1 : 0);
    const auto row = neighbors(s);
    const auto it = std::lower_bound(row.begin(), row.end(), d);
    assert(it != row.end() && *it == d);
    return offsets_[s] + static_cast<std::size_t>(it - row.begin());
  }
  // Total directed edges (== nbrs_.size(); rows are symmetric).
  [[nodiscard]] std::size_t edge_count() const { return nbrs_.size(); }
  // Id of the first edge of row s: edge (s, neighbors(s)[rank]) is
  // row_offset(s) + rank.
  [[nodiscard]] std::size_t row_offset(NodeId s) const { return offsets_[s]; }
  // Endpoints of edge e, and the id of the edge (target, source).
  [[nodiscard]] NodeId edge_target(std::size_t e) const { return nbrs_[e]; }
  [[nodiscard]] NodeId edge_source(std::size_t e) const { return nbrs_[reverse_[e]]; }
  [[nodiscard]] std::uint32_t reverse_edge(std::size_t e) const { return reverse_[e]; }

  [[nodiscard]] bool is_landmark(NodeId v) const { return is_landmark_[v]; }
  [[nodiscard]] const std::vector<NodeId>& landmarks() const { return landmarks_; }

  // Bytes held by the graph: CSR offsets and rows, reverse edge ids,
  // the landmark list and its bitmap.
  [[nodiscard]] std::size_t bytes() const {
    return offsets_.size() * sizeof(std::size_t) + nbrs_.size() * sizeof(NodeId) +
           reverse_.size() * sizeof(std::uint32_t) + landmarks_.size() * sizeof(NodeId) +
           (is_landmark_.size() + 7) / 8;
  }

 private:
  NeighborSet() = default;
  void finish(std::size_t n, std::vector<std::vector<NodeId>> rows);

  std::vector<std::size_t> offsets_;    // n + 1
  std::vector<NodeId> nbrs_;            // sorted per row, symmetric
  std::vector<std::uint32_t> reverse_;  // per edge: id of the opposite edge
  std::vector<NodeId> landmarks_;       // sorted
  std::vector<bool> is_landmark_;
};

}  // namespace ronpath

#endif  // RONPATH_OVERLAY_NEIGHBORS_H_
