// Shared link-state view of the overlay mesh.
//
// Every node publishes its outgoing link estimates (loss, latency, down)
// here; the router composes one-hop paths from two published entries. In
// the deployed RON system this state is flooded between nodes at the
// probing frequency; we model dissemination as publication into a shared
// table. Entries carry their publication time so consumers can apply a
// staleness bound, and the router's O(N^2) probing overhead is accounted
// analytically in the model library (see model/overhead.h).
//
// Storage is one LinkMetrics per directed edge of a NeighborSet, in CSR
// order: O(n * fanout) resident state over a capped graph, n(n-1) over
// the paper's full mesh (the same CSR with complete rows). Reads of
// non-adjacent pairs (and of the diagonal) return a pristine
// (never-published) entry; writes to them are a programming error.
//
// node_seems_up is O(1) via per-node incident counters maintained on
// publish — the path engine calls it for every node on every query,
// which at 3000 nodes would otherwise be an O(n) scan inside an O(n)
// loop.
//
// Hot callers address entries without searching: the overlay publishes
// by dense edge id (publish_edge), and the path engine and routers read
// whole rows or columns at once (fill_row / fill_col / row), each in
// O(n + degree). get/publish by (from, to) stay for cold keyed callers;
// each is O(1) on a complete row and a binary search over the CSR row
// otherwise.

#ifndef RONPATH_OVERLAY_LINK_STATE_H_
#define RONPATH_OVERLAY_LINK_STATE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "overlay/neighbors.h"
#include "util/ids.h"
#include "util/time.h"

namespace ronpath {

namespace snap {
class Encoder;
class Decoder;
}  // namespace snap

struct LinkMetrics {
  double loss = 0.0;
  Duration latency = Duration::max();
  bool down = false;
  bool has_latency = false;
  std::size_t samples = 0;
  TimePoint published;
  // Announcement-rotation stride of the publisher: this entry is
  // refreshed every `stride` probe intervals (1 = every round, the
  // legacy cadence). Consumers scale staleness bounds by it so capped
  // announcements don't read as failures (see router.h entry_expired).
  std::uint32_t stride = 1;
};

class LinkStateTable {
 public:
  // One entry per directed edge of `graph`, which must outlive the
  // table (and every copy of it).
  explicit LinkStateTable(const NeighborSet& graph);

  void publish(NodeId from, NodeId to, const LinkMetrics& metrics);
  [[nodiscard]] const LinkMetrics& get(NodeId from, NodeId to) const;

  // publish() for edge `e` of the graph, without the keyed lookup.
  void publish_edge(std::size_t e, const LinkMetrics& metrics);
  // Fill out[x] (out.size() == size()) with &get(from, x), respectively
  // &get(x, to), for every node x: non-neighbors point at the pristine
  // entry, exactly as get() answers them.
  void fill_row(NodeId from, std::span<const LinkMetrics*> out) const;
  void fill_col(NodeId to, std::span<const LinkMetrics*> out) const;
  // The stored entries of row `from`: one per neighbor, in CSR order.
  [[nodiscard]] std::span<const LinkMetrics> row(NodeId from) const;

  // A node is considered reachable-in-principle if at least one of its
  // incident links is not down (no estimates at all also counts as up).
  [[nodiscard]] bool node_seems_up(NodeId node) const {
    return up_cnt_[node] > 0 || est_cnt_[node] == 0;
  }

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] const NeighborSet& graph() const { return *graph_; }

  // Snapshot support: serializes every published entry.
  void save_state(snap::Encoder& e) const;
  void restore_state(snap::Decoder& d);

  // Invariant auditor: TTL/staleness consistency (nothing published in
  // the future, never-published entries pristine), latency-sentinel
  // sanity per entry, and counter/scan agreement for node_seems_up.
  void check_invariants(TimePoint now, std::vector<std::string>& out) const;

  // Visits every stored entry (one per directed edge), in storage order.
  void for_each_entry(
      const std::function<void(NodeId, NodeId, const LinkMetrics&)>& fn) const;

 private:
  void write(LinkMetrics& slot, NodeId from, NodeId to, const LinkMetrics& metrics);
  void recount();

  const NeighborSet* graph_;  // a pointer, so copies stay assignable
  std::size_t n_;
  std::vector<LinkMetrics> entries_;  // one per directed edge, CSR order
  // Per-node incident-entry counters backing O(1) node_seems_up:
  // est = incident entries with samples > 0; up = those also not down.
  std::vector<std::uint32_t> est_cnt_;
  std::vector<std::uint32_t> up_cnt_;
};

}  // namespace ronpath

#endif  // RONPATH_OVERLAY_LINK_STATE_H_
