// Compiles a FaultSchedule against a concrete topology into time-indexed
// queries, and implements the net-layer FaultHook.
//
// Compilation expands every spec - including periodic ones, up to the
// horizon - into sorted, merged activation windows per faulted
// component and per node. Components are kept sparse: one bit per
// component marks the faulted ones, and only those carry a window list
// (in a list sorted by component index). The common answer, "this
// component is never faulted", is one bit test; a faulted component
// costs a binary search over the faulted list and then over its windows.
// Node queries binary-search per-node window lists. Everything is
// immutable after construction, so the injector is safe to share by
// const reference and its answers are a deterministic function of
// (schedule, topology, horizon) alone.
//
// Integration points:
//   Network::set_fault_hook        - component blackouts + probe blackhole
//                                    (DropCause::kInjected)
//   OverlayNetwork::set_fault_injector - LSA suppression, crash-restart
//                                    (and forwards the hook to the network)

#ifndef RONPATH_FAULT_INJECTOR_H_
#define RONPATH_FAULT_INJECTOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fault/fault.h"
#include "net/network.h"
#include "net/topology.h"

namespace ronpath {

class FaultInjector final : public FaultHook {
 public:
  // Throws std::runtime_error when a spec references a site/node id
  // outside the topology. `horizon` bounds periodic expansion (use the
  // run span plus slack, as with Network's own pregeneration).
  FaultInjector(const FaultSchedule& schedule, const Topology& topology, Duration horizon);

  // FaultHook (consulted by Network::transmit).
  [[nodiscard]] bool component_down(std::size_t component, TimePoint t) const override;
  [[nodiscard]] bool probe_blackhole(NodeId node, TimePoint t) const override;

  // Control-plane queries (consulted by OverlayNetwork).
  [[nodiscard]] bool lsa_suppressed(NodeId node, TimePoint t) const;
  [[nodiscard]] bool node_crashed(NodeId node, TimePoint t) const;

  // Introspection for tests and reports.
  [[nodiscard]] std::size_t faulted_component_count() const;
  [[nodiscard]] const FaultSchedule& schedule() const { return schedule_; }
  // Overlapping/duplicate activation windows that were silently coalesced
  // during compilation. Nonzero usually means a schedule specifies the
  // same component twice for overlapping spans — legal, but worth
  // surfacing in reports since the duplicate has no effect.
  [[nodiscard]] std::int64_t merged_window_count() const { return merged_window_count_; }

 private:
  struct Window {
    TimePoint start;
    TimePoint end;
  };
  using Windows = std::vector<Window>;

  // Sorts and coalesces each window list; returns how many windows were
  // folded into a predecessor.
  static std::int64_t finalize(std::vector<Windows>& table);
  [[nodiscard]] static bool covered(const Windows& w, TimePoint t);

  FaultSchedule schedule_;
  std::int64_t merged_window_count_ = 0;
  std::vector<std::uint64_t> faulted_bits_;  // bit per component: has windows
  std::vector<std::size_t> faulted_;         // faulted component indices, sorted
  std::vector<Windows> faulted_windows_;     // [rank in faulted_]
  std::vector<Windows> blackhole_windows_;   // [node]
  std::vector<Windows> lsa_windows_;         // [node]
  std::vector<Windows> crash_windows_;       // [node]
};

}  // namespace ronpath

#endif  // RONPATH_FAULT_INJECTOR_H_
