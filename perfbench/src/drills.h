// Layer drills: timed batches of public layer calls on inputs shaped
// like the workload that just ran. They run after the run's report
// checksum has been recorded, so whatever they mutate is never read
// back into a result.

#ifndef PERFBENCH_DRILLS_H_
#define PERFBENCH_DRILLS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common.h"
#include "fault/injector.h"
#include "measure/records.h"
#include "net/network.h"
#include "overlay/link_state.h"
#include "overlay/overlay.h"
#include "overlay/router.h"

namespace perfbench {

struct DrillTarget {
  ronpath::Network* net = nullptr;
  ronpath::OverlayNetwork* overlay = nullptr;
  // The run's injector; null means the workload ran without one, and the
  // fault drill compiles the canonical link-flap scenario instead.
  const ronpath::FaultInjector* injector = nullptr;
  ronpath::TimePoint run_end;    // end of the simulated run
  ronpath::Duration horizon;     // Network horizon the world was built with
  std::size_t pending_depth = 0;  // event.pending_max of the run
  int max_hops = 1;               // router depth of the workload
  std::uint64_t seed = 0;
};

// Deterministic path-engine query batch (best_loss + best_latency over
// seeded pairs) on a finished table. edges_per_query is exact.
struct EngineProbe {
  double edges_per_query = 0.0;
  double ns_per_query = 0.0;
};
[[nodiscard]] EngineProbe probe_path_engine(const ronpath::LinkStateTable& table,
                                            const ronpath::RouterConfig& cfg, int max_hops,
                                            ronpath::TimePoint now, std::uint64_t seed);

// net, event, overlay, path-engine, fault and routing drills.
void run_layer_drills(const DrillTarget& target, Tracer* tracer, Metrics& layer);

// Aggregator::add replay of a captured record sample plus the quantile
// sketch drill; returns the replay aggregator's finish() time in seconds.
double run_measure_drills(std::span<const ronpath::ProbeRecord> sample, std::size_t nodes,
                          std::uint64_t seed, Tracer* tracer, Metrics& layer);

// Sum of route switches over every (router, destination) pair.
[[nodiscard]] std::int64_t route_switches(const ronpath::OverlayNetwork& overlay);

// Control-plane totals over every node's ControlMeter.
struct ControlTotals {
  std::int64_t announces = 0;
  std::int64_t bytes = 0;
  std::int64_t suppressed = 0;
};
[[nodiscard]] ControlTotals control_totals(const ronpath::OverlayNetwork& overlay);

}  // namespace perfbench

#endif  // PERFBENCH_DRILLS_H_
