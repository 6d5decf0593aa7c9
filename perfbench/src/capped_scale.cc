// capped_scale: one link-flap fault-matrix cell through SimWorld on 1000
// synthetic sites with the bandwidth-capped overlay and a lazy underlay,
// configured exactly like bench_scale's 1000-node tier.

#include <algorithm>
#include <memory>

#include "core/fault_matrix.h"
#include "drills.h"
#include "fault/scenarios.h"
#include "snapshot/codec.h"
#include "snapshot/world.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ronpath::Duration;
using ronpath::TimePoint;

constexpr std::size_t kNodes = 1000;
// Setups per invocation on top of the one each run makes; construction
// is short, so the median of several is the stable reading.
constexpr int kExtraSetups = 4;

ronpath::FaultMatrixConfig capped_config(std::uint64_t seed) {
  ronpath::FaultMatrixConfig cfg;
  cfg.seed = seed;
  cfg.synth_nodes = kNodes;
  cfg.overlay_fanout = 16;
  cfg.overlay_landmarks = 8;
  cfg.lazy_underlay = true;
  return cfg;
}

class CappedScale final : public Workload {
 public:
  explicit CappedScale(std::uint64_t seed)
      : seed_(seed), cfg_(capped_config(seed)), scenario_(ronpath::find_scenario("link-flap")) {}

  double setup_once() override {
    const double t0 = wall_s();
    ronpath::SimWorld world(*scenario_, ronpath::FaultScheme::kHybrid, cfg_, seed_);
    return wall_s() - t0;
  }

  RunResult run() override { return composed_run(nullptr, nullptr); }

  RunResult composed_run(Tracer* tracer, Metrics* layer) override {
    RunResult r;
    Scope whole(tracer, "capped_scale.run");
    world_.reset();
    const double t0 = wall_s();
    {
      Scope s(tracer, "snapshot.SimWorld");
      world_ = std::make_unique<ronpath::SimWorld>(*scenario_, ronpath::FaultScheme::kHybrid,
                                                   cfg_, seed_);
    }
    const double t1 = wall_s();
    const double c1 = cpu_s();
    std::size_t pending_max = 0;
    {
      Scope s(tracer, "run");
      // One-simulated-hour slices: the CBR sends due before each hour
      // boundary (advance_to runs the warm-up on its first call).
      const TimePoint measure_start = TimePoint::epoch() + cfg_.warmup;
      const std::size_t total = world_->total_sends();
      for (TimePoint t = TimePoint::epoch() + Duration::hours(1);; t = t + Duration::hours(1)) {
        std::size_t due = 0;
        if (t > measure_start) {
          const std::int64_t span = (t - measure_start).count_nanos();
          const std::int64_t step = cfg_.send_interval.count_nanos();
          due = static_cast<std::size_t>((span + step - 1) / step);
        }
        due = std::min(due, total);
        {
          Scope a(tracer, "event.advance_to");
          world_->advance_to(due);
        }
        pending_max = std::max(pending_max, world_->scheduler().pending_events());
        if (due == total) break;
      }
      {
        Scope a(tracer, "event.run_to_end");
        world_->run_to_end();
      }
      Scope rep(tracer, "snapshot.report");
      report_ = world_->report();
    }
    r.run_s = wall_s() - t1;
    r.cpu_s = cpu_s() - c1;
    r.setup_s = t1 - t0;
    r.checksums.push_back(ronpath::snap::fnv1a(report_));

    const ronpath::OverlayNetwork& ov = world_->overlay();
    const ronpath::Network& net = world_->network();
    const ControlTotals ct = control_totals(ov);
    r.counts.events = world_->scheduler().dispatched_events();
    r.counts.transmits = net.stats().transmitted;
    r.counts.probes = ov.probes_sent();
    r.counts.announces = ct.announces;
    r.counts.records = 0;  // SimWorld runs no measurement aggregator
    r.counts.edges_relaxed_per_query =
        probe_path_engine(overlay_mut().table(), ov.config().router,
                          ov.config().router.max_intermediates, end_time(), seed_)
            .edges_per_query;
    r.packets = static_cast<double>(r.counts.transmits);
    world_->check_invariants(r.problems);
    if (!r.problems.empty()) r.failed_units = 1;
    pending_max_ = pending_max;

    if (layer != nullptr) {
      layer->set("net.materialized_components",
                 static_cast<double>(net.materialized_components()), "count");
      layer->set("event.pending_max", static_cast<double>(pending_max), "count");
      layer->set("overlay.control_bytes", static_cast<double>(ct.bytes), "bytes");
      layer->set("overlay.suppressed", static_cast<double>(ct.suppressed), "count");
      layer->set("overlay.state_bytes", static_cast<double>(ov.state_bytes()), "bytes");
      layer->set("overlay.route_switches", static_cast<double>(route_switches(ov)), "count");
      layer->set("workload.app_packets", static_cast<double>(world_->total_sends()), "count");
      layer->set("workload.fec_blocks", 0.0, "count");
      layer->set("workload.transitions", 0.0, "count");
      layer->set("workload.cell_setup_s", r.setup_s, "s");
      layer->set("workload.cell_s_median", r.setup_s + r.run_s, "s");
      layer->set("workload.cell_s_max", r.setup_s + r.run_s, "s");
      layer->set("core.pool_efficiency", 1.0, "ratio");
    }
    return r;
  }

  Counts cross_check(const RunResult& first, std::vector<std::string>& problems) override {
    // Every run already audits SimWorld::check_invariants; the pinned
    // checksums tie this cell to bench_scale's 1000-node tier.
    if (!world_ || !world_->finished()) problems.emplace_back("capped_scale world did not finish");
    return first.counts;
  }

  void drills(Tracer* tracer, Metrics& layer) override {
    DrillTarget target;
    target.net = &network_mut();
    target.overlay = &overlay_mut();
    target.run_end = end_time();
    target.horizon = cfg_.warmup + cfg_.measured + Duration::hours(1);
    target.pending_depth = pending_max_;
    target.max_hops = world_->overlay().config().router.max_intermediates;
    target.seed = seed_;
    run_layer_drills(target, tracer, layer);
    // No ProbeDriver here: replay a RON2003 capture to time the
    // aggregator on its own shape.
    const auto sample = capture_ron2003_records(seed_, 100'000);
    const double finish = run_measure_drills(sample, 30, seed_, tracer, layer);
    layer.set("measure.finish_s", finish, "s");
  }

  std::vector<std::uint64_t> slice_seeds() const override { return {seed_}; }
  int extra_setups() const override { return kExtraSetups; }

 private:
  [[nodiscard]] TimePoint end_time() const {
    return TimePoint::epoch() + cfg_.warmup + cfg_.measured;
  }
  // SimWorld hands out its layers read-only. The checksum has been
  // taken when these are used, and the world is never reported again,
  // so the drills may drive the (non-const) objects it owns directly.
  ronpath::OverlayNetwork& overlay_mut() {
    return const_cast<ronpath::OverlayNetwork&>(world_->overlay());
  }
  ronpath::Network& network_mut() { return const_cast<ronpath::Network&>(world_->network()); }

  std::uint64_t seed_;
  ronpath::FaultMatrixConfig cfg_;
  const ronpath::Scenario* scenario_;
  std::unique_ptr<ronpath::SimWorld> world_;
  std::string report_;
  std::size_t pending_max_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_capped_scale(std::uint64_t seed) {
  return std::make_unique<CappedScale>(seed);
}

}  // namespace perfbench
