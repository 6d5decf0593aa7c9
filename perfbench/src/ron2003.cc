// ron2003: the paper's Table 5 run, composed from the public layer
// classes in run_experiment's construction order so that setup and the
// simulated run can be timed (and traced) apart. cross_check() pins the
// composition to run_experiment itself.

#include <algorithm>
#include <cinttypes>
#include <optional>

#include "core/driver.h"
#include "core/experiment.h"
#include "core/testbed.h"
#include "drills.h"
#include "event/scheduler.h"
#include "measure/aggregator.h"
#include "measure/report.h"
#include "net/config.h"
#include "overlay/overlay.h"
#include "routing/schemes.h"
#include "snapshot/codec.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ronpath::Duration;
using ronpath::TimePoint;

// Six measured hours after the 40-minute estimator warm-up: the
// profiled Table 5 run, a few seconds of wall time per run.
ronpath::ExperimentConfig ron2003_config(std::uint64_t seed, Duration measured) {
  ronpath::ExperimentConfig cfg;
  cfg.dataset = ronpath::Dataset::kRon2003;
  cfg.duration = measured;
  cfg.seed = seed;
  return cfg;
}

// The workload's report: the Table 5 rows plus the run's work counters.
// Built from run_experiment's result fields, so both entry points hash
// the same text.
std::string ron2003_report(const ronpath::Aggregator& agg, std::int64_t probes,
                           std::int64_t overlay_probes, std::uint64_t events,
                           const ronpath::Network::Stats& net) {
  const auto rows = ronpath::make_loss_table(agg, ronpath::ron2003_report_rows());
  std::string out = ronpath::render_loss_table(rows, /*round_trip=*/false);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "probes %" PRId64 " | overlay probes %" PRId64 " | events %" PRIu64
                " | transmitted %" PRId64 " | delivered %" PRId64 "\n",
                probes, overlay_probes, events, net.transmitted, net.delivered);
  return out + buf;
}

std::int64_t records_of(const ronpath::Aggregator& agg) {
  std::int64_t n = 0;
  for (const ronpath::PairScheme s : agg.schemes()) {
    const auto& st = agg.scheme_stats(s);
    n += st.committed + st.filtered_host_failure;
  }
  return n;
}

// One RON2003 world, built in run_experiment's order (same RNG forks).
// The driver's record tee holds `this`, so the world never moves.
class Ron2003World {
 public:
  Ron2003World(const ronpath::ExperimentConfig& cfg, Tracer* tracer, std::size_t capture_limit)
      : cfg_(cfg),
        capture_limit_(capture_limit),
        horizon_(cfg.warmup + cfg.duration + Duration::hours(1)),
        topo_([tracer] {
          Scope s(tracer, "net.testbed_2003");
          return ronpath::testbed_2003();
        }()) {
    const Duration run_span = cfg.warmup + cfg.duration;
    const ronpath::NetConfig net_cfg = ronpath::NetConfig::profile_2003(run_span);
    const ronpath::Rng rng(cfg.seed);
    {
      Scope s(tracer, "net.Network");
      net_.emplace(topo_, net_cfg, horizon_, rng.fork("net"));
    }
    ronpath::OverlayConfig overlay_cfg;
    overlay_cfg.router.forward_delay = net_cfg.forward_delay;
    {
      Scope s(tracer, "overlay.OverlayNetwork");
      overlay_.emplace(*net_, sched_, overlay_cfg, rng.fork("overlay"));
    }
    {
      Scope s(tracer, "overlay.start");
      overlay_->start();
    }
    ronpath::DriverConfig driver_cfg;
    const auto set = ronpath::ron2003_probe_set();
    driver_cfg.probe_set.assign(set.begin(), set.end());
    driver_cfg.round_trip = false;
    if (capture_limit_ > 0) {
      driver_cfg.record_tee = [this](const ronpath::ProbeRecord& rec) {
        if (captured_.size() < capture_limit_) captured_.push_back(rec);
      };
    }
    ronpath::AggregatorConfig agg_cfg;
    agg_cfg.measure_start = TimePoint::epoch() + cfg.warmup;
    agg_cfg.round_trip = false;
    {
      Scope s(tracer, "measure.Aggregator");
      agg_.emplace(topo_.size(), driver_cfg.probe_set, agg_cfg);
    }
    {
      Scope s(tracer, "core.ProbeDriver");
      driver_.emplace(*overlay_, sched_, *agg_, driver_cfg, rng.fork("driver"));
    }
    {
      Scope s(tracer, "core.ProbeDriver.start");
      driver_->start();
    }
  }
  Ron2003World(const Ron2003World&) = delete;
  Ron2003World& operator=(const Ron2003World&) = delete;

  // Runs to the end in one-simulated-hour scheduler slices, then
  // finishes the aggregator and renders the report.
  void run(Tracer* tracer) {
    const TimePoint end = end_time();
    for (TimePoint t = TimePoint::epoch() + Duration::hours(1);; t = t + Duration::hours(1)) {
      const TimePoint slice_end = std::min(t, end);
      {
        Scope s(tracer, "event.run_until");
        sched_.run_until(slice_end);
      }
      pending_max_ = std::max(pending_max_, sched_.pending_events());
      if (slice_end == end) break;
    }
    {
      Scope s(tracer, "measure.finish");
      const double t0 = wall_s();
      agg_->finish(end);
      finish_s_ = wall_s() - t0;
    }
    Scope s(tracer, "measure.report");
    report_ = ron2003_report(*agg_, driver_->probes_emitted(), overlay_->probes_sent(),
                             sched_.dispatched_events(), net_->stats());
  }

  [[nodiscard]] TimePoint end_time() const {
    return TimePoint::epoch() + cfg_.warmup + cfg_.duration;
  }

  Counts counts() {
    Counts c;
    c.events = sched_.dispatched_events();
    c.transmits = net_->stats().transmitted;
    c.probes = overlay_->probes_sent();
    c.announces = control_totals(*overlay_).announces;
    c.records = records_of(*agg_);
    c.edges_relaxed_per_query =
        probe_path_engine(overlay_->table(), overlay_->config().router,
                          overlay_->config().router.max_intermediates, end_time(), cfg_.seed)
            .edges_per_query;
    return c;
  }

  void check_invariants(std::vector<std::string>& out) const {
    sched_.check_invariants(out);
    net_->check_invariants(out);
    overlay_->check_invariants(sched_.now(), out);
  }

  const std::string& report() const { return report_; }
  const std::vector<ronpath::ProbeRecord>& captured() const { return captured_; }
  std::size_t pending_max() const { return pending_max_; }
  double finish_s() const { return finish_s_; }
  std::int64_t probes_emitted() const { return driver_->probes_emitted(); }
  Duration horizon() const { return horizon_; }
  ronpath::Network& net() { return *net_; }
  ronpath::OverlayNetwork& overlay() { return *overlay_; }

 private:
  ronpath::ExperimentConfig cfg_;
  std::size_t capture_limit_;
  Duration horizon_;
  ronpath::Topology topo_;
  ronpath::Scheduler sched_;
  std::optional<ronpath::Network> net_;
  std::optional<ronpath::OverlayNetwork> overlay_;
  std::optional<ronpath::Aggregator> agg_;
  std::optional<ronpath::ProbeDriver> driver_;
  std::vector<ronpath::ProbeRecord> captured_;
  std::size_t pending_max_ = 0;
  double finish_s_ = 0.0;
  std::string report_;
};

constexpr std::size_t kCaptureLimit = 100'000;

class Ron2003 final : public Workload {
 public:
  explicit Ron2003(std::uint64_t seed)
      : seed_(seed), cfg_(ron2003_config(seed, Duration::hours(6))) {}

  double setup_once() override {
    const double t0 = wall_s();
    Ron2003World world(cfg_, nullptr, 0);
    return wall_s() - t0;
  }

  RunResult run() override { return composed_run(nullptr, nullptr); }

  RunResult composed_run(Tracer* tracer, Metrics* layer) override {
    RunResult r;
    Scope whole(tracer, "ron2003.run");
    const double t0 = wall_s();
    world_.reset();
    {
      Scope s(tracer, "setup");
      world_ = std::make_unique<Ron2003World>(cfg_, tracer, tracer ? kCaptureLimit : 0);
    }
    const double t1 = wall_s();
    const double c1 = cpu_s();
    {
      Scope s(tracer, "run");
      world_->run(tracer);
    }
    r.run_s = wall_s() - t1;
    r.cpu_s = cpu_s() - c1;
    r.setup_s = t1 - t0;

    r.checksums.push_back(ronpath::snap::fnv1a(world_->report()));
    r.counts = world_->counts();
    r.packets = static_cast<double>(r.counts.transmits);
    world_->check_invariants(r.problems);
    if (!r.problems.empty()) r.failed_units = 1;

    if (layer != nullptr) {
      ronpath::OverlayNetwork& ov = world_->overlay();
      const ControlTotals ct = control_totals(ov);
      layer->set("net.materialized_components",
                 static_cast<double>(world_->net().materialized_components()), "count");
      layer->set("event.pending_max", static_cast<double>(world_->pending_max()), "count");
      layer->set("overlay.control_bytes", static_cast<double>(ct.bytes), "bytes");
      layer->set("overlay.suppressed", static_cast<double>(ct.suppressed), "count");
      layer->set("overlay.state_bytes", static_cast<double>(ov.state_bytes()), "bytes");
      layer->set("overlay.route_switches", static_cast<double>(route_switches(ov)), "count");
      layer->set("measure.finish_s", world_->finish_s(), "s");
      layer->set("workload.app_packets", static_cast<double>(world_->probes_emitted()), "count");
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
    const ronpath::ExperimentResult res = ronpath::run_experiment(cfg_);
    const std::uint64_t sum = ronpath::snap::fnv1a(ron2003_report(
        *res.agg, res.probes, res.overlay_probes, res.events, res.net_stats));
    if (first.checksums.empty() || sum != first.checksums.front()) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "run_experiment report checksum %016" PRIx64
                    " differs from the composed run's",
                    sum);
      problems.emplace_back(buf);
    }
    return first.counts;
  }

  void drills(Tracer* tracer, Metrics& layer) override {
    DrillTarget target;
    target.net = &world_->net();
    target.overlay = &world_->overlay();
    target.run_end = world_->end_time();
    target.horizon = world_->horizon();
    target.pending_depth = world_->pending_max();
    target.max_hops = world_->overlay().config().router.max_intermediates;
    target.seed = seed_;
    run_layer_drills(target, tracer, layer);
    (void)run_measure_drills(world_->captured(), world_->overlay().size(), seed_, tracer, layer);
  }

  std::vector<std::uint64_t> slice_seeds() const override { return {seed_}; }
  int extra_setups() const override { return 0; }

 private:
  std::uint64_t seed_;
  ronpath::ExperimentConfig cfg_;
  std::unique_ptr<Ron2003World> world_;
};

}  // namespace

std::unique_ptr<Workload> make_ron2003(std::uint64_t seed) {
  return std::make_unique<Ron2003>(seed);
}

std::vector<ronpath::ProbeRecord> capture_ron2003_records(std::uint64_t seed,
                                                         std::size_t limit) {
  Ron2003World world(ron2003_config(seed, Duration::minutes(20)), nullptr, limit);
  world.run(nullptr);
  return world.captured();
}

}  // namespace perfbench
