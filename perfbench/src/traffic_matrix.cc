// traffic_matrix: the reference WorkloadSpec through every canonical
// scenario under probe-only, static-2x and adaptive, over a fixed list
// of seeds. run() goes through run_workload_matrix; composed_run()
// builds the same cells as WorkloadWorlds on the same pool width so that
// per-cell construction and run time can be traced, and must reproduce
// the matrix report byte for byte.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <memory>
#include <optional>

#include "core/cell_env.h"
#include "drills.h"
#include "fault/scenarios.h"
#include "snapshot/codec.h"
#include "util/thread_pool.h"
#include "workload/matrix.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ronpath::Duration;
using ronpath::TimePoint;
using ronpath::WorkloadCell;
using ronpath::WorkloadMatrixResult;

// Matrix seeds per run: seed, seed+1, ... (seed 42's slice is
// bench_workload's default run).
constexpr std::uint64_t kSlices = 6;
// Setup builds per invocation beyond each run's own.
constexpr int kExtraSetups = 20;

// What run_workload_cell extracts from a finished world.
WorkloadCell extract_cell(const ronpath::WorkloadWorld& world, const ronpath::Scenario& scenario,
                          ronpath::WorkloadPolicy policy, const ronpath::WorkloadConfig& cfg) {
  WorkloadCell cell;
  cell.scenario = std::string(scenario.name);
  cell.policy = policy;
  for (std::size_t c = 0; c < ronpath::kServiceClassCount; ++c) {
    const ronpath::ClassMetrics& m = world.metrics()[c];
    ronpath::ClassCell& out = cell.classes[c];
    out.sent = m.sent();
    out.delivered = m.delivered();
    out.loss_pct = m.loss_pct();
    out.p50_ms = m.p50().to_millis_f();
    out.p99_ms = m.p99().to_millis_f();
    out.p999_ms = m.p999().to_millis_f();
    out.slo_pct = m.slo_attainment_pct();
    out.mos = m.mos(cfg.spec.classes[c].slo_latency);
    out.bursts = m.bursts();
  }
  cell.overhead = world.overhead_factor();
  cell.transitions = world.transitions();
  cell.fec_blocks = world.fec_blocks();
  cell.fec_recovered = world.fec_recovered();
  return cell;
}

// (scenario, class) columns where adaptive strictly beats both static
// policies: bench_workload's acceptance gate, required >= 1 per slice.
int adaptive_wins(const WorkloadMatrixResult& result) {
  const std::size_t policies = ronpath::all_workload_policies().size();
  int wins = 0;
  for (std::size_t s = 0; s + policies <= result.cells.size(); s += policies) {
    for (std::size_t c = 0; c < ronpath::kServiceClassCount; ++c) {
      const double probe = result.cells[s].classes[c].slo_pct;
      const double mesh = result.cells[s + 1].classes[c].slo_pct;
      const double adaptive = result.cells[s + 2].classes[c].slo_pct;
      if (adaptive > probe && adaptive > mesh) ++wins;
    }
  }
  return wins;
}

// Data-plane copies (every copy is one Network::transmit).
double copies_of(const WorkloadCell& cell) {
  double sent = 0.0;
  for (const ronpath::ClassCell& cc : cell.classes) sent += static_cast<double>(cc.sent);
  return sent * cell.overhead;
}

class TrafficMatrix final : public Workload {
 public:
  TrafficMatrix(std::uint64_t seed, int workers) : seed_(seed), workers_(workers) {
    cfg_.spec = ronpath::WorkloadSpec::defaults();
  }

  // run_workload_matrix builds and runs each cell inside one call, so
  // setup is timed on its own: the cell world of the first scenario
  // (adaptive policy) for every slice seed, as each cell is built.
  // Returns the mean build time of one world.
  double setup_once() override {
    const double t0 = wall_s();
    for (const std::uint64_t seed : slice_seeds()) {
      const ronpath::WorkloadWorld world(ronpath::canonical_scenarios().front(),
                                         ronpath::WorkloadPolicy::kAdaptive, cfg_, seed);
      keep(world.total_packets());
    }
    return (wall_s() - t0) / static_cast<double>(kSlices);
  }

  RunResult run() override {
    RunResult r;
    const auto scenarios = ronpath::canonical_scenarios();
    r.setup_s = setup_once();
    const double t0 = wall_s();
    const double c0 = cpu_s();
    std::vector<WorkloadMatrixResult> results;
    for (const std::uint64_t s : slice_seeds()) {
      results.push_back(ronpath::run_workload_matrix(cfg_, scenarios, s, workers_));
    }
    std::vector<std::string> texts;
    for (const WorkloadMatrixResult& m : results) {
      texts.push_back(ronpath::format_workload_matrix(m, scenarios));
    }
    r.run_s = wall_s() - t0;
    r.cpu_s = cpu_s() - c0;
    score(results, texts, r);
    return r;
  }

  RunResult composed_run(Tracer* tracer, Metrics* layer) override {
    RunResult r;
    Scope whole(tracer, "traffic_matrix.run");
    const auto scenarios = ronpath::canonical_scenarios();
    const auto policies = ronpath::all_workload_policies();
    const std::size_t n_cells = scenarios.size() * policies.size();

    struct CellTiming {
      double setup_s = 0.0;
      double total_s = 0.0;
      std::uint64_t events = 0;
      std::size_t pending = 0;
    };
    std::vector<WorkloadMatrixResult> results;
    std::vector<std::string> texts;
    std::vector<CellTiming> timings;
    std::mutex problems_mu;
    const double t0 = wall_s();
    const double c0 = cpu_s();
    for (const std::uint64_t seed : slice_seeds()) {
      Scope slice(tracer, "workload.slice");
      WorkloadMatrixResult result;
      result.cfg = cfg_;
      result.seed = seed;
      result.cells.resize(n_cells);
      std::vector<CellTiming> slice_timings(n_cells);
      const int parent = slice.index();
      ronpath::ThreadPool::for_each_index(
          n_cells, static_cast<std::size_t>(workers_), [&](std::size_t task) {
            const ronpath::Scenario& scenario = scenarios[task / policies.size()];
            const ronpath::WorkloadPolicy policy = policies[task % policies.size()];
            Scope cell_span(tracer, "workload.cell", parent);
            CellTiming& timing = slice_timings[task];
            const double c_start = wall_s();
            std::optional<ronpath::WorkloadWorld> world;
            {
              Scope s(tracer, "workload.WorkloadWorld");
              world.emplace(scenario, policy, cfg_, seed);
            }
            timing.setup_s = wall_s() - c_start;
            // A cell spans under one simulated hour (30 min warm-up +
            // 25 min measured), so its scheduler slice is the whole run.
            {
              Scope s(tracer, "event.advance_to");
              world->advance_to(world->total_packets());
            }
            timing.pending = world->scheduler().pending_events();
            {
              Scope s(tracer, "event.run_to_end");
              world->run_to_end();
            }
            {
              Scope s(tracer, "workload.report");
              result.cells[task] = extract_cell(*world, scenario, policy, cfg_);
            }
            timing.events = world->scheduler().dispatched_events();
            timing.total_s = wall_s() - c_start;
            std::vector<std::string> audit;
            world->check_invariants(audit);
            if (!audit.empty()) {
              std::lock_guard<std::mutex> lock(problems_mu);
              for (std::string& a : audit) r.problems.push_back(std::move(a));
            }
          });
      {
        Scope s(tracer, "workload.format");
        texts.push_back(ronpath::format_workload_matrix(result, scenarios));
      }
      results.push_back(std::move(result));
      timings.insert(timings.end(), slice_timings.begin(), slice_timings.end());
    }
    r.run_s = wall_s() - t0;
    r.cpu_s = cpu_s() - c0;
    score(results, texts, r);
    for (const CellTiming& t : timings) r.counts.events += t.events;

    // The cells' overlays are internal to WorkloadWorld: the overlay
    // counts come from the control-plane environment (one cell's world,
    // first scenario, no application traffic) per slice.
    for (const std::uint64_t seed : slice_seeds()) {
      Scope s(tracer, "core.CellEnv");
      auto env = control_plane_env(seed);
      r.counts.probes += env->overlay->probes_sent();
      r.counts.announces += control_totals(*env->overlay).announces;
      if (seed == seed_) {
        r.counts.edges_relaxed_per_query =
            probe_path_engine(env->overlay->table(), env->overlay->config().router,
                              env->overlay->config().router.max_intermediates, cell_end(),
                              seed)
                .edges_per_query;
        env_ = std::move(env);
      }
    }

    if (layer != nullptr) {
      std::vector<double> cell_setup;
      std::vector<double> cell_total;
      std::size_t pending_max = 0;
      for (const CellTiming& t : timings) {
        cell_setup.push_back(t.setup_s);
        cell_total.push_back(t.total_s);
        pending_max = std::max(pending_max, t.pending);
      }
      double sent = 0.0;
      double copies = 0.0;
      std::int64_t fec_blocks = 0;
      std::int64_t transitions = 0;
      for (const WorkloadMatrixResult& m : results) {
        for (const WorkloadCell& cell : m.cells) {
          for (const ronpath::ClassCell& cc : cell.classes) sent += static_cast<double>(cc.sent);
          copies += copies_of(cell);
          fec_blocks += cell.fec_blocks;
          transitions += cell.transitions;
        }
      }
      double busy = 0.0;
      for (const double c : cell_total) busy += c;
      const ronpath::OverlayNetwork& ov = *env_->overlay;
      const ControlTotals ct = control_totals(ov);
      layer->set("net.materialized_components",
                 static_cast<double>(env_->net->materialized_components()), "count");
      layer->set("event.pending_max", static_cast<double>(pending_max), "count");
      layer->set("overlay.control_bytes", static_cast<double>(ct.bytes), "bytes");
      layer->set("overlay.suppressed", static_cast<double>(ct.suppressed), "count");
      layer->set("overlay.state_bytes", static_cast<double>(ov.state_bytes()), "bytes");
      layer->set("overlay.route_switches", static_cast<double>(route_switches(ov)), "count");
      layer->set("workload.app_packets", sent, "count");
      layer->set("workload.fec_blocks", static_cast<double>(fec_blocks), "count");
      layer->set("workload.transitions", static_cast<double>(transitions), "count");
      layer->set("workload.cell_setup_s", median(cell_setup), "s");
      layer->set("workload.cell_s_median", median(cell_total), "s");
      layer->set("workload.cell_s_max", *std::max_element(cell_total.begin(), cell_total.end()),
                 "s");
      layer->set("core.pool_efficiency", busy / (r.run_s * workers_), "ratio");
      copies_per_packet_ = copies / sent;
      pending_max_ = pending_max;
    }
    return r;
  }

  Counts cross_check(const RunResult& first, std::vector<std::string>& problems) override {
    const RunResult composed = composed_run(nullptr, nullptr);
    if (composed.checksums != first.checksums) {
      problems.emplace_back("composed WorkloadWorld cells do not reproduce run_workload_matrix");
    }
    if (composed.counts.transmits != first.counts.transmits) {
      problems.emplace_back("composed cells sent a different number of copies");
    }
    for (const std::string& p : composed.problems) problems.push_back(p);
    return composed.counts;
  }

  void drills(Tracer* tracer, Metrics& layer) override {
    DrillTarget target;
    target.net = &*env_->net;
    target.overlay = &*env_->overlay;
    target.injector = &*env_->injector;
    target.run_end = cell_end();
    target.horizon = cfg_.cell.warmup + cfg_.cell.measured + Duration::hours(1);
    target.pending_depth = pending_max_;
    target.max_hops = env_->overlay->config().router.max_intermediates;
    target.seed = seed_;
    run_layer_drills(target, tracer, layer);
    // The data plane's own ratio, not the drill sender's.
    layer.set("routing.copies_per_packet", copies_per_packet_, "ratio");
    const auto sample = capture_ron2003_records(seed_, 100'000);
    const double finish = run_measure_drills(sample, 30, seed_, tracer, layer);
    layer.set("measure.finish_s", finish, "s");
  }

  std::vector<std::uint64_t> slice_seeds() const override {
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t i = 0; i < kSlices; ++i) seeds.push_back(seed_ + i);
    return seeds;
  }
  int extra_setups() const override { return kExtraSetups; }

 private:
  [[nodiscard]] TimePoint cell_end() const {
    return TimePoint::epoch() + cfg_.cell.warmup + cfg_.cell.measured;
  }

  // One cell's underlay/overlay/fault world (first canonical scenario),
  // run to the cell's end with no application traffic.
  std::unique_ptr<ronpath::CellEnv> control_plane_env(std::uint64_t seed) const {
    auto env = std::make_unique<ronpath::CellEnv>(ronpath::canonical_scenarios().front(),
                                                  ronpath::HybridMode::kAdaptive, cfg_.cell,
                                                  seed);
    env->sched.run_until(cell_end());
    return env;
  }

  // Checksums, adaptive gate and packet totals shared by both run kinds.
  void score(const std::vector<WorkloadMatrixResult>& results,
             const std::vector<std::string>& texts, RunResult& r) const {
    r.units = 0;
    double copies = 0.0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      r.checksums.push_back(ronpath::snap::fnv1a(texts[i]));
      const int wins = adaptive_wins(results[i]);
      r.units += static_cast<std::int64_t>(results[i].cells.size());
      if (wins < 1) {
        r.problems.push_back("seed " + std::to_string(results[i].seed) +
                             ": adaptive beats both static policies on no SLO column");
        r.failed_units += static_cast<std::int64_t>(results[i].cells.size());
      }
      for (const WorkloadCell& cell : results[i].cells) copies += copies_of(cell);
    }
    r.packets = copies;
    r.counts.transmits = std::llround(copies);
  }

  std::uint64_t seed_;
  int workers_;
  ronpath::WorkloadConfig cfg_;
  std::unique_ptr<ronpath::CellEnv> env_;
  double copies_per_packet_ = 0.0;
  std::size_t pending_max_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_traffic_matrix(std::uint64_t seed, int workers) {
  return std::make_unique<TrafficMatrix>(seed, workers);
}

}  // namespace perfbench
