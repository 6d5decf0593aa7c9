#include "drills.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "event/scheduler.h"
#include "fault/scenarios.h"
#include "measure/aggregator.h"
#include "measure/quantile_sketch.h"
#include "overlay/path_engine.h"
#include "routing/hybrid.h"
#include "routing/schemes.h"
#include "util/rng.h"

namespace perfbench {

using ronpath::Duration;
using ronpath::NodeId;
using ronpath::Rng;
using ronpath::TimePoint;

namespace {

// Batch sizes: large enough that one batch runs for milliseconds.
constexpr int kTransmits = 200'000;
constexpr int kSamples = 200'000;
constexpr int kEvents = 500'000;
constexpr int kLookups = 500'000;
constexpr int kPublishes = 200'000;
constexpr int kRoutes = 50'000;
constexpr int kEngineQueries = 2'000;
constexpr int kFaultLookups = 200'000;
constexpr int kHybridSends = 20'000;
constexpr int kSketchAdds = 1'000'000;
constexpr int kSetupBuilds = 3;

// Times `body` as one drill batch of `calls` calls, recorded as a span
// under the current scope, and returns nanoseconds per call.
template <typename F>
double timed_batch(Tracer* tracer, const char* name, std::int64_t calls, F&& body) {
  Scope span(tracer, name);
  span.set_calls(calls);
  const double t0 = wall_s();
  body();
  return (wall_s() - t0) * 1e9 / static_cast<double>(calls);
}

// A source and one of its probed peers (any other node on a full mesh):
// the (src, dst) shape of the overlay's own traffic.
std::pair<NodeId, NodeId> neighbor_pair(const ronpath::NeighborSet& nbrs, Rng& rng) {
  for (;;) {
    const auto src = static_cast<NodeId>(rng.next_below(nbrs.size()));
    const auto row = nbrs.neighbors(src);
    if (row.empty()) continue;
    return {src, row[rng.next_below(row.size())]};
  }
}

std::pair<NodeId, NodeId> any_pair(std::size_t n, Rng& rng) {
  const auto src = static_cast<NodeId>(rng.next_below(n));
  auto dst = static_cast<NodeId>(rng.next_below(n - 1));
  if (dst >= src) ++dst;
  return {src, dst};
}

ronpath::PathSpec direct(NodeId src, NodeId dst) {
  ronpath::PathSpec p;
  p.src = src;
  p.dst = dst;
  return p;
}

}  // namespace

EngineProbe probe_path_engine(const ronpath::LinkStateTable& table,
                              const ronpath::RouterConfig& cfg, int max_hops, TimePoint now,
                              std::uint64_t seed) {
  ronpath::PathEngine engine(table, cfg);
  Rng rng = Rng(seed).fork("perfbench-engine");
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(kEngineQueries);
  for (int i = 0; i < kEngineQueries; ++i) pairs.push_back(any_pair(table.size(), rng));

  double sink = 0.0;
  const double t0 = wall_s();
  for (const auto& [src, dst] : pairs) {
    sink += engine.best_loss(src, dst, max_hops, now).loss;
    sink += engine.best_latency(src, dst, max_hops, now).latency.to_seconds_f();
  }
  const double elapsed = wall_s() - t0;
  const double queries = 2.0 * kEngineQueries;
  EngineProbe out;
  out.edges_per_query = static_cast<double>(engine.stats().edges_relaxed) / queries;
  keep(sink);
  out.ns_per_query = elapsed * 1e9 / queries;
  return out;
}

std::int64_t route_switches(const ronpath::OverlayNetwork& overlay) {
  std::int64_t total = 0;
  for (NodeId src = 0; src < overlay.size(); ++src) {
    const ronpath::Router& router = overlay.router(src);
    for (NodeId dst = 0; dst < overlay.size(); ++dst) {
      if (dst == src) continue;
      total += router.loss_switches(dst) + router.lat_switches(dst);
    }
  }
  return total;
}

ControlTotals control_totals(const ronpath::OverlayNetwork& overlay) {
  ControlTotals t;
  for (NodeId i = 0; i < overlay.size(); ++i) {
    const ronpath::ControlMeter& m = overlay.control_meter(i);
    t.announces += m.total_announces;
    t.bytes += m.total_bytes;
    t.suppressed += m.suppressed;
  }
  return t;
}

void run_layer_drills(const DrillTarget& target, Tracer* tracer, Metrics& layer) {
  ronpath::Network& net = *target.net;
  ronpath::OverlayNetwork& overlay = *target.overlay;
  const ronpath::NeighborSet& nbrs = overlay.neighbors();
  const ronpath::Topology& topo = net.topology();
  Rng rng = Rng(target.seed).fork("perfbench-drills");
  // Drill traffic starts after the run and moves forward monotonically,
  // as Network::transmit requires.
  TimePoint t = target.run_end;

  // --- setup: fresh layer objects of the same shape --------------------
  {
    std::vector<double> net_s;
    std::vector<double> overlay_s;
    for (int i = 0; i < kSetupBuilds; ++i) {
      const double t0 = wall_s();
      ronpath::Network fresh(topo, net.config(), target.horizon, Rng(target.seed).fork("net"));
      const double t1 = wall_s();
      ronpath::Scheduler sched;
      ronpath::OverlayNetwork fresh_overlay(fresh, sched, overlay.config(),
                                            Rng(target.seed).fork("overlay"));
      overlay_s.push_back(wall_s() - t1);
      net_s.push_back(t1 - t0);
    }
    layer.set("net.setup_s", median(net_s), "s");
    layer.set("overlay.setup_s", median(overlay_s), "s");
  }

  // --- net ------------------------------------------------------------
  {
    std::vector<ronpath::PathSpec> paths;
    paths.reserve(kTransmits);
    for (int i = 0; i < kTransmits; ++i) {
      const auto [src, dst] = neighbor_pair(nbrs, rng);
      paths.push_back(direct(src, dst));
    }
    std::int64_t delivered = 0;
    const double ns = timed_batch(tracer, "drill.net.transmit", kTransmits, [&] {
      for (const ronpath::PathSpec& p : paths) {
        t = t + Duration::micros(10);
        delivered += net.transmit(p, t).delivered ? 1 : 0;
      }
    });
    keep(delivered);
    layer.set("net.ns_per_transmit", ns, "ns");

    std::vector<std::size_t> comps;
    comps.reserve(kSamples);
    for (const ronpath::PathSpec& p : paths) {
      for (const auto& hop : topo.hops(p)) comps.push_back(hop.component);
      if (comps.size() >= static_cast<std::size_t>(kSamples)) break;
    }
    double drop = 0.0;
    const auto n_samples = static_cast<std::int64_t>(comps.size());
    const double ns_sample = timed_batch(tracer, "drill.net.sample", n_samples, [&] {
      for (const std::size_t c : comps) {
        t = t + Duration::micros(1);
        drop += net.component(c).sample(t).drop_prob;
      }
    });
    keep(drop);
    layer.set("net.ns_per_sample", ns_sample, "ns");
  }

  // --- event: schedule + step at the run's peak queue depth -------------
  {
    ronpath::Scheduler sched;
    const std::size_t depth = std::max<std::size_t>(target.pending_depth, 1);
    for (std::size_t i = 0; i < depth; ++i) {
      const auto delay = 1 + static_cast<std::int64_t>(rng.next_below(1'000'000'000));
      sched.schedule_after(Duration::nanos(delay), [] {});
    }
    std::vector<std::int64_t> delays(kEvents);
    for (auto& d : delays) d = 1 + static_cast<std::int64_t>(rng.next_below(1'000'000'000));
    const double ns = timed_batch(tracer, "drill.event.schedule_step", kEvents, [&] {
      for (const std::int64_t d : delays) {
        sched.schedule_after(Duration::nanos(d), [] {});
        sched.step();
      }
    });
    layer.set("event.ns_per_event", ns, "ns");
  }

  // --- overlay ----------------------------------------------------------
  {
    std::vector<std::pair<NodeId, NodeId>> edges(kLookups / 2);
    for (auto& e : edges) e = neighbor_pair(nbrs, rng);
    std::vector<std::pair<NodeId, NodeId>> pairs(kLookups / 2);
    for (auto& p : pairs) p = any_pair(overlay.size(), rng);
    std::size_t sink = 0;
    const double ns = timed_batch(tracer, "drill.overlay.edge_lookup", kLookups, [&] {
      for (const auto& [s, d] : edges) sink += nbrs.edge_index(s, d);
      for (const auto& [a, b] : pairs) sink += nbrs.adjacent(a, b) ? 1 : 0;
    });
    keep(sink);
    layer.set("overlay.ns_per_edge_lookup", ns, "ns");

    // Publish into a copy so the finished table stays as the run left it.
    ronpath::LinkStateTable scratch = overlay.table();
    std::vector<std::pair<NodeId, NodeId>> pubs(kPublishes);
    for (auto& e : pubs) e = neighbor_pair(nbrs, rng);
    const double ns_pub = timed_batch(tracer, "drill.overlay.publish", kPublishes, [&] {
      for (const auto& [s, d] : pubs) scratch.publish(s, d, scratch.get(s, d));
    });
    layer.set("overlay.ns_per_publish", ns_pub, "ns");

    std::vector<std::pair<NodeId, NodeId>> routes(kRoutes);
    for (auto& p : routes) p = any_pair(overlay.size(), rng);
    std::size_t hops = 0;
    const double ns_route = timed_batch(tracer, "drill.overlay.route", kRoutes, [&] {
      for (const auto& [s, d] : routes) {
        const ronpath::PathSpec path = overlay.route(s, d, ronpath::RouteTag::kLoss);
        hops += static_cast<std::size_t>(path.intermediates());
      }
    });
    keep(hops);
    layer.set("overlay.ns_per_route", ns_route, "ns");
  }

  // --- path engine on the finished table --------------------------------
  {
    Scope span(tracer, "drill.overlay.path_engine");
    span.set_calls(2 * kEngineQueries);
    const EngineProbe probe = probe_path_engine(overlay.table(), overlay.config().router,
                                                target.max_hops, target.run_end, target.seed);
    layer.set("overlay.path_engine.ns_per_query", probe.ns_per_query, "ns");
  }

  // --- fault: the run's (component, t) lookup shape ---------------------
  {
    std::unique_ptr<ronpath::FaultInjector> own;
    const ronpath::FaultInjector* injector = target.injector;
    if (injector == nullptr) {
      const ronpath::Scenario* scenario = ronpath::find_scenario("link-flap");
      const auto schedule = ronpath::FaultSchedule::parse(scenario->dsl, nullptr);
      own = std::make_unique<ronpath::FaultInjector>(*schedule, topo, target.horizon);
      injector = own.get();
    }
    struct Lookup {
      std::size_t component;
      NodeId node;
      TimePoint t;
    };
    std::vector<Lookup> stream;
    stream.reserve(kFaultLookups);
    const auto span_ns = static_cast<std::uint64_t>(target.run_end.nanos_since_epoch());
    while (stream.size() < static_cast<std::size_t>(kFaultLookups)) {
      const auto [src, dst] = neighbor_pair(nbrs, rng);
      const auto when = TimePoint::from_nanos(static_cast<std::int64_t>(rng.next_below(span_ns)));
      for (const auto& hop : topo.hops(direct(src, dst))) {
        stream.push_back(Lookup{hop.component, src, when});
      }
    }
    std::sort(stream.begin(), stream.end(),
              [](const Lookup& a, const Lookup& b) { return a.t < b.t; });
    std::size_t hits = 0;
    const double ns = timed_batch(tracer, "drill.fault.lookup",
                                  2 * static_cast<std::int64_t>(stream.size()), [&] {
      for (const Lookup& l : stream) {
        hits += injector->component_down(l.component, l.t) ? 1 : 0;
        hits += injector->probe_blackhole(l.node, l.t) ? 1 : 0;
      }
    });
    keep(hits);
    layer.set("fault.ns_per_lookup", ns, "ns");
  }

  // --- routing: hybrid copies per packet on the finished overlay ---------
  {
    ronpath::HybridSender sender(overlay, ronpath::HybridConfig{},
                                 Rng(target.seed).fork("perfbench-hybrid"));
    Scope span(tracer, "drill.routing.hybrid_send");
    span.set_calls(kHybridSends);
    for (int i = 0; i < kHybridSends; ++i) {
      const auto [src, dst] = any_pair(overlay.size(), rng);
      t = t + Duration::millis(1);
      (void)sender.send(src, dst, t);
    }
    layer.set("routing.copies_per_packet",
              static_cast<double>(sender.copies()) / static_cast<double>(sender.packets()),
              "ratio");
  }
}

double run_measure_drills(std::span<const ronpath::ProbeRecord> sample, std::size_t nodes,
                          std::uint64_t seed, Tracer* tracer, Metrics& layer) {
  double finish_s = 0.0;
  if (!sample.empty()) {
    ronpath::AggregatorConfig cfg;
    cfg.measure_start = sample.front().sent();
    const auto set = ronpath::ron2003_probe_set();
    ronpath::Aggregator agg(nodes, set, cfg);
    const double ns = timed_batch(tracer, "drill.measure.aggregator_add",
                                  static_cast<std::int64_t>(sample.size()), [&] {
      for (const ronpath::ProbeRecord& rec : sample) agg.add(rec);
    });
    layer.set("measure.ns_per_record", ns, "ns");
    Scope span(tracer, "drill.measure.finish");
    const double t0 = wall_s();
    agg.finish(sample.back().sent() + Duration::hours(1));
    finish_s = wall_s() - t0;
  }

  Rng rng = Rng(seed).fork("perfbench-sketch");
  std::vector<Duration> latencies(kSketchAdds);
  for (Duration& d : latencies) {
    // Log-uniform over 1 ms .. 1 s: the spread of one-way latencies.
    const double ms = std::pow(10.0, 3.0 * rng.next_double());
    d = Duration::from_millis_f(ms);
  }
  ronpath::QuantileSketch sketch;
  const double ns = timed_batch(tracer, "drill.measure.sketch_add", kSketchAdds, [&] {
    for (const Duration d : latencies) sketch.add(d);
  });
  keep(sketch.count());
  layer.set("measure.ns_per_sketch_add", ns, "ns");
  return finish_s;
}

}  // namespace perfbench
