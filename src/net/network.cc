#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "snapshot/codec.h"

namespace ronpath {
namespace {

// Sorts and returns boost intervals by start time.
std::vector<StateInterval> sorted(std::vector<StateInterval> v) {
  std::sort(v.begin(), v.end(),
            [](const StateInterval& a, const StateInterval& b) { return a.start < b.start; });
  return v;
}

}  // namespace

std::string_view to_string(DropCause cause) {
  switch (cause) {
    case DropCause::kNone: return "none";
    case DropCause::kRandom: return "random";
    case DropCause::kBurst: return "burst";
    case DropCause::kOutage: return "outage";
    case DropCause::kInjected: return "injected";
  }
  return "?";
}

Network::Network(Topology topology, NetConfig config, Duration horizon, Rng rng)
    : topo_(std::move(topology)),
      config_(std::move(config)),
      quality_rng_(rng.fork("core-quality")),
      stretch_rng_(rng.fork("core-stretch")),
      hit_root_(rng.fork("event-hits")),
      component_root_(rng.fork("component")),
      pkt_rng_(rng.fork("packets")) {
  const std::size_t n = topo_.size();
  site_comp_count_ = kSiteCompCount * n;

  // Pregenerate provider-level events per site over the run horizon.
  site_events_.resize(n);
  const auto& pe = config_.provider_events;
  if (pe.events_per_site_day > 0.0) {
    const Duration mean_gap = Duration::from_seconds_f(86'400.0 / pe.events_per_site_day);
    const double expected_events =
        horizon.to_seconds_f() / 86'400.0 * pe.events_per_site_day;
    for (NodeId s = 0; s < n; ++s) {
      site_events_[s].reserve(static_cast<std::size_t>(expected_events * 1.5) + 8);
      Rng er = rng.fork("provider-events").fork(s);
      TimePoint t = TimePoint::epoch() + er.exponential_duration(mean_gap);
      std::uint64_t seq = 0;
      while (t < TimePoint::epoch() + horizon) {
        site_events_[s].push_back({t, t + er.exponential_duration(pe.mean_duration), seq++});
        t += er.exponential_duration(mean_gap);
      }
    }
  }

  // Site components are built now; the n*(n-1) cores on first touch.
  core_slot_.assign(topo_.component_count() - site_comp_count_, 0);
  for (std::size_t ci = 0; ci < site_comp_count_; ++ci) build(ci);
}

double Network::core_stretch(NodeId src, NodeId dst) const {
  const std::size_t slot = topo_.core_index(src, dst) - site_comp_count_;
  const double stretch = config_.core_stretch_median *
                         std::exp(config_.core_stretch_sigma *
                                  stretch_rng_.fork(slot).normal(0.0, 1.0));
  return std::max(stretch, config_.core_stretch_min);
}

Network::Slot& Network::build(std::size_t ci) {
  const ComponentId id = topo_.component(ci);
  const bool is_core = id.kind == ComponentId::Kind::kCore;
  ComponentParams params = config_.params_for(topo_, ci);
  std::vector<StateInterval> boosts;
  std::vector<LatencyAddition> additions;

  if (is_core) {
    // Persistent chronic quality of this segment (see config.h).
    const double q = std::min(
        config_.core_quality_max,
        std::exp(config_.core_quality_sigma * quality_rng_.fork(ci).normal(0.0, 1.0)));
    params.bursts_per_hour *= q;
    params.base_loss *= std::min(q, 5.0);

    // Provider events from either endpoint hit this segment w.p.
    // cross_fraction, decided deterministically per (site, event, segment).
    const auto& pe = config_.provider_events;
    const double event_boost = derived_boost(params, pe.event_loss_rate);
    boosts.reserve(site_events_[id.a].size() + site_events_[id.b].size());
    for (NodeId endpoint : {id.a, id.b}) {
      const Rng endpoint_rng = hit_root_.fork(endpoint);
      for (const auto& ev : site_events_[endpoint]) {
        Rng hit = endpoint_rng.fork(ev.seq).fork(ci);
        if (hit.next_double() < pe.cross_fraction) {
          boosts.push_back({ev.start, ev.end, event_boost});
        }
      }
    }
  }

  // Configured incidents: access incidents hit their site's components,
  // core incidents a cross_fraction of the segments touching their site.
  const auto at_site = [&](const Incident& inc, NodeId site) {
    return inc.site_name.empty() || topo_.site(site).name == inc.site_name;
  };
  for (std::size_t ii = 0; ii < config_.incidents.size(); ++ii) {
    const Incident& inc = config_.incidents[ii];
    const bool affected =
        is_core ? inc.scope == Incident::Scope::kCore &&
                      (at_site(inc, id.a) || at_site(inc, id.b)) &&
                      hit_root_.fork("incident").fork(ii).fork(ci).next_double() <
                          inc.cross_fraction
                : inc.scope == Incident::Scope::kAccess && at_site(inc, id.a);
    if (!affected) continue;
    const double inc_boost =
        inc.loss_rate > 0.0 ? derived_boost(params, inc.loss_rate) : inc.burst_boost;
    if (inc_boost != 1.0) boosts.push_back({inc.start, inc.end(), inc_boost});
    if (inc.added_latency > Duration::zero()) {
      additions.push_back({inc.start, inc.end(), inc.added_latency});
    }
  }

  // Resolve the per-hop constants the packet loop reads on every traversal.
  HopMeta meta;
  meta.fixed_delay = params.fixed_delay;
  meta.ln_jitter_median = std::log(params.jitter_median.to_seconds_f());
  meta.jitter_sigma = params.jitter_sigma;
  meta.is_core = is_core;
  meta.has_additions = !additions.empty();
  if (is_core) {
    meta.stretched_prop = Duration::from_seconds_f(
        topo_.propagation(id.a, id.b).to_seconds_f() * core_stretch(id.a, id.b));
    assert(slots_.size() <= UINT32_MAX);
    core_slot_[ci - site_comp_count_] = static_cast<std::uint32_t>(slots_.size());
  }
  return slots_.emplace_back(Slot{ComponentProcess(params, topo_.site(id.a).lon_deg,
                                                sorted(std::move(boosts)),
                                                component_root_.fork(ci)),
                               meta, std::move(additions)});
}

Network::Slot& Network::slot(std::size_t ci) {
  if (ci < site_comp_count_) return slots_[ci];
  const std::uint32_t at = core_slot_[ci - site_comp_count_];
  return at != 0 ? slots_[at] : build(ci);
}

Duration Network::hop_delay(const Slot& c, const ComponentSample& s, TimePoint t) {
  const HopMeta& m = c.meta;
  Duration d = m.fixed_delay;
  if (m.is_core) d += m.stretched_prop;
  // Per-packet jitter.
  d += Duration::from_seconds_f(pkt_rng_.lognormal(m.ln_jitter_median, m.jitter_sigma));
  // Congestion queueing.
  if (s.queue_delay_mean > Duration::zero()) {
    d += pkt_rng_.exponential_duration(s.queue_delay_mean);
  }
  // Incident latency additions.
  if (m.has_additions) {
    for (const auto& add : c.additions) {
      if (t >= add.start && t < add.end) d += add.added;
    }
  }
  return d;
}

TransmitResult Network::transmit(const PathSpec& path, TimePoint send_time, TrafficClass cls) {
  // Roughly-monotone query contract (loss_process.h): out-of-order sends
  // beyond kQuerySafety would read component state whose history has been
  // pruned. Assert in debug; clamp forward gracefully in release.
  assert(send_time + kQuerySafety >= max_send_ && "transmit query too far in the past");
  if (send_time + kQuerySafety < max_send_) send_time = max_send_ - kQuerySafety;
  if (send_time > max_send_) max_send_ = send_time;

  ++stats_.transmitted;
  Topology::Hop hops[Topology::kMaxHops];
  const std::size_t n_hops = topo_.hops_into(path, hops);

  // Scripted probe blackhole: control probes with an affected endpoint
  // die here; data packets pass through untouched.
  if (fault_ && cls == TrafficClass::kProbe &&
      (fault_->probe_blackhole(path.src, send_time) ||
       fault_->probe_blackhole(path.dst, send_time))) {
    ++stats_.dropped_injected;
    TransmitResult r;
    r.delivered = false;
    r.cause = DropCause::kInjected;
    r.drop_component = n_hops == 0 ? 0 : hops[0].component;
    return r;
  }

  TimePoint t = send_time;
  for (std::size_t hi = 0; hi < n_hops; ++hi) {
    const std::size_t ci = hops[hi].component;
    if (fault_ && fault_->component_down(ci, t)) {
      ++stats_.dropped_injected;
      TransmitResult r;
      r.delivered = false;
      r.cause = DropCause::kInjected;
      r.drop_component = ci;
      return r;
    }
    Slot& c = slot(ci);
    const ComponentSample s = c.proc.sample(t);
    if (pkt_rng_.bernoulli(s.drop_prob)) {
      TransmitResult r;
      r.delivered = false;
      r.cause = s.outage ? DropCause::kOutage : (s.burst ? DropCause::kBurst : DropCause::kRandom);
      r.drop_component = ci;
      switch (r.cause) {
        case DropCause::kRandom: ++stats_.dropped_random; break;
        case DropCause::kBurst: ++stats_.dropped_burst; break;
        case DropCause::kOutage: ++stats_.dropped_outage; break;
        case DropCause::kNone:
        case DropCause::kInjected: break;
      }
      return r;
    }
    t += hop_delay(c, s, t);
    // Application-level forwarding turn-around at each intermediate.
    if (hops[hi].forward_after) t += config_.forward_delay;
  }
  ++stats_.delivered;
  TransmitResult r;
  r.delivered = true;
  r.latency = t - send_time;
  return r;
}

Duration Network::base_latency(const PathSpec& path) const {
  const auto hops = topo_.hops(path);
  Duration d = Duration::zero();
  for (const auto& hop : hops) {
    const ComponentId id = topo_.component(hop.component);
    d += config_.params_for(topo_, hop.component).fixed_delay;
    if (id.kind == ComponentId::Kind::kCore) {
      d += Duration::from_seconds_f(topo_.propagation(id.a, id.b).to_seconds_f() *
                                    core_stretch(id.a, id.b));
    }
  }
  d += config_.forward_delay * path.intermediates();
  return d;
}

void Network::save_state(snap::Encoder& e) const {
  e.tag("NETW");
  // Site components, then the built cores as (index, state) in ascending
  // index order. The built set is itself a deterministic function of the
  // traffic, so an uninterrupted run and a restored run converge on the
  // same list at the same point.
  e.u64(site_comp_count_);
  for (std::size_t ci = 0; ci < site_comp_count_; ++ci) slots_[ci].proc.save_state(e);
  e.u64(slots_.size() - site_comp_count_);
  for (std::size_t k = 0; k < core_slot_.size(); ++k) {
    if (core_slot_[k] == 0) continue;
    e.u64(site_comp_count_ + k);
    slots_[core_slot_[k]].proc.save_state(e);
  }
  snap::save_rng(e, pkt_rng_);
  e.i64(stats_.transmitted);
  e.i64(stats_.delivered);
  e.i64(stats_.dropped_random);
  e.i64(stats_.dropped_burst);
  e.i64(stats_.dropped_outage);
  e.i64(stats_.dropped_injected);
  e.time(max_send_);
}

void Network::restore_state(snap::Decoder& d) {
  d.expect_tag("NETW");
  const std::uint64_t n = d.u64();
  if (n != site_comp_count_) {
    throw snap::SnapshotError("snapshot: site component count mismatch (snapshot has " +
                              std::to_string(n) + ", network has " +
                              std::to_string(site_comp_count_) +
                              " — different topology or configuration)");
  }
  for (std::size_t ci = 0; ci < site_comp_count_; ++ci) slots_[ci].proc.restore_state(d);
  // Drop the built cores, then build each listed core fresh from its
  // keyed forks and overwrite it with the saved timeline state.
  while (slots_.size() > site_comp_count_) slots_.pop_back();
  std::fill(core_slot_.begin(), core_slot_.end(), 0);
  const std::uint64_t n_cores = d.count(9);
  std::size_t prev = 0;
  for (std::uint64_t i = 0; i < n_cores; ++i) {
    const std::uint64_t ci = d.u64();
    if (ci < site_comp_count_ || ci >= topo_.component_count() || (i > 0 && ci <= prev)) {
      throw snap::SnapshotError("snapshot: built-core list corrupt or unsorted");
    }
    prev = ci;
    build(ci).proc.restore_state(d);
  }
  snap::restore_rng(d, pkt_rng_);
  stats_.transmitted = d.i64();
  stats_.delivered = d.i64();
  stats_.dropped_random = d.i64();
  stats_.dropped_burst = d.i64();
  stats_.dropped_outage = d.i64();
  stats_.dropped_injected = d.i64();
  max_send_ = d.time();
}

void Network::check_invariants(std::vector<std::string>& out) const {
  for (std::size_t ci = 0; ci < site_comp_count_; ++ci) {
    slots_[ci].proc.check_invariants("component " + std::to_string(ci), out);
  }
  for (std::size_t k = 0; k < core_slot_.size(); ++k) {
    if (core_slot_[k] == 0) continue;
    slots_[core_slot_[k]].proc.check_invariants(
        "component " + std::to_string(site_comp_count_ + k), out);
  }
  const std::int64_t charged = stats_.delivered + stats_.dropped_random + stats_.dropped_burst +
                               stats_.dropped_outage + stats_.dropped_injected;
  if (charged != stats_.transmitted) {
    out.push_back("network: stats not conserved (" + std::to_string(stats_.transmitted) +
                  " transmitted vs " + std::to_string(charged) + " accounted)");
  }
}

}  // namespace ronpath
