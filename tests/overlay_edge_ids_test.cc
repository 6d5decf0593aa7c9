// Dense addressing on the capped control plane (DESIGN.md §14): edge ids,
// their reverse edges and the complete-row lookup, row/column views of
// the link-state table, the inline bit-ring loss window, and the
// faulted-component bitset — each checked against the keyed or naive
// form it replaces.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/testbed.h"
#include "fault/injector.h"
#include "fault/scenarios.h"
#include "net/scale_topology.h"
#include "overlay/estimator.h"
#include "overlay/link_state.h"
#include "overlay/neighbors.h"
#include "snapshot/codec.h"
#include "util/rng.h"

namespace ronpath {
namespace {

Topology topo_200() {
  ScaleTopologyParams p;
  p.nodes = 200;
  return scale_topology(p);
}

// ------------------------------------------------------------ edge ids

// Also checks every pair's adjacent/edge_index against a binary search
// over the CSR row: on a complete row (degree n-1) both compute the rank
// as d - (d > s) instead of searching.
void expect_edge_ids_consistent(const NeighborSet& nbrs) {
  ASSERT_GT(nbrs.edge_count(), 0u);
  for (std::size_t e = 0; e < nbrs.edge_count(); ++e) {
    const std::size_t r = nbrs.reverse_edge(e);
    ASSERT_LT(r, nbrs.edge_count());
    EXPECT_EQ(nbrs.reverse_edge(r), e) << "edge " << e;
    EXPECT_EQ(nbrs.edge_source(r), nbrs.edge_target(e)) << "edge " << e;
    EXPECT_EQ(nbrs.edge_target(r), nbrs.edge_source(e)) << "edge " << e;
  }
  for (NodeId s = 0; s < nbrs.size(); ++s) {
    const auto row = nbrs.neighbors(s);
    for (std::size_t rank = 0; rank < row.size(); ++rank) {
      const std::size_t e = nbrs.row_offset(s) + rank;
      EXPECT_EQ(e, nbrs.edge_index(s, row[rank])) << s << "->" << row[rank];
      EXPECT_EQ(nbrs.edge_source(e), s);
      EXPECT_EQ(nbrs.edge_target(e), row[rank]);
    }
    for (NodeId d = 0; d < nbrs.size(); ++d) {
      const auto it = std::lower_bound(row.begin(), row.end(), d);
      const bool found = it != row.end() && *it == d;
      ASSERT_EQ(nbrs.adjacent(s, d), found) << s << "->" << d;
      if (found) {
        ASSERT_EQ(nbrs.edge_index(s, d),
                  nbrs.row_offset(s) + static_cast<std::size_t>(it - row.begin()))
            << s << "->" << d;
      }
    }
  }
}

TEST(EdgeIds, ReverseEdgeIsAnEndpointSwappingInvolutionOnCappedGraph) {
  const Topology topo = topo_200();
  const NeighborSet nbrs = NeighborSet::build(topo, 8, 4);
  ASSERT_LT(nbrs.edge_count(), nbrs.size() * (nbrs.size() - 1));
  // The landmark rows are complete; the rest are not.
  ASSERT_EQ(nbrs.landmarks().size(), 4u);
  for (NodeId s = 0; s < nbrs.size(); ++s) {
    ASSERT_EQ(nbrs.complete(s), nbrs.is_landmark(s)) << "row " << s;
  }
  expect_edge_ids_consistent(nbrs);

  // A near-complete graph: rows one peer short of complete must still
  // binary-search.
  const Topology testbed = testbed_2003();
  const NeighborSet dense = NeighborSet::build(testbed, testbed.size() - 4, 0);
  std::size_t one_short = 0;
  for (NodeId s = 0; s < dense.size(); ++s) one_short += dense.degree(s) + 2 == dense.size();
  ASSERT_GT(one_short, 0u);
  expect_edge_ids_consistent(dense);
}

TEST(EdgeIds, ReverseEdgeIsAnEndpointSwappingInvolutionOnFullMesh) {
  const NeighborSet nbrs = NeighborSet::full_mesh(40);
  ASSERT_EQ(nbrs.edge_count(), 40u * 39u);
  for (NodeId s = 0; s < nbrs.size(); ++s) ASSERT_TRUE(nbrs.complete(s)) << "row " << s;
  expect_edge_ids_consistent(nbrs);
}

// ------------------------------------------------------ row/column views

// Publishes a deterministic pseudo-random entry on about half the edges
// (the keyed and edge-addressed publishes alternate), so views are
// checked against both published and pristine entries.
void populate(LinkStateTable& table, const NeighborSet& nbrs) {
  Rng rng(7);
  for (std::size_t e = 0; e < nbrs.edge_count(); ++e) {
    if (!rng.bernoulli(0.5)) continue;
    LinkMetrics m;
    m.loss = rng.uniform(0.0, 1.0);
    m.samples = 1 + rng.next_below(100);
    m.down = rng.bernoulli(0.1);
    m.published = TimePoint::epoch() + Duration::seconds(static_cast<std::int64_t>(e));
    if (e % 2 == 0) {
      table.publish_edge(e, m);
    } else {
      table.publish(nbrs.edge_source(e), nbrs.edge_target(e), m);
    }
  }
}

void expect_views_match_get(const LinkStateTable& table) {
  const std::size_t n = table.size();
  std::vector<const LinkMetrics*> view(n, nullptr);
  for (NodeId a = 0; a < n; ++a) {
    table.fill_row(a, view);
    for (NodeId x = 0; x < n; ++x) {
      ASSERT_EQ(view[x], &table.get(a, x)) << "row " << a << " col " << x;
    }
    table.fill_col(a, view);
    for (NodeId x = 0; x < n; ++x) {
      ASSERT_EQ(view[x], &table.get(x, a)) << "row " << x << " col " << a;
    }
  }
}

// Every table is CSR over its graph: the views and row() must agree with
// get() whether the graph is capped or complete.
void expect_csr_views_match_get(const NeighborSet& nbrs) {
  LinkStateTable table(nbrs);
  populate(table, nbrs);
  expect_views_match_get(table);
  for (NodeId s = 0; s < nbrs.size(); ++s) {
    const auto row = table.row(s);
    ASSERT_EQ(row.size(), nbrs.degree(s));
    for (std::size_t rank = 0; rank < row.size(); ++rank) {
      EXPECT_EQ(&row[rank], &table.get(s, nbrs.neighbors(s)[rank]));
    }
  }
}

TEST(LinkStateViews, FillRowAndColumnEqualGetOnSparseTable) {
  const Topology topo = topo_200();
  expect_csr_views_match_get(NeighborSet::build(topo, 8, 4));
}

// Tables over complete graphs: a populated full mesh, and a
// mostly-pristine full mesh with a single published entry.
TEST(LinkStateViews, FillRowAndColumnEqualGetOnDenseTables) {
  expect_csr_views_match_get(NeighborSet::full_mesh(30));

  const NeighborSet mesh_12 = NeighborSet::full_mesh(12);
  LinkStateTable bare(mesh_12);
  LinkMetrics m;
  m.loss = 0.25;
  m.samples = 3;
  bare.publish(3, 4, m);
  expect_views_match_get(bare);
}

TEST(LinkStateViews, EdgePublishMatchesKeyedPublish) {
  const Topology topo = topo_200();
  const NeighborSet nbrs = NeighborSet::build(topo, 8, 4);
  LinkStateTable by_edge(nbrs);
  LinkStateTable by_key(nbrs);
  for (std::size_t e = 0; e < nbrs.edge_count(); e += 3) {
    LinkMetrics m;
    m.loss = static_cast<double>(e % 10) / 10.0;
    m.samples = 1;
    m.down = e % 7 == 0;
    by_edge.publish_edge(e, m);
    by_key.publish(nbrs.edge_source(e), nbrs.edge_target(e), m);
  }
  for (std::size_t e = 0; e < nbrs.edge_count(); ++e) {
    const NodeId s = nbrs.edge_source(e);
    const NodeId d = nbrs.edge_target(e);
    EXPECT_EQ(by_edge.get(s, d).loss, by_key.get(s, d).loss);
    EXPECT_EQ(by_edge.get(s, d).down, by_key.get(s, d).down);
  }
  for (NodeId v = 0; v < nbrs.size(); ++v) {
    EXPECT_EQ(by_edge.node_seems_up(v), by_key.node_seems_up(v)) << "node " << v;
  }
  std::vector<std::string> violations;
  by_edge.check_invariants(TimePoint::epoch(), violations);
  EXPECT_TRUE(violations.empty()) << (violations.empty() ? "" : violations.front());
}

// ------------------------------------------------------ bit-ring window

// The LEST window prefix as the deque-backed estimator wrote it: tag,
// outcome count, outcomes bit-packed oldest-first, lost count.
std::vector<std::uint8_t> reference_window_bytes(const std::deque<bool>& window) {
  snap::Encoder e;
  e.tag("LEST");
  e.u64(window.size());
  std::uint8_t byte = 0;
  int filled = 0;
  std::uint64_t lost = 0;
  for (const bool l : window) {
    lost += l ? 1 : 0;
    byte = static_cast<std::uint8_t>(byte | ((l ? 1u : 0u) << filled));
    if (++filled == 8) {
      e.u8(byte);
      byte = 0;
      filled = 0;
    }
  }
  if (filled > 0) e.u8(byte);
  e.u64(lost);
  return e.bytes();
}

TEST(BitRingWindow, MatchesDequeReferenceIncludingSnapshotBytes) {
  for (const std::size_t w : {1, 4, 63, 64, 65, 100, 128}) {
    SCOPED_TRACE("window " + std::to_string(w));
    const EstimatorConfig cfg{w, false, 0.03, 0.1};
    LinkEstimator est(cfg);
    WindowLossEstimator ring(w);
    std::deque<bool> ref;
    std::size_t ref_lost = 0;
    Rng rng(1000 + w);
    const double p = rng.uniform(0.05, 0.6);
    for (std::size_t i = 0; i < 3 * w + 17; ++i) {
      const bool lost = rng.bernoulli(p);
      ring.record(lost);
      est.record_probe(lost, Duration::millis(20), TimePoint::epoch());
      ref.push_back(lost);
      ref_lost += lost ? 1 : 0;
      if (ref.size() > w) {
        ref_lost -= ref.front() ? 1 : 0;
        ref.pop_front();
      }
      ASSERT_EQ(ring.samples(), ref.size()) << "step " << i;
      ASSERT_EQ(ring.loss(),
                static_cast<double>(ref_lost) / static_cast<double>(ref.size()))
          << "step " << i;
      for (std::size_t j = 0; j < ref.size(); ++j) ASSERT_EQ(ring.outcome(j), ref[j]);

      if (i % 11 == 0 || i + 1 == 3 * w + 17) {
        snap::Encoder e;
        est.save_state(e);
        const std::vector<std::uint8_t> want = reference_window_bytes(ref);
        ASSERT_GE(e.bytes().size(), want.size());
        ASSERT_TRUE(std::equal(want.begin(), want.end(), e.bytes().begin())) << "step " << i;

        LinkEstimator restored(cfg);
        snap::Decoder d(e.bytes());
        restored.restore_state(d);
        snap::Encoder again;
        restored.save_state(again);
        ASSERT_EQ(again.bytes(), e.bytes()) << "step " << i;
        ASSERT_EQ(restored.loss(), est.loss());
      }
    }
  }
}

TEST(BitRingWindow, RejectsWindowsOutsideTheRing) {
  EXPECT_THROW(WindowLossEstimator(0), std::invalid_argument);
  EXPECT_THROW(WindowLossEstimator(129), std::invalid_argument);
  EXPECT_THROW(LinkEstimator(EstimatorConfig{129, false, 0.03, 0.1}), std::invalid_argument);
  EXPECT_NO_THROW(WindowLossEstimator(1));
  EXPECT_NO_THROW(WindowLossEstimator(WindowLossEstimator::kMaxWindow));
}

// ------------------------------------------------ faulted-component bits

struct RawWindow {
  TimePoint start;
  TimePoint end;
};

// Expands a schedule's component blackouts the slow way: every spec,
// every occurrence up to the horizon, unmerged.
std::map<std::size_t, std::vector<RawWindow>> naive_component_windows(
    const FaultSchedule& schedule, const Topology& topo, Duration horizon) {
  std::map<std::size_t, std::vector<RawWindow>> out;
  const TimePoint end_of_time = TimePoint::epoch() + horizon;
  for (const FaultSpec& f : schedule.faults()) {
    if (f.kind != FaultKind::kComponentBlackout) continue;
    std::vector<std::size_t> comps;
    if (f.scope == FaultScope::kLink) {
      comps.push_back(topo.core_index(f.link_src, f.link_dst));
    } else {
      for (const NodeId site : f.sites) {
        if (f.scope != FaultScope::kSiteProvider) {
          comps.push_back(topo.site_index(site, SiteComp::kUp));
          comps.push_back(topo.site_index(site, SiteComp::kDown));
        }
        if (f.scope != FaultScope::kSiteAccess) {
          comps.push_back(topo.site_index(site, SiteComp::kProvOut));
          comps.push_back(topo.site_index(site, SiteComp::kProvIn));
        }
      }
    }
    std::vector<TimePoint> starts;
    if (f.periodic()) {
      for (TimePoint s = f.start; s < end_of_time; s += f.period) starts.push_back(s);
    } else {
      starts.push_back(f.start);
    }
    for (const std::size_t c : comps) {
      for (const TimePoint s : starts) out[c].push_back({s, s + f.duration});
    }
  }
  return out;
}

bool naive_down(const std::map<std::size_t, std::vector<RawWindow>>& windows, std::size_t c,
                TimePoint t) {
  const auto it = windows.find(c);
  if (it == windows.end()) return false;
  for (const RawWindow& w : it->second) {
    if (w.start <= t && t < w.end) return true;
  }
  return false;
}

TEST(FaultedComponentBits, ComponentDownMatchesNaiveScanForEveryCanonicalScenario) {
  const Topology topo = testbed_2002();
  const Duration horizon = Duration::hours(2);
  Rng rng(99);
  std::size_t blackout_scenarios = 0;
  for (const Scenario& s : canonical_scenarios()) {
    SCOPED_TRACE(std::string(s.name));
    std::string error;
    const auto schedule = FaultSchedule::parse(s.dsl, &error);
    ASSERT_TRUE(schedule.has_value()) << error;
    const FaultInjector injector(*schedule, topo, horizon);
    const auto naive = naive_component_windows(*schedule, topo, horizon);
    EXPECT_EQ(injector.faulted_component_count(), naive.size());

    // Window edges on every faulted component, plus random times on
    // every component.
    std::size_t down = 0;
    for (const auto& [c, windows] : naive) {
      for (const RawWindow& w : windows) {
        for (const TimePoint t : {w.start - Duration::nanos(1), w.start,
                                  w.end - Duration::nanos(1), w.end}) {
          for (const auto& [other, unused] : naive) {
            const bool want = naive_down(naive, other, t);
            down += want ? 1 : 0;
            ASSERT_EQ(injector.component_down(other, t), want)
                << "component " << other << " at " << t.since_epoch().count_nanos();
          }
        }
      }
    }
    blackout_scenarios += naive.empty() ? 0 : 1;
    EXPECT_EQ(down > 0, !naive.empty());
    for (int i = 0; i < 20; ++i) {
      const TimePoint t = TimePoint::epoch() +
                          Duration::nanos(static_cast<std::int64_t>(rng.next_below(
                              static_cast<std::uint64_t>(horizon.count_nanos()))));
      for (std::size_t c = 0; c < topo.component_count(); ++c) {
        ASSERT_EQ(injector.component_down(c, t), naive_down(naive, c, t))
            << "component " << c << " at " << t.since_epoch().count_nanos();
      }
    }
  }
  EXPECT_GE(blackout_scenarios, 3u);
}

}  // namespace
}  // namespace ronpath
