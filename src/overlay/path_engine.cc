#include "overlay/path_engine.h"

#include <cassert>

namespace ronpath {

PathSpec HopPath::to_spec(NodeId src, NodeId dst) const {
  assert(count <= 2);
  PathSpec p{src, dst, kDirectVia, kDirectVia};
  if (count >= 1) p.via = hops[0];
  if (count >= 2) p.via2 = hops[1];
  return p;
}

namespace {

// Objective policies. Values are chosen so per-edge composition
// reproduces the legacy estimate expressions bit-for-bit:
//   loss     : survival product (1-l1)*(1-l2)*..., left-associated;
//              the query converts to loss as 1.0 - product.
//   latency  : saturating_add chain, Duration::max() absorbing.
struct LossObj {
  using Value = double;
  using Link = double;
  static constexpr Value kUnset = -1.0;  // below any survival in [0, 1]
  static Link link(const LinkMetrics& m, const RouterConfig& cfg, TimePoint now) {
    return link_loss(m, cfg, now);
  }
  static Value seed(Link l) { return 1.0 - l; }
  static Value extend(Value prev, Link l) { return prev * (1.0 - l); }
  static bool better(Value a, Value b) { return a > b; }
};

struct LatObj {
  using Value = Duration;
  using Link = Duration;
  static constexpr Value kUnset = Duration::min();  // negative: no real chain
  static Link link(const LinkMetrics& m, const RouterConfig& cfg, TimePoint now) {
    return link_latency(m, cfg, now);
  }
  static Value seed(Link l) { return l; }
  static Value extend(Value prev, Link l) { return Duration::saturating_add(prev, l); }
  static bool better(Value a, Value b) { return a < b; }
};

// Relaxation kernel. Operates on one objective's flat label arrays. All
// tie-breaks are "strict improvement scanning predecessors in ascending
// order" (equivalently: better value, else smaller parent id), which is
// the order the differential reference replicates.
template <class Obj>
struct EngineKernel {
  using Value = typename Obj::Value;

  const LinkStateTable& table;
  const RouterConfig& cfg;
  std::size_t n;
  NodeId src;
  // Banned relay: the queried destination. The legacy scans never
  // relay through dst, and with a zero penalty a chain revisiting dst
  // can out-round the direct path by one ulp.
  NodeId ban;
  const std::vector<bool>& live;
  const std::vector<bool>* excluded;  // may be null
  TimePoint now;
  std::vector<Value>& val;   // [(round) * n + node]
  std::vector<NodeId>& par;  // kInvalidNode == unset; src at round 0
  EngineStats& stats;
  // view[x] = &table.get(u, x) for the row u being relaxed, or
  // &table.get(x, dst) in the lazy last round: one O(n + degree) fill
  // per row instead of a keyed lookup per candidate.
  std::vector<const LinkMetrics*>& view;

  [[nodiscard]] typename Obj::Link edge(NodeId x) const {
    return Obj::link(*view[x], cfg, now);
  }

  // A node may act as a relay source for round r when it is not the
  // query source, currently seems up, is not excluded (hold-down), has
  // a round r-1 label, and is not stagnant: a label whose value did not
  // change between rounds r-2 and r-1 offers no candidate that round
  // r-1 did not already record with one fewer relay (marked-node
  // pruning; dominance argument in DESIGN.md).
  [[nodiscard]] bool admissible(NodeId u, int r) {
    if (u == src || u == ban || !live[u]) return false;
    if (excluded != nullptr && (*excluded)[u]) return false;
    if (par[static_cast<std::size_t>(r - 1) * n + u] == kInvalidNode) return false;
    if (r >= 2 && val[static_cast<std::size_t>(r - 1) * n + u] ==
                      val[static_cast<std::size_t>(r - 2) * n + u]) {
      ++stats.sources_skipped;
      return false;
    }
    return true;
  }

  void seed_round0() {
    table.fill_row(src, view);
    for (NodeId w = 0; w < n; ++w) {
      if (w == src) {
        val[w] = Obj::kUnset;
        par[w] = kInvalidNode;
        continue;
      }
      val[w] = Obj::seed(edge(w));
      par[w] = src;
    }
  }

  // Offers label(r-1, u) + link as a candidate for label(r, w), where
  // `link` is edge (u, w) read from the view.
  void cand_check(int r, NodeId w, NodeId u, typename Obj::Link link) {
    ++stats.edges_relaxed;
    const std::size_t i = static_cast<std::size_t>(r) * n + w;
    const Value cand = Obj::extend(val[static_cast<std::size_t>(r - 1) * n + u], link);
    if (par[i] == kInvalidNode || Obj::better(cand, val[i]) ||
        (cand == val[i] && u < par[i])) {
      val[i] = cand;
      par[i] = u;
    }
  }

  // Full round-r relax. `only`, when valid, restricts targets to one
  // node (the lazy query's final round) and leaves the view on column
  // `only`.
  void relax_round(int r, NodeId only = kInvalidNode) {
    const std::size_t base = static_cast<std::size_t>(r) * n;
    if (only != kInvalidNode) {
      val[base + only] = Obj::kUnset;
      par[base + only] = kInvalidNode;
      table.fill_col(only, view);
      for (NodeId u = 0; u < n; ++u) {
        if (!admissible(u, r) || only == u || only == src) continue;
        cand_check(r, only, u, edge(u));
      }
      return;
    }
    for (NodeId w = 0; w < n; ++w) {
      val[base + w] = Obj::kUnset;
      par[base + w] = kInvalidNode;
    }
    for (NodeId u = 0; u < n; ++u) {
      if (!admissible(u, r)) continue;
      table.fill_row(u, view);
      for (NodeId w = 0; w < n; ++w) {
        if (w == u || w == src) continue;
        cand_check(r, w, u, edge(w));
      }
    }
  }

  [[nodiscard]] HopPath chain_of(int r, NodeId dst) const {
    HopPath h;
    h.count = r;
    NodeId w = dst;
    for (int rr = r; rr >= 1; --rr) {
      const NodeId u = par[static_cast<std::size_t>(rr) * n + w];
      h.hops[rr - 1] = u;
      w = u;
    }
    return h;
  }
};

}  // namespace

PathEngine::PathEngine(const LinkStateTable& table, const RouterConfig& cfg)
    : table_(table), cfg_(cfg), n_(table.size()) {}

void PathEngine::ensure_scratch() {
  const std::size_t want = static_cast<std::size_t>(kMaxRounds + 1) * n_;
  if (q_loss_.value.size() != want) {
    q_loss_.value.assign(want, -1.0);
    q_loss_.parent.assign(want, kInvalidNode);
    q_lat_.value.assign(want, Duration::min());
    q_lat_.parent.assign(want, kInvalidNode);
    q_live_.assign(n_, false);
    q_view_.assign(n_, nullptr);
  }
}

namespace {

// Final penalized selection. Candidates are compared by penalized value
// with strict improvement, rounds ascending, so equal values resolve to
// fewer relays. Expressions match the legacy router's composition
// exactly: round 0 reports the raw link metric; round r adds
// r * indirect_*_penalty (1x and 2.0x match the legacy one- and two-hop
// forms bit for bit).
EngineChoice finish_loss(EngineKernel<LossObj>& k, NodeId dst, int max_hops, double direct_loss,
                         bool include_direct) {
  EngineChoice best;
  best.valid = false;
  if (include_direct) {
    best.valid = true;
    best.path = HopPath{};
    best.loss = direct_loss;
    best.hop_count = 0;
  }
  for (int r = 1; r <= max_hops; ++r) {
    const std::size_t i = static_cast<std::size_t>(r) * k.n + dst;
    if (k.par[i] == kInvalidNode) continue;
    const double cand =
        (1.0 - k.val[i]) + static_cast<double>(r) * k.cfg.indirect_loss_penalty;
    if (!best.valid || cand < best.loss) {
      best.valid = true;
      best.path = k.chain_of(r, dst);
      best.loss = cand;
      best.hop_count = r;
    }
  }
  return best;
}

EngineChoice finish_lat(EngineKernel<LatObj>& k, NodeId dst, int max_hops, Duration direct_lat,
                        bool include_direct) {
  EngineChoice best;
  best.valid = false;
  if (include_direct) {
    best.valid = true;
    best.path = HopPath{};
    best.latency = direct_lat;
    best.hop_count = 0;
  }
  for (int r = 1; r <= max_hops; ++r) {
    const std::size_t i = static_cast<std::size_t>(r) * k.n + dst;
    if (k.par[i] == kInvalidNode) continue;
    // r forwarding delays, accumulated by repeated addition so r == 2
    // reproduces the legacy `forward_delay + forward_delay` exactly.
    Duration fwd = k.cfg.forward_delay;
    for (int j = 1; j < r; ++j) fwd = fwd + k.cfg.forward_delay;
    Duration cand = Duration::saturating_add(k.val[i], fwd);
    if (cand != Duration::max()) cand += k.cfg.indirect_lat_penalty * r;
    if (!best.valid || cand < best.latency) {
      best.valid = true;
      best.path = k.chain_of(r, dst);
      best.latency = cand;
      best.hop_count = r;
    }
  }
  return best;
}

int clamp_rounds(int max_hops) {
  if (max_hops < 1) return 1;
  if (max_hops > PathEngine::kMaxRounds) return PathEngine::kMaxRounds;
  return max_hops;
}

}  // namespace

void PathEngine::refresh_live() {
  for (NodeId v = 0; v < n_; ++v) q_live_[v] = table_.node_seems_up(v);
}

EngineChoice PathEngine::best_loss(NodeId src, NodeId dst, int max_hops, TimePoint now,
                                   const std::vector<bool>* excluded, bool include_direct) {
  assert(src < n_ && dst < n_ && src != dst);
  ensure_scratch();
  refresh_live();
  const int k = clamp_rounds(max_hops);
  EngineKernel<LossObj> kern{table_,   cfg_, n_,           src,            /*ban=*/dst, q_live_,
                             excluded, now,  q_loss_.value, q_loss_.parent, stats_,      q_view_};
  kern.seed_round0();
  for (int r = 1; r <= k; ++r) kern.relax_round(r, r == k ? dst : kInvalidNode);
  // The last round left the view on column dst.
  const double direct = kern.edge(src);
  return finish_loss(kern, dst, k, direct, include_direct);
}

EngineChoice PathEngine::best_latency(NodeId src, NodeId dst, int max_hops, TimePoint now,
                                      const std::vector<bool>* excluded, bool include_direct) {
  assert(src < n_ && dst < n_ && src != dst);
  ensure_scratch();
  refresh_live();
  const int k = clamp_rounds(max_hops);
  EngineKernel<LatObj> kern{table_,   cfg_, n_,          src,           /*ban=*/dst, q_live_,
                            excluded, now,  q_lat_.value, q_lat_.parent, stats_,      q_view_};
  kern.seed_round0();
  for (int r = 1; r <= k; ++r) kern.relax_round(r, r == k ? dst : kInvalidNode);
  // The last round left the view on column dst.
  const Duration direct = kern.edge(src);
  return finish_lat(kern, dst, k, direct, include_direct);
}

}  // namespace ronpath
