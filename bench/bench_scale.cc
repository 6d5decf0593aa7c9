// Scale benchmark: the bandwidth-capped overlay at 30 / 300 / 3000
// nodes (DESIGN.md §14).
//
// Each tier runs one fault-matrix cell (canonical link-flap scenario,
// hybrid scheme) on the synthetic hierarchical topology with the capped
// link-state overlay, and reports
//
//   fidelity   : per-phase loss and failover time from the finished
//                cell — the Table-5-calibrated behaviour must survive
//                the capped control plane at every size;
//   throughput : wall clock, underlay packets/sec and scheduler
//                events/sec for the whole cell;
//   control    : per-node control-plane bytes/sec from the overlay's
//                ControlMeters. The rotation schedule bounds each
//                node's announce rate by its fanout, so this column
//                must stay flat (within 2x) from 30 to 3000 nodes —
//                the bench exits 1 when it does not;
//   memory     : OverlayNetwork::state_bytes() (resident overlay state,
//                O(n*fanout)), underlay components built (cores are
//                built on first traversal, so only the pairs the capped
//                overlay probes or routes over), and the process VmHWM
//                peak RSS read from /proc/self/status (cumulative across
//                tiers; 0 off Linux).
//
// Every run is a fixed-seed pure function, so per-tier report checksums
// must agree across --reps; only wall clock may vary (best rep wins).
// tests/bench_pins_test.cc runs `--nodes 30,300` and checks both tiers'
// checksums against the pinned values (ctest -L pins).
//
// Usage:
//   bench_scale [--nodes N[,N...]] [--fanout K] [--landmarks L]
//               [--seed S] [--reps N] [--quick]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/fault_matrix.h"
#include "fault/scenarios.h"
#include "snapshot/codec.h"
#include "snapshot/world.h"

namespace ronpath {
namespace {

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Parses a comma-separated tier list ("30,300,3000"), each strict.
std::vector<std::size_t> parse_tiers(const char* text) {
  std::vector<std::size_t> tiers;
  const std::string s = text;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = std::min(s.find(',', pos), s.size());
    const std::string tok = s.substr(pos, comma - pos);
    // NodeId is 16-bit with two sentinel values; 65'000 leaves headroom.
    tiers.push_back(
        static_cast<std::size_t>(bench::BenchArgs::parse_int("--nodes", tok.c_str(), 8, 65'000)));
    pos = comma + 1;
    if (comma == s.size()) break;
  }
  return tiers;
}

// VmHWM (peak resident set) in kB from /proc/self/status; 0 when
// unavailable. Cumulative for the process, so tiers should run
// smallest-first for a meaningful per-tier reading.
std::int64_t peak_rss_kb() {
#ifdef __linux__
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  std::int64_t kb = 0;
  while (std::fgets(line, sizeof line, f)) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtoll(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
#else
  return 0;
#endif
}

struct TierResult {
  std::size_t nodes = 0;
  double wall_s = 0.0;
  double packets_per_sec = 0.0;
  double events_per_sec = 0.0;
  std::int64_t packets = 0;
  std::uint64_t events = 0;
  double control_bps_per_node = 0.0;
  std::size_t state_bytes = 0;
  std::size_t materialized = 0;
  std::size_t components = 0;
  std::int64_t vm_hwm_kb = 0;
  FaultCell cell;
  std::uint64_t report_checksum = 0;
};

FaultMatrixConfig tier_config(std::size_t nodes, std::size_t fanout, std::size_t landmarks,
                              std::uint64_t seed, bool quick) {
  FaultMatrixConfig cfg;
  cfg.seed = seed;
  cfg.synth_nodes = nodes;
  cfg.overlay_fanout = std::min(fanout, nodes - 1);
  cfg.overlay_landmarks = std::min(landmarks, nodes);
  if (quick) cfg.measured = Duration::minutes(10);
  return cfg;
}

// Runs one cell and fills every column. The Scenario comes from the
// canonical set, so its fault window sits inside the default
// warmup+measured span at any size (faults reference nodes 0..3).
TierResult run_tier(const Scenario& scenario, const FaultMatrixConfig& cfg) {
  TierResult r;
  r.nodes = cfg.synth_nodes;

  const double t0 = now_seconds();
  SimWorld world(scenario, FaultScheme::kHybrid, cfg, cfg.seed);
  world.run_to_end();
  r.wall_s = now_seconds() - t0;

  r.packets = world.network().stats().transmitted;
  r.events = world.scheduler().dispatched_events();
  r.packets_per_sec = static_cast<double>(r.packets) / r.wall_s;
  r.events_per_sec = static_cast<double>(r.events) / r.wall_s;

  const OverlayNetwork& overlay = world.overlay();
  std::int64_t control_bytes = 0;
  for (NodeId i = 0; i < static_cast<NodeId>(r.nodes); ++i) {
    control_bytes += overlay.control_meter(i).total_bytes;
  }
  const double sim_seconds =
      static_cast<double>((cfg.warmup + cfg.measured).count_nanos()) / 1e9;
  r.control_bps_per_node =
      static_cast<double>(control_bytes) / static_cast<double>(r.nodes) / sim_seconds;
  r.state_bytes = overlay.state_bytes();
  r.materialized = world.network().materialized_components();
  r.components = world.network().component_count();
  r.vm_hwm_kb = peak_rss_kb();
  r.cell = world.cell();
  r.report_checksum = snap::fnv1a(world.report());
  return r;
}

int run(int argc, char** argv) {
  using bench::BenchArgs;

  std::vector<std::size_t> tiers;
  std::size_t fanout = 16;
  std::size_t landmarks = 8;
  std::uint64_t seed = 42;
  int reps = 1;
  bool quick = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--nodes") {
      tiers = parse_tiers(next());
    } else if (arg == "--fanout") {
      fanout = static_cast<std::size_t>(BenchArgs::parse_int("--fanout", next(), 1, 65'534));
    } else if (arg == "--landmarks") {
      landmarks =
          static_cast<std::size_t>(BenchArgs::parse_int("--landmarks", next(), 0, 65'534));
    } else if (arg == "--seed") {
      seed = static_cast<std::uint64_t>(BenchArgs::parse_int(
          "--seed", next(), 0, std::numeric_limits<std::int64_t>::max()));
    } else if (arg == "--reps") {
      reps = static_cast<int>(BenchArgs::parse_int("--reps", next(), 1, 100));
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--help") {
      std::printf("usage: %s [--nodes N[,N...]] [--fanout K] [--landmarks L] [--seed S] "
                  "[--reps N] [--quick]\n",
                  argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (tiers.empty()) tiers = quick ? std::vector<std::size_t>{30, 300}
                                   : std::vector<std::size_t>{30, 300, 3000};
  std::sort(tiers.begin(), tiers.end());  // smallest first: VmHWM is cumulative

  const Scenario* scenario = find_scenario("link-flap");
  if (scenario == nullptr) {
    std::fprintf(stderr, "canonical scenario \"link-flap\" is missing\n");
    return 2;
  }

  std::vector<TierResult> results;
  for (const std::size_t n : tiers) {
    const FaultMatrixConfig cfg = tier_config(n, fanout, landmarks, seed, quick);
    TierResult best = run_tier(*scenario, cfg);
    for (int rep = 1; rep < reps; ++rep) {
      TierResult cur = run_tier(*scenario, cfg);
      if (cur.report_checksum != best.report_checksum) {
        std::fprintf(stderr, "%zu nodes: report checksum mismatch across reps: "
                             "benchmark is nondeterministic\n", n);
        return 2;
      }
      if (cur.wall_s < best.wall_s) {
        const std::int64_t hwm = best.vm_hwm_kb;  // keep the first peak reading
        best = cur;
        best.vm_hwm_kb = hwm;
      }
    }
    std::printf("%5zu nodes: %7.2fs wall, %10.1f pkt/s, %10.1f ev/s, "
                "%7.2f control B/s/node, %zu KiB overlay state, %zu/%zu components, "
                "%.1f MiB peak RSS, loss(fault) %.2f%%, failover %.2fs, checksum %016llx\n",
                n, best.wall_s, best.packets_per_sec, best.events_per_sec,
                best.control_bps_per_node, best.state_bytes / 1024, best.materialized,
                best.components, static_cast<double>(best.vm_hwm_kb) / 1024.0,
                best.cell.loss_fault_pct,
                best.cell.failover_s, static_cast<unsigned long long>(best.report_checksum));
    results.push_back(best);
  }

  // The point of the cap: per-node control bandwidth must not grow with
  // the overlay. Flat within 2x across tiers or the bench fails.
  if (results.size() >= 2) {
    double lo = results.front().control_bps_per_node;
    double hi = lo;
    for (const TierResult& t : results) {
      lo = std::min(lo, t.control_bps_per_node);
      hi = std::max(hi, t.control_bps_per_node);
    }
    std::printf("control-bandwidth spread across tiers: %.2fx\n", lo > 0.0 ? hi / lo : 0.0);
    if (lo <= 0.0 || hi / lo > 2.0) {
      std::fprintf(stderr, "FAIL: per-node control bandwidth is not flat across tiers "
                           "(%.2f .. %.2f B/s/node)\n", lo, hi);
      return 1;
    }
  }

  return 0;
}

}  // namespace
}  // namespace ronpath

int main(int argc, char** argv) { return ronpath::run(argc, argv); }
