// Workload benchmark: the traffic-matrix layer end to end.
//
// Runs the full workload matrix — every redundancy policy (probe-only /
// static-2x / adaptive) through every canonical fault scenario — with
// the reference WorkloadSpec, and prints the per-class report: p50/p99/
// p999 one-way latency, loss, MOS, SLO attainment, redundancy overhead
// and controller switches, plus the cross-policy SLO-attainment matrix.
//
// The matrix is a pure function of (config, seed): the report is
// byte-identical at any --jobs, and its FNV-1a checksum is printed on
// the summary line. tests/bench_pins_test.cc runs `--jobs 2` and checks
// that checksum against the pinned value (ctest -L pins).
//
// The headline claim is checked, not just printed: the run exits 1
// unless the adaptive policy strictly beats BOTH static policies on at
// least one (scenario, class) SLO-attainment column.
//
// Usage:
//   bench_workload [--quick] [--seed S] [--jobs J] [--spec FILE]

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "bench/bench_common.h"
#include "fault/scenarios.h"
#include "snapshot/codec.h"
#include "workload/matrix.h"

namespace ronpath {
namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Result {
  std::int64_t packets = 0;  // application packets across all cells
  double wall_s = 0.0;
  double packets_per_sec = 0.0;
  // (scenario, class) columns where adaptive strictly beats both static
  // policies — the bench's reason to exist; must be >= 1.
  int adaptive_wins = 0;
  std::uint64_t report_checksum = 0;
};

int run(int argc, char** argv) {
  using bench::BenchArgs;

  WorkloadConfig cfg;
  cfg.spec = WorkloadSpec::defaults();
  std::uint64_t seed = 42;
  int jobs = 1;
  bool quick = false;
  std::string spec_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--seed") {
      seed = static_cast<std::uint64_t>(BenchArgs::parse_int(
          "--seed", next(), 0, std::numeric_limits<std::int64_t>::max()));
    } else if (arg == "--jobs") {
      jobs = static_cast<int>(BenchArgs::parse_int("--jobs", next(), 1, 1024));
    } else if (arg == "--spec") {
      spec_path = next();
    } else if (arg == "--help") {
      std::printf("usage: %s [--quick] [--seed S] [--jobs J] [--spec FILE]\n", argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }

  if (!spec_path.empty()) {
    std::ifstream in(spec_path);
    if (!in) {
      std::fprintf(stderr, "--spec: cannot read \"%s\": %s\n", spec_path.c_str(),
                   std::strerror(errno));
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string parse_error;
    const std::optional<WorkloadSpec> parsed = WorkloadSpec::parse(text.str(), &parse_error);
    if (!parsed) {
      std::fprintf(stderr, "--spec %s: %s\n", spec_path.c_str(), parse_error.c_str());
      return 2;
    }
    cfg.spec = *parsed;
  }

  // Quick mode cannot shorten the timeline — the canonical fault windows
  // sit at fixed absolute times — so it thins the user population
  // instead: same scenarios, same phases, ~4x fewer application packets.
  if (quick) {
    cfg.spec.population = cfg.spec.population / 4.0;
  }

  const std::span<const Scenario> scenarios = canonical_scenarios();

  const double t0 = now_seconds();
  const WorkloadMatrixResult result = run_workload_matrix(cfg, scenarios, seed, jobs);
  const double wall = now_seconds() - t0;

  const std::string report = format_workload_matrix(result, scenarios);
  std::fputs(report.c_str(), stdout);

  Result r;
  for (const WorkloadCell& cell : result.cells) {
    for (const ClassCell& cc : cell.classes) {
      r.packets += static_cast<std::int64_t>(cc.sent);
    }
  }
  r.wall_s = wall;
  r.packets_per_sec = wall > 0.0 ? static_cast<double>(r.packets) / wall : 0.0;
  r.report_checksum = snap::fnv1a(report);

  const std::span<const WorkloadPolicy> policies = all_workload_policies();
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    const WorkloadCell& probe = result.cells[s * policies.size()];
    const WorkloadCell& mesh = result.cells[s * policies.size() + 1];
    const WorkloadCell& adaptive = result.cells[s * policies.size() + 2];
    for (std::size_t c = 0; c < kServiceClassCount; ++c) {
      if (adaptive.classes[c].slo_pct > probe.classes[c].slo_pct &&
          adaptive.classes[c].slo_pct > mesh.classes[c].slo_pct) {
        ++r.adaptive_wins;
      }
    }
  }

  std::printf("\nwall %.2fs | %lld app packets | %.1f packets/sec | adaptive wins %d/%zu "
              "SLO columns | report checksum %016llx\n",
              r.wall_s, static_cast<long long>(r.packets), r.packets_per_sec, r.adaptive_wins,
              scenarios.size() * kServiceClassCount,
              static_cast<unsigned long long>(r.report_checksum));

  if (r.adaptive_wins < 1) {
    std::fprintf(stderr, "FAIL: adaptive does not strictly beat both static policies on any "
                         "(scenario, class) SLO-attainment column\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ronpath

int main(int argc, char** argv) { return ronpath::run(argc, argv); }
