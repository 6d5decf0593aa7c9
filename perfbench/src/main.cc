// perfbench: runs one named workload and prints its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out PATH]
//
// --trace 0 repeats the workload's product run until S seconds have
// passed and prints the end-to-end metrics (medians over the runs).
// --trace 1 runs the composed workload once untraced and once traced,
// then the layer drills, and prints the per-layer metrics. Either way
// the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// run.py builds this binary and is the normal way to call it.

#include <unistd.h>

#include <cinttypes>
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "?"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "?"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "?"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string trace_out;
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::fprintf(stderr,
               "usage: perfbench --workload ron2003|capped_scale|traffic_matrix --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH]\n");
  std::exit(2);
}

std::int64_t parse_int(const std::string& flag, const char* text, std::int64_t lo,
                       std::int64_t hi) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < lo || v > hi) {
    usage_error(flag + ": expected an integer in [" + std::to_string(lo) + ", " +
                std::to_string(hi) + "], got \"" + text + "\"");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = static_cast<std::uint64_t>(parse_int(flag, value, 0, INT64_MAX / 2));
    } else if (flag == "--seconds") {
      a.seconds = static_cast<int>(parse_int(flag, value, 1, 3600));
    } else if (flag == "--trace") {
      a.trace = static_cast<int>(parse_int(flag, value, 0, 1));
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      usage_error("unknown argument " + flag);
    }
  }
  if (a.workload.empty() || a.seconds == 0 || a.trace < 0) {
    usage_error("--workload, --seed, --seconds and --trace are required");
  }
  return a;
}

int cores() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_stamp() {
  std::printf("stamp: nproc %d | cpu %s | compiler %s | build %s | flags \"%s\"\n", cores(),
              cpu_model().c_str(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, PERFBENCH_FLAGS);
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "ron2003") return make_ron2003(a.seed);
  if (a.workload == "capped_scale") return make_capped_scale(a.seed);
  if (a.workload == "traffic_matrix") return make_traffic_matrix(a.seed, std::min(2, cores()));
  usage_error("unknown workload \"" + a.workload + "\"");
}

// Outcome of one invocation across all its runs.
struct Verdict {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> problems;  // invocation-level failures

  [[nodiscard]] bool correct() const { return failed == 0 && problems.empty(); }
};

// Folds one run into the verdict; a run whose checks failed counts all
// its units as failed.
void tally(const RunResult& r, Verdict& v) {
  v.attempted += r.units;
  v.failed += r.problems.empty() ? r.failed_units : r.units;
  for (const std::string& p : r.problems) std::printf("problem: %s\n", p.c_str());
}

void check_pins(const std::string& workload, const Workload& w, const RunResult& r,
                Verdict& v) {
  const std::vector<std::uint64_t> seeds = w.slice_seeds();
  for (std::size_t i = 0; i < r.checksums.size() && i < seeds.size(); ++i) {
    std::printf("checksum seed %" PRIu64 ": %016" PRIx64 "\n", seeds[i], r.checksums[i]);
    const std::uint64_t pin = pinned_checksum(workload, seeds[i]);
    if (pin != 0 && pin != r.checksums[i]) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "seed %" PRIu64 ": report checksum %016" PRIx64 " != pinned %016" PRIx64,
                    seeds[i], r.checksums[i], pin);
      v.problems.emplace_back(buf);
    }
  }
}

void print_json(const Verdict& v, const Metrics& m) {
  for (const std::string& p : v.problems) std::printf("problem: %s\n", p.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
              ", \"metrics\": {",
              v.correct() ? "true" : "false", v.attempted, v.failed);
  const auto& all = m.all();
  for (std::size_t i = 0; i < all.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                all[i].name.c_str(), all[i].value, all[i].unit.c_str());
  }
  std::printf("}}\n");
}

void print_metrics(const Metrics& m) {
  for (const Metric& x : m.all()) {
    std::printf("metric %-44s %.9g %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
}

int run_untraced(const Args& a, Workload& w) {
  Verdict v;
  std::vector<RunResult> runs;
  std::vector<double> setups;
  for (int i = 0; i < w.extra_setups(); ++i) setups.push_back(w.setup_once());
  const double start = wall_s();
  do {
    RunResult r;
    try {
      r = w.run();
    } catch (const std::exception& e) {
      r.problems.push_back(std::string("run threw: ") + e.what());
    }
    tally(r, v);
    setups.push_back(r.setup_s);
    std::printf("run %zu: setup %.6fs run %.6fs cpu %.6fs packets %.0f\n", runs.size() + 1,
                r.setup_s, r.run_s, r.cpu_s, r.packets);
    runs.push_back(std::move(r));
  } while (wall_s() - start < a.seconds);

  const RunResult& first = runs.front();
  for (const RunResult& r : runs) {
    if (!(r.counts == first.counts)) v.problems.emplace_back("work counts differ between runs");
    if (r.checksums != first.checksums) {
      v.problems.emplace_back("report checksums differ between runs");
    }
  }
  check_pins(a.workload, w, first, v);
  Counts counts;
  try {
    counts = w.cross_check(first, v.problems);
  } catch (const std::exception& e) {
    v.problems.push_back(std::string("cross-check threw: ") + e.what());
  }
  print_counts(stdout, "run", counts);

  std::vector<double> run_s;
  std::vector<double> cpu;
  std::vector<double> pps;
  for (const RunResult& r : runs) {
    run_s.push_back(r.run_s);
    cpu.push_back(r.cpu_s);
    pps.push_back(r.run_s > 0.0 ? r.packets / r.run_s : 0.0);
  }
  Metrics m;
  m.set("setup_s", median(setups), "s");
  m.set("run_s", median(run_s), "s");
  m.set("packets_per_s", median(pps), "1/s");
  m.set("cpu_s", median(cpu), "s");
  m.set("peak_rss_mb", peak_rss_mb(), "MiB");
  print_metrics(m);
  const double failed_frac =
      v.attempted > 0 ? static_cast<double>(v.failed) / static_cast<double>(v.attempted) : 1.0;
  std::printf("metric %-44s %.9g %s\n", "failed_frac", failed_frac, "ratio");
  std::printf("runs %zu, setups %zu, wall %.3fs\n", runs.size(), setups.size(),
              wall_s() - start);
  print_json(v, m);
  return 0;
}

int run_traced(const Args& a, Workload& w) {
  Verdict v;
  Metrics layer;
  const RunResult base = w.composed_run(nullptr, nullptr);
  tally(base, v);
  Tracer tracer(a.seed ^ 0x9e3779b97f4a7c15ull ^ static_cast<std::uint64_t>(wall_s() * 1e6));
  RunResult traced;
  {
    Scope root(&tracer, a.workload);
    traced = w.composed_run(&tracer, &layer);
    tally(traced, v);
    Scope drills(&tracer, "drills");
    w.drills(&tracer, layer);
  }
  if (!(traced.counts == base.counts)) {
    v.problems.emplace_back("traced run's work counts differ from the untraced run's");
  }
  if (traced.checksums != base.checksums) {
    v.problems.emplace_back("traced run's report checksums differ from the untraced run's");
  }
  check_pins(a.workload, w, traced, v);
  print_counts(stdout, "untraced", base.counts);
  print_counts(stdout, "traced", traced.counts);

  const Counts& c = traced.counts;
  layer.set("event.events", static_cast<double>(c.events), "count");
  layer.set("net.transmits", static_cast<double>(c.transmits), "count");
  layer.set("overlay.probes", static_cast<double>(c.probes), "count");
  layer.set("overlay.announces", static_cast<double>(c.announces), "count");
  layer.set("measure.records", static_cast<double>(c.records), "count");
  layer.set("overlay.path_engine.edges_relaxed_per_query", c.edges_relaxed_per_query, "count");
  layer.set("trace.run_s", traced.run_s, "s");
  layer.set("trace.overhead_s", traced.run_s - base.run_s, "s");
  tracer.print_summary(stdout);
  if (!a.trace_out.empty() && !tracer.write_json(a.trace_out)) {
    v.problems.push_back("cannot write trace to " + a.trace_out);
  }
  std::printf("untraced run %.6fs, traced run %.6fs, tracing overhead %.6fs\n", base.run_s,
              traced.run_s, traced.run_s - base.run_s);
  print_metrics(layer);
  print_json(v, layer);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "perfbench: refusing to time a build compiled without optimisation\n");
  return 3;
#endif
  print_stamp();
  std::unique_ptr<Workload> w = make_workload(args);
  std::printf("workload %s | seed %" PRIu64 " | seconds %d | trace %d\n", args.workload.c_str(),
              args.seed, args.seconds, args.trace);
  return args.trace == 1 ? run_traced(args, *w) : run_untraced(args, *w);
}
