// Strict argument parsing across the bench binaries — the regression
// test for the atoll bugfix sweep.
//
// Every bench must reject non-numeric --seed (formerly a silent
// std::atoll 0 that quietly changed the experiment). The contract is a
// hard exit 2 before any work runs. The same contract covers flags a
// bench does not use: the removed --shards/--shard-sweep, the removed
// trajectory-gate flags, and --trials/--jobs/--fault-scenario/--hours/
// --csv on benches that would otherwise parse them and run without them.
//
// The benches are spawned as real subprocesses from the build tree
// (build/bench). The examples' positional arguments follow the same
// contract (build/examples), and so does the soak tool (build/tools).

#include <gtest/gtest.h>

#include <string>

#include "subprocess.h"

namespace {

using ronpath::subprocess::build_subdir;
using ronpath::subprocess::exists;
using ronpath::subprocess::run;

void expect_exit(const std::string& name, const std::string& args, int code,
                 const std::string& dir = "bench") {
  const std::string exe = build_subdir(dir) + "/" + name;
  ASSERT_TRUE(exists(exe)) << exe << " not built; build all targets before running ctest";
  EXPECT_EQ(run(exe, args), code) << name << " " << args << ": expected exit " << code;
}

void expect_rejects(const std::string& name, const std::string& args) {
  expect_exit(name, args, 2);
}

// The benches the original atoll sweep fixed, plus the perf benches.
const char* kSeedBenches[] = {
    "bench_hybrid_sweetspot", "bench_ablation_shared_bottleneck", "bench_failover_time",
    "bench_fec_spread",       "bench_recovery_latency",           "bench_ablation_path_depth",
    "bench_ablation_burst_gap", "bench_hotpath",                  "bench_scale",
    "bench_workload",
};

TEST(BenchStrictArgs, NonNumericSeedExitsTwo) {
  for (const char* name : kSeedBenches) {
    expect_rejects(name, "--seed banana");
    expect_rejects(name, "--seed 12x");
  }
}

TEST(BenchStrictArgs, MissingSeedValueExitsTwo) {
  for (const char* name : kSeedBenches) {
    expect_rejects(name, "--seed");
  }
}

// The three benches whose fixed-seed checksums tests/bench_pins_test
// pins.
const char* kPinnedBenches[] = {"bench_hotpath", "bench_scale", "bench_workload"};

// --max-regress used to arm a wall-time gate; garbage, zero and negative
// thresholds exited 2 then, and must still exit 2 now that the flag is
// unknown, so a script that passes one never believes a gate ran.
TEST(BenchStrictArgs, NonNumericMaxRegressExitsTwo) {
  for (const char* name : kPinnedBenches) {
    expect_rejects(name, "--max-regress abc");
    expect_rejects(name, "--max-regress 1.5x");
  }
}

TEST(BenchStrictArgs, NonPositiveMaxRegressExitsTwo) {
  for (const char* name : kPinnedBenches) {
    expect_rejects(name, "--max-regress 0");
    expect_rejects(name, "--max-regress -2");
    expect_rejects(name, "--max-regress inf");
    expect_rejects(name, "--max-regress nan");
  }
}

TEST(BenchStrictArgs, UnknownFlagExitsTwo) {
  for (const char* name : kPinnedBenches) {
    expect_rejects(name, "--definitely-not-a-flag");
  }
}

// Every bench whose argv goes through bench::BenchArgs::parse.
const char* kBenchArgsBenches[] = {
    "bench_ablation_estimator",   "bench_ablation_overlay_size", "bench_ablation_probe_interval",
    "bench_fault_matrix",         "bench_fec_analysis",          "bench_fig2_pathloss_cdf",
    "bench_fig3_window_cdf",      "bench_fig4_clp_cdf",          "bench_fig5_latency_cdf",
    "bench_fig6_design_space",    "bench_full_eval",             "bench_soak",
    "bench_table3_datasets",      "bench_table5_loss",           "bench_table6_highloss",
    "bench_table7_ronwide",
};

// The sharded underlay is gone; a bench that still took --shards would
// run the one remaining discipline and hide the typo. --quick bounds
// the run time should a bench wrongly accept the flag.
TEST(BenchStrictArgs, RemovedShardFlagsExitTwo) {
  for (const char* name : kBenchArgsBenches) {
    expect_rejects(name, "--quick --shards 4");
  }
  expect_rejects("bench_hotpath", "--quick --shards 4");
  expect_rejects("bench_hotpath", "--quick --shard-sweep");
  expect_rejects("bench_workload", "--quick --shards 4");
}

// The trajectory gate is gone: the checksums are pinned in ctest and
// wall time is gated by perfbench. A bench that still accepted one of
// its flags would let a script that passes it believe a gate ran.
// --quick bounds the run time should a bench wrongly accept one.
TEST(BenchStrictArgs, RemovedPerfGateFlagsExitTwo) {
  for (const char* name : kPinnedBenches) {
    for (const char* flag : {"--compare BENCH_hotpath.json", "--max-regress 2", "--label x",
                             "--out /dev/null"}) {
      expect_rejects(name, std::string("--quick ") + flag);
    }
  }
}

// A bench rejects a flag it does not use rather than parsing it (and
// loading the fault DSL) only to run exactly as without it.
TEST(BenchStrictArgs, UnusedFlagExitsTwo) {
  for (const char* name : {"bench_fig2_pathloss_cdf", "bench_fig6_design_space",
                           "bench_ablation_estimator", "bench_soak"}) {
    expect_rejects(name, "--quick --fault-scenario single-site-blackout");
    expect_rejects(name, "--quick --trials 2");
    expect_rejects(name, "--quick --jobs 2");
  }
  expect_rejects("bench_table6_highloss", "--quick --trials 2");
  expect_rejects("bench_table3_datasets", "--quick --csv /dev/null");
  expect_rejects("bench_fault_matrix", "--quick --hours 1");
}

// The flags a bench does use still parse: --help exits 0 after every
// flag before it was accepted, without running anything.
TEST(BenchStrictArgs, UsedFlagsStillParse) {
  for (const char* name : {"bench_table5_loss", "bench_table7_ronwide", "bench_full_eval"}) {
    expect_exit(name,
                "--hours 1 --trials 2 --jobs 2 --csv /dev/null "
                "--fault-scenario single-site-blackout --help",
                0);
  }
  expect_exit("bench_fault_matrix",
              "--trials 2 --jobs 2 --csv /dev/null --fault-scenario single-site-blackout --help",
              0);
  expect_exit("bench_table6_highloss",
              "--days 1 --csv /dev/null --fault-scenario single-site-blackout --help", 0);
  expect_exit("bench_fig2_pathloss_cdf", "--hours 1 --csv /dev/null --help", 0);
}

// Every underlay core is built on first touch; the soak tool's old
// lazy-underlay switch is gone and must not be silently accepted.
TEST(BenchStrictArgs, RemovedLazyFlagExitsTwo) {
  expect_exit("soak", "--quick --lazy", 2, "tools");
}

// probing_daemon's MINUTES formerly went through std::atoi: "abc" ran
// zero minutes and "-100" built a negative network horizon.
TEST(BenchStrictArgs, ProbingDaemonRejectsMalformedMinutes) {
  for (const char* args : {"abc", "-100", "45x", "0", "99999999999999999999", "5 extra"}) {
    expect_exit("probing_daemon", args, 2, "examples");
  }
}

}  // namespace
