// The pinned fixed-seed checksums of the three perf benches.
//
// Each bench run is a pure function of its seed and size, so its
// checksum says "the same experiment ran": a change that moves one
// changed what is simulated, not just how fast. Each case spawns the
// bench from the build tree, requires exit 0 — which carries the
// bench's own gate too: per-node control bandwidth flat across
// bench_scale's tiers, and adaptive winning at least one SLO column in
// bench_workload — and compares the checksum printed on a named output
// line. Wall time is not checked here (perfbench gates it); the ctest
// timeout of this test is the only bound.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "subprocess.h"

namespace {

using ronpath::subprocess::Captured;

// The 16 hex digits after "checksum " on the first line of `out` that
// starts with `line_start` (leading blanks ignored); empty when absent.
std::string checksum_on(const std::string& out, const std::string& line_start) {
  std::istringstream lines(out);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t from = line.find_first_not_of(' ');
    if (from == std::string::npos || line.compare(from, line_start.size(), line_start) != 0) {
      continue;
    }
    const std::size_t at = line.find("checksum ");
    return at == std::string::npos ? std::string() : line.substr(at + 9, 16);
  }
  return {};
}

Captured run_bench(const std::string& name, const std::string& args) {
  const std::string exe = ronpath::subprocess::build_subdir("bench") + "/" + name;
  EXPECT_TRUE(ronpath::subprocess::exists(exe))
      << exe << " not built; build all targets before running ctest";
  return ronpath::subprocess::run_captured(exe, args);
}

TEST(BenchPins, HotpathPacketAndSampleChecksums) {
  const Captured r = run_bench("bench_hotpath", "--reps 1");
  ASSERT_EQ(r.exit, 0) << r.out;
  EXPECT_EQ(checksum_on(r.out, "packets/sec"), "1603693ed1da7bf7") << r.out;
  EXPECT_EQ(checksum_on(r.out, "ns/sample"), "b05d9cbd05f2657a") << r.out;
}

TEST(BenchPins, ScaleTierReportChecksums) {
  const Captured r = run_bench("bench_scale", "--nodes 30,300");
  ASSERT_EQ(r.exit, 0) << r.out;
  EXPECT_EQ(checksum_on(r.out, "30 nodes:"), "ed4a9d6d62e2afa8") << r.out;
  EXPECT_EQ(checksum_on(r.out, "300 nodes:"), "6907612d31dd9585") << r.out;
}

TEST(BenchPins, WorkloadReportChecksum) {
  const Captured r = run_bench("bench_workload", "--jobs 2");
  ASSERT_EQ(r.exit, 0) << r.out;
  EXPECT_EQ(checksum_on(r.out, "wall "), "357fd34e162219c1") << r.out;
}

}  // namespace
