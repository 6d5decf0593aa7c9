// WorkloadSpec DSL parsing and the deterministic traffic matrix.
//
// The parser's contract is the strict-parsing sweep's contract: every
// numeric field is a full-token parse that rejects garbage, non-finite
// values ("inf"/"nan" — std::from_chars happily reads both) and
// out-of-range values at parse time, with fault-DSL style
// "line N, col C" diagnostics. The traffic matrix must be a pure
// function of (spec, node count, window, rng stream): byte-stable
// across runs and independent of anything policy-related.

#include <gtest/gtest.h>

#include <string>

#include "util/rng.h"
#include "workload/spec.h"
#include "workload/traffic.h"

namespace ronpath {
namespace {

std::string parse_error(std::string_view text) {
  std::string err;
  const auto spec = WorkloadSpec::parse(text, &err);
  EXPECT_FALSE(spec.has_value()) << "expected parse failure for: " << text;
  return err;
}

TEST(WorkloadSpec, DefaultsValidate) {
  const WorkloadSpec spec = WorkloadSpec::defaults();
  EXPECT_EQ(spec.validate(), "");
  double mix = 0.0;
  for (const ClassSpec& cs : spec.classes) mix += cs.mix;
  EXPECT_NEAR(mix, 1.0, 1e-12);
}

TEST(WorkloadSpec, ParsesFullSpec) {
  const char* text =
      "# reference workload\n"
      "population 250\n"
      "peak-hour 20\n"
      "trough 0.5\n"
      "tz-spread 3\n"
      "flows-per-user-hour 0.8\n"
      "flow-packets 25\n"
      "access-capacity 128   # KB/s\n"
      "hot-pair 2 3 weight 4\n"
      "class voip mix 0.3 rate 40 bytes 200 slo-latency 120ms slo-loss 0.5%\n"
      "class web mix 0.3\n";
  std::string err;
  const auto spec = WorkloadSpec::parse(text, &err);
  ASSERT_TRUE(spec.has_value()) << err;
  EXPECT_DOUBLE_EQ(spec->population, 250.0);
  EXPECT_EQ(spec->peak_hour, 20);
  EXPECT_DOUBLE_EQ(spec->trough, 0.5);
  EXPECT_DOUBLE_EQ(spec->access_bytes_per_s, 128.0 * 1024.0);
  ASSERT_EQ(spec->hot_pairs.size(), 2u);  // defaults() pair + the parsed one
  EXPECT_EQ(spec->hot_pairs[1].src, 2);
  EXPECT_EQ(spec->hot_pairs[1].dst, 3);
  const ClassSpec& voip = spec->classes[static_cast<std::size_t>(ServiceClass::kVoip)];
  EXPECT_DOUBLE_EQ(voip.mix, 0.3);
  EXPECT_DOUBLE_EQ(voip.rate_pps, 40.0);
  EXPECT_EQ(voip.slo_latency, Duration::millis(120));
  EXPECT_DOUBLE_EQ(voip.slo_loss_pct, 0.5);
}

TEST(WorkloadSpec, RejectsGarbageNumbersWithLineAndColumn) {
  EXPECT_EQ(parse_error("population abc\n"), "line 1, col 12: bad number \"abc\"");
  EXPECT_EQ(parse_error("trough 0.5\npopulation 12x\n"),
            "line 2, col 12: bad number \"12x\"");
  EXPECT_EQ(parse_error("population\n"), "line 1, col 11: expected a number after 'population'");
}

TEST(WorkloadSpec, RejectsNonFiniteValues) {
  // std::from_chars parses these happily; the spec layer must not.
  EXPECT_EQ(parse_error("population inf\n"), "line 1, col 12: non-finite value \"inf\"");
  EXPECT_EQ(parse_error("tz-spread nan\n"), "line 1, col 11: non-finite value \"nan\"");
  EXPECT_EQ(parse_error("class voip slo-loss inf%\n"),
            "line 1, col 21: non-finite value \"inf%\"");
}

TEST(WorkloadSpec, RejectsNegativeAndOutOfRangeValues) {
  EXPECT_EQ(parse_error("population -5\n"), "line 1, col 12: value -5 out of range");
  EXPECT_EQ(parse_error("peak-hour 24\n"), "line 1, col 11: value 24 out of range");
  EXPECT_EQ(parse_error("class voip rate -1\n"), "line 1, col 17: value -1 out of range");
  EXPECT_EQ(parse_error("class voip slo-loss 150%\n"),
            "line 1, col 21: value 150% out of range");
}

TEST(WorkloadSpec, RejectsStructuralErrors) {
  EXPECT_EQ(parse_error("frobnicate 3\n"), "line 1, col 1: unknown directive \"frobnicate\"");
  EXPECT_EQ(parse_error("class audio mix 0.2\n"),
            "line 1, col 7: unknown class \"audio\" (want voip|video|web|bulk)");
  EXPECT_EQ(parse_error("class voip latency 5\n"),
            "line 1, col 12: unknown class field \"latency\" "
            "(want mix|rate|bytes|slo-latency|slo-loss)");
  EXPECT_EQ(parse_error("population 5 6\n"), "line 1, col 14: trailing token \"6\"");
  EXPECT_EQ(parse_error("hot-pair 3 3 weight 2\n"),
            "line 1, col 12: hot-pair src and dst must differ");
  EXPECT_EQ(parse_error("class voip slo-latency 5parsecs\n"),
            "line 1, col 24: bad duration \"5parsecs\" (want e.g. 150ms, 2s)");
}

TEST(WorkloadSpec, SemanticValidationRunsAfterParsing) {
  // Syntactically fine, semantically broken: mixes no longer sum to 1.
  const std::string err = parse_error("class voip mix 0.9\n");
  EXPECT_NE(err.find("class mixes must sum to 1"), std::string::npos) << err;
  EXPECT_EQ(err.find("line "), 0u) << err;
}

TEST(WorkloadSpec, CapacityFractionIsTheFigure6Axis) {
  const WorkloadSpec spec = WorkloadSpec::defaults();
  const ClassSpec& video = spec.classes[static_cast<std::size_t>(ServiceClass::kVideo)];
  // 30 pps x 1200 B = 36 KB/s of a 64 KB/s access link: the fat flow
  // whose duplicate does not fit (2y > 1) but whose FEC overhead does.
  const double y = video.capacity_fraction(spec.access_bytes_per_s);
  EXPECT_NEAR(y, 36000.0 / 65536.0, 1e-12);
  EXPECT_GT(2.0 * y, 1.0);
  EXPECT_LT(y * 1.5, 1.0);
}

// ------------------------------------------------------------- traffic

TEST(TrafficMatrix, DiurnalFactorStaysInBand) {
  const WorkloadSpec spec = WorkloadSpec::defaults();
  for (int site = 0; site < 12; ++site) {
    for (int h = 0; h < 48; ++h) {
      const double f = diurnal_factor(spec, static_cast<NodeId>(site),
                                      TimePoint::epoch() + Duration::hours(h));
      EXPECT_GE(f, spec.trough - 1e-12);
      EXPECT_LE(f, 1.0 + 1e-12);
    }
  }
  // The peak hour is the maximum for the unshifted site.
  const double peak = diurnal_factor(spec, 0, TimePoint::epoch() + Duration::hours(14));
  const double off = diurnal_factor(spec, 0, TimePoint::epoch() + Duration::hours(2));
  EXPECT_GT(peak, off);
  EXPECT_NEAR(peak, 1.0, 1e-9);
}

TEST(TrafficMatrix, ByteStableAcrossConstructions) {
  const WorkloadSpec spec = WorkloadSpec::defaults();
  const TimePoint start = TimePoint::epoch() + Duration::minutes(30);
  const TimePoint end = start + Duration::minutes(25);
  const TrafficMatrix a(spec, 12, start, end, Rng(42).fork("workload"));
  const TrafficMatrix b(spec, 12, start, end, Rng(42).fork("workload"));
  ASSERT_EQ(a.flows().size(), b.flows().size());
  ASSERT_GT(a.flows().size(), 100u) << "reference spec should generate a real workload";
  for (std::size_t i = 0; i < a.flows().size(); ++i) {
    const Flow& fa = a.flows()[i];
    const Flow& fb = b.flows()[i];
    EXPECT_EQ(fa.src, fb.src);
    EXPECT_EQ(fa.dst, fb.dst);
    EXPECT_EQ(fa.start, fb.start);
    EXPECT_EQ(fa.packets, fb.packets);
    EXPECT_EQ(fa.cls, fb.cls);
    EXPECT_EQ(fa.interval, fb.interval);
  }
  EXPECT_EQ(a.total_packets(), b.total_packets());
}

TEST(TrafficMatrix, FlowsAreSortedAndInWindow) {
  const WorkloadSpec spec = WorkloadSpec::defaults();
  const TimePoint start = TimePoint::epoch() + Duration::minutes(30);
  const TimePoint end = start + Duration::minutes(25);
  const TrafficMatrix m(spec, 12, start, end, Rng(7).fork("workload"));
  TimePoint prev = TimePoint::epoch();
  for (const Flow& f : m.flows()) {
    EXPECT_GE(f.start, start);
    EXPECT_LT(f.start, end);
    EXPECT_GE(f.start, prev) << "flows must be sorted by start time";
    prev = f.start;
    EXPECT_NE(f.src, f.dst);
    EXPECT_LT(f.src, 12);
    EXPECT_LT(f.dst, 12);
    EXPECT_GE(f.packets, 1);
  }
}

TEST(TrafficMatrix, HotPairConcentratesLoad) {
  WorkloadSpec spec = WorkloadSpec::defaults();  // 8x weight on 0 -> 1
  // Put site 0 at its diurnal peak during the window (the default
  // 14:00 peak leaves a 30-minute-epoch window deep in the trough, where
  // site 0 starts too few flows for a stable fraction).
  spec.peak_hour = 0;
  spec.tz_spread_hours = 0.0;
  spec.population = 800.0;
  const TimePoint start = TimePoint::epoch() + Duration::minutes(30);
  const TimePoint end = start + Duration::minutes(25);
  const TrafficMatrix m(spec, 12, start, end, Rng(42).fork("workload"));
  std::size_t hot = 0;
  std::size_t from0 = 0;
  for (const Flow& f : m.flows()) {
    if (f.src == 0) {
      ++from0;
      if (f.dst == 1) ++hot;
    }
  }
  ASSERT_GT(from0, 50u);
  // With weight 8 on one of 11 destinations, ~42% of site 0's flows go
  // to site 1 in expectation, vs ~9% unweighted.
  EXPECT_GT(static_cast<double>(hot) / static_cast<double>(from0), 0.25);
}

}  // namespace
}  // namespace ronpath
