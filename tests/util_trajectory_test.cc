// Trajectory-file parsing (util/trajectory.h): the --compare baseline
// must come from the LAST entry only, tolerating rows that predate
// later-added fields (bench_hotpath's older sharded columns), and the
// committed checksums it reads must gate the run.

#include "util/trajectory.h"

#include <gtest/gtest.h>

namespace ronpath {
namespace {

constexpr const char* kTwoEntries = R"([
{
  "schema": "ronpath-bench-hotpath-v1",
  "label": "old-with-sharded",
  "packets_per_sec": 100.0,
  "sharded_packets_per_sec": 50.0
},
{
  "schema": "ronpath-bench-hotpath-v1",
  "label": "new-without-sharded",
  "packets_per_sec": 200.0
}
])";

TEST(Trajectory, LastEntryPicksTheNewestObject) {
  const std::string entry = traj::last_entry(kTwoEntries);
  EXPECT_NE(entry.find("new-without-sharded"), std::string::npos);
  EXPECT_EQ(entry.find("old-with-sharded"), std::string::npos);
}

TEST(Trajectory, MissingFieldFallsBackInsteadOfLeakingOlderEntries) {
  // The regression this guards: a whole-file "last occurrence" scan
  // would resolve sharded_packets_per_sec to the OLD entry's 50.0 and
  // compare a fresh run against a stale baseline. Entry-scoped lookup
  // reports the field as absent.
  const std::string entry = traj::last_entry(kTwoEntries);
  EXPECT_EQ(traj::number_field(entry, "packets_per_sec"), 200.0);
  EXPECT_EQ(traj::number_field(entry, "sharded_packets_per_sec"), -1.0);
  EXPECT_EQ(traj::number_field(entry, "sharded_packets_per_sec", 0.0), 0.0);
  EXPECT_FALSE(traj::has_field(entry, "sharded_packets_per_sec"));
  EXPECT_TRUE(traj::has_field(entry, "packets_per_sec"));
}

TEST(Trajectory, NonNumericValueFallsBackInsteadOfReadingZero) {
  // strtod alone reads each of these as 0, which bench_scale --compare
  // took as "no baseline" and skipped the tier's throughput gate.
  const std::string entry = R"({
  "packets_per_sec_300": null,
  "packets_per_sec_30": "1234.5",
  "events_per_sec_300": 12abc,
  "events_per_sec_30": nan,
  "wall_s_300": 4.5
})";
  EXPECT_EQ(traj::number_field(entry, "packets_per_sec_300"), -1.0);
  EXPECT_EQ(traj::number_field(entry, "packets_per_sec_30"), -1.0);
  EXPECT_EQ(traj::number_field(entry, "events_per_sec_300"), -1.0);
  EXPECT_EQ(traj::number_field(entry, "events_per_sec_30", 0.5), 0.5);
  EXPECT_TRUE(traj::has_field(entry, "packets_per_sec_300"));
  // The last value in an object ends at whitespace and the brace.
  EXPECT_EQ(traj::number_field(entry, "wall_s_300"), 4.5);
}

TEST(Trajectory, BracesInsideStringsDoNotConfuseMatching) {
  const std::string text = R"([
{ "label": "a } fake { close", "x": 1.0 },
{ "label": "with \" escaped { quote", "x": 2.0 }
])";
  const std::string entry = traj::last_entry(text);
  EXPECT_EQ(traj::number_field(entry, "x"), 2.0);
}

TEST(Trajectory, EmptyAndTruncatedInputs) {
  EXPECT_TRUE(traj::last_entry("").empty());
  EXPECT_TRUE(traj::last_entry("[\n").empty());
  // A truncated trailing object falls back to the last COMPLETE one.
  const std::string text = R"([{"x": 1.0}, {"x": 2.0)";
  EXPECT_EQ(traj::number_field(traj::last_entry(text), "x"), 1.0);
}

TEST(Trajectory, SingleEntryFile) {
  const std::string entry = traj::last_entry(R"({"only": 7.5})");
  EXPECT_EQ(traj::number_field(entry, "only"), 7.5);
}

TEST(Trajectory, StringFieldReadsQuotedValues) {
  const std::string entry = traj::last_entry(R"([
{ "packet_checksum": "1111111111111111" },
{ "label": "with \" escaped", "packet_checksum":"1603693ed1da7bf7", "packets": 400000 }
])");
  EXPECT_EQ(traj::string_field(entry, "packet_checksum"), "1603693ed1da7bf7");
  EXPECT_EQ(traj::string_field(entry, "label"), "with \" escaped");
  // Absent keys and non-string values have no string to return.
  EXPECT_EQ(traj::string_field(entry, "sample_checksum"), std::nullopt);
  EXPECT_EQ(traj::string_field(entry, "packets"), std::nullopt);
  // A suffix of another key does not match it.
  EXPECT_EQ(traj::string_field(entry, "checksum"), std::nullopt);
  EXPECT_EQ(traj::string_field(R"({"x": "unterminated)", "x"), std::nullopt);
}

TEST(Trajectory, ChecksumGateFailsOnlyOnDrift) {
  const std::string entry = R"({"report_checksum_300": "6907612d31dd9585"})";
  EXPECT_TRUE(traj::checksum_matches(entry, "report_checksum_300", 0x6907612d31dd9585ull));
  EXPECT_FALSE(traj::checksum_matches(entry, "report_checksum_300", 0x6907612d31dd9586ull));
  // A tier the baseline never ran has nothing to gate.
  EXPECT_TRUE(traj::checksum_matches(entry, "report_checksum_3000", 1));
}

}  // namespace
}  // namespace ronpath
