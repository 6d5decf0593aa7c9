// Trajectory-file parsing shared by the perf benches (bench_hotpath,
// bench_scale, bench_workload).
//
// A trajectory file (BENCH_hotpath.json, BENCH_scale.json) is a JSON
// array of flat objects, one per committed run, appended over time. The
// format is our own, so a hand-rolled scanner is sufficient and avoids a
// JSON-library dependency — but the scan must be entry-aware: --compare
// baselines come from the LAST entry only. Older entries may carry
// fields that later runs dropped (and vice versa: pre-PR6 rows have no
// sharded columns), so a whole-file "last occurrence of the key" scan
// silently picks a stale baseline whenever the newest entry lacks a
// field an older one has.

#ifndef RONPATH_UTIL_TRAJECTORY_H_
#define RONPATH_UTIL_TRAJECTORY_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

namespace ronpath::traj {

// Reads a whole file; nullopt when it cannot be opened.
inline std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Returns the last complete top-level `{...}` object in `text`, brace
// matched and string-aware (braces inside JSON strings, including
// escaped quotes, do not count). Empty string when the text holds no
// complete object.
inline std::string last_entry(const std::string& text) {
  std::size_t best_start = std::string::npos;
  std::size_t best_end = std::string::npos;  // one past the closing brace
  std::size_t start = std::string::npos;
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      if (depth == 0) start = i;
      ++depth;
    } else if (c == '}') {
      if (depth > 0 && --depth == 0) {
        best_start = start;
        best_end = i + 1;
      }
    }
  }
  if (best_start == std::string::npos) return {};
  return text.substr(best_start, best_end - best_start);
}

// Scans `entry` for `"key": <number>` and returns the first value, or
// `fallback` when the key is absent or its whole value token is not a
// finite number (`null`, a quoted number, trailing garbage). Keys in our
// trajectory entries are unique per object, so first == only.
inline double number_field(const std::string& entry, const std::string& key,
                           double fallback = -1.0) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = entry.find(needle);
  if (at == std::string::npos) return fallback;
  const char* begin = entry.c_str() + at + needle.size();
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  const char* rest = end + std::strspn(end, " \t\r\n");
  if (end == begin || (*rest != ',' && *rest != '}' && *rest != '\0') || !std::isfinite(v)) {
    return fallback;
  }
  return v;
}

// True when the entry carries the key at all (regardless of value).
inline bool has_field(const std::string& entry, const std::string& key) {
  return entry.find("\"" + key + "\":") != std::string::npos;
}

// Scans `entry` for `"key": "<text>"` and returns the unescaped text;
// nullopt when the key is absent, its value is not a string, or the
// string is unterminated.
inline std::optional<std::string> string_field(const std::string& entry, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = entry.find(needle);
  if (at == std::string::npos) return std::nullopt;
  std::size_t i = entry.find_first_not_of(" \t\r\n", at + needle.size());
  if (i == std::string::npos || entry[i] != '"') return std::nullopt;
  std::string out;
  for (++i; i < entry.size(); ++i) {
    if (entry[i] == '"') return out;
    if (entry[i] == '\\' && ++i == entry.size()) break;
    out += entry[i];
  }
  return std::nullopt;
}

// The --compare checksum gate: a checksum pins what a bench simulated,
// so a committed `"key": "<16 hex digits>"` that differs from the run's
// `measured` value means behaviour changed. Prints the verdict; returns
// false only on drift (an entry without the key has nothing to gate).
inline bool checksum_matches(const std::string& entry, const std::string& key,
                             std::uint64_t measured) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(measured));
  const std::optional<std::string> committed = string_field(entry, key);
  if (!committed) {
    std::printf("compare %-24s %s (no committed baseline)\n", key.c_str(), hex);
    return true;
  }
  if (*committed == hex) {
    std::printf("compare %-24s %s (matches committed baseline)\n", key.c_str(), hex);
    return true;
  }
  std::fprintf(stderr,
               "CHECKSUM DRIFT: %s measured %s, committed %s - simulation behaviour changed\n",
               key.c_str(), hex, committed->c_str());
  return false;
}

}  // namespace ronpath::traj

#endif  // RONPATH_UTIL_TRAJECTORY_H_
