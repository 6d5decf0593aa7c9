#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <map>

namespace perfbench {

double wall_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f)) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// ---- tracing ---------------------------------------------------------

namespace {
// Innermost open scope per thread, for implicit parents.
thread_local std::vector<int> t_open;
}  // namespace

Tracer::Tracer(std::uint64_t run_id) : run_id_(run_id), origin_(wall_s()) {}

int Tracer::open(std::string name, int parent) {
  const double now = wall_s() - origin_;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), now, now, parent, 1});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::close(int index, std::int64_t calls) {
  const double now = wall_s() - origin_;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end = now;
  spans_[static_cast<std::size_t>(index)].calls = calls;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

namespace {
void json_string(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (const char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
  std::fputc('"', f);
}
}  // namespace

bool Tracer::write_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"run_id\": \"%016" PRIx64 "\", \"spans\": [\n", run_id_);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f, "  {\"id\": %zu, \"name\": ", i);
    json_string(f, s.name);
    std::fprintf(f, ", \"start\": %.9f, \"end\": %.9f, \"parent\": %d, \"calls\": %" PRId64 "}%s\n",
                 s.start, s.end, s.parent, s.calls, i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void Tracer::print_summary(std::FILE* out) const {
  const std::vector<Span> all = spans();
  std::vector<double> child_time(all.size(), 0.0);
  for (const Span& s : all) {
    if (s.parent >= 0) child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  struct Row {
    std::int64_t spans = 0;
    std::int64_t calls = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < all.size(); ++i) {
    Row& r = rows[all[i].name];
    const double d = all[i].end - all[i].start;
    r.spans += 1;
    r.calls += all[i].calls;
    r.total += d;
    r.self += std::max(0.0, d - child_time[i]);
  }
  std::fprintf(out, "trace %016" PRIx64 ": %zu spans\n", run_id_, all.size());
  for (const auto& [name, r] : rows) {
    std::fprintf(out, "span %-34s spans %6" PRId64 " calls %10" PRId64
                      " total %10.6fs self %10.6fs\n",
                 name.c_str(), r.spans, r.calls, r.total, r.self);
  }
}

Scope::Scope(Tracer* tracer, std::string name)
    : Scope(tracer, std::move(name), t_open.empty() ? -1 : t_open.back()) {}

Scope::Scope(Tracer* tracer, std::string name, int parent) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  index_ = tracer_->open(std::move(name), parent);
  t_open.push_back(index_);
}

Scope::~Scope() {
  if (tracer_ == nullptr) return;
  t_open.pop_back();
  tracer_->close(index_, calls_);
}

// ---- results ---------------------------------------------------------

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back(Metric{name, value, unit});
}

void print_counts(std::FILE* out, const char* label, const Counts& c) {
  std::fprintf(out,
               "counts %s: event.events %" PRIu64 " net.transmits %" PRId64
               " overlay.probes %" PRId64 " overlay.announces %" PRId64
               " measure.records %" PRId64 " overlay.path_engine.edges_relaxed_per_query %.6f\n",
               label, c.events, c.transmits, c.probes, c.announces, c.records,
               c.edges_relaxed_per_query);
}

std::uint64_t pinned_checksum(const std::string& workload, std::uint64_t seed) {
  // Seed 42 reproduces the committed bench_scale / bench_workload
  // checksums (and run_experiment's Table 5 report for ron2003); seed
  // 2026 is a held-out seed, recorded once and never tuned against.
  struct Pin {
    const char* workload;
    std::uint64_t seed;
    std::uint64_t checksum;
  };
  static constexpr Pin kPins[] = {
      {"ron2003", 42, 0xbb57f851731cb1d9ull},
      {"ron2003", 2026, 0x792bed68220ad08dull},
      {"capped_scale", 42, 0xb1cd5e0b50871604ull},
      {"capped_scale", 2026, 0xb57e31bc7374b722ull},
      {"traffic_matrix", 42, 0x357fd34e162219c1ull},
      {"traffic_matrix", 2026, 0x949d01519555e1adull},
  };
  for (const Pin& p : kPins) {
    if (workload == p.workload && seed == p.seed) return p.checksum;
  }
  return 0;
}

}  // namespace perfbench
