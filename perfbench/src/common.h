// Shared pieces of the ronpath benchmark: clocks, the in-memory span
// tracer, exact work counts, metric lists, and the Workload interface
// each of the three workloads implements.
//
// The benchmark drives the simulator only through its public entry
// points; nothing here is compiled into the simulator itself.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// Wall clock (steady) and this process's user+sys CPU time, in seconds.
[[nodiscard]] double wall_s();
[[nodiscard]] double cpu_s();
// VmHWM of this process in MiB (0 off Linux).
[[nodiscard]] double peak_rss_mb();
[[nodiscard]] double median(std::vector<double> v);

// Keeps a drill's result alive so the timed loop is not optimised away.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

// ---- tracing ---------------------------------------------------------

struct Span {
  std::string name;
  double start = 0.0;  // seconds since the tracer was created
  double end = 0.0;
  int parent = -1;     // index into spans(), -1 for a root
  std::int64_t calls = 1;
};

// In-memory span recorder. All spans of one traced run share `run_id`.
// Thread-safe: worker threads pass their parent explicitly.
class Tracer {
 public:
  explicit Tracer(std::uint64_t run_id);

  int open(std::string name, int parent);
  void close(int index, std::int64_t calls);
  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::uint64_t run_id() const { return run_id_; }
  // Writes {"run_id":..., "spans":[...]} to `path`; false on I/O error.
  [[nodiscard]] bool write_json(const std::string& path) const;
  // Prints total and self time per span name (self = duration minus the
  // time covered by child spans).
  void print_summary(std::FILE* out) const;

 private:
  std::uint64_t run_id_;
  double origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// RAII span; a null tracer makes it a no-op. Without an explicit parent
// the innermost open scope of this thread is the parent.
class Scope {
 public:
  Scope(Tracer* tracer, std::string name);
  Scope(Tracer* tracer, std::string name, int parent);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void set_calls(std::int64_t calls) { calls_ = calls; }
  [[nodiscard]] int index() const { return index_; }

 private:
  Tracer* tracer_;
  int index_ = -1;
  std::int64_t calls_ = 1;
};

// ---- results ---------------------------------------------------------

// Exact work counts. Every run of one invocation, traced or not, must
// reproduce them exactly.
struct Counts {
  std::uint64_t events = 0;
  std::int64_t transmits = 0;
  std::int64_t probes = 0;
  std::int64_t announces = 0;
  std::int64_t records = 0;
  double edges_relaxed_per_query = 0.0;

  friend bool operator==(const Counts&, const Counts&) = default;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<Metric>& all() const { return items_; }

 private:
  std::vector<Metric> items_;
};

// One full run of a workload: setup, simulated run, report.
struct RunResult {
  double setup_s = 0.0;
  double run_s = 0.0;
  double cpu_s = 0.0;
  double packets = 0.0;  // simulated packets through Network::transmit
  Counts counts;
  // Report checksum per slice; slice i ran under slice_seeds()[i].
  std::vector<std::uint64_t> checksums;
  // Check failures (invariant audit, adaptive_wins, ...); empty = pass.
  std::vector<std::string> problems;
  // Output units this run covers (matrix cells, or 1) and how many of
  // them failed a check.
  std::int64_t units = 1;
  std::int64_t failed_units = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds the world once and discards it; returns the build time.
  virtual double setup_once() = 0;
  // One timed run through the product entry point.
  virtual RunResult run() = 0;
  // One run composed from the layer classes, with a span around every
  // layer call when `tracer` is non-null; layer counters go to `layer`.
  // With a null tracer it is the untraced baseline of the traced run.
  virtual RunResult composed_run(Tracer* tracer, Metrics* layer) = 0;
  // Untimed checks of `first` (a run() result) against the composed or
  // second public entry point. Returns the exact counts of the composed
  // run, the ones a traced run must reproduce.
  virtual Counts cross_check(const RunResult& first, std::vector<std::string>& problems) = 0;
  // Layer drills on the finished world of the last composed run.
  virtual void drills(Tracer* tracer, Metrics& layer) = 0;
  [[nodiscard]] virtual std::vector<std::uint64_t> slice_seeds() const = 0;
  // Setup builds per invocation beyond the one each run makes.
  [[nodiscard]] virtual int extra_setups() const = 0;
};

// Seeds with a pinned report checksum for `workload`; 0 when unpinned.
[[nodiscard]] std::uint64_t pinned_checksum(const std::string& workload, std::uint64_t seed);

void print_counts(std::FILE* out, const char* label, const Counts& c);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
