// A fault-matrix cell as a resumable object.
//
// SimWorld runs the same world as core/fault_matrix.cc's run_fault_cell
// — both build it through core/cell_env.h, so construction order and the
// RNG fork sequence are shared by code, not by convention — but exposes
// the run as explicit steps (advance_to / run_to_end) with checkpoints
// in between. A differential test pins SimWorld's finished cell()
// against run_fault_cell for every canonical scenario, so the CBR send
// loops cannot drift apart silently.
//
// Checkpoint model: pending events are closures, so save_state records
// per-owner re-arm descriptors (see event/scheduler.h). A restore
// target is built by constructing a SimWorld with the same arguments
// (identical ctors consume identical RNG forks), then overwriting all
// mutable state from the payload; the scheduler clock is restored first
// so owners can re-arm their events with the original sequence numbers.
// The result: a killed-and-restored run produces byte-identical reports
// to an uninterrupted one at any checkpoint cadence.

#ifndef RONPATH_SNAPSHOT_WORLD_H_
#define RONPATH_SNAPSHOT_WORLD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/cell_env.h"
#include "core/fault_matrix.h"

namespace ronpath {

class SimWorld {
 public:
  // Throws std::runtime_error when the scenario DSL does not parse.
  // The scenario's strings are copied, so callers may pass synthesized
  // schedules with transient backing storage (the soak harness does).
  SimWorld(const Scenario& scenario, FaultScheme scheme, const FaultMatrixConfig& cfg,
           std::uint64_t seed);

  // CBR progress: one send per cfg.send_interval over the measured
  // window, exactly run_fault_cell's loop.
  [[nodiscard]] std::size_t total_sends() const;
  [[nodiscard]] std::size_t next_send() const { return next_send_; }
  [[nodiscard]] bool finished() const { return drained_; }

  // Runs the simulation forward until `send_index` CBR packets have been
  // sent (clamped to total_sends()). The warmup runs on first call.
  void advance_to(std::size_t send_index);
  // Completes all sends and drains the scheduler to the end of the run.
  void run_to_end();

  // Identity of this world: FNV-1a over scenario, scheme, config and
  // seed. Sealed into snapshot files so a snapshot cannot be restored
  // into a differently-configured world.
  [[nodiscard]] std::uint64_t fingerprint() const;

  // Serializes / overwrites all mutable state. restore_state expects a
  // freshly constructed SimWorld with the same constructor arguments and
  // throws snap::SnapshotError on any mismatch or corruption.
  void save_state(snap::Encoder& e) const;
  void restore_state(snap::Decoder& d);

  // Finished-run results, identical to run_fault_cell's.
  [[nodiscard]] FaultCell cell() const;

  // Deterministic text report: scenario identity, clock/event/net/probe
  // counters, a delivery-timeline hash, and (when finished) the cell
  // metrics. Byte-identical between an uninterrupted run and any
  // kill/restore schedule — the soak harness's ground truth.
  [[nodiscard]] std::string report() const;

  // Runtime invariant audit across every layer (scheduler heap, loss
  // processes, estimators, link-state table, routers, overhead
  // counters) plus world-level progress consistency.
  void check_invariants(std::vector<std::string>& out) const;

  [[nodiscard]] Scheduler& scheduler() { return env_.sched; }
  [[nodiscard]] const FaultMatrixConfig& config() const { return cfg_; }
  [[nodiscard]] std::string_view scenario_name() const { return scenario_name_; }
  // Read-only views for benches/tests (control meters, resident state,
  // materialized-component counts).
  [[nodiscard]] const OverlayNetwork& overlay() const { return *env_.overlay; }
  [[nodiscard]] const Network& network() const { return *env_.net; }

 private:
  [[nodiscard]] Scenario scenario_view() const;
  [[nodiscard]] TimePoint measure_start() const { return TimePoint::epoch() + cfg_.warmup; }
  [[nodiscard]] TimePoint end_time() const { return measure_start() + cfg_.measured; }

  // Configuration (immutable after construction).
  std::string scenario_name_;
  std::string scenario_summary_;
  std::string dsl_;
  TimePoint fault_start_;
  Duration fault_duration_;
  bool routable_;
  FaultScheme scheme_;
  FaultMatrixConfig cfg_;
  std::uint64_t seed_;

  // The simulated world, built by the shared CellEnv sequence (same
  // construction + RNG fork order as run_fault_cell by construction).
  CellEnv env_;

  // Mutable progress state.
  std::vector<bool> delivered_;
  std::size_t next_send_ = 0;
  bool warmed_ = false;
  bool drained_ = false;
};

}  // namespace ronpath

#endif  // RONPATH_SNAPSHOT_WORLD_H_
