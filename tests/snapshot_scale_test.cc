// Snapshot/restore at scaling-tier sizes: a 300-node capped SimWorld
// checkpointed mid-run must restore to a byte-identical finish (the
// built-core list round-trips with it), and a capped run builds only the
// underlay cores its traffic reaches.

#include <gtest/gtest.h>

#include <string>

#include "core/fault_matrix.h"
#include "fault/scenarios.h"
#include "snapshot/codec.h"
#include "snapshot/snapshot.h"
#include "snapshot/world.h"

namespace ronpath {
namespace {

const Scenario& link_flap() {
  const Scenario* s = find_scenario("link-flap");
  EXPECT_NE(s, nullptr);
  return *s;
}

FaultMatrixConfig scale_cfg(std::size_t nodes, std::size_t fanout) {
  FaultMatrixConfig cfg;
  cfg.synth_nodes = nodes;
  cfg.overlay_fanout = fanout;
  cfg.overlay_landmarks = 8;
  return cfg;
}

// Checkpoints `world` at the given send index, restores into a twin and
// returns (uninterrupted report, restored report).
std::pair<std::string, std::string> checkpoint_roundtrip(const FaultMatrixConfig& cfg) {
  SimWorld world(link_flap(), FaultScheme::kHybrid, cfg, cfg.seed);
  world.advance_to(world.total_sends() / 2);
  snap::Encoder e;
  world.save_state(e);
  world.run_to_end();
  const std::string uninterrupted = world.report();

  SimWorld twin(link_flap(), FaultScheme::kHybrid, cfg, cfg.seed);
  snap::Decoder d(e.bytes());
  twin.restore_state(d);
  twin.run_to_end();
  return {uninterrupted, twin.report()};
}

TEST(SnapshotScale, Capped300NodeRestoreIsByteIdentical) {
  // The snapshot lists only the cores built so far; the restored twin
  // must rebuild exactly that set and then finish bit-for-bit.
  const auto [uninterrupted, restored] = checkpoint_roundtrip(scale_cfg(300, 16));
  EXPECT_EQ(uninterrupted, restored);
}

TEST(SnapshotScale, BuildsOnlyTraversedCores) {
  // A capped overlay probes and routes over O(n * fanout) pairs, so a
  // finished cell has built only a fraction of the n*(n-1) cores.
  const FaultMatrixConfig cfg = scale_cfg(60, 8);
  SimWorld world(link_flap(), FaultScheme::kHybrid, cfg, cfg.seed);
  const std::size_t sites = world.network().materialized_components();
  world.run_to_end();
  EXPECT_GT(world.network().materialized_components(), sites);
  EXPECT_LT(world.network().materialized_components(), world.network().component_count());
}

TEST(SnapshotScale, FingerprintSeparatesScaleConfigs) {
  const FaultMatrixConfig base = scale_cfg(300, 16);
  SimWorld world(link_flap(), FaultScheme::kHybrid, base, base.seed);

  FaultMatrixConfig other = base;
  other.overlay_fanout = 12;
  SimWorld different_fanout(link_flap(), FaultScheme::kHybrid, other, other.seed);
  EXPECT_NE(world.fingerprint(), different_fanout.fingerprint());

  other = base;
  other.synth_nodes = 301;
  SimWorld different_size(link_flap(), FaultScheme::kHybrid, other, other.seed);
  EXPECT_NE(world.fingerprint(), different_size.fingerprint());

  other = base;
  other.overlay_landmarks = 7;
  SimWorld different_landmarks(link_flap(), FaultScheme::kHybrid, other, other.seed);
  EXPECT_NE(world.fingerprint(), different_landmarks.fingerprint());
}

}  // namespace
}  // namespace ronpath
