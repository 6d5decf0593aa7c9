// Snapshot decode hardening: truncated, bit-flipped, version-skewed and
// mis-addressed snapshot files must fail with a clear SnapshotError —
// never undefined behavior, never a silent misread. The fuzz-style
// sweeps run over a corpus of real SimWorld snapshots taken at several
// checkpoints of a canonical scenario.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/fault_matrix.h"
#include "core/testbed.h"
#include "fault/scenarios.h"
#include "net/network.h"
#include "overlay/estimator.h"
#include "overlay/overlay.h"
#include "overlay/router.h"
#include "snapshot/codec.h"
#include "snapshot/snapshot.h"
#include "snapshot/world.h"
#include "util/rng.h"

namespace ronpath {
namespace {

FaultMatrixConfig small_config() {
  FaultMatrixConfig cfg;
  cfg.node_count = 4;
  cfg.warmup = Duration::minutes(2);
  cfg.measured = Duration::minutes(3);
  cfg.send_interval = Duration::millis(500);
  return cfg;
}

const Scenario& scenario() {
  const Scenario* s = find_scenario("single-site-blackout");
  EXPECT_NE(s, nullptr);
  return *s;
}

// A corpus of sealed snapshot files taken at several checkpoints.
struct CorpusEntry {
  std::size_t checkpoint;
  std::uint64_t fingerprint;
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> file;
};

const std::vector<CorpusEntry>& corpus() {
  static const std::vector<CorpusEntry> entries = [] {
    std::vector<CorpusEntry> out;
    for (const std::size_t checkpoint : {std::size_t{0}, std::size_t{50}, std::size_t{200}}) {
      SimWorld world(scenario(), FaultScheme::kReactive, small_config(), 42);
      world.advance_to(checkpoint);
      snap::Encoder e;
      world.save_state(e);
      CorpusEntry entry;
      entry.checkpoint = checkpoint;
      entry.fingerprint = world.fingerprint();
      entry.payload = e.bytes();
      entry.file = snap::seal(world.fingerprint(), entry.payload);
      out.push_back(std::move(entry));
    }
    return out;
  }();
  return entries;
}

TEST(SnapshotEnvelope, SealUnsealRoundTrips) {
  for (const CorpusEntry& entry : corpus()) {
    ASSERT_GE(entry.file.size(), snap::kSnapshotMinBytes);
    const std::vector<std::uint8_t> payload = snap::unseal(entry.file, entry.fingerprint);
    EXPECT_EQ(payload, entry.payload) << "checkpoint " << entry.checkpoint;
  }
}

TEST(SnapshotEnvelope, RestoredPayloadRestoresCleanly) {
  const CorpusEntry& entry = corpus().back();
  const std::vector<std::uint8_t> payload = snap::unseal(entry.file, entry.fingerprint);
  SimWorld fresh(scenario(), FaultScheme::kReactive, small_config(), 42);
  snap::Decoder d(payload);
  EXPECT_NO_THROW(fresh.restore_state(d));
  EXPECT_EQ(fresh.next_send(), entry.checkpoint);
}

TEST(SnapshotEnvelope, EveryTruncationIsRejected) {
  const CorpusEntry& entry = corpus().front();
  // Every header-region prefix, then strides through the payload, then
  // every cut through the trailing checksum.
  std::vector<std::size_t> cuts;
  for (std::size_t len = 0; len < snap::kSnapshotMinBytes && len < entry.file.size(); ++len) {
    cuts.push_back(len);
  }
  for (std::size_t len = snap::kSnapshotMinBytes; len < entry.file.size(); len += 97) {
    cuts.push_back(len);
  }
  for (std::size_t back = 1; back <= 9 && back < entry.file.size(); ++back) {
    cuts.push_back(entry.file.size() - back);
  }
  for (const std::size_t len : cuts) {
    std::vector<std::uint8_t> cut(entry.file.begin(),
                                  entry.file.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)snap::unseal(cut, entry.fingerprint), snap::SnapshotError)
        << "truncated to " << len << " of " << entry.file.size() << " bytes";
  }
}

TEST(SnapshotEnvelope, SeededBitFlipFuzz) {
  Rng rng(20260807);
  for (const CorpusEntry& entry : corpus()) {
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<std::uint8_t> mutated = entry.file;
      const std::size_t bit = rng.next_below(mutated.size() * 8);
      mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      EXPECT_THROW((void)snap::unseal(mutated, entry.fingerprint), snap::SnapshotError)
          << "checkpoint " << entry.checkpoint << " flipped bit " << bit;
    }
  }
}

TEST(SnapshotEnvelope, MultiByteCorruptionInPayloadIsRejected) {
  const CorpusEntry& entry = corpus().back();
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint8_t> mutated = entry.file;
    const std::size_t span = 1 + rng.next_below(32);
    const std::size_t at =
        snap::kSnapshotHeaderBytes +
        rng.next_below(entry.payload.size() > span ? entry.payload.size() - span : 1);
    for (std::size_t i = 0; i < span; ++i) {
      mutated[at + i] = static_cast<std::uint8_t>(rng.next_below(256));
    }
    if (mutated == entry.file) continue;  // rewrote identical bytes
    EXPECT_THROW((void)snap::unseal(mutated, entry.fingerprint), snap::SnapshotError)
        << "trial " << trial;
  }
}

TEST(SnapshotEnvelope, BadMagicIsRejectedWithDiagnostic) {
  std::vector<std::uint8_t> mutated = corpus().front().file;
  mutated[0] = 'X';
  try {
    (void)snap::unseal(mutated, corpus().front().fingerprint);
    FAIL() << "bad magic accepted";
  } catch (const snap::SnapshotError& err) {
    EXPECT_NE(std::string(err.what()).find("magic"), std::string::npos) << err.what();
  }
}

TEST(SnapshotEnvelope, VersionSkewIsRejectedWithDiagnostic) {
  // Patch the version field and re-seal the CRC so version skew is the
  // *only* defect — the error must name the version, not the checksum.
  // The previous format (whose full-mesh LTAB was an n*n matrix) is
  // rejected the same way as an unknown future one.
  for (const std::uint32_t version : {snap::kSnapshotVersion - 1, std::uint32_t{99}}) {
    SCOPED_TRACE("version " + std::to_string(version));
    std::vector<std::uint8_t> mutated = corpus().front().file;
    mutated[8] = static_cast<std::uint8_t>(version);
    const std::size_t body = mutated.size() - 8;
    const std::uint64_t crc = snap::crc64(mutated.data(), body);
    for (int i = 0; i < 8; ++i) {
      mutated[body + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>((crc >> (8 * i)) & 0xff);
    }
    try {
      (void)snap::unseal(mutated, corpus().front().fingerprint);
      FAIL() << "version " << version << " accepted";
    } catch (const snap::SnapshotError& err) {
      const std::string what = err.what();
      EXPECT_NE(what.find("version " + std::to_string(version)), std::string::npos) << what;
    }
  }
}

TEST(SnapshotEnvelope, FingerprintMismatchIsRejectedWithDiagnostic) {
  const CorpusEntry& entry = corpus().front();
  try {
    (void)snap::unseal(entry.file, entry.fingerprint ^ 1);
    FAIL() << "fingerprint mismatch accepted";
  } catch (const snap::SnapshotError& err) {
    EXPECT_NE(std::string(err.what()).find("different"), std::string::npos) << err.what();
  }
}

TEST(SnapshotEnvelope, ChecksumMismatchNamesTheChecksum) {
  std::vector<std::uint8_t> mutated = corpus().front().file;
  mutated[mutated.size() / 2] ^= 0x40;
  try {
    (void)snap::unseal(mutated, corpus().front().fingerprint);
    FAIL() << "corrupt body accepted";
  } catch (const snap::SnapshotError& err) {
    EXPECT_NE(std::string(err.what()).find("checksum"), std::string::npos) << err.what();
  }
}

// Raw payload truncations must be caught by the decoder or the world's
// own validation — a strict prefix can never restore successfully.
TEST(SnapshotCorruption, TruncatedPayloadNeverRestores) {
  const CorpusEntry& entry = corpus().back();
  for (std::size_t len = 0; len < entry.payload.size(); len += 131) {
    std::vector<std::uint8_t> cut(entry.payload.begin(),
                                  entry.payload.begin() + static_cast<std::ptrdiff_t>(len));
    SimWorld fresh(scenario(), FaultScheme::kReactive, small_config(), 42);
    snap::Decoder d(cut);
    EXPECT_THROW(fresh.restore_state(d), snap::SnapshotError) << "payload prefix " << len;
  }
}

// Restoring a snapshot from a *differently configured* world must be
// stopped by the fingerprint before any payload decoding happens.
TEST(SnapshotCorruption, CrossWorldRestoreIsBlocked) {
  const CorpusEntry& entry = corpus().front();
  SimWorld other(scenario(), FaultScheme::kMesh, small_config(), 42);
  EXPECT_NE(other.fingerprint(), entry.fingerprint);
  EXPECT_THROW((void)snap::unseal(entry.file, other.fingerprint()), snap::SnapshotError);

  FaultMatrixConfig cfg = small_config();
  cfg.node_count = 5;
  SimWorld bigger(scenario(), FaultScheme::kReactive, cfg, 42);
  EXPECT_NE(bigger.fingerprint(), entry.fingerprint);

  SimWorld reseeded(scenario(), FaultScheme::kReactive, small_config(), 43);
  EXPECT_NE(reseeded.fingerprint(), entry.fingerprint);
}

// A capped overlay (fanout 4 over the 30-site testbed) restored from a
// snapshot taken right after start(): no follow-up chain is pending, so
// the payload ends in a zero follow-up count that the tests below
// replace with one hand-made descriptor (src, dst, remaining, at, seq).
struct CappedOverlayRig {
  Topology topo = testbed_2002();
  Network net{topo, NetConfig::profile_2003(), Duration::hours(1), Rng(42)};
  Scheduler sched;
  OverlayNetwork overlay{net, sched, config(), Rng(43)};

  static OverlayConfig config() {
    OverlayConfig cfg;
    cfg.fanout = 4;
    cfg.landmarks = 2;
    return cfg;
  }
  CappedOverlayRig() { overlay.start(); }

  std::vector<std::uint8_t> payload_with_followup(NodeId src, NodeId dst) {
    snap::Encoder e;
    overlay.save_state(e);
    std::vector<std::uint8_t> bytes = e.bytes();
    snap::Encoder tail;
    tail.u64(0);
    EXPECT_TRUE(std::equal(tail.bytes().begin(), tail.bytes().end(), bytes.end() - 8));
    bytes.resize(bytes.size() - 8);
    snap::Encoder chain;
    chain.u64(1);
    chain.u64(src);
    chain.u64(dst);
    chain.i64(1);
    chain.time(TimePoint::epoch() + Duration::seconds(1));
    chain.u64(0);
    bytes.insert(bytes.end(), chain.bytes().begin(), chain.bytes().end());
    return bytes;
  }

  void restore_into_fresh(const std::vector<std::uint8_t>& payload) {
    CappedOverlayRig fresh;
    fresh.sched.restore_clock(sched.now(), sched.next_seq(), 0);
    snap::Decoder d(payload);
    fresh.overlay.restore_state(d);
  }
};

// A follow-up chain only ever runs on a probed edge. A descriptor whose
// endpoints are in range but not adjacent in the capped graph must be
// rejected, not re-armed onto whatever edge a keyed lookup lands on.
TEST(SnapshotCorruption, FollowupOnNonEdgeIsRejected) {
  CappedOverlayRig rig;
  const NeighborSet& nbrs = rig.overlay.neighbors();
  ASSERT_LT(nbrs.edge_count(), nbrs.size() * (nbrs.size() - 1));
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  for (NodeId s = 0; s < nbrs.size() && a == kInvalidNode; ++s) {
    for (NodeId d = 0; d < nbrs.size(); ++d) {
      if (s != d && !nbrs.adjacent(s, d)) {
        a = s;
        b = d;
        break;
      }
    }
  }
  ASSERT_NE(a, kInvalidNode) << "capped graph unexpectedly complete";
  try {
    rig.restore_into_fresh(rig.payload_with_followup(a, b));
    FAIL() << "follow-up on non-edge " << a << "->" << b << " restored";
  } catch (const snap::SnapshotError& err) {
    EXPECT_NE(std::string(err.what()).find("not an edge"), std::string::npos) << err.what();
  }

  // The same descriptor on a probed edge restores.
  const NodeId peer = nbrs.neighbors(a).front();
  EXPECT_NO_THROW(rig.restore_into_fresh(rig.payload_with_followup(a, peer)));
}

// The estimator's saved lost-probe count must agree with the restored
// window; a larger count would push loss() above 1.
TEST(SnapshotCorruption, EstimatorLostCountMustMatchWindow) {
  LinkEstimator est(100, 0.1);
  std::uint64_t lost = 0;
  for (int i = 0; i < 37; ++i) {
    const bool l = i % 3 == 0;
    lost += l ? 1 : 0;
    est.record_probe(l, Duration::millis(10), TimePoint::epoch());
  }
  snap::Encoder e;
  est.save_state(e);
  // Layout: tag(4) | u64 count | ceil(37/8) packed bytes | u64 lost | ...
  const std::size_t at = 4 + 8 + (37 + 7) / 8;
  const auto patched = [&](std::uint64_t value) {
    std::vector<std::uint8_t> bytes = e.bytes();
    for (int i = 0; i < 8; ++i) bytes[at + i] = static_cast<std::uint8_t>(value >> (8 * i));
    return bytes;
  };
  {
    const std::vector<std::uint8_t> same = patched(lost);
    EXPECT_EQ(same, e.bytes());  // the offset really is the lost count
    LinkEstimator ok(100, 0.1);
    snap::Decoder d(same);
    EXPECT_NO_THROW(ok.restore_state(d));
    EXPECT_EQ(ok.loss(), est.loss());
  }
  for (const std::uint64_t bad : {lost - 1, lost + 1, std::uint64_t{200}}) {
    const std::vector<std::uint8_t> bytes = patched(bad);
    LinkEstimator restored(100, 0.1);
    snap::Decoder d(bytes);
    EXPECT_THROW(restored.restore_state(d), snap::SnapshotError) << "lost count " << bad;
  }
}

// A router's saved state for node 0 of a 4-node mesh: one destination
// (1) with a loss incumbent, and one hold-down record on (dst 1, via 2).
struct Incumbent {
  std::uint64_t src, dst, via, via2;
};
struct HolddownRecord {
  TimePoint until = TimePoint::epoch() + Duration::seconds(30);
  TimePoint last_down = TimePoint::epoch();
  std::int64_t strikes = 1;
};

std::vector<std::uint8_t> router_payload(Incumbent p, HolddownRecord h) {
  snap::Encoder e;
  e.tag("ROUT");
  e.u64(1);
  e.u64(1);
  e.b(true);
  e.u64(p.src);
  e.u64(p.dst);
  e.u64(p.via);
  e.u64(p.via2);
  e.b(false);
  e.i64(0);
  e.i64(0);
  e.u64(1);
  e.u64(1 * (4 + 1) + 2);
  e.time(h.until);
  e.time(h.last_down);
  e.i64(h.strikes);
  return e.bytes();
}

RouterConfig holddown_config() {
  RouterConfig cfg;
  cfg.holddown_base = Duration::seconds(30);
  return cfg;
}

// Restores `bytes` into a fresh router; returns the SnapshotError text,
// or an empty string when the bytes restored.
std::string router_restore_error(const std::vector<std::uint8_t>& bytes) {
  const NeighborSet mesh = NeighborSet::full_mesh(4);
  LinkStateTable table(mesh);
  Router r(0, table, holddown_config());
  snap::Decoder d(bytes);
  try {
    r.restore_state(d);
  } catch (const snap::SnapshotError& err) {
    return err.what();
  }
  return {};
}

const Incumbent kRelayedViaTwo = {0, 1, 2, kDirectVia};

// Each way an incumbent or a hold-down strike count can be out of shape
// must be rejected on restore, before a route query reads the table
// through it.
TEST(SnapshotCorruption, MalformedRouterStateIsRejected) {
  const std::uint64_t direct = kDirectVia;
  {
    const NeighborSet mesh = NeighborSet::full_mesh(4);
    LinkStateTable table(mesh);
    Router ok(0, table, holddown_config());
    const std::vector<std::uint8_t> bytes = router_payload({0, 1, 2, 3}, {});
    snap::Decoder d(bytes);
    ASSERT_NO_THROW(ok.restore_state(d));
    std::vector<std::string> violations;
    ok.check_invariants(TimePoint::epoch() + Duration::seconds(1), violations);
    EXPECT_TRUE(violations.empty()) << violations.front();
    (void)ok.best_loss_path(1);
  }
  const std::vector<std::pair<Incumbent, const char*>> bad_paths = {
      {{0, 1, 60000, direct}, "via out of range"},
      {{0, 1, 4, direct}, "via == n"},
      {{0, 1, 2, 60000}, "via2 out of range"},
      {{0, 1, direct, 2}, "via2 without via"},
      {{2, 1, 3, direct}, "src is not the router"},
      {{0, 2, 3, direct}, "dst is not the key"},
      {{0, 65537, 3, direct}, "dst aliases the key after narrowing"},
  };
  for (const auto& [path, why] : bad_paths) {
    EXPECT_NE(router_restore_error(router_payload(path, {})).find("incumbent"),
              std::string::npos)
        << why;
  }
  for (const std::int64_t strikes : {std::int64_t{-1}, std::int64_t{21}, std::int64_t{1} << 32}) {
    HolddownRecord h;
    h.strikes = strikes;
    EXPECT_NE(router_restore_error(router_payload(kRelayedViaTwo, h)).find("strikes"),
              std::string::npos)
        << strikes << " strikes";
  }
}

// register_down grants a ban together with a strike, so a record with a
// ban and no strike is one the auditor flags; restore rejects it too.
TEST(SnapshotCorruption, BanWithoutStrikeIsRejected) {
  HolddownRecord h;
  EXPECT_EQ(router_restore_error(router_payload(kRelayedViaTwo, h)), "");
  h.strikes = 0;
  EXPECT_NE(router_restore_error(router_payload(kRelayedViaTwo, h)).find("ban without a strike"),
            std::string::npos);
}

// A ban is granted at a down event and lasts at most holddown_max, so
// `until` never lies further than that past the last down event.
TEST(SnapshotCorruption, BanPastHolddownMaxIsRejected) {
  const Duration max = holddown_config().holddown_max;
  HolddownRecord h;
  h.last_down = TimePoint::epoch() + Duration::seconds(10);
  h.until = h.last_down + max;
  EXPECT_EQ(router_restore_error(router_payload(kRelayedViaTwo, h)), "");
  h.until = h.last_down + max + Duration::nanos(1);
  EXPECT_NE(router_restore_error(router_payload(kRelayedViaTwo, h)).find("holddown_max"),
            std::string::npos);
  // Instants far enough apart to overflow a plain difference.
  h.last_down = TimePoint::from_nanos(std::numeric_limits<std::int64_t>::min());
  h.until = TimePoint::max();
  EXPECT_NE(router_restore_error(router_payload(kRelayedViaTwo, h)).find("holddown_max"),
            std::string::npos);
}

TEST(SnapshotFiles, WriteReadRoundTrip) {
  const CorpusEntry& entry = corpus().front();
  const std::string path = testing::TempDir() + "/ronpath_corruption_roundtrip.snap";
  snap::write_file(path, entry.fingerprint, entry.payload);
  const std::vector<std::uint8_t> payload = snap::read_file(path, entry.fingerprint);
  EXPECT_EQ(payload, entry.payload);
  std::remove(path.c_str());
}

TEST(SnapshotFiles, MissingAndUnwritablePathsFailWithDiagnostic) {
  EXPECT_THROW((void)snap::read_file(testing::TempDir() + "/ronpath_no_such_file.snap", 0),
               snap::SnapshotError);
  try {
    snap::write_file("/nonexistent-ronpath-dir/out.snap", 0, {1, 2, 3});
    FAIL() << "write to unwritable path succeeded";
  } catch (const snap::SnapshotError& err) {
    EXPECT_NE(std::string(err.what()).find("cannot open"), std::string::npos) << err.what();
  }
}

}  // namespace
}  // namespace ronpath
