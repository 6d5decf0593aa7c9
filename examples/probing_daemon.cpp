// Probing daemon: runs the RON-style overlay for a while and periodically
// prints each node's routing decisions for a watched destination - the
// kind of dashboard a deployed overlay operator would watch. Shows path
// churn, down detection, and the loss/latency estimates driving choices.
//
// Usage: probing_daemon [MINUTES]   (virtual minutes, default 45)

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "core/testbed.h"
#include "event/scheduler.h"
#include "net/network.h"
#include "overlay/overlay.h"

using namespace ronpath;

namespace {

// One year of virtual minutes: far beyond any useful dashboard run.
constexpr long kMaxMinutes = 525'600;

// Parses MINUTES strictly: the whole token must be an integer in
// [1, kMaxMinutes]; anything else exits 2 naming the argument.
int parse_minutes(const char* text) {
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < 1 || v > kMaxMinutes) {
    std::fprintf(stderr, "MINUTES: expected an integer in [1, %ld], got \"%s\"\n", kMaxMinutes,
                 text);
    std::exit(2);
  }
  return static_cast<int>(v);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 2) {
    std::fprintf(stderr, "usage: %s [MINUTES]\n", argv[0]);
    return 2;
  }
  const int minutes = argc > 1 ? parse_minutes(argv[1]) : 45;

  const Topology topo = testbed_2003();
  Rng rng(99);
  Scheduler sched;
  Network net(topo, NetConfig::profile_2003(), Duration::minutes(minutes + 10),
              rng.fork("net"));
  OverlayNetwork overlay(net, sched, OverlayConfig{}, rng.fork("overlay"));
  overlay.start();

  const NodeId dst = *topo.find("Korea");
  const NodeId watchers[] = {*topo.find("MIT"), *topo.find("UCSD"), *topo.find("CA-DSL"),
                             *topo.find("GBLX-LON")};

  std::map<std::string, int> choice_histogram;
  std::printf("watching routes to Korea every 5 virtual minutes (%d minutes total)\n\n",
              minutes);
  for (int m = 5; m <= minutes; m += 5) {
    sched.run_until(TimePoint::epoch() + Duration::minutes(m));
    std::printf("t=%3d min  (probes so far: %lld)\n", m,
                static_cast<long long>(overlay.probes_sent()));
    for (NodeId w : watchers) {
      auto& router = overlay.router(w);
      const auto loss_pick = router.best_loss_path(dst);
      const auto lat_pick = router.best_lat_path(dst);
      const auto& est = overlay.estimator(w, dst);
      const std::string loss_via =
          loss_pick.path.is_direct() ? "direct" : topo.site(loss_pick.path.via).name;
      const std::string lat_via =
          lat_pick.path.is_direct() ? "direct" : topo.site(lat_pick.path.via).name;
      std::printf("  %-9s direct est: loss %5.2f%% lat %9s %s | loss-pick: %-10s "
                  "| lat-pick: %-10s\n",
                  topo.site(w).name.c_str(), 100.0 * est.loss(),
                  est.latency() == Duration::max() ? "?" : est.latency().to_string().c_str(),
                  est.down() ? "[DOWN]" : "      ", loss_via.c_str(), lat_via.c_str());
      ++choice_histogram[loss_via];
    }
    std::printf("\n");
  }

  std::printf("loss-optimized choice histogram over the run:\n");
  for (const auto& [via, count] : choice_histogram) {
    std::printf("  %-12s %d\n", via.c_str(), count);
  }
  return 0;
}
