// Micro-benchmarks (google-benchmark) for the hot paths: event queue,
// wire encode/decode, GF(256) and Reed-Solomon coding, loss-process
// sampling, network transmission, estimator updates and router selection.

#include <benchmark/benchmark.h>

#include "core/testbed.h"
#include "event/scheduler.h"
#include "fec/packet_fec.h"
#include "fec/reed_solomon.h"
#include "net/network.h"
#include "overlay/estimator.h"
#include "overlay/router.h"
#include "util/rng.h"
#include "wire/packet.h"

namespace ronpath {
namespace {

void BM_SchedulerScheduleDispatch(benchmark::State& state) {
  Scheduler sched;
  std::int64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      sched.schedule_after(Duration::micros(i), [&sink] { ++sink; });
    }
    sched.run_all();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SchedulerScheduleDispatch);

void BM_WireEncode(benchmark::State& state) {
  ProbePacket p;
  p.probe_id = 0x1234;
  p.src = 3;
  p.dst = 9;
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode(p));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WireEncode);

void BM_WireDecode(benchmark::State& state) {
  ProbePacket p;
  p.probe_id = 0x1234;
  const auto wire = encode(p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode(wire));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WireDecode);

void BM_Rng(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_u64());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Rng);

void BM_RsEncode(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  const ReedSolomon rs(k, m);
  Rng rng(2);
  std::vector<std::vector<std::uint8_t>> data(k, std::vector<std::uint8_t>(1024));
  for (auto& s : data) {
    for (auto& b : s) b = static_cast<std::uint8_t>(rng.next_below(256));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.encode(data));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(k * 1024));
}
BENCHMARK(BM_RsEncode)->Args({5, 1})->Args({8, 4})->Args({20, 10});

void BM_RsReconstruct(benchmark::State& state) {
  const std::size_t k = 8;
  const std::size_t m = 4;
  const ReedSolomon rs(k, m);
  Rng rng(3);
  std::vector<std::vector<std::uint8_t>> data(k, std::vector<std::uint8_t>(1024));
  for (auto& s : data) {
    for (auto& b : s) b = static_cast<std::uint8_t>(rng.next_below(256));
  }
  auto parity = rs.encode(data);
  std::vector<std::vector<std::uint8_t>> shards = data;
  shards.insert(shards.end(), parity.begin(), parity.end());
  shards[0].clear();
  shards[3].clear();
  shards[5].clear();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.reconstruct(shards));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(k * 1024));
}
BENCHMARK(BM_RsReconstruct);

void BM_NetworkTransmit(benchmark::State& state) {
  Network net(testbed_2003(), NetConfig::profile_2003(), Duration::days(2), Rng(4));
  Rng rng(5);
  std::int64_t i = 0;
  for (auto _ : state) {
    const TimePoint t = TimePoint::epoch() + Duration::micros(i++ * 500);
    const NodeId a = static_cast<NodeId>(rng.next_below(30));
    NodeId b = a;
    while (b == a) b = static_cast<NodeId>(rng.next_below(30));
    benchmark::DoNotOptimize(net.transmit(PathSpec{a, b, kDirectVia}, t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkTransmit);

void BM_NetworkTransmitIndirect(benchmark::State& state) {
  Network net(testbed_2003(), NetConfig::profile_2003(), Duration::days(2), Rng(6));
  Rng rng(7);
  std::int64_t i = 0;
  for (auto _ : state) {
    const TimePoint t = TimePoint::epoch() + Duration::micros(i++ * 500);
    const NodeId a = static_cast<NodeId>(rng.next_below(30));
    NodeId b = a;
    while (b == a) b = static_cast<NodeId>(rng.next_below(30));
    NodeId v = a;
    while (v == a || v == b) v = static_cast<NodeId>(rng.next_below(30));
    benchmark::DoNotOptimize(net.transmit(PathSpec{a, b, v}, t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkTransmitIndirect);

void BM_EstimatorUpdate(benchmark::State& state) {
  LinkEstimator est(100, 0.1);
  Rng rng(8);
  std::int64_t i = 0;
  for (auto _ : state) {
    est.record_probe(rng.bernoulli(0.01), Duration::millis(50),
                     TimePoint::epoch() + Duration::seconds(i++));
    benchmark::DoNotOptimize(est.loss());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EstimatorUpdate);

void BM_RouterBestLossPath(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const NeighborSet mesh = NeighborSet::full_mesh(n);
  LinkStateTable table(mesh);
  Rng rng(9);
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (a == b) continue;
      LinkMetrics m;
      m.loss = rng.next_double() * 0.02;
      m.latency = Duration::millis(static_cast<std::int64_t>(rng.uniform(10, 120)));
      m.has_latency = true;
      m.samples = 100;
      table.publish(a, b, m);
    }
  }
  Router router(0, table, RouterConfig{});
  NodeId dst = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.best_loss_path(dst));
    dst = static_cast<NodeId>(1 + (dst % (n - 1)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouterBestLossPath)->Arg(10)->Arg(30)->Arg(60);

void BM_PacketFecPipeline(benchmark::State& state) {
  FecEncoder enc(5, 1);
  FecDecoder dec(5, 1);
  Rng rng(10);
  std::vector<std::uint8_t> payload(512, 0xAB);
  for (auto _ : state) {
    for (const auto& shard : enc.push(payload)) {
      if (rng.bernoulli(0.05)) continue;
      benchmark::DoNotOptimize(dec.push(shard));
    }
  }
  state.SetBytesProcessed(state.iterations() * 512);
}
BENCHMARK(BM_PacketFecPipeline);

}  // namespace
}  // namespace ronpath

BENCHMARK_MAIN();
