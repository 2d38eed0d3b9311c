// Performance suite (google-benchmark) for the packet/frame hot path and
// the simulator core. Supersedes the old micro_core bench: in addition to
// the event queue, channel sampling, relay probability and medium
// micro-benches, it measures the per-packet allocation path and a full
// end-to-end deployment (factory -> sender -> radio -> medium -> PAB ->
// ack) so regressions anywhere in the packet path show up.
//
// CI runs this with --benchmark_format=json, uploads the result as
// BENCH.json, and gates merges on tools/bench_compare.py against the
// committed bench/baseline.json. Run locally with:
//
//   ./build/perf_suite --benchmark_format=json > BENCH.json
//   python3 tools/bench_compare.py bench/baseline.json BENCH.json

#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "apps/cbr.h"
#include "apps/tcp.h"
#include "channel/vehicular.h"
#include "coord/manager.h"
#include "core/pab.h"
#include "core/relay_policy.h"
#include "core/system.h"
#include "mac/medium.h"
#include "mac/radio.h"
#include "net/packet.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/sink.h"
#include "runtime/executor.h"
#include "runtime/runner.h"
#include "scenario/live.h"
#include "scenario/testbed.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace {

using namespace vifi;
using sim::NodeId;

// ---------------------------------------------------------------------------
// Simulator core
// ---------------------------------------------------------------------------

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int fired = 0;
    for (int i = 0; i < 1000; ++i)
      sim.schedule(Time::micros(i), [&fired] { ++fired; });
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_EventScheduleCancel(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::vector<sim::EventId> ids;
    ids.reserve(1000);
    int fired = 0;
    for (int i = 0; i < 1000; ++i)
      ids.push_back(sim.schedule(Time::micros(i), [&fired] { ++fired; }));
    for (auto id : ids) sim.cancel(id);
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventScheduleCancel);

// ---------------------------------------------------------------------------
// Packet allocation path
// ---------------------------------------------------------------------------

void BM_PacketAlloc(benchmark::State& state) {
  net::PacketFactory factory;
  std::vector<net::PacketRef> live;
  live.reserve(256);
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i)
      live.push_back(factory.make(net::Direction::Upstream, NodeId(1),
                                  NodeId(2), 500, Time::micros(i)));
    benchmark::DoNotOptimize(live.data());
    live.clear();
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_PacketAlloc);

void BM_PacketAllocPayload(benchmark::State& state) {
  net::PacketFactory factory;
  std::vector<net::PacketRef> live;
  live.reserve(256);
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i) {
      apps::TcpSegment seg;
      seg.kind = apps::TcpSegment::Kind::Data;
      seg.seq = i;
      seg.len = 1200;
      live.push_back(factory.make(net::Direction::Downstream, NodeId(1),
                                  NodeId(2), 1200, Time::micros(i), 7,
                                  static_cast<std::uint64_t>(i), seg));
    }
    benchmark::DoNotOptimize(live.data());
    live.clear();
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_PacketAllocPayload);

void BM_FrameRelayCopy(benchmark::State& state) {
  // The auxiliary relay path clones an overheard data frame; this measures
  // that per-relay frame copy (header + piggyback ids + packet handle).
  net::PacketFactory factory;
  mac::Frame f;
  f.type = mac::FrameType::Data;
  f.tx = NodeId(3);
  f.packet = factory.make(net::Direction::Upstream, NodeId(1), NodeId(2), 500,
                          Time::zero());
  f.data.packet_id = f.packet->id;
  f.data.origin = NodeId(1);
  f.data.hop_dst = NodeId(2);
  for (int i = 0; i < 8; ++i)
    f.data.piggyback_acked.push_back(static_cast<std::uint64_t>(i + 1));
  for (auto _ : state) {
    mac::Frame relay = f;
    relay.data.is_relay = true;
    relay.data.relayer = NodeId(4);
    benchmark::DoNotOptimize(&relay);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrameRelayCopy);

// ---------------------------------------------------------------------------
// Channel + protocol computations
// ---------------------------------------------------------------------------

void BM_ChannelSample(benchmark::State& state) {
  channel::VehicularChannelParams params;
  channel::VehicularChannel ch(
      params,
      [](NodeId id, Time) {
        return mobility::Vec2{id.value() * 60.0, 0.0};
      },
      Rng(1));
  std::int64_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ch.sample_delivery(NodeId(0), NodeId(1), Time::micros(t)));
    t += 100;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelSample);

void BM_RelayProbability(benchmark::State& state) {
  const auto n_aux = static_cast<int>(state.range(0));
  core::PabTable pab(NodeId(0));
  std::vector<mac::ProbReport> reports;
  const NodeId src(100), dst(101);
  for (int i = 0; i < n_aux; ++i) {
    reports.push_back({src, NodeId(i), 0.7});
    reports.push_back({dst, NodeId(i), 0.4});
    reports.push_back({NodeId(i), dst, 0.6});
  }
  reports.push_back({src, dst, 0.5});
  pab.fold_reports(reports, Time::zero());
  core::RelayContext ctx;
  ctx.self = NodeId(0);
  ctx.src = src;
  ctx.dst = dst;
  for (int i = 0; i < n_aux; ++i) ctx.auxiliaries.push_back(NodeId(i));
  ctx.pab = &pab;
  ctx.now = Time::zero();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::relay_probability(ctx, core::RelayVariant::ViFi));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RelayProbability)->Arg(2)->Arg(5)->Arg(10)->Arg(20);

void BM_PabTick(benchmark::State& state) {
  core::PabTable pab(NodeId(0));
  std::int64_t sec = 1;
  for (auto _ : state) {
    for (int n = 1; n <= 12; ++n)
      for (int b = 0; b < 8; ++b)
        pab.note_beacon(NodeId(n), Time::seconds(static_cast<double>(sec)));
    pab.tick_second(Time::seconds(static_cast<double>(sec)));
    ++sec;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PabTick);

// ---------------------------------------------------------------------------
// Medium
// ---------------------------------------------------------------------------

void BM_MediumBroadcast(benchmark::State& state) {
  const auto n_nodes = static_cast<int>(state.range(0));
  sim::Simulator sim;
  channel::VehicularChannelParams params;
  channel::VehicularChannel loss(
      params,
      [](NodeId id, Time) {
        return mobility::Vec2{(id.value() % 4) * 50.0,
                              (id.value() / 4) * 50.0};
      },
      Rng(2));
  mac::Medium medium(sim, loss, {});
  class NullSink final : public mac::FrameSink {
   public:
    void on_frame(const mac::Frame&) override {}
  };
  std::vector<std::unique_ptr<NullSink>> sinks;
  for (int i = 0; i < n_nodes; ++i) {
    sinks.push_back(std::make_unique<NullSink>());
    medium.attach(NodeId(i), sinks.back().get());
  }
  net::PacketFactory factory;
  for (auto _ : state) {
    mac::Frame f;
    f.type = mac::FrameType::Data;
    f.tx = NodeId(0);
    f.packet = factory.make(net::Direction::Upstream, NodeId(0), NodeId(1),
                            500, sim.now());
    f.data.packet_id = f.packet->id;
    f.data.origin = NodeId(0);
    f.data.hop_dst = NodeId(1);
    medium.transmit(std::move(f));
    sim.run();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MediumBroadcast)->Arg(4)->Arg(12)->Arg(256);

void BM_MediumBroadcastCulled(benchmark::State& state) {
  // BM_MediumBroadcast with spatial culling on the same 4-wide grid: at
  // 256 nodes the column spans ~3.2 km, so most receivers are provably
  // out of range and skip their decode sample entirely. Compare against
  // BM_MediumBroadcast/256 to read the per-transmit culling win.
  const auto n_nodes = static_cast<int>(state.range(0));
  sim::Simulator sim;
  channel::VehicularChannelParams params;
  const auto position = [](NodeId id, Time) {
    return mobility::Vec2{(id.value() % 4) * 50.0, (id.value() / 4) * 50.0};
  };
  channel::VehicularChannel loss(params, position, Rng(2));
  mac::MediumParams mparams;
  mac::SpatialCulling culling;
  culling.position = position;
  culling.max_audible_m = channel::DistanceLossCurve(params.distance)
                              .range_for(mparams.audibility_threshold);
  culling.margin_m = 0.0;  // static grid — nothing moves between refreshes
  mparams.culling = std::move(culling);
  mac::Medium medium(sim, loss, std::move(mparams));
  class NullSink final : public mac::FrameSink {
   public:
    void on_frame(const mac::Frame&) override {}
  };
  std::vector<std::unique_ptr<NullSink>> sinks;
  for (int i = 0; i < n_nodes; ++i) {
    sinks.push_back(std::make_unique<NullSink>());
    medium.attach(NodeId(i), sinks.back().get());
  }
  net::PacketFactory factory;
  for (auto _ : state) {
    mac::Frame f;
    f.type = mac::FrameType::Data;
    f.tx = NodeId(0);
    f.packet = factory.make(net::Direction::Upstream, NodeId(0), NodeId(1),
                            500, sim.now());
    f.data.packet_id = f.packet->id;
    f.data.origin = NodeId(0);
    f.data.hop_dst = NodeId(1);
    medium.transmit(std::move(f));
    sim.run();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MediumBroadcastCulled)->Arg(256);

// ---------------------------------------------------------------------------
// End-to-end packet path
// ---------------------------------------------------------------------------

/// What the end-to-end packet-path benches record while they run.
enum class Tracing { Off, Rings, Stream };

/// The deployment every packet-path bench times, built afresh per
/// iteration: 3 BSes, one vehicle driving past them, 100 CBR upstream
/// packets over 2 s. \p coord attaches the BS-side ConnectivityManager;
/// \p tracing installs a recorder (rings or a disk spool) and a registry
/// for the iteration.
void run_packet_path(benchmark::State& state, bool coord, Tracing tracing) {
  constexpr int kPackets = 100;
  constexpr double kSimSeconds = 2.0;
  const std::string spool =
      (std::filesystem::temp_directory_path() / "vifi_bench_e2e.spool")
          .string();
  for (auto _ : state) {
    std::optional<obs::TraceRecorder> recorder;
    std::optional<obs::MetricsRegistry> metrics;
    std::optional<obs::TraceScope> trace_scope;
    std::optional<obs::MetricsScope> metrics_scope;
    if (tracing == Tracing::Rings) recorder.emplace();
    if (tracing == Tracing::Stream)
      recorder.emplace(std::make_unique<obs::StreamSink>(spool));
    if (recorder) {
      metrics.emplace();
      trace_scope.emplace(*recorder);
      metrics_scope.emplace(*metrics);
    }
    sim::Simulator sim;
    channel::VehicularChannelParams cparams;
    channel::VehicularChannel loss(
        cparams,
        [](NodeId id, Time t) {
          if (id.value() == 1)  // the vehicle, driving along x
            return mobility::Vec2{10.0 * t.to_seconds(), 0.0};
          return mobility::Vec2{(id.value() - 10) * 40.0, 30.0};
        },
        Rng(7));
    core::SystemConfig config;
    config.seed = 42;
    if (coord) {
      config.coord.enabled = true;
      config.coord.history = {{10, 11, 5}, {11, 12, 5}};
    }
    core::VifiSystem system(sim, loss, {NodeId(10), NodeId(11), NodeId(12)},
                            {NodeId(1)}, NodeId(100), config);
    std::optional<coord::ConnectivityManager> manager;
    if (coord) {
      manager.emplace(sim, config.coord);
      coord::attach(system, *manager);
    }
    system.start();
    if (manager) manager->start();
    for (int i = 0; i < kPackets; ++i) {
      sim.schedule_at(Time::seconds(kSimSeconds * i / kPackets),
                      [&system] { system.send_up(500); });
    }
    sim.run_until(Time::seconds(kSimSeconds + 1.0));
    if (tracing == Tracing::Stream) recorder->finalize();
    if (recorder) benchmark::DoNotOptimize(recorder->recorded());
    benchmark::DoNotOptimize(system.stats());
    if (manager) benchmark::DoNotOptimize(manager->transitions());
  }
  state.SetItemsProcessed(state.iterations() * kPackets);
  if (tracing == Tracing::Stream) std::filesystem::remove(spool);
}

void BM_EndToEndPacketPath(benchmark::State& state) {
  // Exercises the full chain: packet factory -> sender queue -> radio
  // CSMA -> medium sampling -> PAB/beacons -> relay consideration -> ack
  // handling.
  run_packet_path(state, false, Tracing::Off);
}
BENCHMARK(BM_EndToEndPacketPath);

void BM_CoordEndToEnd(benchmark::State& state) {
  // BM_EndToEndPacketPath with the coord tier attached: the BS-side
  // ConnectivityManager observes every PAB beacon, runs its per-client
  // state machine, predicts the drive-past succession (10 -> 11 -> 12)
  // and filters relays. Compare against BM_EndToEndPacketPath to read
  // the cost of coordination on the hot path.
  run_packet_path(state, true, Tracing::Off);
}
BENCHMARK(BM_CoordEndToEnd);

void BM_FleetEndToEnd(benchmark::State& state) {
  // Fleet scaling as a tracked perf property: the full VanLAN deployment
  // (11 BSes, V vehicles, shared medium + backplane) with one CBR probe
  // stream per vehicle. Sub-linear per-vehicle cost is the target; a
  // regression here means the medium, PAB, or backplane stopped scaling
  // with client count.
  const int fleet = static_cast<int>(state.range(0));
  const scenario::Testbed bed = scenario::make_vanlan(fleet);
  constexpr double kSimSeconds = 2.0;
  core::SystemConfig config;
  // City-scale fleets run the culled medium, like the runtime's
  // cull_medium points; small fleets keep the historical unculled setup
  // so /1, /4 and /16 numbers stay comparable across baselines.
  if (fleet >= 64)
    config.medium.culling = bed.make_culling(config.medium.audibility_threshold);
  for (auto _ : state) {
    scenario::LiveTrip trip(bed, config, 11);
    trip.run_until(scenario::LiveTrip::warmup());
    std::vector<std::unique_ptr<apps::CbrWorkload>> cbrs;
    cbrs.reserve(trip.transports().size());
    for (const auto& transport : trip.transports())
      cbrs.push_back(
          std::make_unique<apps::CbrWorkload>(trip.simulator(), *transport));
    const Time end = trip.simulator().now() + Time::seconds(kSimSeconds);
    for (auto& cbr : cbrs) cbr->start(end);
    trip.run_until(end + Time::seconds(1.0));
    benchmark::DoNotOptimize(trip.system().stats());
  }
  // Packets attempted: 2 per 100 ms slot per vehicle.
  state.SetItemsProcessed(state.iterations() * fleet *
                          static_cast<std::int64_t>(kSimSeconds * 20.0));
}
BENCHMARK(BM_FleetEndToEnd)->Arg(1)->Arg(4)->Arg(16)->Arg(256);

void BM_ReplaySweep(benchmark::State& state) {
  // The §3.1 handoff study as users sweep it: both testbeds x the six
  // replay policies, 1 day x 4 trips, on two workers. Each testbed's
  // campaign is generated once and replayed by its six policy points.
  // CPU time is the whole process's, so it counts both workers.
  runtime::ExperimentSpec spec;
  spec.grid.testbeds = {"VanLAN", "DieselNet-Ch1"};
  spec.grid.policies = runtime::replay_policy_names();
  spec.days = 1;
  spec.trips_per_day = 4;
  const runtime::Runner runner({.threads = 2});
  for (auto _ : state) {
    const runtime::ResultSink sink = runner.run(spec);
    if (sink.any_errors()) state.SkipWithError("a replay point failed");
    benchmark::DoNotOptimize(sink.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(spec.grid.size()));
}
BENCHMARK(BM_ReplaySweep)->MeasureProcessCPUTime()->UseRealTime();

// ---------------------------------------------------------------------------
// TripScope observability
// ---------------------------------------------------------------------------

void BM_TraceRecordEnabled(benchmark::State& state) {
  // Cost of the recording path itself: thread-local load + ring push.
  // The tracing-OFF cost (load + branch, no recorder installed) is what
  // BM_EndToEndPacketPath / BM_FleetEndToEnd measure — they run without a
  // scope, so any regression there is regression of the disabled path.
  obs::TraceRecorder recorder;
  obs::TraceScope scope(recorder);
  const NodeId node(3);
  const NodeId peer(10);
  std::uint64_t i = 0;
  for (auto _ : state) {
    ++i;
    obs::TraceRecorder* rec = obs::current_recorder();
    if (rec)
      rec->record(obs::EventKind::FrameTx, Time::micros(i), node, peer, i,
                  0.002, 1.0, 0);
    benchmark::DoNotOptimize(rec);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceRecordEnabled);

void BM_EndToEndTraceOn(benchmark::State& state) {
  // BM_EndToEndPacketPath with a recorder + registry installed: the price
  // of a fully-traced point. Compare against BM_EndToEndPacketPath to read
  // the enabled-tracing overhead; the gate holds both within +-15%.
  run_packet_path(state, false, Tracing::Rings);
}
BENCHMARK(BM_EndToEndTraceOn);

void BM_TraceStreamEnabled(benchmark::State& state) {
  // BM_TraceRecordEnabled with the disk spool behind the recorder: the
  // amortised per-event cost of streaming (block buffering + one chunk
  // write per kSpoolBlockEvents pushes). Compare against
  // BM_TraceRecordEnabled to read the rings-vs-streams premium.
  const std::string path =
      (std::filesystem::temp_directory_path() / "vifi_bench_stream.spool")
          .string();
  obs::TraceRecorder recorder(std::make_unique<obs::StreamSink>(path));
  obs::TraceScope scope(recorder);
  const NodeId node(3);
  const NodeId peer(10);
  std::uint64_t i = 0;
  for (auto _ : state) {
    ++i;
    obs::TraceRecorder* rec = obs::current_recorder();
    if (rec)
      rec->record(obs::EventKind::FrameTx, Time::micros(i), node, peer, i,
                  0.002, 1.0, 0);
    benchmark::DoNotOptimize(rec);
  }
  state.SetItemsProcessed(state.iterations());
  recorder.finalize();
  std::filesystem::remove(path);
}
BENCHMARK(BM_TraceStreamEnabled);

void BM_EndToEndTraceStreamOn(benchmark::State& state) {
  // BM_EndToEndTraceOn with the recorder spooling to disk: the price of a
  // fully-traced point at full fidelity (no ring horizon). Compare
  // against BM_EndToEndTraceOn for the streaming overhead on a whole
  // deployment.
  run_packet_path(state, false, Tracing::Stream);
}
BENCHMARK(BM_EndToEndTraceStreamOn);

/// A stream buffer that only counts what it is given, so an export bench
/// times rendering and the spool read, not a file system.
class CountingBuf final : public std::streambuf {
 public:
  std::uint64_t bytes() const { return bytes_; }

 protected:
  std::streamsize xsputn(const char* /*s*/, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    return n;
  }
  int_type overflow(int_type c) override {
    ++bytes_;
    return traits_type::not_eof(c);
  }

 private:
  std::uint64_t bytes_ = 0;
};

void BM_ExportStreamedPoint(benchmark::State& state) {
  // Chrome trace plus JSONL of a fixed streamed recording: the spool's
  // seq-ordered read, span derivation and rendering that a
  // `sweep --trace --trace-stream` point pays after its simulation. The
  // recording (48 nodes, every event kind; `a` a full-precision double,
  // `b` integral, as attempt counts and flags mostly are) is spooled once,
  // outside the timed loop.
  constexpr int kEvents = 50000;
  constexpr int kNodes = 48;
  const std::string path =
      (std::filesystem::temp_directory_path() / "vifi_bench_export.spool")
          .string();
  obs::TraceRecorder recorder(std::make_unique<obs::StreamSink>(path));
  Rng rng = Rng(11).fork("export-bench");
  for (int i = 0; i < kEvents; ++i) {
    const auto kind = static_cast<obs::EventKind>(
        rng.uniform_int(0, obs::kEventKindCount - 2));  // Log is not record()ed
    recorder.record(kind, Time::micros(40 * i),
                    NodeId(static_cast<int>(rng.uniform_int(0, kNodes - 1))),
                    NodeId(static_cast<int>(rng.uniform_int(-1, kNodes - 1))),
                    static_cast<std::uint64_t>(i), rng.uniform01(),
                    static_cast<double>(rng.uniform_int(0, 3)),
                    static_cast<std::int32_t>(rng.uniform_int(0, 4)));
  }
  recorder.finalize();
  CountingBuf sink;
  std::ostream os(&sink);
  for (auto _ : state) {
    obs::write_chrome_trace(recorder, os);
    obs::write_jsonl(recorder, os);
    benchmark::DoNotOptimize(sink.bytes());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
  std::filesystem::remove(path);
}
BENCHMARK(BM_ExportStreamedPoint);

}  // namespace

BENCHMARK_MAIN();
