// Tests for TripScope Streams: the spool on-disk format (round-trip,
// footer index, crisp errors on foreign/truncated files and on hostile
// chunks and records under every reader), StreamSink /
// TraceRecorder streaming semantics (ring-vs-stream export byte-identity
// when the run fits the ring, full fidelity past the ring horizon,
// trip-order absorb reproducing a direct recording's spool bytes), the
// derived span layer, ring-truncation surfacing (export warnings + the
// obs.trace.dropped_events metric), the MetricsRegistry::total histogram
// contract, and the streamed-sweep thread-count byte-identity gate.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/sink.h"
#include "obs/span.h"
#include "obs/spool.h"
#include "runtime/executor.h"
#include "runtime/runner.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace vifi::obs {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

fs::path temp_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TraceEvent make_event(EventKind kind, double t_s, int node, int peer = -1,
                      std::uint64_t seq = 0) {
  TraceEvent e;
  e.at = Time::seconds(t_s);
  e.seq = seq;
  e.kind = kind;
  e.node = sim::NodeId{node};
  e.peer = sim::NodeId{peer};
  return e;
}

// --- spool format -----------------------------------------------------------

TEST(Spool, EncodeDecodeIsTheIdentityOnEveryField) {
  TraceEvent e;
  e.at = Time::micros(-7);  // negative times must survive too
  e.seq = 0xDEADBEEFCAFEull;
  e.id = 42;
  e.node = sim::NodeId{3};
  e.peer = sim::NodeId{-1};
  e.kind = EventKind::CoordTransition;
  e.c = -12345;
  e.a = 0.1 + 0.2;  // a value with no short decimal rendering
  e.b = -1e-300;
  char buf[kSpoolRecordBytes];
  encode_event(e, buf);
  const TraceEvent d = decode_event(buf);
  EXPECT_EQ(d.at, e.at);
  EXPECT_EQ(d.seq, e.seq);
  EXPECT_EQ(d.id, e.id);
  EXPECT_EQ(d.node, e.node);
  EXPECT_EQ(d.peer, e.peer);
  EXPECT_EQ(d.kind, e.kind);
  EXPECT_EQ(d.c, e.c);
  // Bit-exact, not approximately equal: spools must reproduce exports.
  EXPECT_EQ(std::memcmp(&d.a, &e.a, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&d.b, &e.b, sizeof(double)), 0);
}

TEST(Spool, WriterReaderRoundTripAcrossBlocksNodesAndLogs) {
  const fs::path dir = temp_dir("vifi_spool_roundtrip");
  const std::string path = (dir / "t.spool").string();
  {
    SpoolWriter writer(path, /*block_events=*/4);  // force several chunks
    std::uint64_t seq = 1;
    for (int i = 0; i < 11; ++i)
      writer.push(make_event(EventKind::BeaconTx, 0.1 * i, 1, -1, seq++));
    for (int i = 0; i < 5; ++i)
      writer.push(make_event(EventKind::BeaconRx, 0.2 * i, 2, 1, seq++));
    writer.set_node_label(sim::NodeId{1}, "bs");
    writer.finalize({{1000, seq, 2, "ring full"}});
    EXPECT_TRUE(writer.finalized());
  }
  const SpoolReader reader(path);
  EXPECT_EQ(reader.recorded(), 16u);
  EXPECT_EQ(reader.block_events(), 4u);
  EXPECT_EQ(reader.kind_count(EventKind::BeaconTx), 11u);
  EXPECT_EQ(reader.kind_count(EventKind::BeaconRx), 5u);
  EXPECT_EQ(reader.kind_count(EventKind::Log), 1u);
  EXPECT_EQ(reader.max_at_us(), Time::seconds(1.0).to_micros());

  ASSERT_EQ(reader.nodes().size(), 2u);
  const SpoolNodeIndex* n1 = reader.find_node(sim::NodeId{1});
  ASSERT_NE(n1, nullptr);
  EXPECT_EQ(n1->events, 11u);
  EXPECT_EQ(n1->label, "bs");
  EXPECT_EQ(n1->chunks.size(), 3u);  // 4 + 4 + residual 3
  EXPECT_EQ(reader.find_node(sim::NodeId{9}), nullptr);

  // scan_node seeks via the footer index and yields only that node.
  std::vector<TraceEvent> node2;
  reader.scan_node(sim::NodeId{2},
                   [&](const TraceEvent& e) { node2.push_back(e); });
  ASSERT_EQ(node2.size(), 5u);
  for (const TraceEvent& e : node2) EXPECT_EQ(e.node, sim::NodeId{2});

  // events() restores global seq order across the interleaved chunks.
  const std::vector<TraceEvent> all = reader.events();
  ASSERT_EQ(all.size(), 16u);
  for (std::size_t i = 1; i < all.size(); ++i)
    EXPECT_LT(all[i - 1].seq, all[i].seq);

  ASSERT_EQ(reader.logs().size(), 1u);
  EXPECT_EQ(reader.logs()[0].message, "ring full");
  fs::remove_all(dir);
}

TEST(Spool, ReaderRejectsForeignAndTruncatedFiles) {
  const fs::path dir = temp_dir("vifi_spool_reject");
  const std::string missing = (dir / "missing.spool").string();
  EXPECT_THROW(SpoolReader{missing}, std::runtime_error);

  const std::string foreign = (dir / "foreign.spool").string();
  std::ofstream(foreign) << "this is not a spool, not even close to one";
  EXPECT_THROW(SpoolReader{foreign}, std::runtime_error);

  const std::string good = (dir / "good.spool").string();
  {
    SpoolWriter writer(good);
    writer.push(make_event(EventKind::BeaconTx, 1.0, 1, -1, 1));
    writer.finalize({});
  }
  // Chopping the trailer off makes the reader refuse with a crisp error.
  const std::string bytes = slurp(good);
  const std::string truncated = (dir / "trunc.spool").string();
  std::ofstream(truncated, std::ios::binary)
      << bytes.substr(0, bytes.size() - 8);
  EXPECT_THROW(SpoolReader{truncated}, std::runtime_error);
  fs::remove_all(dir);
}

// --- hostile spools: the ordered reader fails crisply, never mis-orders ----

/// Writes \p bytes to \p path.
void spit(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary) << bytes;
}

template <typename T>
void poke(std::string& bytes, std::uint64_t offset, T v) {
  ASSERT_LE(offset + sizeof(T), bytes.size());
  std::memcpy(bytes.data() + offset, &v, sizeof(T));
}

/// The message of the runtime_error \p read throws, or "" if it returns.
template <typename Read>
std::string read_error(Read read) {
  try {
    read();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

/// A two-node spool, 4-event blocks, pushed alternately so the two nodes'
/// chunks interleave in the file: node 1 and 2 each hold a full chunk and
/// a residual one.
std::string write_interleaved_spool(const fs::path& dir) {
  const std::string path = (dir / "good.spool").string();
  SpoolWriter writer(path, /*block_events=*/4);
  for (int i = 0; i < 12; ++i)
    writer.push(make_event(EventKind::BeaconTx, 0.1 * i, 1 + i % 2, -1,
                           static_cast<std::uint64_t>(i + 1)));
  writer.finalize({});
  return path;
}

TEST(Spool, HostileChunksThrowNamingTheFileOnEveryRead) {
  const fs::path dir = temp_dir("vifi_spool_hostile");
  const std::string good = write_interleaved_spool(dir);
  const std::string bytes = slurp(good);
  const SpoolReader index(good);
  const SpoolChunkRef first = index.find_node(sim::NodeId{1})->chunks[0];
  ASSERT_EQ(first.count, 4u);
  constexpr std::uint64_t kChunkHeader = 8;
  constexpr std::uint64_t kSeqField = 8;  // after the i64 timestamp

  struct Case {
    std::string name;
    std::string bytes;
    std::string expect;  ///< Message fragment.
  };
  std::vector<Case> cases;
  {
    // Node 1's index entry now leads to a chunk headed by node 2.
    Case c{"foreign", bytes, "foreign chunk"};
    poke<std::int32_t>(c.bytes, first.offset, 2);
    cases.push_back(std::move(c));
  }
  {
    // Node 1's second record goes back to seq 0 (the first is seq 1).
    Case c{"backwards", bytes, "out of seq order"};
    poke<std::uint64_t>(
        c.bytes, first.offset + kChunkHeader + kSpoolRecordBytes + kSeqField,
        0);
    cases.push_back(std::move(c));
  }
  {
    // Node 1's first record carries a kind byte that names no EventKind:
    // a reader indexing per-kind counters with it would run out of bounds.
    constexpr std::uint64_t kKindField = 36;
    Case c{"kind", bytes, "unknown event kind 200"};
    poke<std::uint8_t>(c.bytes, first.offset + kChunkHeader + kKindField, 200);
    cases.push_back(std::move(c));
  }
  {
    // The chunk header claims one record fewer than the footer index.
    Case c{"count", bytes, "disagrees with the footer"};
    poke<std::uint32_t>(c.bytes, first.offset + 4, first.count - 1);
    cases.push_back(std::move(c));
  }
  {
    // The last chunk loses its final record: the data region ends inside
    // it while the re-attached footer still indexes the full chunk.
    std::uint64_t footer_offset = 0;
    std::memcpy(&footer_offset, bytes.data() + bytes.size() - 16, 8);
    std::string cut = bytes.substr(0, footer_offset - kSpoolRecordBytes) +
                      bytes.substr(footer_offset);
    poke<std::uint64_t>(cut, cut.size() - 16,
                        footer_offset - kSpoolRecordBytes);
    cases.push_back({"truncated", std::move(cut), "truncated spool chunk"});
  }

  for (const Case& c : cases) {
    const std::string path = (dir / (c.name + ".spool")).string();
    spit(path, c.bytes);
    const auto noop = [](const TraceEvent&) {};
    for (const std::string& what :
         {read_error([&] { SpoolReader(path).visit(noop); }),
          read_error([&] { SpoolReader(path).scan(noop); }),
          read_error([&] { (void)SpoolReader(path).events(); }),
          read_error(
              [&] { SpoolReader(path).scan_node(sim::NodeId{1}, noop); })}) {
      EXPECT_NE(what.find(c.expect), std::string::npos) << c.name << ": "
                                                         << what;
      EXPECT_NE(what.find(path), std::string::npos) << c.name << ": " << what;
    }
  }
  // The unpatched spool reads cleanly in seq order.
  std::uint64_t seq = 0;
  index.visit([&seq](const TraceEvent& e) { EXPECT_EQ(e.seq, ++seq); });
  EXPECT_EQ(seq, 12u);
  fs::remove_all(dir);
}

TEST(Spool, PushAfterFinalizeIsAContractViolation) {
  const fs::path dir = temp_dir("vifi_spool_after_finalize");
  SpoolWriter writer((dir / "t.spool").string());
  writer.push(make_event(EventKind::BeaconTx, 1.0, 1, -1, 1));
  writer.finalize({});
  EXPECT_THROW(writer.push(make_event(EventKind::BeaconTx, 2.0, 1, -1, 2)),
               ContractViolation);
  fs::remove_all(dir);
}

// --- streaming recorder -----------------------------------------------------

/// Replays one pseudo-random protocol-ish schedule into \p rec. Drawn via
/// named Rng forks only, so every recorder sees the identical sequence.
void record_schedule(TraceRecorder& rec, std::uint64_t seed, int events) {
  Rng rng = Rng(seed).fork("obs-stream-prop");
  rec.set_node_label(sim::NodeId{0}, "bs");
  rec.set_node_label(sim::NodeId{1}, "vehicle");
  for (int i = 0; i < events; ++i) {
    const auto kind = static_cast<EventKind>(
        rng.uniform_int(0, kEventKindCount - 2));  // Log is not record()ed
    const int node = static_cast<int>(rng.uniform_int(0, 3));
    const int peer = static_cast<int>(rng.uniform_int(-1, 3));
    rec.record(kind, Time::seconds(0.01 * i), sim::NodeId{node},
               sim::NodeId{peer}, static_cast<std::uint64_t>(i),
               rng.uniform01(), rng.uniform(-5.0, 5.0),
               static_cast<std::int32_t>(rng.uniform_int(0, 100)));
  }
  rec.log(LogLevel::Warn, "schedule done");
}

TEST(StreamSink, ExportsMatchRingByteForByteWhenTheRunFitsTheRing) {
  const fs::path dir = temp_dir("vifi_stream_vs_ring");
  // Property over several seeds: spool -> load -> export reproduces the
  // in-memory recorder's exports exactly whenever nothing wrapped.
  for (const std::uint64_t seed : {1ull, 7ull, 20080817ull}) {
    TraceRecorder ring_rec;  // default capacity holds every event
    TraceRecorder stream_rec(std::make_unique<StreamSink>(
        (dir / ("s" + std::to_string(seed) + ".spool")).string()));
    record_schedule(ring_rec, seed, 700);
    record_schedule(stream_rec, seed, 700);
    EXPECT_EQ(ring_rec.dropped(), 0u);
    EXPECT_EQ(stream_rec.dropped(), 0u);
    EXPECT_EQ(chrome_trace_json(ring_rec), chrome_trace_json(stream_rec))
        << "seed " << seed;
    EXPECT_EQ(events_jsonl(ring_rec), events_jsonl(stream_rec))
        << "seed " << seed;
  }
  fs::remove_all(dir);
}

TEST(StreamSink, KeepsFullFidelityWhereTheRingWraps) {
  const fs::path dir = temp_dir("vifi_stream_wrap");
  TraceRecorder ring_rec(/*per_node_capacity=*/16);
  TraceRecorder stream_rec(
      std::make_unique<StreamSink>((dir / "wrap.spool").string(),
                                   /*block_events=*/8));
  const std::uint64_t seed = 99;
  const int events = 600;  // far past the 16-slot ring horizon
  record_schedule(ring_rec, seed, events);
  record_schedule(stream_rec, seed, events);

  EXPECT_GT(ring_rec.dropped(), 0u);
  EXPECT_LT(ring_rec.merged().size(), static_cast<std::size_t>(events));
  EXPECT_EQ(stream_rec.dropped(), 0u);
  EXPECT_EQ(stream_rec.merged().size(), static_cast<std::size_t>(events));

  // The stream's spool reconciles exactly against the recorder counters.
  stream_rec.finalize();
  const SpoolReader reader(stream_rec.spool_path());
  EXPECT_EQ(reader.recorded(), stream_rec.recorded());
  for (int k = 0; k < kEventKindCount; ++k) {
    const auto kind = static_cast<EventKind>(k);
    if (kind == EventKind::Log) continue;  // footer logs, not chunk records
    EXPECT_EQ(reader.kind_count(kind), stream_rec.count(kind))
        << to_string(kind);
  }

  // Truncation is loud: both export formats carry the warning; the
  // stream's exports don't.
  const std::string ring_chrome = chrome_trace_json(ring_rec);
  const std::string ring_jsonl = events_jsonl(ring_rec);
  EXPECT_NE(ring_chrome.find("ring dropped"), std::string::npos);
  EXPECT_NE(ring_jsonl.find("\"warning\""), std::string::npos);
  EXPECT_EQ(ring_jsonl.find("\"warning\""), ring_jsonl.find('{') + 1);
  EXPECT_EQ(chrome_trace_json(stream_rec).find("ring dropped"),
            std::string::npos);
  EXPECT_EQ(events_jsonl(stream_rec).find("\"warning\""), std::string::npos);
  fs::remove_all(dir);
}

TEST(StreamSink, AbsorbReproducesADirectRecordingsSpoolBytes) {
  const fs::path dir = temp_dir("vifi_stream_absorb");
  // Direct: two trips recorded sequentially under set_time_base into one
  // recorder.
  TraceRecorder direct(
      std::make_unique<StreamSink>((dir / "direct.spool").string()));
  record_schedule(direct, 5, 300);
  direct.set_time_base(Time::seconds(40.0));
  record_schedule(direct, 6, 300);
  direct.finalize();

  // Stitched: per-trip part spools absorbed in trip order, exactly as
  // run_point_sharded does.
  TraceRecorder session(
      std::make_unique<StreamSink>((dir / "session.spool").string()));
  {
    TraceRecorder trip0(
        std::make_unique<StreamSink>((dir / "t0.part").string()));
    TraceRecorder trip1(
        std::make_unique<StreamSink>((dir / "t1.part").string()));
    record_schedule(trip0, 5, 300);
    record_schedule(trip1, 6, 300);
    session.absorb(trip0, Time::zero());
    session.absorb(trip1, Time::seconds(40.0));
  }
  session.finalize();

  EXPECT_EQ(session.recorded(), direct.recorded());
  const std::string a = slurp(dir / "direct.spool");
  const std::string b = slurp(dir / "session.spool");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_THROW(session.absorb(direct, Time::zero()), ContractViolation);
  fs::remove_all(dir);
}

TEST(StreamSink, AbsorbRequiresMatchingSinkKinds) {
  const fs::path dir = temp_dir("vifi_stream_kind_mismatch");
  TraceRecorder ring_rec;
  TraceRecorder stream_rec(
      std::make_unique<StreamSink>((dir / "s.spool").string()));
  EXPECT_THROW(ring_rec.absorb(stream_rec, Time::zero()), ContractViolation);
  EXPECT_THROW(stream_rec.absorb(ring_rec, Time::zero()), ContractViolation);
  // Same kind, different ring capacity: a stitched ring would wrap
  // differently from a direct recording, so it is refused too.
  TraceRecorder small_rings(/*per_node_capacity=*/8);
  const TraceRecorder large_rings(/*per_node_capacity=*/16);
  EXPECT_THROW(small_rings.absorb(large_rings, Time::zero()),
               ContractViolation);
  fs::remove_all(dir);
}

// --- spans ------------------------------------------------------------------

TEST(Spans, AnchorTenuresOpenCloseAndRunToTheHorizon) {
  std::vector<TraceEvent> events;
  // Vehicle 1: anchor 10 at t=1, switch to 11 at t=5, lost at t=8.
  events.push_back(make_event(EventKind::AnchorChange, 1.0, 1, 10, 1));
  events.push_back(make_event(EventKind::AnchorChange, 5.0, 1, 11, 2));
  events.push_back(make_event(EventKind::AnchorChange, 8.0, 1, -1, 3));
  // Vehicle 2: still designated at the horizon.
  events.push_back(make_event(EventKind::AnchorChange, 2.0, 2, 10, 4));
  const auto spans = build_spans(events, Time::seconds(10.0));
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].node, sim::NodeId{1});
  EXPECT_EQ(spans[0].peer, sim::NodeId{10});
  EXPECT_EQ(spans[0].begin, Time::seconds(1.0));
  EXPECT_EQ(spans[0].end, Time::seconds(5.0));
  EXPECT_EQ(spans[1].node, sim::NodeId{2});
  EXPECT_EQ(spans[1].end, Time::seconds(10.0));  // horizon-closed
  EXPECT_EQ(spans[2].peer, sim::NodeId{11});
  EXPECT_EQ(spans[2].end, Time::seconds(8.0));  // closed by anchor-lost
  EXPECT_EQ(span_label(spans[0]), "anchor_tenure");
}

TEST(Spans, CoordPhasesCoverInteriorStretchesAndSkipTheLeadingOne) {
  const auto pack = [](int from, int to) {
    return static_cast<std::int32_t>((from << 4) | to);
  };
  std::vector<TraceEvent> events;
  TraceEvent a = make_event(EventKind::CoordTransition, 1.0, 1, 10, 1);
  a.c = pack(0, 1);  // Idle -> Discovered
  TraceEvent b = make_event(EventKind::CoordTransition, 4.0, 1, 10, 2);
  b.c = pack(1, 2);  // Discovered -> Associated
  TraceEvent c = make_event(EventKind::CoordTransition, 9.0, 1, 10, 3);
  c.c = pack(2, 0);  // Associated -> Idle (timeout)
  events = {a, b, c};
  const auto spans = build_spans(events, Time::seconds(20.0));
  // Discovered [1,4), Associated [4,9); the trailing Idle is not a span
  // and the stretch before the first transition has no observable start.
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].detail, "Discovered");
  EXPECT_EQ(spans[0].begin, Time::seconds(1.0));
  EXPECT_EQ(spans[0].end, Time::seconds(4.0));
  EXPECT_EQ(spans[1].detail, "Associated");
  EXPECT_EQ(spans[1].end, Time::seconds(9.0));
  EXPECT_EQ(span_label(spans[1]), "phase:Associated");

  // An open non-Idle phase runs to the horizon.
  events = {a, b};
  const auto open = build_spans(events, Time::seconds(20.0));
  ASSERT_EQ(open.size(), 2u);
  EXPECT_EQ(open[1].detail, "Associated");
  EXPECT_EQ(open[1].end, Time::seconds(20.0));
}

TEST(Spans, ContactsSplitOnGapsAndCloseAtTheLastBeacon) {
  std::vector<TraceEvent> events;
  // Run 1: beacons at 1.0, 1.5, 2.0. Gap > 3 s. Run 2: single beacon at 9.
  for (const double t : {1.0, 1.5, 2.0, 9.0})
    events.push_back(make_event(EventKind::BeaconRx, t, 1, 10,
                                static_cast<std::uint64_t>(t * 10)));
  // A different pair is its own contact.
  events.push_back(make_event(EventKind::BeaconRx, 1.2, 1, 11, 99));
  const auto spans = build_spans(events, Time::seconds(30.0));
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].begin, Time::seconds(1.0));
  EXPECT_EQ(spans[0].end, Time::seconds(2.0));  // last beacon, not horizon
  EXPECT_EQ(spans[0].peer, sim::NodeId{10});
  EXPECT_EQ(spans[1].peer, sim::NodeId{11});
  EXPECT_EQ(spans[1].duration(), Time::zero());  // single beacon
  EXPECT_EQ(spans[2].begin, Time::seconds(9.0));
  EXPECT_EQ(spans[2].duration(), Time::zero());
}

TEST(Spans, ChromeExportCarriesSpanSlices) {
  TraceRecorder rec;
  rec.record(EventKind::AnchorChange, Time::seconds(1.0), sim::NodeId{1},
             sim::NodeId{10});
  rec.record(EventKind::AnchorChange, Time::seconds(5.0), sim::NodeId{1},
             sim::NodeId{11});
  const std::string chrome = chrome_trace_json(rec);
  EXPECT_NE(chrome.find("\"cat\":\"span\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"anchor_tenure\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":1000000,"
                        "\"dur\":4000000"),
            std::string::npos);
}

// --- ring truncation surfacing ----------------------------------------------

TEST(DroppedEvents, SurfaceAsAMetricThroughTheExecutor) {
  // An ambient ring recorder small enough to wrap during a real point:
  // the executor must then mint obs.trace.dropped_events.
  runtime::ExperimentSpec spec;
  spec.grid.testbeds = {"VanLAN"};
  spec.grid.policies = {"ViFi"};
  spec.grid.seeds = {1};
  spec.days = 1;
  spec.trips_per_day = 1;
  spec.trip_duration = Time::seconds(10.0);
  spec.workload = "cbr";
  spec.metric_columns = {"mac.transmissions"};
  const runtime::ExperimentPoint point = spec.enumerate().front();
  TraceRecorder recorder(/*per_node_capacity=*/32);
  MetricsRegistry metrics;
  {
    TraceScope trace_scope(recorder);
    MetricsScope metrics_scope(metrics);
    runtime::run_point(point);
  }
  ASSERT_GT(recorder.dropped(), 0u);
  const auto flat = metrics.flatten();
  ASSERT_TRUE(flat.count("obs.trace.dropped_events"));
  EXPECT_EQ(flat.at("obs.trace.dropped_events"),
            static_cast<double>(recorder.dropped()));
}

// --- MetricsRegistry::total histogram contract ------------------------------

TEST(MetricsTotal, SumsHistogramStatisticsAcrossLabelVariants) {
  MetricsRegistry reg;
  reg.histogram("lat.ms", {1.0, 10.0}, {{"node", "n1"}}).observe(0.5);
  reg.histogram("lat.ms", {1.0, 10.0}, {{"node", "n1"}}).observe(5.0);
  reg.histogram("lat.ms", {1.0, 10.0}, {{"node", "n2"}}).observe(20.0);
  EXPECT_EQ(reg.total("lat.ms.count"), 3.0);
  EXPECT_DOUBLE_EQ(reg.total("lat.ms.sum"), 25.5);
  // A name matching nothing reads as zero, like an untouched counter.
  EXPECT_EQ(reg.total("lat.ms.nothing"), 0.0);
}

TEST(MetricsTotal, BareHistogramNameThrowsTheCountVsSumAmbiguity) {
  MetricsRegistry reg;
  reg.histogram("lat.ms", {1.0}, {{"node", "n1"}}).observe(0.5);
  EXPECT_THROW(reg.total("lat.ms"), ContractViolation);
  try {
    reg.total("lat.ms");
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("lat.ms.count"), std::string::npos);
    EXPECT_NE(what.find("lat.ms.sum"), std::string::npos);
  }
}

TEST(MetricsTotal, MixedScalarAndHistogramFamiliesThrow) {
  MetricsRegistry reg;
  reg.counter("x", {{"node", "n1"}}).add(2.0);
  reg.histogram("x", {1.0}, {{"node", "n1"}}).observe(0.5);
  EXPECT_THROW(reg.total("x"), ContractViolation);

  // A counter shadowing a histogram's flattened statistic name is just as
  // ambiguous.
  MetricsRegistry reg2;
  reg2.counter("y.count").add(1.0);
  reg2.histogram("y", {1.0}).observe(0.5);
  EXPECT_THROW(reg2.total("y.count"), ContractViolation);
}

// --- streamed sweep thread-count gate ---------------------------------------

runtime::ExperimentSpec streamed_cbr_spec(const std::string& trace_dir) {
  runtime::ExperimentSpec spec;
  spec.grid.testbeds = {"VanLAN"};
  spec.grid.policies = {"ViFi"};
  spec.grid.seeds = {1};
  spec.days = 1;
  spec.trips_per_day = 2;  // two trips: the stitch actually stitches
  spec.trip_duration = Time::seconds(15.0);
  spec.workload = "cbr";
  spec.trace_dir = trace_dir;
  spec.trace_stream = true;
  spec.metric_columns = {"mac.transmissions", "core.app_delivered"};
  return spec;
}

TEST(StreamedSweep, SpoolAndExportBytesAreThreadCountInvariant) {
  const fs::path root = temp_dir("vifi_streamed_sweep");
  const fs::path dir_one = root / "one";
  const fs::path dir_eight = root / "eight";

  const runtime::ResultSink one =
      runtime::Runner({.threads = 1}).run(streamed_cbr_spec(dir_one.string()));
  const runtime::ResultSink eight =
      runtime::Runner({.threads = 8})
          .run(streamed_cbr_spec(dir_eight.string()));
  EXPECT_FALSE(one.any_errors());
  EXPECT_EQ(one.to_json(), eight.to_json());

  for (const char* ext : {".spool", ".trace.json", ".jsonl", ".metrics.json"}) {
    const std::string name = std::string("point_0000") + ext;
    const std::string a = slurp(dir_one / name);
    const std::string b = slurp(dir_eight / name);
    ASSERT_FALSE(a.empty()) << name;
    EXPECT_EQ(a, b) << name;
  }

  // The spooled timeline reconciles exactly against the recorder counters
  // (the footer) and no part spools are left behind.
  const SpoolReader reader((dir_one / "point_0000.spool").string());
  std::uint64_t scanned = 0;
  reader.scan([&scanned](const TraceEvent&) { ++scanned; });
  EXPECT_EQ(scanned, reader.recorded());
  EXPECT_GT(scanned, 0u);
  for (const fs::path& dir : {dir_one, dir_eight})
    for (const auto& entry : fs::directory_iterator(dir))
      EXPECT_EQ(entry.path().string().find(".part"), std::string::npos)
          << entry.path();

  // Streamed Chrome exports carry the derived span layer.
  const std::string chrome = slurp(dir_one / "point_0000.trace.json");
  EXPECT_NE(chrome.find("\"cat\":\"span\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"anchor_tenure\""), std::string::npos);
  fs::remove_all(root);
}

}  // namespace
}  // namespace vifi::obs
