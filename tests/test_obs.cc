// Tests for TripScope: TraceRecorder ring semantics, scope nesting, the
// MetricsRegistry (key canonicalisation, histogram bucketing, flatten /
// total), JSON escaping and the %.17g double rendering of the exporters,
// one pinned export of a crafted recording, and — the observability
// determinism contract — byte-identical per-point trace exports for any
// runner thread count.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "runtime/runner.h"
#include "util/contracts.h"
#include "util/logging.h"
#include "util/rng.h"

namespace vifi::obs {
namespace {

TraceEvent event_at(double t_s, std::uint64_t id) {
  TraceEvent e;
  e.at = Time::seconds(t_s);
  e.id = id;
  e.kind = EventKind::BeaconTx;
  e.node = sim::NodeId{1};
  return e;
}

TEST(EventRing, FillsToCapacityWithoutDropping) {
  EventRing ring(4);
  for (std::uint64_t i = 0; i < 4; ++i) ring.push(event_at(0.1, i));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 0u);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].id, i);
}

TEST(EventRing, WrapsByOverwritingTheOldest) {
  EventRing ring(4);
  for (std::uint64_t i = 0; i < 10; ++i) ring.push(event_at(0.1, i));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);
  // snapshot() unwraps: the newest window, oldest-to-newest.
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].id, 6 + i);
}

TEST(EventRing, ZeroCapacityIsAContractViolation) {
  EXPECT_THROW(EventRing ring(0), ContractViolation);
}

TEST(TraceRecorder, CountsStayExactAcrossRingWrap) {
  TraceRecorder rec(8);
  const sim::NodeId node{3};
  for (int i = 0; i < 20; ++i)
    rec.record(EventKind::FrameTx, Time::seconds(0.01 * i), node);
  rec.record(EventKind::AnchorChange, Time::seconds(1.0), node);
  EXPECT_EQ(rec.recorded(), 21u);
  EXPECT_EQ(rec.dropped(), 13u);  // 21 records into an 8-slot ring
  EXPECT_EQ(rec.ring(node).size(), 8u);
  // Per-kind counters survive the overwrites — reconciliation relies on it.
  EXPECT_EQ(rec.count(EventKind::FrameTx), 20u);
  EXPECT_EQ(rec.count(EventKind::AnchorChange), 1u);
  EXPECT_EQ(rec.count(EventKind::SalvageRequest), 0u);
}

TEST(TraceRecorder, TimeBaseStitchesTripsOntoOneTimeline) {
  TraceRecorder rec;
  const sim::NodeId node{1};
  rec.record(EventKind::BeaconTx, Time::seconds(2.0), node);
  rec.set_time_base(Time::seconds(100.0));
  rec.record(EventKind::BeaconTx, Time::seconds(2.0), node);
  const auto events = rec.ring(node).snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at, Time::seconds(2.0));
  EXPECT_EQ(events[1].at, Time::seconds(102.0));
}

TEST(TraceRecorder, MergedIsSeqOrderedAcrossNodes) {
  TraceRecorder rec;
  rec.record(EventKind::BeaconTx, Time::seconds(1.0), sim::NodeId{2});
  rec.record(EventKind::BeaconRx, Time::seconds(1.0), sim::NodeId{7});
  rec.record(EventKind::BeaconRx, Time::seconds(1.1), sim::NodeId{2});
  const auto merged = rec.merged();
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_LT(merged[0].seq, merged[1].seq);
  EXPECT_LT(merged[1].seq, merged[2].seq);
  EXPECT_EQ(merged[1].node, sim::NodeId{7});
}

TEST(TraceRecorder, UnseenNodeHasEmptyRingAndLabelsListNodes) {
  TraceRecorder rec;
  EXPECT_EQ(rec.ring(sim::NodeId{42}).size(), 0u);
  rec.set_node_label(sim::NodeId{5}, "bs");
  rec.record(EventKind::BeaconTx, Time::seconds(0.0), sim::NodeId{9});
  const auto nodes = rec.nodes();
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_EQ(nodes[0], sim::NodeId{5});
  EXPECT_EQ(nodes[1], sim::NodeId{9});
  EXPECT_EQ(rec.node_label(sim::NodeId{5}), "bs");
  EXPECT_EQ(rec.node_label(sim::NodeId{9}), "");
}

TEST(TraceScope, NestsAndRestoresThePreviousRecorder) {
  EXPECT_EQ(current_recorder(), nullptr);
  TraceRecorder outer;
  {
    TraceScope a(outer);
    EXPECT_EQ(current_recorder(), &outer);
    TraceRecorder inner;
    {
      TraceScope b(inner);
      EXPECT_EQ(current_recorder(), &inner);
    }
    EXPECT_EQ(current_recorder(), &outer);
  }
  EXPECT_EQ(current_recorder(), nullptr);
}

TEST(MetricsScope, NestsAndRestoresThePreviousRegistry) {
  EXPECT_EQ(current_metrics(), nullptr);
  MetricsRegistry outer;
  {
    MetricsScope a(outer);
    EXPECT_EQ(current_metrics(), &outer);
    MetricsRegistry inner;
    {
      MetricsScope b(inner);
      EXPECT_EQ(current_metrics(), &inner);
    }
    EXPECT_EQ(current_metrics(), &outer);
  }
  EXPECT_EQ(current_metrics(), nullptr);
}

TEST(WarnRouting, WarnAndErrorLandOnTheInstalledRecorder) {
  TraceRecorder rec;
  {
    TraceScope scope(rec);
    VIFI_WARN("salvage queue overflow on " << sim::NodeId{3});
    VIFI_ERROR("bad frame");
    VIFI_DEBUG("below threshold, not routed");  // default level is Warn
  }
  VIFI_WARN("outside the scope, not routed");
  ASSERT_EQ(rec.log_records().size(), 2u);
  EXPECT_EQ(rec.log_records()[0].level, LogLevel::Warn);
  EXPECT_NE(rec.log_records()[0].message.find("salvage queue overflow"),
            std::string::npos);
  EXPECT_EQ(rec.log_records()[1].level, LogLevel::Error);
  EXPECT_EQ(rec.count(EventKind::Log), 2u);
}

TEST(Histogram, BucketsAreInclusiveUpperBoundsPlusOverflow) {
  Histogram h({1.0, 2.0, 5.0});
  for (const double sample : {0.5, 1.0, 1.5, 2.0, 4.9, 5.0, 7.0, 100.0})
    h.observe(sample);
  EXPECT_EQ(h.count(), 8u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 4.9 + 5.0 + 7.0 + 100.0);
  ASSERT_EQ(h.buckets().size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(h.buckets()[0], 2u);      // 0.5, 1.0   (bucket counts <= bound)
  EXPECT_EQ(h.buckets()[1], 2u);      // 1.5, 2.0
  EXPECT_EQ(h.buckets()[2], 2u);      // 4.9, 5.0
  EXPECT_EQ(h.buckets()[3], 2u);      // 7.0, 100.0 (overflow)
}

TEST(MetricsRegistry, KeyCanonicalisesLabelOrder) {
  EXPECT_EQ(MetricsRegistry::key("mac.frames_tx", {}), "mac.frames_tx");
  EXPECT_EQ(MetricsRegistry::key("mac.frames_tx",
                                 {{"role", "vehicle"}, {"node", "n3"}}),
            "mac.frames_tx{node=n3,role=vehicle}");
  // Same labels in either order resolve to the same instrument.
  MetricsRegistry reg;
  Counter& a = reg.counter("m", {{"x", "1"}, {"y", "2"}});
  Counter& b = reg.counter("m", {{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(&a, &b);
}

TEST(MetricsRegistry, TotalSumsAcrossLabelVariantsOfOneName) {
  MetricsRegistry reg;
  reg.counter("mac.frames_tx", {{"node", "n1"}}).add(3.0);
  reg.counter("mac.frames_tx", {{"node", "n2"}}).add(4.0);
  reg.counter("mac.collisions").add(9.0);
  reg.gauge("core.false_positive_rate").set(0.25);
  EXPECT_DOUBLE_EQ(reg.total("mac.frames_tx"), 7.0);
  EXPECT_DOUBLE_EQ(reg.total("mac.collisions"), 9.0);
  EXPECT_DOUBLE_EQ(reg.total("core.false_positive_rate"), 0.25);
  EXPECT_DOUBLE_EQ(reg.total("no.such.metric"), 0.0);
}

TEST(MetricsRegistry, FlattenExposesHistogramsAsCountAndSum) {
  MetricsRegistry reg;
  reg.counter("a.count_things").inc();
  Histogram& h = reg.histogram("a.latency_s", {0.1, 1.0}, {{"node", "n1"}});
  h.observe(0.05);
  h.observe(2.0);
  const auto flat = reg.flatten();
  EXPECT_DOUBLE_EQ(flat.at("a.count_things"), 1.0);
  EXPECT_DOUBLE_EQ(flat.at("a.latency_s{node=n1}.count"), 2.0);
  EXPECT_DOUBLE_EQ(flat.at("a.latency_s{node=n1}.sum"), 2.05);
}

TEST(MetricsRegistry, HistogramReRegistrationMustAgreeOnBounds) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h", {1.0, 2.0});
  EXPECT_EQ(&reg.histogram("h", {1.0, 2.0}), &h);
  EXPECT_THROW(reg.histogram("h", {1.0, 3.0}), ContractViolation);
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(json_escape("cr\rhere"), "cr\\rhere");
  EXPECT_EQ(json_escape(std::string("nul\x01mid")), "nul\\u0001mid");
}

TEST(ChromeTrace, NamesTracksAndEmitsDurationAndInstantEvents) {
  TraceRecorder rec;
  rec.set_node_label(sim::NodeId{1}, "bs");
  rec.set_node_label(sim::NodeId{2}, "vehicle");
  // FrameTx renders as a duration slice (ph X) with dur from arg a.
  rec.record(EventKind::FrameTx, Time::seconds(1.0), sim::NodeId{2},
             sim::NodeId{1}, 7, 0.002, 1.0, 0);
  rec.record(EventKind::AnchorChange, Time::seconds(2.0), sim::NodeId{2},
             sim::NodeId{1});
  {
    TraceScope scope(rec);
    VIFI_WARN("routed \"quoted\" warning");
  }
  const std::string json = chrome_trace_json(rec);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("n1 bs"), std::string::npos);
  EXPECT_NE(json.find("n2 vehicle"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2000"), std::string::npos);  // 0.002 s in us
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("anchor_change"), std::string::npos);
  // The routed warning is escaped, not emitted raw.
  EXPECT_NE(json.find("routed \\\"quoted\\\" warning"), std::string::npos);
  EXPECT_EQ(json.find("routed \"quoted\" warning"), std::string::npos);
}

TEST(Jsonl, OneObjectPerEventPlusLogLines) {
  TraceRecorder rec;
  rec.record(EventKind::BeaconTx, Time::seconds(0.5), sim::NodeId{1});
  rec.record(EventKind::BeaconRx, Time::seconds(0.6), sim::NodeId{2},
             sim::NodeId{1});
  rec.log(LogLevel::Warn, "something odd");
  const std::string jsonl = events_jsonl(rec);
  std::istringstream is(jsonl);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    ++lines;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(lines, 3u);
  EXPECT_NE(jsonl.find("\"kind\":\"beacon_tx\""), std::string::npos);
  EXPECT_NE(jsonl.find("something odd"), std::string::npos);
}

// --- the exporters' double format: printf's %.17g, byte for byte -----------

std::string printf_17g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string exported(double v) {
  std::string out;
  append_double(out, v);
  return out;
}

TEST(ExportDouble, MatchesPrintf17gOnRandomBitPatterns) {
  // Every exponent and mantissa shape, NaN payloads included.
  Rng rng = Rng(20080817).fork("export-double-oracle");
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t bits = rng.next_u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    ASSERT_EQ(exported(v), printf_17g(v)) << "bits 0x" << std::hex << bits;
  }
}

TEST(ExportDouble, MatchesPrintf17gOnEdgeCases) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> cases = {
      // Signed zeros, subnormals and the normal boundary.
      0.0, -0.0, std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(), 2.2250738585072009e-308,
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      // Non-finite values.
      kInf, -kInf, kNan, -kNan, std::numeric_limits<double>::signaling_NaN(),
      // Integers above 2^53.
      9007199254740992.0, 9007199254740994.0, 9223372036854775808.0,
      18446744073709551616.0, 123456789012345678.0, -36028797018963970.0,
      // Where %.17g switches between fixed and exponent notation.
      9999999999999998.0, 1e16, 1e16 + 2.0, 99999999999999984.0, 1e17,
      std::nextafter(1e17, 0.0), 1e21, 1e22, -1e22, 1e23, 1e-4,
      std::nextafter(1e-4, 0.0), 1e-5,
      // Values whose 17-digit form carries trailing digits.
      0.1, 0.1 + 0.2, 1.0 / 3.0, 2.0 / 3.0, 2.5e-5, 0.0012345, 123.456,
      -63.25, 1e-300, 5e-324};
  for (const double v : cases) EXPECT_EQ(exported(v), printf_17g(v)) << v;
}

TEST(ExportDouble, MatchesPrintf17gOnIntegralValues) {
  // Integral values take their own rendering path; probe it on small
  // integers and at every power of two and ten, one ulp either side.
  for (int k = -1000; k <= 1000; ++k)
    EXPECT_EQ(exported(k), printf_17g(k)) << k;
  for (int p = 0; p < 80; ++p) {
    for (const double base : {std::ldexp(1.0, p), std::pow(10.0, p / 3)}) {
      for (const double v : {base, std::nextafter(base, 0.0),
                             std::nextafter(base, 1e300)}) {
        EXPECT_EQ(exported(v), printf_17g(v)) << v;
        EXPECT_EQ(exported(-v), printf_17g(-v)) << -v;
      }
    }
  }
}

// A crafted ring recording exercising every rendering path: labels needing
// escapes, an invalid node and peer, a wrapped ring (the dropped warning),
// FrameTx durations, all three span kinds with an open phase closed at the
// last event, a routed log line with control characters, and doubles
// covering exponent forms, -0, a subnormal and inf. The expected bytes
// were produced by the snprintf/ostream exporters these replaced.
TEST(TraceExport, PinnedRecordingRendersUnchangedBytes) {
  TraceRecorder rec(/*per_node_capacity=*/6);  // node 2's ring wraps once
  const sim::NodeId n1{1}, n2{2}, none{};
  rec.set_node_label(n1, "bs");
  rec.set_node_label(n2, "vehicle \"x\"");
  rec.record(EventKind::BeaconTx, Time::micros(0), n1);
  rec.record(EventKind::BeaconRx, Time::micros(100250), n2, n1, 1, -63.25);
  rec.record(EventKind::AnchorChange, Time::micros(100300), n2, n1, 1,
             0.1 + 0.2);
  rec.record(EventKind::FrameTx, Time::micros(1500000), n2, n1, 42, 0.0012345,
             2.0, 1);
  rec.record(EventKind::RelayEval, Time::micros(1500001), n1, n2,
             18446744073709551615ull, 1.0 / 3.0, 1e-300, -7);
  rec.record(EventKind::CoordTransition, Time::micros(2000000), n2, n1, 3,
             0.75, 0.0, (1 << 8) | (0 << 4) | 1);
  rec.record(EventKind::BeaconRx, Time::micros(2100000), n2, n1, 2, 1e22);
  rec.record(EventKind::Handoff, Time::micros(2500000), none, none, 0, -0.0,
             123456789012345678.0);
  rec.record(EventKind::CoordTransition, Time::micros(3000000), n2, n1, 4,
             5e-324, 1e16, (2 << 8) | (1 << 4) | 2);
  rec.record(EventKind::AnchorChange, Time::micros(4000000), n2, none, 2);
  rec.log(LogLevel::Warn, "tab\tand \x01 ctl");
  rec.record(EventKind::AppDeliver, Time::micros(4500000), n1, n2, 9,
             std::numeric_limits<double>::infinity(), 2.5e-5, 1);
  EXPECT_EQ(chrome_trace_json(rec), R"pin({"traceEvents":[
{"ph":"M","pid":0,"tid":1000000,"name":"thread_name","args":{"name":"(none)"}},
{"ph":"M","pid":0,"tid":1,"name":"thread_name","args":{"name":"n1 bs"}},
{"ph":"M","pid":0,"tid":2,"name":"thread_name","args":{"name":"n2 vehicle \"x\""}},
{"ph":"M","pid":0,"tid":1000001,"name":"thread_name","args":{"name":"log"}},
{"name":"beacon_tx","cat":"beacon","pid":0,"tid":1,"ts":0,"ph":"i","s":"t","args":{"peer":"-","id":0,"a":0,"b":0,"c":0}},
{"name":"anchor_change","cat":"designation","pid":0,"tid":2,"ts":100300,"ph":"i","s":"t","args":{"peer":"n1","id":1,"a":0.30000000000000004,"b":0,"c":0}},
{"name":"frame_tx","cat":"mac","pid":0,"tid":2,"ts":1500000,"ph":"X","dur":1235,"args":{"peer":"n1","id":42,"a":0.0012344999999999999,"b":2,"c":1}},
{"name":"relay_eval","cat":"relay","pid":0,"tid":1,"ts":1500001,"ph":"i","s":"t","args":{"peer":"n2","id":18446744073709551615,"a":0.33333333333333331,"b":1e-300,"c":-7}},
{"name":"coord_transition","cat":"coord","pid":0,"tid":2,"ts":2000000,"ph":"i","s":"t","args":{"peer":"n1","id":3,"a":0.75,"b":0,"c":257}},
{"name":"beacon_rx","cat":"beacon","pid":0,"tid":2,"ts":2100000,"ph":"i","s":"t","args":{"peer":"n1","id":2,"a":1e+22,"b":0,"c":0}},
{"name":"handoff","cat":"handoff","pid":0,"tid":1000000,"ts":2500000,"ph":"i","s":"t","args":{"peer":"-","id":0,"a":-0,"b":1.2345678901234568e+17,"c":0}},
{"name":"coord_transition","cat":"coord","pid":0,"tid":2,"ts":3000000,"ph":"i","s":"t","args":{"peer":"n1","id":4,"a":4.9406564584124654e-324,"b":10000000000000000,"c":530}},
{"name":"anchor_change","cat":"designation","pid":0,"tid":2,"ts":4000000,"ph":"i","s":"t","args":{"peer":"-","id":2,"a":0,"b":0,"c":0}},
{"name":"app_deliver","cat":"app","pid":0,"tid":1,"ts":4500000,"ph":"i","s":"t","args":{"peer":"n2","id":9,"a":inf,"b":2.5000000000000001e-05,"c":1}},
{"name":"anchor_tenure","cat":"span","ph":"X","pid":0,"tid":2,"ts":100300,"dur":3899700,"args":{"peer":"n1"}},
{"name":"phase:Discovered","cat":"span","ph":"X","pid":0,"tid":2,"ts":2000000,"dur":1000000,"args":{"peer":"n1"}},
{"name":"contact","cat":"span","ph":"X","pid":0,"tid":2,"ts":2100000,"dur":0,"args":{"peer":"n1"}},
{"name":"phase:Associated","cat":"span","ph":"X","pid":0,"tid":2,"ts":3000000,"dur":1500000,"args":{"peer":"n1"}},
{"name":"ring dropped 1 events (oldest overwritten); timeline is truncated — use --trace-stream for full fidelity","cat":"log","ph":"i","s":"t","pid":0,"tid":1000001,"ts":0,"args":{"dropped":1}},
{"name":"tab\tand \u0001 ctl","cat":"log","ph":"i","s":"t","pid":0,"tid":1000001,"ts":4000000,"args":{"level":2}}
]}
)pin");
  EXPECT_EQ(events_jsonl(rec), R"pin({"warning":"ring dropped 1 events (oldest overwritten); timeline is truncated — use --trace-stream for full fidelity","dropped":1}
{"seq":1,"t_us":0,"kind":"beacon_tx","node":"n1","peer":"-","id":0,"a":0,"b":0,"c":0}
{"seq":3,"t_us":100300,"kind":"anchor_change","node":"n2","peer":"n1","id":1,"a":0.30000000000000004,"b":0,"c":0}
{"seq":4,"t_us":1500000,"kind":"frame_tx","node":"n2","peer":"n1","id":42,"a":0.0012344999999999999,"b":2,"c":1}
{"seq":5,"t_us":1500001,"kind":"relay_eval","node":"n1","peer":"n2","id":18446744073709551615,"a":0.33333333333333331,"b":1e-300,"c":-7}
{"seq":6,"t_us":2000000,"kind":"coord_transition","node":"n2","peer":"n1","id":3,"a":0.75,"b":0,"c":257}
{"seq":7,"t_us":2100000,"kind":"beacon_rx","node":"n2","peer":"n1","id":2,"a":1e+22,"b":0,"c":0}
{"seq":8,"t_us":2500000,"kind":"handoff","node":"-","peer":"-","id":0,"a":-0,"b":1.2345678901234568e+17,"c":0}
{"seq":9,"t_us":3000000,"kind":"coord_transition","node":"n2","peer":"n1","id":4,"a":4.9406564584124654e-324,"b":10000000000000000,"c":530}
{"seq":10,"t_us":4000000,"kind":"anchor_change","node":"n2","peer":"-","id":2,"a":0,"b":0,"c":0}
{"seq":12,"t_us":4500000,"kind":"app_deliver","node":"n1","peer":"n2","id":9,"a":inf,"b":2.5000000000000001e-05,"c":1}
{"seq":11,"t_us":4000000,"kind":"log","level":2,"message":"tab\tand \u0001 ctl"}
)pin");
}

// --- the per-event lines against an snprintf reference ---------------------

std::string node_ref(sim::NodeId node) {
  return node.valid() ? "n" + std::to_string(node.value()) : "-";
}

/// append_jsonl's line as snprintf renders it.
std::string jsonl_ref(const TraceEvent& e) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"seq\":%llu,\"t_us\":%lld,\"kind\":\"%s\",\"node\":\"%s\","
                "\"peer\":\"%s\",\"id\":%llu,\"a\":%.17g,\"b\":%.17g,"
                "\"c\":%d}\n",
                static_cast<unsigned long long>(e.seq),
                static_cast<long long>(e.at.to_micros()), to_string(e.kind),
                node_ref(e.node).c_str(), node_ref(e.peer).c_str(),
                static_cast<unsigned long long>(e.id), e.a, e.b, e.c);
  return buf;
}

/// One Chrome event line (no separator) as snprintf renders it.
std::string chrome_ref(const TraceEvent& e, const char* cat) {
  char shape[64];
  if (e.kind == EventKind::FrameTx)
    std::snprintf(shape, sizeof(shape), "\"ph\":\"X\",\"dur\":%lld",
                  static_cast<long long>(e.a * 1e6 + 0.5));
  else
    std::snprintf(shape, sizeof(shape), "\"ph\":\"i\",\"s\":\"t\"");
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"%s\",\"cat\":\"%s\",\"pid\":0,\"tid\":%d,"
                "\"ts\":%lld,%s,\"args\":{\"peer\":\"%s\",\"id\":%llu,"
                "\"a\":%.17g,\"b\":%.17g,\"c\":%d}}",
                to_string(e.kind), cat,
                e.node.valid() ? e.node.value() : 1000000,
                static_cast<long long>(e.at.to_micros()), shape,
                node_ref(e.peer).c_str(),
                static_cast<unsigned long long>(e.id), e.a, e.b, e.c);
  return buf;
}

/// The line of \p rec's Chrome trace holding its one event of \p kind.
std::string chrome_event_line(const TraceRecorder& rec, EventKind kind) {
  std::istringstream is(chrome_trace_json(rec));
  const std::string prefix =
      std::string("{\"name\":\"") + to_string(kind) + "\"";
  for (std::string line; std::getline(is, line);) {
    if (line.rfind(prefix, 0) != 0) continue;
    if (line.back() == ',') line.pop_back();
    return line;
  }
  return "";
}

TEST(TraceExport, EventLinesMatchAnSnprintfReferenceOnEdgeCases) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> doubles = {
      -0.0, 0.1, 1e17, -1e17, 5e-324, kInf, -kInf,
      std::numeric_limits<double>::quiet_NaN()};
  const std::vector<std::uint64_t> ids = {
      0, 42, std::numeric_limits<std::uint64_t>::max()};
  const std::vector<std::int32_t> cs = {
      0, -7, std::numeric_limits<std::int32_t>::min(),
      std::numeric_limits<std::int32_t>::max()};
  const std::vector<sim::NodeId> nodes = {sim::NodeId{3}, sim::NodeId{}};
  // Instant kinds that open no span, so the trace holds one event line.
  const std::pair<EventKind, const char*> kinds[] = {
      {EventKind::RelayEval, "relay"}, {EventKind::Handoff, "handoff"}};
  std::size_t k = 0;
  for (const auto& [kind, cat] : kinds)
    for (const double a : doubles)
      for (const sim::NodeId node : nodes) {
        TraceEvent e;
        e.kind = kind;
        e.seq = k % 2 == 0 ? std::numeric_limits<std::uint64_t>::max() : 1;
        e.at = Time::micros(k % 3 == 0 ? -1 : 1234567);
        e.node = node;
        e.peer = nodes[(k + 1) % nodes.size()];
        e.id = ids[k % ids.size()];
        e.a = a;
        e.b = doubles[(k + 3) % doubles.size()];
        e.c = cs[k % cs.size()];
        ++k;
        std::string got;
        append_jsonl(got, e);
        EXPECT_EQ(got, jsonl_ref(e));

        TraceRecorder rec;
        rec.record(e.kind, Time::micros(1234567), e.node, e.peer, e.id, e.a,
                   e.b, e.c);
        e.at = Time::micros(1234567);
        EXPECT_EQ(chrome_event_line(rec, kind), chrome_ref(e, cat));
      }

  // A FrameTx's dur is its airtime `a` in microseconds, rounded half up.
  for (const double airtime :
       {0.0, -0.0, 5e-324, 4.9999999999999998e-7, 5e-7, 1.5e-6, 2.5e-6,
        0.0012345, 0.002, 0.1}) {
    TraceRecorder rec;
    rec.record(EventKind::FrameTx, Time::micros(1500000), sim::NodeId{2},
               sim::NodeId{1}, 7, airtime, 1.0, 1);
    const TraceEvent e = rec.merged().front();
    EXPECT_EQ(chrome_event_line(rec, EventKind::FrameTx),
              chrome_ref(e, "mac"))
        << airtime;
    std::string got;
    append_jsonl(got, e);
    EXPECT_EQ(got, jsonl_ref(e)) << airtime;
  }
}

// --- the sweep-level contract: per-point trace exports are byte-identical
// --- for any runner thread count ----------------------------------------

std::string slurp(const std::filesystem::path& p) {
  std::ifstream is(p, std::ios::binary);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

runtime::ExperimentSpec traced_cbr_spec(const std::string& trace_dir) {
  runtime::ExperimentSpec spec;
  spec.grid.testbeds = {"VanLAN"};
  spec.grid.policies = {"ViFi", "BRR"};
  spec.grid.seeds = {1};
  spec.days = 1;
  spec.trips_per_day = 1;
  spec.trip_duration = Time::seconds(20.0);
  spec.workload = "cbr";
  spec.trace_dir = trace_dir;
  spec.metric_columns = {"mac.transmissions", "core.app_delivered"};
  return spec;
}

TEST(TraceExport, SweepTraceFilesAreThreadCountInvariant) {
  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() / "vifi_test_obs_traces";
  const fs::path dir_one = root / "one";
  const fs::path dir_four = root / "four";
  fs::remove_all(root);

  const runtime::ResultSink one =
      runtime::Runner({.threads = 1}).run(traced_cbr_spec(dir_one.string()));
  const runtime::ResultSink four =
      runtime::Runner({.threads = 4}).run(traced_cbr_spec(dir_four.string()));
  EXPECT_FALSE(one.any_errors());
  EXPECT_EQ(one.to_json(), four.to_json());

  for (const char* tag : {"point_0000", "point_0001"}) {
    for (const char* ext : {".trace.json", ".jsonl", ".metrics.json"}) {
      const std::string name = std::string(tag) + ext;
      const std::string a = slurp(dir_one / name);
      const std::string b = slurp(dir_four / name);
      ASSERT_FALSE(a.empty()) << name;
      EXPECT_EQ(a, b) << name;
    }
    // The Chrome trace is real JSON with the expected envelope.
    const std::string trace = slurp(dir_one / (std::string(tag) +
                                               ".trace.json"));
    EXPECT_EQ(trace.rfind("{\"traceEvents\":[", 0), 0u) << tag;
    ASSERT_GE(trace.size(), 4u);
    EXPECT_EQ(trace.substr(trace.size() - 4), "\n]}\n") << tag;
  }
  fs::remove_all(root);
}

TEST(TraceExport, MetricColumnsSurfaceInPointResults) {
  runtime::ExperimentSpec spec = traced_cbr_spec("");
  spec.grid.policies = {"ViFi"};
  const runtime::ResultSink sink = runtime::Runner({.threads = 1}).run(spec);
  const auto results = sink.ordered();
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].error.empty()) << results[0].error;
  ASSERT_TRUE(results[0].metrics.count("obs.mac.transmissions"));
  ASSERT_TRUE(results[0].metrics.count("obs.core.app_delivered"));
  EXPECT_GT(results[0].metrics.at("obs.mac.transmissions"), 0.0);
  EXPECT_GT(results[0].metrics.at("obs.core.app_delivered"), 0.0);
}

TEST(TraceExport, TracingChangesNoResultBytes) {
  runtime::ExperimentSpec plain = traced_cbr_spec("");
  plain.trace_dir.clear();
  plain.metric_columns.clear();

  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "vifi_test_obs_plain";
  fs::remove_all(dir);
  runtime::ExperimentSpec traced = traced_cbr_spec(dir.string());
  traced.metric_columns.clear();  // columns intentionally add metrics

  const runtime::Runner runner({.threads = 2});
  EXPECT_EQ(runner.run(plain).to_json(), runner.run(traced).to_json());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace vifi::obs
