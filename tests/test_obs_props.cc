// Property tests for TripScope's stream fast paths. SpoolWriter::absorb
// copies a part spool's encoded records straight into the session's blocks;
// it must write the bytes that replaying the part through SpoolReader::visit
// and pushing each shifted event would write, over seeded runs that vary
// the block size, the session blocks' residual fill, node ids on both
// sides of the writer's dense index, empty and label-only parts, sparse
// seqs, and several parts absorbed in a row. Hostile parts must throw
// where visit() throws. The exporters' double memo must render what the
// uncached %.17g path renders.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/recorder.h"
#include "obs/sink.h"
#include "obs/spool.h"
#include "util/rng.h"

namespace vifi::obs {
namespace {

namespace fs = std::filesystem;

std::string slurp(const std::string& path) {
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

/// The reference absorb: the part's merged timeline pushed one shifted
/// event at a time.
void replay_absorb(SpoolWriter& w, const std::string& part, Time at_offset,
                   std::uint64_t seq_offset) {
  SpoolReader(part).visit([&](const TraceEvent& e) {
    TraceEvent shifted = e;
    shifted.at = e.at + at_offset;
    shifted.seq = e.seq + seq_offset;
    w.push(shifted);
  });
}

/// Node ids a run draws from: small ones (the dense index), ones past it
/// (>= 2^16), and the invalid id.
std::vector<int> node_pool(Rng& rng) {
  std::vector<int> ids;
  const int n = static_cast<int>(rng.uniform_int(1, 6));
  for (int i = 0; i < n; ++i) ids.push_back(static_cast<int>(rng.uniform_int(0, 40)));
  if (rng.uniform01() < 0.5) ids.push_back(65536);
  if (rng.uniform01() < 0.5) ids.push_back(1 << 20);
  if (rng.uniform01() < 0.3) ids.push_back(-1);
  return ids;
}

/// One random event on one of \p ids with seq \p seq.
TraceEvent random_event(Rng& rng, const std::vector<int>& ids,
                        std::uint64_t seq, std::int64_t at_us) {
  TraceEvent e;
  e.at = Time::micros(at_us);
  e.seq = seq;
  e.id = rng.next_u64();
  e.node = sim::NodeId{ids[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1))]};
  e.peer = sim::NodeId{static_cast<int>(rng.uniform_int(-1, 70000))};
  e.kind = static_cast<EventKind>(rng.uniform_int(0, kEventKindCount - 1));
  e.c = static_cast<std::int32_t>(rng.uniform_int(-5, 5000));
  e.a = rng.uniform(-1.0, 1.0);
  e.b = rng.uniform01() < 0.5 ? 0.0 : rng.uniform(0.0, 1e6);
  return e;
}

/// Writes a part spool of \p events events (seqs from 1, with gaps like a
/// recorder's log lines; with \p sparse, some gaps are huge), and maybe a
/// label-only node.
void write_part(Rng& rng, const std::string& path, int events, bool sparse) {
  const std::vector<int> ids = node_pool(rng);
  SpoolWriter part(path, static_cast<std::size_t>(rng.uniform_int(1, 8)));
  std::uint64_t seq = 0;
  std::int64_t at = rng.uniform_int(0, 1000);
  for (int i = 0; i < events; ++i) {
    seq += rng.uniform01() < 0.2 ? rng.uniform_int(2, 4) : 1;
    if (sparse && rng.uniform01() < 0.05) seq += std::uint64_t{1} << 40;
    at += rng.uniform_int(0, 3000);
    part.push(random_event(rng, ids, seq, at));
  }
  if (rng.uniform01() < 0.5) part.set_node_label(sim::NodeId{777}, "label-only");
  part.finalize({});
}

TEST(AbsorbProps, CopyingMatchesTheReplayByteForByte) {
  const fs::path dir = temp_dir("vifi_absorb_props");
  for (int run = 0; run < 300; ++run) {
    Rng rng = Rng(static_cast<std::uint64_t>(run)).fork("absorb-props");
    const auto block = static_cast<std::size_t>(rng.uniform_int(1, 8));
    const std::string fast = (dir / "fast.spool").string();
    const std::string slow = (dir / "slow.spool").string();
    {
      SpoolWriter a(fast, block), b(slow, block);
      // A random residual fill of the session blocks before any absorb.
      const std::vector<int> ids = node_pool(rng);
      std::uint64_t seq = 0;
      std::int64_t at = 0;
      const int before = static_cast<int>(rng.uniform_int(0, 40));
      for (int i = 0; i < before; ++i) {
        at += rng.uniform_int(0, 2000);
        const TraceEvent e = random_event(rng, ids, ++seq, at);
        a.push(e);
        b.push(e);
      }
      const int parts = static_cast<int>(rng.uniform_int(1, 4));
      for (int p = 0; p < parts; ++p) {
        const std::string part = (dir / ("part" + std::to_string(p))).string();
        const int events =
            rng.uniform01() < 0.15 ? 0 : static_cast<int>(rng.uniform_int(1, 120));
        write_part(rng, part, events, rng.uniform01() < 0.2);
        const Time offset = Time::micros(rng.uniform_int(0, 5'000'000));
        const auto seq_offset = static_cast<std::uint64_t>(rng.uniform_int(0, 1000));
        a.absorb(SpoolReader(part), offset, seq_offset);
        replay_absorb(b, part, offset, seq_offset);
        ASSERT_EQ(a.pushed(), b.pushed()) << "run " << run;
        ASSERT_EQ(a.nodes(), b.nodes()) << "run " << run;
        if (rng.uniform01() < 0.5) {  // pushes between parts keep working
          const TraceEvent e = random_event(rng, ids, 1u << 30, at);
          a.push(e);
          b.push(e);
        }
      }
      a.set_node_label(sim::NodeId{3}, "bs");
      b.set_node_label(sim::NodeId{3}, "bs");
      a.finalize({});
      b.finalize({});
    }
    ASSERT_EQ(slurp(fast), slurp(slow)) << "run " << run << ", block " << block;
  }
  fs::remove_all(dir);
}

// Through the recorder: a streaming session that absorbs streamed trip
// recorders writes the spool a direct recording writes.
TEST(AbsorbProps, StreamRecorderAbsorbMatchesADirectRecording) {
  const fs::path dir = temp_dir("vifi_absorb_props_recorder");
  for (int run = 0; run < 20; ++run) {
    Rng rng = Rng(static_cast<std::uint64_t>(run)).fork("absorb-props-rec");
    const auto block = static_cast<std::size_t>(rng.uniform_int(1, 8));
    TraceRecorder direct(std::make_unique<StreamSink>(
        (dir / "direct.spool").string(), block));
    TraceRecorder session(std::make_unique<StreamSink>(
        (dir / "session.spool").string(), block));
    Time base;
    for (int trip = 0; trip < 3; ++trip) {
      TraceRecorder part(std::make_unique<StreamSink>(
          (dir / ("trip" + std::to_string(trip))).string(), block));
      direct.set_time_base(base);
      const int events = static_cast<int>(rng.uniform_int(0, 200));
      for (int i = 0; i < events; ++i) {
        const auto kind =
            static_cast<EventKind>(rng.uniform_int(0, kEventKindCount - 2));
        const sim::NodeId node{static_cast<int>(rng.uniform_int(0, 5))};
        const Time at = Time::millis(static_cast<std::int64_t>(i) * 10);
        const double a = rng.uniform01();
        for (TraceRecorder* r : {&direct, &part})
          r->record(kind, at, node, sim::NodeId{1}, 7, a, 0.0, 1);
        if (rng.uniform01() < 0.02)
          for (TraceRecorder* r : {&direct, &part}) r->log(LogLevel::Warn, "w");
      }
      session.absorb(part, base);
      base = base + Time::seconds(3.0);
    }
    direct.finalize();
    session.finalize();
    ASSERT_EQ(slurp(direct.spool_path()), slurp(session.spool_path()))
        << "run " << run;
  }
  fs::remove_all(dir);
}

// --- hostile parts ----------------------------------------------------------

template <typename T>
void poke(std::string& bytes, std::uint64_t offset, T v) {
  ASSERT_LE(offset + sizeof(T), bytes.size());
  std::memcpy(bytes.data() + offset, &v, sizeof(T));
}

/// The message of the runtime_error \p read throws, or "" if it returns.
std::string read_error(const std::function<void()>& read) {
  try {
    read();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(AbsorbProps, HostilePartsThrowWhereVisitThrows) {
  const fs::path dir = temp_dir("vifi_absorb_hostile");
  constexpr std::uint64_t kHeader = 8;
  constexpr std::uint64_t kRecord = kSpoolRecordBytes;
  constexpr std::uint64_t kSeq = 8;
  constexpr std::uint64_t kKind = 36;
  // Two nodes pushed alternately in 4-event blocks: node 1 holds seqs
  // 1, 3, 5 ... 11, node 2 seqs 2, 4 ... 12. With \p sparse, seqs step
  // by 2^40, so the absorb checks them by list instead of bitmap.
  const auto write_good = [&](const std::string& path, bool sparse) {
    SpoolWriter w(path, 4);
    for (int i = 0; i < 12; ++i) {
      TraceEvent e;
      e.at = Time::millis(i);
      e.seq = static_cast<std::uint64_t>(i + 1) << (sparse ? 40 : 0);
      e.node = sim::NodeId{1 + i % 2};
      w.push(e);
    }
    w.finalize({});
  };
  for (const bool sparse : {false, true}) {
    const std::string good = (dir / "good.spool").string();
    write_good(good, sparse);
    const std::string bytes = slurp(good);
    const SpoolReader index(good);
    const SpoolChunkRef n1 = index.find_node(sim::NodeId{1})->chunks[0];
    const SpoolChunkRef n2 = index.find_node(sim::NodeId{2})->chunks[0];
    const auto rec = [&](const SpoolChunkRef& c, int i) {
      return c.offset + kHeader + static_cast<std::uint64_t>(i) * kRecord;
    };
    const auto seq = [&](std::uint64_t s) { return sparse ? s << 40 : s; };
    struct Case {
      std::string name, bytes, expect;
    };
    std::vector<Case> cases;
    const auto add = [&](std::string name, std::string expect,
                         const std::function<void(std::string&)>& patch) {
      Case c{std::move(name), bytes, std::move(expect)};
      patch(c.bytes);
      cases.push_back(std::move(c));
    };
    add("backwards", "out of seq order", [&](std::string& b) {
      poke<std::uint64_t>(b, rec(n1, 1) + kSeq, 0);
    });
    // Node 1 reads 1, 5, 3, 7: every seq distinct and in range, so only
    // the per-node order check sees it.
    add("swapped", "out of seq order", [&](std::string& b) {
      poke<std::uint64_t>(b, rec(n1, 1) + kSeq, seq(5));
      poke<std::uint64_t>(b, rec(n1, 2) + kSeq, seq(3));
    });
    // Node 2's first record takes node 1's seq 1; node 2 still ascends.
    add("shared", "out of seq order", [&](std::string& b) {
      poke<std::uint64_t>(b, rec(n2, 0) + kSeq, seq(1));
    });
    // The same on a later record: node 2's seq 6 becomes node 1's 5.
    add("shared_late", "out of seq order", [&](std::string& b) {
      poke<std::uint64_t>(b, rec(n2, 2) + kSeq, seq(5));
    });
    add("foreign", "foreign chunk", [&](std::string& b) {
      poke<std::int32_t>(b, n1.offset, 2);
    });
    add("count", "disagrees with the footer", [&](std::string& b) {
      poke<std::uint32_t>(b, n1.offset + 4, n1.count - 1);
    });
    add("kind", "unknown event kind 200", [&](std::string& b) {
      poke<std::uint8_t>(b, rec(n2, 3) + kKind, 200);
    });
    for (const Case& c : cases) {
      const std::string path = (dir / (c.name + ".spool")).string();
      std::ofstream(path, std::ios::binary) << c.bytes;
      const std::string visit_error = read_error(
          [&] { SpoolReader(path).visit([](const TraceEvent&) {}); });
      const std::string absorb_error = read_error([&] {
        SpoolWriter w((dir / "session.spool").string(), 3);
        w.absorb(SpoolReader(path), Time::seconds(1.0), 100);
      });
      for (const std::string& what : {visit_error, absorb_error}) {
        EXPECT_NE(what.find(c.expect), std::string::npos)
            << c.name << (sparse ? " sparse: " : ": ") << what;
        EXPECT_NE(what.find(path), std::string::npos) << c.name << ": " << what;
      }
    }
    // The unpatched part absorbs cleanly.
    SpoolWriter w((dir / "session.spool").string(), 3);
    w.absorb(index, Time::zero(), 0);
    EXPECT_EQ(w.pushed(), 12u);
  }
  fs::remove_all(dir);
}

// --- the exporters' double memo ---------------------------------------------

// write_jsonl renders doubles through a direct-mapped memo; with far more
// distinct values than memo slots (collisions, evictions, -0, integral
// values, infinities) every line must equal the uncached append_jsonl's.
TEST(ExportProps, MemoizedDoublesRenderAsPrintfDoes) {
  TraceRecorder rec(1 << 16);
  Rng rng = Rng(30).fork("export-props");
  const double specials[] = {-0.0, 0.0, 1e17, -1e17, 1e300, 5e-324,
                             0.1, 1.0 / 3.0, -2.5, 1e16 + 1.0};
  for (int i = 0; i < 20000; ++i) {
    double a = 0.0;
    const double pick = rng.uniform01();
    if (pick < 0.3)
      a = specials[rng.uniform_int(0, 9)];
    else if (pick < 0.6)
      a = static_cast<double>(rng.uniform_int(0, 50)) / 7.0;  // repeats
    else
      a = std::ldexp(rng.uniform(-1.0, 1.0), static_cast<int>(rng.uniform_int(-60, 60)));
    const double b = i % 3 == 0 ? std::numeric_limits<double>::infinity() : a * 3.0;
    rec.record(EventKind::RelayEval, Time::millis(i), sim::NodeId{i % 5},
               sim::NodeId{1}, static_cast<std::uint64_t>(i), a, b, 2);
  }
  std::string want;
  rec.visit([&want](const TraceEvent& e) { append_jsonl(want, e); });
  EXPECT_EQ(events_jsonl(rec), want);
}

}  // namespace
}  // namespace vifi::obs
