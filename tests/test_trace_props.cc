// Property tests for the vifi-trace v1 serialisation: randomized traces
// round-trip byte-identically (save -> load -> save), and arbitrary
// truncation or byte mutation of a valid file is reported as a crisp parse
// error, never a crash or a different exception type — or loads into a
// trace whose slot masks agree with its id lists and which round-trips.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/trace_io.h"
#include "util/rng.h"

namespace vifi::trace {
namespace {

using sim::NodeId;

MeasurementTrace random_trace(Rng& rng) {
  MeasurementTrace t;
  const char* beds[] = {"VanLAN", "DieselNet-Ch1", "Bed_3"};
  t.testbed = beds[rng.uniform_int(0, 2)];
  t.day = static_cast<int>(rng.uniform_int(0, 30));
  t.trip = static_cast<int>(rng.uniform_int(0, 10));
  t.duration = Time::micros(rng.uniform_int(1, 60'000'000));
  t.beacons_per_second = static_cast<int>(rng.uniform_int(1, 20));
  if (rng.bernoulli(0.7)) t.vehicle = NodeId(rng.uniform_int(0, 40));
  const int n_bs = static_cast<int>(rng.uniform_int(0, 6));
  for (int i = 0; i < n_bs; ++i)
    t.bs_ids.push_back(NodeId(rng.uniform_int(0, 40)));

  const int n_slots = static_cast<int>(rng.uniform_int(0, 12));
  std::vector<NodeId> down, up;
  for (int i = 0; i < n_slots; ++i) {
    const Time at = Time::micros(rng.uniform_int(0, 60'000'000));
    const mobility::Vec2 pos{rng.uniform(-500.0, 500.0),
                             rng.uniform(-500.0, 500.0)};
    down.assign(static_cast<std::size_t>(rng.uniform_int(0, 4)), NodeId{});
    for (NodeId& id : down) id = NodeId(rng.uniform_int(0, 40));
    up.assign(static_cast<std::size_t>(rng.uniform_int(0, 4)), NodeId{});
    for (NodeId& id : up) id = NodeId(rng.uniform_int(0, 40));
    t.add_slot(at, pos, down, up);
  }

  const int n_beacons = static_cast<int>(rng.uniform_int(0, 40));
  for (int i = 0; i < n_beacons; ++i)
    t.vehicle_beacons.push_back({Time::micros(rng.uniform_int(0, 60'000'000)),
                                 NodeId(rng.uniform_int(0, 40)),
                                 rng.uniform(-95.0, -35.0)});
  const int n_bsb = static_cast<int>(rng.uniform_int(0, 15));
  for (int i = 0; i < n_bsb; ++i)
    t.bs_beacons.push_back({Time::micros(rng.uniform_int(0, 60'000'000)),
                            NodeId(rng.uniform_int(0, 40)),
                            NodeId(rng.uniform_int(0, 40))});
  return t;
}

TEST(TraceIoProps, RandomTracesRoundTripByteIdentically) {
  Rng rng(20260730);
  for (int iter = 0; iter < 300; ++iter) {
    const MeasurementTrace t = random_trace(rng);
    std::ostringstream first;
    save_trace(t, first);
    std::istringstream in(first.str());
    MeasurementTrace loaded;
    try {
      loaded = load_trace(in);
    } catch (const std::exception& e) {
      FAIL() << "iteration " << iter << ": valid save failed to load: "
             << e.what() << "\n" << first.str();
    }
    std::ostringstream second;
    save_trace(loaded, second);
    ASSERT_EQ(first.str(), second.str()) << "iteration " << iter;
    // Spot-check semantic fields on top of the byte identity.
    ASSERT_EQ(loaded.vehicle, t.vehicle);
    ASSERT_EQ(loaded.bs_ids, t.bs_ids);
    ASSERT_EQ(loaded.slots.size(), t.slots.size());
    ASSERT_EQ(loaded.vehicle_beacons.size(), t.vehicle_beacons.size());
  }
}

TEST(TraceIoProps, TruncationNeverCrashesAndErrorsAreTagged) {
  Rng rng(816);
  for (int iter = 0; iter < 100; ++iter) {
    const MeasurementTrace t = random_trace(rng);
    std::ostringstream os;
    save_trace(t, os);
    const std::string full = os.str();
    const auto cut = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(full.size())));
    std::istringstream in(full.substr(0, cut));
    try {
      // A cut at a line boundary past the header yields a shorter but
      // valid trace; any other cut must throw the tagged parse error.
      (void)load_trace(in);
    } catch (const std::runtime_error& e) {
      ASSERT_NE(std::string(e.what()).find("trace parse error"),
                std::string::npos)
          << "iteration " << iter << ": untagged error: " << e.what();
    }
  }
}

/// A trace of 60 to 100 BS entries, some listed twice, whose slots hear
/// listed and unlisted ids.
MeasurementTrace wide_trace(Rng& rng) {
  MeasurementTrace t;
  t.testbed = "Wide";
  t.duration = Time::seconds(2.0);
  const auto n_bs = rng.uniform_int(60, 100);
  for (std::int64_t k = 0; k < n_bs; ++k)
    t.bs_ids.push_back(rng.bernoulli(0.1) && !t.bs_ids.empty()
                           ? t.bs_ids[static_cast<std::size_t>(rng.uniform_int(
                                 0, static_cast<std::int64_t>(k) - 1))]
                           : NodeId(rng.uniform_int(0, 150)));
  std::vector<NodeId> down, up;
  for (int i = 0; i < 12; ++i) {
    for (auto* ids : {&down, &up}) {
      ids->assign(static_cast<std::size_t>(rng.uniform_int(0, 8)), NodeId{});
      for (NodeId& id : *ids) id = NodeId(rng.uniform_int(0, 160));
    }
    t.add_slot(Time::millis(100.0 * i), {1.0 * i, -2.5}, down, up);
  }
  return t;
}

/// Whether each slot's masks hold exactly the bits of its listed ids: bit
/// k for an id whose first position in bs_ids is k < 64.
bool masks_match_ids(const MeasurementTrace& t) {
  const auto bits = [&](std::span<const NodeId> ids) {
    std::uint64_t out = 0;
    for (const NodeId id : ids) {
      const auto k = std::find(t.bs_ids.begin(), t.bs_ids.end(), id) -
                     t.bs_ids.begin();
      if (k < 64 && static_cast<std::size_t>(k) < t.bs_ids.size())
        out |= std::uint64_t{1} << k;
    }
    return out;
  };
  for (std::size_t i = 0; i < t.slots.size(); ++i)
    if (t.slots.down_bits(i) != bits(t.slots.down_ids(i)) ||
        t.slots.up_bits(i) != bits(t.slots.up_ids(i)))
      return false;
  return true;
}

TEST(TraceIoProps, ByteMutantsFailCrisplyOrLoadConsistently) {
  Rng rng(4417);
  // Inserted bytes lean on the grammar's own characters so that mutants
  // often still parse, plus any byte at all.
  const std::string grammar = "0123456789 \n\t-+.e#xupdownbsslotbeacon";
  int loaded_mutants = 0;
  for (int iter = 0; iter < 600; ++iter) {
    const MeasurementTrace t =
        iter % 2 == 0 ? random_trace(rng) : wide_trace(rng);
    std::ostringstream os;
    save_trace(t, os);
    std::string text = os.str();
    for (auto edits = rng.uniform_int(1, 3); edits > 0; --edits) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
      const char byte =
          rng.bernoulli(0.8)
              ? grammar[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(grammar.size()) - 1))]
              : static_cast<char>(rng.uniform_int(0, 255));
      switch (rng.uniform_int(0, 2)) {
        case 0:
          text[at] = static_cast<char>(text[at] ^ (1 << rng.uniform_int(0, 7)));
          break;
        case 1:
          text.insert(at, 1, byte);
          break;
        default:
          text.erase(at, 1);
      }
    }
    MeasurementTrace mutant;
    try {
      std::istringstream in(text);
      mutant = load_trace(in);
    } catch (const std::runtime_error& e) {
      ASSERT_EQ(std::string(e.what()).rfind("trace parse error at line ", 0),
                0u)
          << "iteration " << iter << ": untagged error: " << e.what();
      continue;
    }
    ++loaded_mutants;
    ASSERT_TRUE(masks_match_ids(mutant)) << "iteration " << iter;
    std::ostringstream y;
    save_trace(mutant, y);
    std::istringstream in(y.str());
    const MeasurementTrace again = load_trace(in);
    ASSERT_TRUE(masks_match_ids(again)) << "iteration " << iter;
    std::ostringstream z;
    save_trace(again, z);
    ASSERT_EQ(z.str(), y.str()) << "iteration " << iter;
  }
  // Both outcomes must be exercised for the property to say anything.
  EXPECT_GT(loaded_mutants, 60);
  EXPECT_LT(loaded_mutants, 540);
}

}  // namespace
}  // namespace vifi::trace
