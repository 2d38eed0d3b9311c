// Allocation ratchet for the live ViFi frame path. This binary replaces the
// global operator new with a counting one and runs a VanLAN V=16 ViFi trip
// with a CBR probe stream on every vehicle. After the 3 s protocol warm-up
// and a further 10 s of CBR, it counts every allocation the next 10 s of
// simulated time make and divides by the events executed meanwhile.
//
// Pinned measurements of this window (Release, gcc 12.2, libstdc++; an
// ASan+UBSan build counts the same 1,847):
//   - before the flat frame path: 117,542 allocations over 106,284 events,
//     1.106 per event (a fresh decoder list, gossip and auxiliary vectors,
//     list and hash nodes, deque blocks and a captured backplane message
//     on every frame, beacon and packet);
//   - with it: 1,847 over the same 106,284 events, 0.0174 per event: tables
//     still growing to their working size (gossip rows, id sets, senders of
//     vehicles coming into range) and the queue of one starved vehicle
//     radio, which keeps growing.
// The ceiling sits between the two, low enough that one allocation per
// beacon (about 0.025 per event here) or per frame fails it. Lower it when
// a change cuts more; never raise it to let an allocation back onto the
// frame path.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "apps/cbr.h"
#include "scenario/live.h"
#include "scenario/testbed.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace vifi {
namespace {

constexpr double kCeilingPerEvent = 0.03;

TEST(AllocationRatchet, SteadyStateFramePathStaysUnderTheCeiling) {
  const scenario::Testbed bed = scenario::make_vanlan(16);
  scenario::LiveTrip live(bed, core::SystemConfig{}, 20261019);
  sim::Simulator& sim = live.simulator();
  live.run_until(scenario::LiveTrip::warmup());
  std::vector<std::unique_ptr<apps::CbrWorkload>> cbrs;
  cbrs.reserve(live.transports().size());
  for (const auto& t : live.transports())
    cbrs.push_back(std::make_unique<apps::CbrWorkload>(sim, *t));
  const Time cbr_start = sim.now();
  for (auto& cbr : cbrs) cbr->start(cbr_start + Time::seconds(25.0));
  live.run_until(cbr_start + Time::seconds(10.0));

  const std::uint64_t events_before = sim.events_executed();
  g_allocations = 0;
  g_counting = true;
  live.run_until(cbr_start + Time::seconds(20.0));
  g_counting = false;
  const std::uint64_t events = sim.events_executed() - events_before;
  const std::uint64_t allocations = g_allocations;

  // The window must be busy for the ratio to mean anything.
  ASSERT_GT(events, 40000u);
  const double per_event =
      static_cast<double>(allocations) / static_cast<double>(events);
  RecordProperty("allocations", static_cast<int>(allocations));
  RecordProperty("events", static_cast<int>(events));
  EXPECT_LE(per_event, kCeilingPerEvent)
      << allocations << " allocations over " << events << " events";
}

}  // namespace
}  // namespace vifi
