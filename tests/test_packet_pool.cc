// Tests for the slab-allocated packet pool behind PacketFactory /
// PacketRef: id uniqueness across slot reuse, reuse-after-free protection
// via generations, refcount lifetime, slab address stability, and payload
// hygiene. The behavioural guarantee that the pooled allocator changes
// nothing observable (byte-identical sweep output vs. the shared_ptr era,
// for any thread count) is enforced by the runtime determinism tests and
// tools/samebytes.py.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "net/packet.h"

namespace vifi::net {
namespace {

using sim::NodeId;

PacketRef make(PacketFactory& f, int bytes = 100) {
  return f.make(Direction::Upstream, NodeId(1), NodeId(2), bytes,
                Time::zero());
}

TEST(PacketPool, IdsStayUniqueAcrossPooledReuse) {
  PacketFactory factory;
  std::set<std::uint64_t> ids;
  // Churn far more packets than live slots so slots are recycled heavily.
  for (int round = 0; round < 100; ++round) {
    std::vector<PacketRef> batch;
    for (int i = 0; i < 50; ++i) {
      batch.push_back(make(factory));
      EXPECT_TRUE(ids.insert(batch.back()->id).second)
          << "duplicate id from a recycled slot";
    }
  }
  EXPECT_EQ(ids.size(), 5000u);
  EXPECT_EQ(factory.packets_created(), 5000u);
  // Reuse actually happened: the high-water mark is one batch, not 5000.
  EXPECT_LE(factory.pool().capacity(), 50u);
  EXPECT_EQ(factory.pool().live(), 0u);
}

TEST(PacketPool, RefcountKeepsPacketAlive) {
  PacketFactory factory;
  PacketRef a = make(factory, 123);
  PacketRef b = a;        // copy bumps the refcount
  PacketRef c = std::move(a);
  EXPECT_EQ(a, nullptr);  // moved-from is empty
  EXPECT_EQ(factory.pool().live(), 1u);
  EXPECT_EQ(b->bytes, 123);
  EXPECT_EQ(b, c);  // identity: same pooled packet
  b = nullptr;
  EXPECT_EQ(factory.pool().live(), 1u);  // c still holds it
  EXPECT_EQ(c->bytes, 123);
  c = nullptr;
  EXPECT_EQ(factory.pool().live(), 0u);
}

TEST(PacketPool, ViewDetectsReuseAfterFree) {
  PacketFactory factory;
  PacketRef p = make(factory);
  const std::uint64_t first_id = p->id;
  PacketView view(p);
  ASSERT_TRUE(view.alive());
  EXPECT_EQ(view.try_get()->id, first_id);

  p = nullptr;  // slot freed; generation bumped
  EXPECT_FALSE(view.alive());
  EXPECT_EQ(view.try_get(), nullptr);

  // The freed slot is recycled for the next packet; the stale view must
  // not resurrect or observe the new occupant.
  PacketRef q = make(factory);
  EXPECT_LE(factory.pool().capacity(), 1u);  // same slot reused
  EXPECT_NE(q->id, first_id);
  EXPECT_FALSE(view.alive());
  EXPECT_EQ(view.try_get(), nullptr);
  PacketView fresh(q);
  EXPECT_TRUE(fresh.alive());
}

TEST(PacketPool, SlabAddressesAreStableUnderGrowth) {
  PacketFactory factory;
  std::vector<PacketRef> live;
  live.push_back(make(factory, 7));
  const Packet* first = live.front().get();
  // Grow well past several slab boundaries while the first packet is live.
  for (int i = 0; i < 5000; ++i) live.push_back(make(factory));
  EXPECT_GE(factory.pool().capacity(), 5001u);
  EXPECT_EQ(live.front().get(), first) << "slab growth moved a live packet";
  EXPECT_EQ(first->bytes, 7);
}

TEST(PacketPool, HandlesKeepSlabsAliveAfterFactoryDies) {
  auto factory = std::make_unique<PacketFactory>();
  PacketRef p = factory->make(Direction::Downstream, NodeId(3), NodeId(4),
                              77, Time::zero());
  factory.reset();  // pool object gone; slabs pinned by the handle
  EXPECT_EQ(p->bytes, 77);
  EXPECT_EQ(p->src, NodeId(3));
  p = nullptr;  // last handle releases the core
}

TEST(PacketPool, ViewOutlivesFactoryAndAllRefs) {
  // A view pins the pool's slab memory (not any packet): observing after
  // the factory and every owning ref are gone must answer "not alive"
  // rather than touch freed memory.
  PacketView view;
  {
    PacketFactory factory;
    PacketRef p = make(factory);
    view = PacketView(p);
    ASSERT_TRUE(view.alive());
  }  // ref released, then factory destroyed
  EXPECT_FALSE(view.alive());
  EXPECT_EQ(view.try_get(), nullptr);
  PacketView copy = view;  // copies of stale views are equally inert
  EXPECT_EQ(copy.try_get(), nullptr);
}

TEST(PacketPool, RecycledSlotCarriesNoStalePayload) {
  PacketFactory factory;
  TcpSegmentData seg;
  seg.kind = TcpSegmentData::Kind::Data;
  seg.seq = 4242;
  seg.len = 1200;
  PacketRef p = factory.make(Direction::Upstream, NodeId(1), NodeId(2), 1200,
                             Time::zero(), 0, 0, seg);
  ASSERT_NE(std::get_if<TcpSegmentData>(&p->app_data), nullptr);
  p = nullptr;

  // Reuses the same slot; a default make() must see an empty payload.
  PacketRef q = make(factory);
  EXPECT_LE(factory.pool().capacity(), 1u);
  EXPECT_TRUE(std::holds_alternative<std::monostate>(q->app_data));
}

TEST(PacketPool, NullHandleSemantics) {
  PacketRef null;
  EXPECT_FALSE(static_cast<bool>(null));
  EXPECT_EQ(null, nullptr);
  EXPECT_EQ(null.get(), nullptr);
  PacketFactory factory;
  PacketRef p = make(factory);
  EXPECT_NE(p, nullptr);
  EXPECT_NE(p, null);
  p = PacketRef{};
  EXPECT_EQ(p, nullptr);
  EXPECT_EQ(factory.pool().live(), 0u);
}

TEST(PacketPool, SelfAssignmentIsSafe) {
  PacketFactory factory;
  PacketRef p = make(factory, 55);
  PacketRef& alias = p;
  p = alias;  // copy self-assignment
  EXPECT_EQ(p->bytes, 55);
  EXPECT_EQ(factory.pool().live(), 1u);
  p = std::move(alias);  // move self-assignment
  EXPECT_EQ(p->bytes, 55);
  EXPECT_EQ(factory.pool().live(), 1u);
}

}  // namespace
}  // namespace vifi::net
