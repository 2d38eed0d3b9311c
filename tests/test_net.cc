// Unit tests for packets and the wired backplane.

#include <gtest/gtest.h>

#include <vector>

#include "net/backplane.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "util/contracts.h"

namespace vifi::net {
namespace {

using sim::NodeId;

TEST(PacketFactory, AssignsUniqueSequentialIds) {
  PacketFactory f;
  const auto a = f.make(Direction::Upstream, NodeId(0), NodeId(1), 10,
                        Time::zero());
  const auto b = f.make(Direction::Downstream, NodeId(1), NodeId(0), 10,
                        Time::zero());
  EXPECT_EQ(a->id, 1u);
  EXPECT_EQ(b->id, 2u);
  EXPECT_EQ(f.packets_created(), 2u);
}

TEST(PacketFactory, PopulatesFields) {
  PacketFactory f;
  const auto p = f.make(Direction::Downstream, NodeId(3), NodeId(4), 123,
                        Time::seconds(1.0), 7, 99);
  EXPECT_EQ(p->dir, Direction::Downstream);
  EXPECT_EQ(p->src, NodeId(3));
  EXPECT_EQ(p->dst, NodeId(4));
  EXPECT_EQ(p->bytes, 123);
  EXPECT_EQ(p->created, Time::seconds(1.0));
  EXPECT_EQ(p->flow, 7);
  EXPECT_EQ(p->app_seq, 99u);
}

TEST(PacketFactory, RejectsInvalidInputs) {
  PacketFactory f;
  EXPECT_THROW(
      f.make(Direction::Upstream, NodeId{}, NodeId(1), 10, Time::zero()),
      vifi::ContractViolation);
  EXPECT_THROW(
      f.make(Direction::Upstream, NodeId(0), NodeId(1), -1, Time::zero()),
      vifi::ContractViolation);
}

class BackplaneTest : public ::testing::Test {
 protected:
  BackplaneTest() : plane_(sim_) {
    plane_.attach(NodeId(1), [this](const WireMessage& m) {
      received_.push_back(m);
      at_.push_back(sim_.now());
    });
  }

  WireMessage msg(NodeId from, NodeId to, int bytes = 100) {
    WireMessage m;
    m.kind = WireMessage::Kind::Data;
    m.from = from;
    m.to = to;
    m.bytes = bytes;
    m.packet = factory_.make(Direction::Downstream, from, to, bytes,
                             sim_.now());
    return m;
  }

  sim::Simulator sim_;
  Backplane plane_;
  PacketFactory factory_;
  std::vector<WireMessage> received_;
  std::vector<Time> at_;
};

// Every link is the thin-broadband model: 1500 B serialise in 8 ms at
// 1.5 Mbps, then 8 ms of latency.
TEST_F(BackplaneTest, DeliversAfterSerializationAndLatency) {
  plane_.send(msg(NodeId(0), NodeId(1), 1500));
  sim_.run();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(at_[0], Time::millis(16.0));
}

TEST_F(BackplaneTest, QueueingDelaysBackToBackMessages) {
  plane_.send(msg(NodeId(0), NodeId(1), 1500));
  plane_.send(msg(NodeId(0), NodeId(1), 1500));
  sim_.run();
  ASSERT_EQ(received_.size(), 2u);
  EXPECT_EQ(at_[0], Time::millis(16.0));
  EXPECT_EQ(at_[1], Time::millis(24.0));  // waited for the serialiser
}

TEST_F(BackplaneTest, IndependentLinksDoNotQueueOnEachOther) {
  plane_.send(msg(NodeId(0), NodeId(1), 1500));
  plane_.send(msg(NodeId(2), NodeId(1), 1500));
  sim_.run();
  ASSERT_EQ(received_.size(), 2u);
  EXPECT_EQ(at_[0], Time::millis(16.0));
  EXPECT_EQ(at_[1], Time::millis(16.0));
}

TEST_F(BackplaneTest, MessageToUnattachedNodeIsDropped) {
  plane_.send(msg(NodeId(0), NodeId(9)));
  sim_.run();
  EXPECT_TRUE(received_.empty());
  EXPECT_EQ(plane_.messages_sent(), 1u);
  EXPECT_EQ(plane_.messages_delivered(), 0u);
}

TEST_F(BackplaneTest, ByteCounterAccumulates) {
  plane_.send(msg(NodeId(0), NodeId(1), 100));
  plane_.send(msg(NodeId(0), NodeId(1), 150));
  EXPECT_EQ(plane_.bytes_sent(), 250u);
}

TEST_F(BackplaneTest, InvalidMessagesThrow) {
  WireMessage m;
  m.from = NodeId(0);
  m.to = NodeId{};
  m.bytes = 10;
  EXPECT_THROW(plane_.send(m), vifi::ContractViolation);
  m.to = NodeId(1);
  m.bytes = 0;
  EXPECT_THROW(plane_.send(m), vifi::ContractViolation);
}

}  // namespace
}  // namespace vifi::net
