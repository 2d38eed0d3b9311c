// Unit tests for the MAC layer: frames, medium physics (loss sampling,
// airtime, collisions, carrier sense), radio queueing, and beaconing.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "channel/loss_model.h"
#include "mac/beaconing.h"
#include "mac/frame.h"
#include "mac/medium.h"
#include "mac/radio.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "util/contracts.h"

namespace vifi::mac {
namespace {

using sim::NodeId;

/// A fully controllable loss model for MAC tests.
class FakeLoss final : public channel::LossModel {
 public:
  void set(NodeId a, NodeId b, double p) {
    probs_[{a, b}] = p;
    probs_[{b, a}] = p;
  }
  bool sample_delivery(NodeId tx, NodeId rx, Time) override {
    // Deterministic: delivery iff probability >= 0.5.
    return prob(tx, rx) >= 0.5;
  }
  double reception_prob(NodeId tx, NodeId rx, Time) const override {
    return prob(tx, rx);
  }

 private:
  double prob(NodeId a, NodeId b) const {
    const auto it = probs_.find({a, b});
    return it == probs_.end() ? 0.0 : it->second;
  }
  std::map<sim::LinkKey, double> probs_;
};

/// Collects received frames.
class Collector final : public FrameSink {
 public:
  void on_frame(const Frame& f) override { frames.push_back(f); }
  std::vector<Frame> frames;
};

Frame data_frame(net::PacketFactory& factory, sim::Simulator& sim, int bytes) {
  Frame f;
  f.type = FrameType::Data;
  f.packet = factory.make(net::Direction::Upstream, NodeId(0), NodeId(1),
                          bytes, sim.now());
  f.data.packet_id = f.packet->id;
  f.data.origin = NodeId(0);
  f.data.hop_dst = NodeId(1);
  return f;
}

TEST(Frame, OnAirSizes) {
  Frame beacon;
  beacon.type = FrameType::Beacon;
  beacon.beacon.auxiliaries = {NodeId(1), NodeId(2)};
  beacon.beacon.prob_reports = {{NodeId(1), NodeId(2), 0.5}};
  EXPECT_EQ(beacon.bytes_on_air(), 16 + 8 + 6);

  Frame ack;
  ack.type = FrameType::Ack;
  EXPECT_EQ(ack.bytes_on_air(), 14);
}

TEST(Frame, DataSizeIncludesHeaderAndPayload) {
  sim::Simulator sim;
  net::PacketFactory factory;
  Frame f = data_frame(factory, sim, 500);
  EXPECT_EQ(f.bytes_on_air(), 24 + 500);
}

TEST(Frame, DataWithoutPacketThrows) {
  Frame f;
  f.type = FrameType::Data;
  EXPECT_THROW(f.bytes_on_air(), vifi::ContractViolation);
}

TEST(Medium, AirtimeAt1Mbps) {
  sim::Simulator sim;
  FakeLoss loss;
  Medium medium(sim, loss, {});
  // (500 + 24 overhead) bytes at 1 Mbps = 4.192 ms.
  EXPECT_EQ(medium.airtime(500), Time::micros(4192));
}

TEST(Medium, DeliversToGoodLinkOnly) {
  sim::Simulator sim;
  FakeLoss loss;
  Medium medium(sim, loss, {});
  Collector a, b, c;
  medium.attach(NodeId(0), &a);
  medium.attach(NodeId(1), &b);
  medium.attach(NodeId(2), &c);
  loss.set(NodeId(0), NodeId(1), 0.9);
  loss.set(NodeId(0), NodeId(2), 0.1);

  net::PacketFactory factory;
  Frame f = data_frame(factory, sim, 100);
  f.tx = NodeId(0);
  medium.transmit(f);
  sim.run();
  EXPECT_EQ(b.frames.size(), 1u);
  EXPECT_TRUE(c.frames.empty());
  EXPECT_TRUE(a.frames.empty());  // no self-reception
  EXPECT_EQ(medium.deliveries(), 1u);
}

TEST(Medium, DeliveryHappensAtEndOfFrame) {
  sim::Simulator sim;
  FakeLoss loss;
  Medium medium(sim, loss, {});
  Collector a, b;
  medium.attach(NodeId(0), &a);
  medium.attach(NodeId(1), &b);
  loss.set(NodeId(0), NodeId(1), 1.0);
  net::PacketFactory factory;
  Frame f = data_frame(factory, sim, 100);
  f.tx = NodeId(0);
  const Time hold = medium.transmit(f);
  EXPECT_EQ(hold, medium.airtime(f.bytes_on_air()));
  sim.run_until(hold - Time::micros(1));
  EXPECT_TRUE(b.frames.empty());
  sim.run_until(hold);
  EXPECT_EQ(b.frames.size(), 1u);
}

// Pins the attach() contract: a transmission samples its receiver set once
// at start-of-frame, so a node attached mid-flight joins *subsequent*
// transmissions only — no decode attempt, no delivery, and an idle channel
// for frames already in the air.
TEST(Medium, AttachDuringFlightJoinsSubsequentTransmissionsOnly) {
  sim::Simulator sim;
  FakeLoss loss;
  Medium medium(sim, loss, {});
  Collector a, b, c;
  medium.attach(NodeId(0), &a);
  medium.attach(NodeId(1), &b);
  loss.set(NodeId(0), NodeId(1), 1.0);
  loss.set(NodeId(0), NodeId(2), 1.0);  // perfect link, but attached late

  net::PacketFactory factory;
  Frame f = data_frame(factory, sim, 100);
  f.tx = NodeId(0);
  const Time hold = medium.transmit(f);
  sim.run_until(Time::micros(100));  // mid-flight
  medium.attach(NodeId(2), &c);
  // The in-flight frame is audible at the old receiver but invisible to
  // the newcomer, including for carrier sense.
  EXPECT_TRUE(medium.busy_for(NodeId(1), sim.now()));
  EXPECT_FALSE(medium.busy_for(NodeId(2), sim.now()));
  EXPECT_EQ(medium.busy_until(NodeId(2), sim.now()), sim.now());
  sim.run();
  EXPECT_EQ(b.frames.size(), 1u);
  EXPECT_TRUE(c.frames.empty());
  ASSERT_GE(sim.now(), hold);

  // The next transmission includes the newcomer.
  Frame g = data_frame(factory, sim, 100);
  g.tx = NodeId(0);
  medium.transmit(g);
  sim.run();
  EXPECT_EQ(b.frames.size(), 2u);
  EXPECT_EQ(c.frames.size(), 1u);

  // Conservation stays exact: the newcomer's ledger row starts at zero and
  // only counts the post-attach transmission (tx1 sampled n1; tx2 sampled
  // n1 and n2).
  const MediumStats s = medium.snapshot();
  EXPECT_EQ(s.decode_attempts, 3u);
  EXPECT_EQ(s.decode_attempts, s.deliveries + s.collisions + s.channel_losses);
  EXPECT_EQ(s.nodes.at(NodeId(2)).decode_attempts, 1u);
  EXPECT_EQ(s.nodes.at(NodeId(2)).frames_received, 1u);
}

TEST(Medium, OverlappingTransmissionsCollideAtCommonReceiver) {
  sim::Simulator sim;
  FakeLoss loss;
  Medium medium(sim, loss, {});
  Collector a, b, r;
  medium.attach(NodeId(0), &a);
  medium.attach(NodeId(1), &b);
  medium.attach(NodeId(2), &r);
  loss.set(NodeId(0), NodeId(2), 1.0);
  loss.set(NodeId(1), NodeId(2), 1.0);
  // The two transmitters cannot hear each other (hidden terminals).
  loss.set(NodeId(0), NodeId(1), 0.0);

  net::PacketFactory factory;
  Frame f0 = data_frame(factory, sim, 200);
  f0.tx = NodeId(0);
  Frame f1 = data_frame(factory, sim, 200);
  f1.tx = NodeId(1);
  medium.transmit(f0);
  medium.transmit(f1);  // same instant: overlap at receiver 2
  sim.run();
  EXPECT_TRUE(r.frames.empty());
  EXPECT_EQ(medium.collisions(), 2u);
}

TEST(Medium, SubThresholdOverlapDoesNotCollide) {
  // Only transmissions audible at the receiver (reception probability at
  // or above the threshold) destroy its decodes.
  sim::Simulator sim;
  FakeLoss loss;
  Medium medium(sim, loss, {});
  Collector a, b, r;
  medium.attach(NodeId(0), &a);
  medium.attach(NodeId(1), &b);
  medium.attach(NodeId(2), &r);
  loss.set(NodeId(0), NodeId(2), 1.0);
  loss.set(NodeId(1), NodeId(2), 0.04);  // below the 0.05 threshold
  net::PacketFactory factory;
  Frame f0 = data_frame(factory, sim, 200);
  f0.tx = NodeId(0);
  Frame f1 = data_frame(factory, sim, 200);
  f1.tx = NodeId(1);
  medium.transmit(f0);
  medium.transmit(f1);
  sim.run();
  ASSERT_EQ(r.frames.size(), 1u);
  EXPECT_EQ(r.frames[0].tx, NodeId(0));
  EXPECT_EQ(medium.collisions(), 0u);
}

TEST(Medium, TransmittingNodeLosesOverlappingDecodes) {
  // Half duplex: a node that starts sending while a frame for it is on the
  // air loses that frame, even though nothing else is audible there — and
  // the first sender, still on the air, loses the reply the same way.
  sim::Simulator sim;
  FakeLoss loss;
  Medium medium(sim, loss, {});
  Collector a, b, c;
  medium.attach(NodeId(0), &a);
  medium.attach(NodeId(1), &b);
  medium.attach(NodeId(2), &c);
  loss.set(NodeId(0), NodeId(1), 1.0);
  loss.set(NodeId(1), NodeId(2), 1.0);
  loss.set(NodeId(0), NodeId(2), 0.0);
  net::PacketFactory factory;
  Frame f0 = data_frame(factory, sim, 500);
  f0.tx = NodeId(0);
  medium.transmit(f0);
  sim.run_until(Time::millis(1.0));
  EXPECT_TRUE(medium.busy_for(NodeId(1), sim.now()));
  Frame f1 = data_frame(factory, sim, 100);
  f1.tx = NodeId(1);
  medium.transmit(f1);  // node 1 ignores carrier sense
  sim.run();
  EXPECT_TRUE(a.frames.empty());
  EXPECT_TRUE(b.frames.empty());
  ASSERT_EQ(c.frames.size(), 1u);
  EXPECT_EQ(medium.collisions(), 2u);
  const MediumStats s = medium.snapshot();
  EXPECT_EQ(s.node(NodeId(0)).collisions_seen, 1u);
  EXPECT_EQ(s.node(NodeId(1)).collisions_seen, 1u);
}

TEST(Medium, OversizeFramesAreRejected) {
  // A frame longer than the bound would outlive the prune window and miss
  // the collisions of records pruned before it finishes; the medium
  // rejects it before anything is on the air. A frame at the bound is fine.
  sim::Simulator sim;
  FakeLoss loss;
  Medium medium(sim, loss, {});
  Collector a, r;
  medium.attach(NodeId(0), &a);
  medium.attach(NodeId(2), &r);
  loss.set(NodeId(0), NodeId(2), 1.0);
  net::PacketFactory factory;
  Frame over = data_frame(factory, sim, 4000);  // ~32 ms on the air
  over.tx = NodeId(0);
  EXPECT_THROW(medium.transmit(over), vifi::ContractViolation);
  EXPECT_EQ(medium.transmissions(), 0u);
  Frame at_bound = data_frame(factory, sim, Medium::kMaxFrameBytes - 24);
  ASSERT_EQ(at_bound.bytes_on_air(), Medium::kMaxFrameBytes);
  at_bound.tx = NodeId(0);
  EXPECT_EQ(medium.transmit(at_bound), medium.airtime(Medium::kMaxFrameBytes));
  sim.run();
  EXPECT_EQ(r.frames.size(), 1u);
}

TEST(Medium, LongestFrameCollidesWithRecordsAPruneWouldDrop) {
  // The prune window covers the longest frame: a transmit just before it
  // ends prunes nothing it overlaps, so an overlapping short frame, long
  // finished, still destroys its decode (and collides itself).
  sim::Simulator sim;
  FakeLoss loss;
  Medium medium(sim, loss, {});
  Collector a, b, r, d;
  medium.attach(NodeId(0), &a);
  medium.attach(NodeId(1), &b);
  medium.attach(NodeId(2), &r);
  medium.attach(NodeId(3), &d);
  loss.set(NodeId(0), NodeId(2), 1.0);
  loss.set(NodeId(1), NodeId(2), 1.0);
  net::PacketFactory factory;
  Frame long_frame = data_frame(factory, sim, Medium::kMaxFrameBytes - 24);
  long_frame.tx = NodeId(0);
  Frame short_frame = data_frame(factory, sim, 200);  // ~1.8 ms
  short_frame.tx = NodeId(1);
  const Time hold = medium.transmit(long_frame);
  medium.transmit(short_frame);
  sim.run_until(hold - Time::micros(1));
  Frame probe = data_frame(factory, sim, 10);  // its transmit() prunes
  probe.tx = NodeId(3);
  medium.transmit(probe);
  sim.run();
  EXPECT_TRUE(r.frames.empty());
  EXPECT_EQ(medium.collisions(), 2u);
}

TEST(Medium, NonOverlappingTransmissionsBothDeliver) {
  sim::Simulator sim;
  FakeLoss loss;
  Medium medium(sim, loss, {});
  Collector a, b, r;
  medium.attach(NodeId(0), &a);
  medium.attach(NodeId(1), &b);
  medium.attach(NodeId(2), &r);
  loss.set(NodeId(0), NodeId(2), 1.0);
  loss.set(NodeId(1), NodeId(2), 1.0);
  loss.set(NodeId(0), NodeId(1), 0.0);

  net::PacketFactory factory;
  Frame f0 = data_frame(factory, sim, 200);
  f0.tx = NodeId(0);
  const Time hold = medium.transmit(f0);
  sim.run_until(hold + Time::micros(10));
  Frame f1 = data_frame(factory, sim, 200);
  f1.tx = NodeId(1);
  medium.transmit(f1);
  sim.run();
  EXPECT_EQ(r.frames.size(), 2u);
}

TEST(Medium, CollisionsCanBeDisabled) {
  sim::Simulator sim;
  FakeLoss loss;
  MediumParams params;
  params.model_collisions = false;
  Medium medium(sim, loss, params);
  Collector a, b, r;
  medium.attach(NodeId(0), &a);
  medium.attach(NodeId(1), &b);
  medium.attach(NodeId(2), &r);
  loss.set(NodeId(0), NodeId(2), 1.0);
  loss.set(NodeId(1), NodeId(2), 1.0);
  net::PacketFactory factory;
  Frame f0 = data_frame(factory, sim, 200);
  f0.tx = NodeId(0);
  Frame f1 = data_frame(factory, sim, 200);
  f1.tx = NodeId(1);
  medium.transmit(f0);
  medium.transmit(f1);
  sim.run();
  EXPECT_EQ(r.frames.size(), 2u);
}

TEST(Medium, BusyForAudibleListeners) {
  sim::Simulator sim;
  FakeLoss loss;
  Medium medium(sim, loss, {});
  Collector a, b, c;
  medium.attach(NodeId(0), &a);
  medium.attach(NodeId(1), &b);
  medium.attach(NodeId(2), &c);
  loss.set(NodeId(0), NodeId(1), 0.9);
  loss.set(NodeId(0), NodeId(2), 0.0);

  net::PacketFactory factory;
  Frame f = data_frame(factory, sim, 500);
  f.tx = NodeId(0);
  medium.transmit(f);
  EXPECT_TRUE(medium.busy_for(NodeId(1), sim.now()));
  EXPECT_FALSE(medium.busy_for(NodeId(2), sim.now()));
  // The transmitter itself is busy.
  EXPECT_TRUE(medium.busy_for(NodeId(0), sim.now()));
  sim.run();
  EXPECT_FALSE(medium.busy_for(NodeId(1), sim.now()));
}

TEST(Medium, LongFinishedTransmissionNeverReportsBusy) {
  sim::Simulator sim;
  FakeLoss loss;
  Medium medium(sim, loss, {});
  Collector a, b;
  medium.attach(NodeId(0), &a);
  medium.attach(NodeId(1), &b);
  loss.set(NodeId(0), NodeId(1), 1.0);
  net::PacketFactory factory;
  Frame f = data_frame(factory, sim, 500);
  f.tx = NodeId(0);
  medium.transmit(f);
  sim.run();
  ASSERT_GE(medium.active_records(), 1u);
  // No transmit() happens again, so nothing else ever prunes: the busy
  // query itself must not depend on stale records. Advance the clock well
  // past the lazy-prune keep window and probe.
  sim.run_until(sim.now() + Time::seconds(30.0));
  const Time later = sim.now();
  EXPECT_FALSE(medium.busy_for(NodeId(1), later));
  EXPECT_EQ(medium.busy_until(NodeId(1), later), later);
  EXPECT_FALSE(medium.busy_for(NodeId(0), later));
  // And the query itself evicted the long-finished record.
  EXPECT_EQ(medium.active_records(), 0u);
}

TEST(Medium, BusyQueryBeforeThePruneHorizonIsAContractViolation) {
  sim::Simulator sim;
  FakeLoss loss;
  Medium medium(sim, loss, {});
  Collector a, b;
  medium.attach(NodeId(0), &a);
  medium.attach(NodeId(1), &b);
  loss.set(NodeId(0), NodeId(1), 1.0);
  net::PacketFactory factory;
  Frame f = data_frame(factory, sim, 500);
  f.tx = NodeId(0);
  const Time sent = sim.now();
  medium.transmit(f);
  sim.run_until(sim.now() + Time::seconds(30.0));
  // Querying now prunes the transmission, so the instant it was sent
  // lies before the prune horizon.
  EXPECT_EQ(medium.busy_until(NodeId(1), sim.now()), sim.now());
  EXPECT_THROW(medium.busy_until(NodeId(1), sent), vifi::ContractViolation);
  EXPECT_THROW(medium.busy_for(NodeId(0), sent), vifi::ContractViolation);
  // The horizon itself is still answerable.
  const Time horizon = sim.now() - medium.airtime(Medium::kMaxFrameBytes);
  EXPECT_EQ(medium.busy_until(NodeId(1), horizon), horizon);
}

TEST(Medium, FutureBusyQueryDoesNotEvictInFlightRecords) {
  sim::Simulator sim;
  FakeLoss loss;
  Medium medium(sim, loss, {});
  Collector a, b;
  medium.attach(NodeId(0), &a);
  medium.attach(NodeId(1), &b);
  loss.set(NodeId(0), NodeId(1), 1.0);
  net::PacketFactory factory;
  Frame f = data_frame(factory, sim, 500);
  f.tx = NodeId(0);
  medium.transmit(f);
  // Asking about an instant far past the frame's end while it is still in
  // flight must not prune the record out from under its finish() event.
  EXPECT_FALSE(medium.busy_for(NodeId(1), sim.now() + Time::seconds(30.0)));
  EXPECT_EQ(medium.active_records(), 1u);
  sim.run();  // finish() still finds its record and delivers
  EXPECT_EQ(b.frames.size(), 1u);
}

TEST(Medium, LedgerTracksPerNodeAirtimeAndOutcomes) {
  sim::Simulator sim;
  FakeLoss loss;
  Medium medium(sim, loss, {});
  Collector a, b, c;
  medium.attach(NodeId(0), &a);
  medium.attach(NodeId(1), &b);
  medium.attach(NodeId(2), &c);
  loss.set(NodeId(0), NodeId(1), 0.9);  // decodes
  loss.set(NodeId(0), NodeId(2), 0.1);  // channel loss

  net::PacketFactory factory;
  Frame f = data_frame(factory, sim, 500);
  f.tx = NodeId(0);
  const Time held = medium.transmit(f);
  sim.run();

  const MediumStats s = medium.snapshot();
  EXPECT_EQ(s.busy_airtime, held);
  EXPECT_EQ(s.node(NodeId(0)).frames_tx, 1u);
  EXPECT_EQ(s.node(NodeId(0)).tx_airtime, held);
  EXPECT_EQ(s.node(NodeId(0)).frames_delivered, 1u);
  EXPECT_EQ(s.node(NodeId(0)).decode_attempts, 0u);  // nobody else sent
  EXPECT_EQ(s.node(NodeId(1)).frames_received, 1u);
  EXPECT_EQ(s.node(NodeId(1)).rx_airtime, held);
  EXPECT_EQ(s.node(NodeId(1)).decode_attempts, 1u);
  EXPECT_EQ(s.node(NodeId(2)).channel_losses, 1u);
  EXPECT_EQ(s.node(NodeId(2)).frames_received, 0u);
  EXPECT_EQ(s.decode_attempts, 2u);
  EXPECT_EQ(s.channel_losses, 1u);
  EXPECT_EQ(s.deliveries, 1u);
  // Never-attached nodes read as a zero row.
  EXPECT_EQ(s.node(NodeId(9)).frames_tx, 0u);
}

TEST(Medium, LedgerChargesCollidedAirtimeToTheReceiver) {
  sim::Simulator sim;
  FakeLoss loss;
  Medium medium(sim, loss, {});
  Collector a, b, r;
  medium.attach(NodeId(0), &a);
  medium.attach(NodeId(1), &b);
  medium.attach(NodeId(2), &r);
  loss.set(NodeId(0), NodeId(2), 1.0);
  loss.set(NodeId(1), NodeId(2), 1.0);
  loss.set(NodeId(0), NodeId(1), 0.0);  // hidden terminals

  net::PacketFactory factory;
  Frame f0 = data_frame(factory, sim, 200);
  f0.tx = NodeId(0);
  Frame f1 = data_frame(factory, sim, 200);
  f1.tx = NodeId(1);
  const Time held = medium.transmit(f0);
  medium.transmit(f1);
  sim.run();

  const MediumStats s = medium.snapshot();
  EXPECT_EQ(s.node(NodeId(2)).collisions_seen, 2u);
  EXPECT_EQ(s.node(NodeId(2)).collided_airtime, held * 2.0);
  EXPECT_EQ(s.node(NodeId(2)).frames_received, 0u);
  EXPECT_EQ(s.node(NodeId(0)).frames_collided, 1u);
  EXPECT_EQ(s.node(NodeId(1)).frames_collided, 1u);
  EXPECT_EQ(s.collisions, 2u);
}

TEST(Medium, RolesSplitInfrastructureFromClientAirtime) {
  sim::Simulator sim;
  FakeLoss loss;
  Medium medium(sim, loss, {});
  Collector bs, veh;
  medium.attach(NodeId(0), &bs);
  medium.attach(NodeId(1), &veh);
  medium.set_role(NodeId(0), NodeRole::Infrastructure);
  medium.set_role(NodeId(1), NodeRole::Vehicle);
  loss.set(NodeId(0), NodeId(1), 1.0);

  net::PacketFactory factory;
  Frame down = data_frame(factory, sim, 400);
  down.tx = NodeId(0);
  const Time down_held = medium.transmit(down);
  sim.run();
  Frame up = data_frame(factory, sim, 100);
  up.tx = NodeId(1);
  const Time up_held = medium.transmit(up);
  sim.run();

  const MediumStats s = medium.snapshot();
  EXPECT_EQ(s.tx_airtime(NodeRole::Infrastructure), down_held);
  EXPECT_EQ(s.tx_airtime(NodeRole::Vehicle), up_held);
  EXPECT_EQ(s.tx_airtime(NodeRole::Unknown), Time::zero());
  EXPECT_EQ(s.nodes_with_role(NodeRole::Vehicle),
            std::vector<NodeId>{NodeId(1)});
}

TEST(Medium, JainIndexOverSubsets) {
  // Hand-built allocations through the public helper.
  EXPECT_DOUBLE_EQ(jain_index({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_index({0.0, 0.0}), 1.0);  // equal starvation
  EXPECT_DOUBLE_EQ(jain_index({3.0, 3.0, 3.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_index({1.0, 0.0, 0.0, 0.0}), 0.25);  // one-hot: 1/n

  sim::Simulator sim;
  FakeLoss loss;
  Medium medium(sim, loss, {});
  Collector a, b, c;
  medium.attach(NodeId(0), &a);
  medium.attach(NodeId(1), &b);
  medium.attach(NodeId(2), &c);
  loss.set(NodeId(0), NodeId(1), 1.0);
  net::PacketFactory factory;
  for (int i = 0; i < 2; ++i) {
    Frame f = data_frame(factory, sim, 300);
    f.tx = NodeId(0);
    medium.transmit(f);
    sim.run();
  }
  const MediumStats s = medium.snapshot();
  // Only node 0 transmitted: Jain over {0,1,2} is 1/3; over {0} it is 1.
  EXPECT_DOUBLE_EQ(
      s.jain_tx_airtime({NodeId(0), NodeId(1), NodeId(2)}), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(s.jain_tx_airtime({NodeId(0)}), 1.0);
  // Only node 1 received: same shape on the rx side.
  EXPECT_DOUBLE_EQ(
      s.jain_frames_received({NodeId(1), NodeId(2)}), 0.5);
}

TEST(Radio, DeferralWaitIsChargedToTheLedger) {
  sim::Simulator sim;
  FakeLoss loss;
  Medium medium(sim, loss, {});
  Collector sink;
  medium.attach(NodeId(2), &sink);
  Radio r0(sim, medium, NodeId(0), Rng(21));
  Radio r1(sim, medium, NodeId(1), Rng(22));
  loss.set(NodeId(0), NodeId(1), 1.0);
  loss.set(NodeId(0), NodeId(2), 1.0);
  loss.set(NodeId(1), NodeId(2), 1.0);

  net::PacketFactory factory;
  Frame f0 = data_frame(factory, sim, 400);
  Frame f1 = data_frame(factory, sim, 400);
  r0.send(std::move(f0));
  r1.send(std::move(f1));  // channel busy: must defer, and the wait is
                           // charged to node 1's ledger row
  sim.run();
  const MediumStats s = medium.snapshot();
  EXPECT_GT(s.node(NodeId(1)).deferral_wait, Time::zero());
  EXPECT_EQ(s.node(NodeId(0)).deferral_wait, Time::zero());
}

TEST(Medium, TransmissionCounters) {
  sim::Simulator sim;
  FakeLoss loss;
  Medium medium(sim, loss, {});
  Collector a, b;
  medium.attach(NodeId(0), &a);
  medium.attach(NodeId(1), &b);
  net::PacketFactory factory;
  for (int i = 0; i < 3; ++i) {
    Frame f = data_frame(factory, sim, 50);
    f.tx = NodeId(0);
    medium.transmit(f);
    sim.run();
  }
  EXPECT_EQ(medium.transmissions(), 3u);
  EXPECT_EQ(medium.transmissions_from(NodeId(0)), 3u);
  EXPECT_EQ(medium.transmissions_from(NodeId(1)), 0u);
}

TEST(Radio, SendsQueuedFramesInOrder) {
  sim::Simulator sim;
  FakeLoss loss;
  Medium medium(sim, loss, {});
  Collector rx_sink;
  medium.attach(NodeId(1), &rx_sink);
  Radio radio(sim, medium, NodeId(0), Rng(1));
  loss.set(NodeId(0), NodeId(1), 1.0);

  net::PacketFactory factory;
  for (int i = 0; i < 3; ++i) {
    Frame f = data_frame(factory, sim, 100);
    radio.send(std::move(f));
  }
  sim.run();
  ASSERT_EQ(rx_sink.frames.size(), 3u);
  EXPECT_EQ(rx_sink.frames[0].data.packet_id, 1u);
  EXPECT_EQ(rx_sink.frames[2].data.packet_id, 3u);
  EXPECT_EQ(radio.frames_sent(), 3u);
}

TEST(Radio, DefersWhileChannelBusy) {
  sim::Simulator sim;
  FakeLoss loss;
  Medium medium(sim, loss, {});
  Collector sink;
  medium.attach(NodeId(2), &sink);
  Radio r0(sim, medium, NodeId(0), Rng(2));
  Radio r1(sim, medium, NodeId(1), Rng(3));
  // Everyone hears everyone: carrier sense should serialise them.
  loss.set(NodeId(0), NodeId(1), 1.0);
  loss.set(NodeId(0), NodeId(2), 1.0);
  loss.set(NodeId(1), NodeId(2), 1.0);

  net::PacketFactory factory;
  Frame f0 = data_frame(factory, sim, 400);
  Frame f1 = data_frame(factory, sim, 400);
  r0.send(std::move(f0));
  r1.send(std::move(f1));  // should defer, not collide
  sim.run();
  EXPECT_EQ(sink.frames.size(), 2u);
  EXPECT_EQ(medium.collisions(), 0u);
}

TEST(Radio, IdleCallbackFiresWhenQueueDrains) {
  sim::Simulator sim;
  FakeLoss loss;
  Medium medium(sim, loss, {});
  Collector sink;
  medium.attach(NodeId(1), &sink);
  Radio radio(sim, medium, NodeId(0), Rng(4));
  int idles = 0;
  radio.set_idle_callback([&] { ++idles; });
  net::PacketFactory factory;
  radio.send(data_frame(factory, sim, 100));
  EXPECT_FALSE(radio.idle());
  sim.run();
  EXPECT_TRUE(radio.idle());
  EXPECT_EQ(idles, 1);
}

TEST(Radio, ReceiverCallbackGetsFrames) {
  sim::Simulator sim;
  FakeLoss loss;
  Medium medium(sim, loss, {});
  Radio tx(sim, medium, NodeId(0), Rng(5));
  Radio rx(sim, medium, NodeId(1), Rng(6));
  loss.set(NodeId(0), NodeId(1), 1.0);
  int received = 0;
  rx.set_receiver([&](const Frame&) { ++received; });
  net::PacketFactory factory;
  tx.send(data_frame(factory, sim, 100));
  sim.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(rx.frames_received(), 1u);
}

TEST(Beaconing, EmitsAtConfiguredRate) {
  sim::Simulator sim;
  FakeLoss loss;
  Medium medium(sim, loss, {});
  Radio tx(sim, medium, NodeId(0), Rng(7));
  Radio rx(sim, medium, NodeId(1), Rng(8));
  loss.set(NodeId(0), NodeId(1), 1.0);
  int beacons = 0;
  rx.set_receiver([&](const Frame& f) {
    if (f.type == FrameType::Beacon) ++beacons;
  });
  Beaconing beaconing(sim, tx, Rng(9), Time::millis(100.0),
                      Time::millis(5.0));
  beaconing.start();
  sim.run_until(Time::seconds(10.0));
  beaconing.stop();
  // ~10/s with jitter.
  EXPECT_GE(beacons, 90);
  EXPECT_LE(beacons, 110);
}

TEST(Beaconing, PayloadProviderIsCalled) {
  sim::Simulator sim;
  FakeLoss loss;
  Medium medium(sim, loss, {});
  Radio tx(sim, medium, NodeId(0), Rng(10));
  Radio rx(sim, medium, NodeId(1), Rng(11));
  loss.set(NodeId(0), NodeId(1), 1.0);
  NodeId seen_anchor{};
  rx.set_receiver([&](const Frame& f) { seen_anchor = f.beacon.anchor; });
  Beaconing beaconing(sim, tx, Rng(12));
  beaconing.set_payload_provider([](BeaconPayload& p) { p.anchor = NodeId(7); });
  beaconing.start();
  sim.run_until(Time::seconds(0.5));
  EXPECT_EQ(seen_anchor, NodeId(7));
}

TEST(Beaconing, StopCeasesEmission) {
  sim::Simulator sim;
  FakeLoss loss;
  Medium medium(sim, loss, {});
  Radio tx(sim, medium, NodeId(0), Rng(13));
  Radio rx(sim, medium, NodeId(1), Rng(14));
  loss.set(NodeId(0), NodeId(1), 1.0);
  Beaconing beaconing(sim, tx, Rng(15));
  beaconing.start();
  sim.run_until(Time::seconds(1.0));
  beaconing.stop();
  const auto count = beaconing.beacons_sent();
  sim.run_until(Time::seconds(3.0));
  EXPECT_EQ(beaconing.beacons_sent(), count);
}

}  // namespace
}  // namespace vifi::mac
