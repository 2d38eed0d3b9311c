// Property tests for the medium's airtime ledger: randomized multi-node
// transmission schedules must conserve airtime and decode outcomes exactly.
// For every schedule, once the simulator drains:
//   - per-node tx airtime sums to the medium's total busy airtime, which in
//     turn equals the independently computed sum of frame airtimes;
//   - every receiver-side decode attempt ends as exactly one of delivery,
//     collision loss, or channel loss (per node and globally);
//   - the ledger's totals reconcile with the pre-existing global
//     transmissions()/collisions()/deliveries() counters.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "mobility/vec2.h"

#include "channel/loss_model.h"
#include "mac/airtime.h"
#include "mac/frame.h"
#include "mac/medium.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace vifi::mac {
namespace {

using sim::NodeId;

/// Loss model with random (but per-seed fixed) link probabilities and
/// stochastic per-frame delivery sampling.
class RandomLoss final : public channel::LossModel {
 public:
  RandomLoss(int nodes, Rng probs, Rng samples) : samples_(samples) {
    for (int a = 0; a < nodes; ++a)
      for (int b = 0; b < nodes; ++b)
        if (a != b) probs_[{NodeId(a), NodeId(b)}] = probs.uniform01();
  }

  bool sample_delivery(NodeId tx, NodeId rx, Time) override {
    return samples_.bernoulli(probs_.at({tx, rx}));
  }
  double reception_prob(NodeId tx, NodeId rx, Time) const override {
    return probs_.at({tx, rx});
  }

 private:
  std::map<sim::LinkKey, double> probs_;
  Rng samples_;
};

class NullSink final : public FrameSink {
 public:
  void on_frame(const Frame&) override {}
};

Frame data_frame(net::PacketFactory& factory, NodeId tx, int bytes) {
  Frame f;
  f.type = FrameType::Data;
  f.tx = tx;
  f.packet = factory.make(net::Direction::Upstream, tx, NodeId(0), bytes,
                          Time::zero());
  f.data.packet_id = f.packet->id;
  f.data.origin = tx;
  f.data.hop_dst = NodeId(0);
  return f;
}

// One random schedule per seed: 2-6 nodes, 1-12 transmissions at random
// offsets (gaps short enough that overlaps are common), random sizes and
// transmitters.
TEST(MediumProperties, RandomSchedulesConserveAirtimeAndDecodes) {
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    Rng rng(seed);
    sim::Simulator sim;
    const int nodes = static_cast<int>(rng.uniform_int(2, 6));
    RandomLoss loss(nodes, rng.fork("probs"), rng.fork("samples"));
    Medium medium(sim, loss, {});
    std::vector<NullSink> sinks(static_cast<std::size_t>(nodes));
    for (int n = 0; n < nodes; ++n)
      medium.attach(NodeId(n), &sinks[static_cast<std::size_t>(n)]);

    net::PacketFactory factory;
    const int transmissions = static_cast<int>(rng.uniform_int(1, 12));
    Time expected_airtime;
    Time at;
    for (int i = 0; i < transmissions; ++i) {
      const NodeId tx(static_cast<int>(rng.uniform_int(0, nodes - 1)));
      const int bytes = static_cast<int>(rng.uniform_int(0, 800));
      Frame f = data_frame(factory, tx, bytes);
      expected_airtime += medium.airtime(f.bytes_on_air());
      // Random gap: anywhere from simultaneous to comfortably past the
      // previous frame, so schedules mix heavy overlap with clean air.
      at += Time::micros(rng.uniform_int(0, 8000));
      sim.schedule_at(at, [&medium, f = std::move(f)]() mutable {
        medium.transmit(std::move(f));
      });
    }
    sim.run();

    const MediumStats s = medium.snapshot();
    SCOPED_TRACE("seed " + std::to_string(seed));

    // --- airtime conservation (exact integer-microsecond equality) ------
    EXPECT_EQ(s.busy_airtime, expected_airtime);
    Time ledger_tx_airtime;
    for (const auto& [id, row] : s.nodes) ledger_tx_airtime += row.tx_airtime;
    EXPECT_EQ(ledger_tx_airtime, s.busy_airtime);

    // --- decode attempts partition into the three outcomes --------------
    EXPECT_EQ(s.decode_attempts,
              s.deliveries + s.collisions + s.channel_losses);
    EXPECT_EQ(s.decode_attempts,
              s.transmissions * static_cast<std::uint64_t>(nodes - 1));
    for (const auto& [id, row] : s.nodes) {
      EXPECT_EQ(row.decode_attempts, row.frames_received +
                                         row.collisions_seen +
                                         row.channel_losses)
          << "node " << id.to_string();
      EXPECT_TRUE(row.frames_tx > 0 ||
                  (row.frames_delivered == 0 && row.frames_collided == 0))
          << "node " << id.to_string()
          << " has tx outcomes without transmissions";
    }

    // --- ledger totals reconcile with the global counters ---------------
    std::uint64_t tx = 0, delivered_tx = 0, collided_tx = 0, received = 0,
                  collisions_seen = 0, losses = 0, attempts = 0;
    Time rx_airtime, collided_airtime;
    for (const auto& [id, row] : s.nodes) {
      tx += row.frames_tx;
      delivered_tx += row.frames_delivered;
      collided_tx += row.frames_collided;
      received += row.frames_received;
      collisions_seen += row.collisions_seen;
      losses += row.channel_losses;
      attempts += row.decode_attempts;
      rx_airtime += row.rx_airtime;
      collided_airtime += row.collided_airtime;
      EXPECT_EQ(medium.transmissions_from(id), row.frames_tx);
    }
    EXPECT_EQ(tx, medium.transmissions());
    EXPECT_EQ(delivered_tx, medium.deliveries());
    EXPECT_EQ(received, medium.deliveries());
    EXPECT_EQ(collided_tx, medium.collisions());
    EXPECT_EQ(collisions_seen, medium.collisions());
    EXPECT_EQ(losses, medium.channel_losses());
    EXPECT_EQ(attempts, medium.decode_attempts());
    EXPECT_EQ(s.transmissions, medium.transmissions());

    // Received/destroyed airtime can only come from decoded frames, and a
    // decode's airtime equals its transmission's.
    EXPECT_LE(rx_airtime + collided_airtime,
              s.busy_airtime * static_cast<double>(nodes - 1));

    // --- fairness index stays in (0, 1] over any subset -----------------
    std::vector<NodeId> everyone;
    everyone.reserve(s.nodes.size());
    for (const auto& [id, row] : s.nodes) everyone.push_back(id);
    const double jain_tx = s.jain_tx_airtime(everyone);
    const double jain_rx = s.jain_frames_received(everyone);
    EXPECT_GT(jain_tx, 0.0);
    EXPECT_LE(jain_tx, 1.0 + 1e-12);
    EXPECT_GT(jain_rx, 0.0);
    EXPECT_LE(jain_rx, 1.0 + 1e-12);
  }
}

// Carrier sense over random schedules: after each transmit, and at later
// instants (some past the simulator clock), busy_until answers the latest
// end among the unpruned transmissions audible at the node, its own
// included, or the query instant if that is later. The oracle keeps its
// own log of every transmission and its own prune horizon: the latest
// instant the medium pruned at (transmit instants, and query instants
// clamped to the clock) less one max-frame airtime.
TEST(MediumProperties, BusyUntilIsTheLatestUnprunedAudibleEnd) {
  constexpr double kAudibility = 0.05;  // MediumParams' default
  struct Sent {
    NodeId tx;
    Time end;
  };
  std::uint64_t busy_answers = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    sim::Simulator sim;
    const int nodes = static_cast<int>(rng.uniform_int(2, 6));
    RandomLoss loss(nodes, rng.fork("probs"), rng.fork("samples"));
    Medium medium(sim, loss, {});
    std::vector<NullSink> sinks(static_cast<std::size_t>(nodes));
    for (int n = 0; n < nodes; ++n)
      medium.attach(NodeId(n), &sinks[static_cast<std::size_t>(n)]);
    const Time keep = medium.airtime(Medium::kMaxFrameBytes);

    std::vector<Sent> sent;
    Time horizon = Time::micros(std::numeric_limits<std::int64_t>::min());
    const auto check_all = [&](Time at) {
      horizon = std::max(horizon, std::min(at, sim.now()) - keep);
      for (int n = 0; n < nodes; ++n) {
        const NodeId node(n);
        Time want = at;
        for (const Sent& s : sent)
          if (s.end >= horizon &&
              (s.tx == node ||
               loss.reception_prob(s.tx, node, Time::zero()) >= kAudibility))
            want = std::max(want, s.end);
        busy_answers += want > at;
        ASSERT_EQ(medium.busy_until(node, at), want)
            << "node " << n << " at " << at.to_seconds() << " s";
      }
    };

    net::PacketFactory factory;
    const int transmissions = static_cast<int>(rng.uniform_int(1, 20));
    Time at;
    for (int i = 0; i < transmissions; ++i) {
      const NodeId tx(static_cast<int>(rng.uniform_int(0, nodes - 1)));
      Frame f = data_frame(factory, tx,
                           static_cast<int>(rng.uniform_int(0, 1500)));
      at += Time::micros(rng.uniform_int(0, 30000));
      sim.schedule_at(at, [&, tx, f = std::move(f)]() mutable {
        horizon = std::max(horizon, sim.now() - keep);
        const Time held = medium.transmit(std::move(f));
        sent.push_back({tx, sim.now() + held});
        check_all(sim.now());
      });
      // Probes between transmissions, some about an instant ahead of the
      // clock.
      const Time probe = at + Time::micros(rng.uniform_int(0, 20000));
      const Time ahead = rng.bernoulli(0.5)
                             ? Time::micros(rng.uniform_int(0, 20000))
                             : Time::zero();
      sim.schedule_at(probe, [&, ahead] { check_all(sim.now() + ahead); });
    }
    sim.run();
    check_all(sim.now());
    check_all(sim.now() + Time::seconds(1.0));
  }
  // The schedules must hold the channel often, not only leave it idle.
  EXPECT_GT(busy_answers, 1000u);
}

/// Loss model whose reception probability is a pure function of node
/// distance at the transmit instant (linear falloff, zero at 1 km), for
/// nodes in straight-line motion (static unless velocities are given), and
/// which logs every sample_delivery call — the oracle for checking that
/// culled receivers are exactly the provably sub-audibility ones.
class DistanceLoss final : public channel::LossModel {
 public:
  DistanceLoss(std::vector<mobility::Vec2> positions, Rng samples,
               std::vector<mobility::Vec2> velocities = {})
      : positions_(std::move(positions)),
        velocities_(std::move(velocities)),
        samples_(samples) {
    velocities_.resize(positions_.size());
  }

  mobility::Vec2 position(NodeId id, Time t) const {
    const auto i = static_cast<std::size_t>(id.value());
    const double s = t.to_seconds();
    return {positions_[i].x + velocities_[i].x * s,
            positions_[i].y + velocities_[i].y * s};
  }
  double prob(NodeId a, NodeId b, Time t) const {
    const mobility::Vec2 pa = position(a, t);
    const mobility::Vec2 pb = position(b, t);
    const double d = std::hypot(pa.x - pb.x, pa.y - pb.y);
    return std::max(0.0, 1.0 - d / 1000.0);
  }

  bool sample_delivery(NodeId tx, NodeId rx, Time now) override {
    samples_log_.emplace_back(tx, rx, now);
    return samples_.bernoulli(prob(tx, rx, now));
  }
  double reception_prob(NodeId tx, NodeId rx, Time now) const override {
    return prob(tx, rx, now);
  }

  const std::vector<std::tuple<NodeId, NodeId, Time>>& samples_log() const {
    return samples_log_;
  }

 private:
  std::vector<mobility::Vec2> positions_;
  std::vector<mobility::Vec2> velocities_;  ///< m/s
  Rng samples_;
  std::vector<std::tuple<NodeId, NodeId, Time>> samples_log_;
};

// The culled medium over random geometries: conservation invariants must
// hold exactly with a *subset* of receivers sampled, every skipped
// receiver must be provably below the audibility threshold at its
// transmit instant, and a re-run of the same schedule must reproduce the
// same counters and the same sample sequence (determinism — culling only
// removes draws, never reorders the survivors).
TEST(MediumProperties, CulledSchedulesConserveAndOnlySkipSubAudibility) {
  constexpr double kAudibility = 0.05;
  // reception_prob(d) = 1 - d/1000 >= 0.05  <=>  d <= 950.
  constexpr double kMaxAudible = 950.0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const int nodes = static_cast<int>(rng.uniform_int(6, 14));
    // Positions spread well past audibility range, so schedules mix
    // audible neighborhoods with provably-deaf pairs.
    std::vector<mobility::Vec2> positions;
    positions.reserve(static_cast<std::size_t>(nodes));
    for (int n = 0; n < nodes; ++n)
      positions.push_back({rng.uniform01() * 3000.0,
                           rng.uniform01() * 3000.0});
    const int transmissions = static_cast<int>(rng.uniform_int(1, 12));
    std::vector<std::pair<NodeId, int>> schedule;  // (tx, bytes)
    std::vector<Time> at;
    Time t;
    for (int i = 0; i < transmissions; ++i) {
      schedule.emplace_back(
          NodeId(static_cast<int>(rng.uniform_int(0, nodes - 1))),
          static_cast<int>(rng.uniform_int(0, 800)));
      // Gaps of at least 1 us keep transmit instants distinct, so the
      // sample log groups unambiguously per transmission.
      t += Time::micros(rng.uniform_int(1, 8000));
      at.push_back(t);
    }

    const std::uint64_t sample_seed = rng.fork("samples").next_u64();
    auto run_once = [&](DistanceLoss& loss) {
      sim::Simulator sim;
      MediumParams params;
      SpatialCulling cull;
      cull.position = [&positions](NodeId id, Time) {
        return positions[static_cast<std::size_t>(id.value())];
      };
      cull.max_audible_m = kMaxAudible;
      cull.margin_m = 0.0;  // static geometry
      params.culling = std::move(cull);
      Medium medium(sim, loss, std::move(params));
      std::vector<NullSink> sinks(static_cast<std::size_t>(nodes));
      for (int n = 0; n < nodes; ++n)
        medium.attach(NodeId(n), &sinks[static_cast<std::size_t>(n)]);
      net::PacketFactory factory;
      Time expected_airtime;
      for (int i = 0; i < transmissions; ++i) {
        Frame f = data_frame(factory, schedule[static_cast<std::size_t>(i)].first,
                             schedule[static_cast<std::size_t>(i)].second);
        expected_airtime += medium.airtime(f.bytes_on_air());
        sim.schedule_at(at[static_cast<std::size_t>(i)],
                        [&medium, f = std::move(f)]() mutable {
                          medium.transmit(std::move(f));
                        });
      }
      sim.run();
      EXPECT_EQ(medium.snapshot().busy_airtime, expected_airtime);
      return medium.snapshot();
    };

    DistanceLoss loss(positions, Rng(sample_seed));
    const MediumStats s = run_once(loss);

    // --- conservation holds on the culled subset -------------------------
    Time ledger_tx_airtime;
    for (const auto& [id, row] : s.nodes) ledger_tx_airtime += row.tx_airtime;
    EXPECT_EQ(ledger_tx_airtime, s.busy_airtime);
    EXPECT_EQ(s.decode_attempts,
              s.deliveries + s.collisions + s.channel_losses);
    EXPECT_LE(s.decode_attempts,
              s.transmissions * static_cast<std::uint64_t>(nodes - 1));
    for (const auto& [id, row] : s.nodes)
      EXPECT_EQ(row.decode_attempts, row.frames_received +
                                         row.collisions_seen +
                                         row.channel_losses)
          << "node " << id.to_string();

    // --- every skipped receiver is provably sub-audibility ---------------
    // Group the sample log by transmission (distinct transmit instants):
    // any (tx, rx) pair absent from a transmission's samples must sit
    // below the audibility threshold at that instant.
    std::uint64_t logged = 0;
    for (int i = 0; i < transmissions; ++i) {
      const NodeId tx = schedule[static_cast<std::size_t>(i)].first;
      const Time when = at[static_cast<std::size_t>(i)];
      std::vector<bool> sampled(static_cast<std::size_t>(nodes), false);
      for (const auto& [stx, srx, st] : loss.samples_log()) {
        if (stx != tx || st != when) continue;
        sampled[static_cast<std::size_t>(srx.value())] = true;
        ++logged;
      }
      for (int rx = 0; rx < nodes; ++rx) {
        if (NodeId(rx) == tx || sampled[static_cast<std::size_t>(rx)])
          continue;
        EXPECT_LT(loss.reception_prob(tx, NodeId(rx), when), kAudibility)
            << "transmission " << i << " culled audible receiver n" << rx;
      }
    }
    EXPECT_EQ(logged, s.decode_attempts);

    // --- determinism: identical schedule, identical run ------------------
    DistanceLoss again(positions, Rng(sample_seed));
    const MediumStats s2 = run_once(again);
    EXPECT_EQ(s2.decode_attempts, s.decode_attempts);
    EXPECT_EQ(s2.deliveries, s.deliveries);
    EXPECT_EQ(s2.collisions, s.collisions);
    EXPECT_EQ(s2.channel_losses, s.channel_losses);
    EXPECT_TRUE(again.samples_log() == loss.samples_log());
  }
}

// The culled receiver sets over moving nodes, a motion margin and a node
// attached between two cell refreshes, across several refresh periods.
// Every transmission must sample each receiver audible at its instant and
// no node not yet attached, and it must sample them in ascending attach
// order (nodes attach in shuffled id order, so attach order is not id
// order). A digest of the whole (tx, rx) sample sequence pins which
// receivers survive the cull test: it depends only on positions at the
// refresh instants and the cell grid, never on delivery draws.
TEST(MediumProperties, CulledReceiverSetsFollowMotionAndAttach) {
  constexpr double kAudibility = 0.05;
  constexpr double kMaxAudible = 950.0;  // 1 - d/1000 >= 0.05
  constexpr double kMaxSpeed = 20.0;     // m/s per axis
  const Time refresh = Time::millis(250);
  std::uint64_t digest = 14695981039346656037ull;  // FNV-1a 64 offset basis
  const auto mix = [&digest](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (v >> (8 * byte)) & 0xffu;
      digest *= 1099511628211ull;
    }
  };
  std::uint64_t sampled_total = 0;
  std::uint64_t culled_total = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    // Node `late` (the highest id) attaches mid-run; the others attach up
    // front in a shuffled order.
    const int nodes = static_cast<int>(rng.uniform_int(8, 16));
    const NodeId late(nodes - 1);
    std::vector<mobility::Vec2> starts;
    std::vector<mobility::Vec2> velocities;
    for (int n = 0; n < nodes; ++n) {
      starts.push_back({rng.uniform01() * 3000.0, rng.uniform01() * 3000.0});
      velocities.push_back({(rng.uniform01() * 2.0 - 1.0) * kMaxSpeed,
                            (rng.uniform01() * 2.0 - 1.0) * kMaxSpeed});
    }
    std::vector<NodeId> attach_order;
    for (int n = 0; n + 1 < nodes; ++n) attach_order.push_back(NodeId(n));
    for (std::size_t i = attach_order.size(); i > 1; --i)
      std::swap(attach_order[i - 1],
                attach_order[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(i) - 1))]);
    attach_order.push_back(late);
    // Transmit instants are even microseconds and the late attach an odd
    // one, strictly inside the second refresh period, so no transmission
    // shares its instant.
    const Time attach_at = Time::micros(2 * rng.uniform_int(130000, 240000) + 1);
    std::vector<std::pair<NodeId, Time>> schedule;
    Time t;
    while (t < refresh * 5.0) {
      t += Time::micros(2 * rng.uniform_int(1, 20000));
      schedule.emplace_back(
          NodeId(static_cast<int>(rng.uniform_int(0, nodes - 1))), t);
    }
    sim::Simulator sim;
    DistanceLoss loss(starts, rng.fork("samples"), velocities);
    MediumParams params;
    SpatialCulling cull;
    cull.position = [&loss](NodeId id, Time at) {
      return loss.position(id, at);
    };
    cull.max_audible_m = kMaxAudible;
    cull.refresh = refresh;
    // Each endpoint moves at most sqrt(2) * kMaxSpeed * refresh between
    // refreshes.
    cull.margin_m = 1.5 * kMaxSpeed * refresh.to_seconds();
    params.culling = std::move(cull);
    Medium medium(sim, loss, std::move(params));
    std::vector<NullSink> sinks(static_cast<std::size_t>(nodes));
    for (std::size_t i = 0; i + 1 < attach_order.size(); ++i)
      medium.attach(attach_order[i], &sinks[i]);
    sim.schedule_at(attach_at, [&] {
      medium.attach(late, &sinks[static_cast<std::size_t>(nodes - 1)]);
    });
    net::PacketFactory factory;
    for (const auto& [tx, at] : schedule) {
      // The late node only transmits once attached.
      if (tx == late && at < attach_at) continue;
      Frame f = data_frame(factory, tx, 200);
      sim.schedule_at(at, [&medium, f = std::move(f)]() mutable {
        medium.transmit(std::move(f));
      });
    }
    sim.run();

    std::vector<std::size_t> rank(static_cast<std::size_t>(nodes));
    for (std::size_t i = 0; i < attach_order.size(); ++i)
      rank[static_cast<std::size_t>(attach_order[i].value())] = i;
    const auto& log = loss.samples_log();
    std::size_t next = 0;
    for (const auto& [tx, at] : schedule) {
      if (tx == late && at < attach_at) continue;
      std::vector<bool> sampled(static_cast<std::size_t>(nodes), false);
      std::size_t last_rank = 0;
      bool first = true;
      for (; next < log.size() && std::get<2>(log[next]) == at; ++next) {
        const auto& [stx, srx, st] = log[next];
        ASSERT_EQ(stx, tx);
        const auto r = rank[static_cast<std::size_t>(srx.value())];
        EXPECT_TRUE(first || r > last_rank)
            << "receivers out of attach order at " << at.to_seconds() << " s";
        first = false;
        last_rank = r;
        sampled[static_cast<std::size_t>(srx.value())] = true;
        mix(static_cast<std::uint64_t>(stx.value()));
        mix(static_cast<std::uint64_t>(srx.value()));
      }
      for (int n = 0; n < nodes; ++n) {
        const NodeId rx(n);
        if (rx == tx) continue;
        const bool was = sampled[static_cast<std::size_t>(n)];
        if (rx == late && at < attach_at) {
          EXPECT_FALSE(was) << "unattached n" << n << " sampled";
        } else if (loss.reception_prob(tx, rx, at) >= kAudibility) {
          EXPECT_TRUE(was) << "audible n" << n << " culled at "
                           << at.to_seconds() << " s";
        } else if (!was) {
          ++culled_total;
        }
      }
    }
    EXPECT_EQ(next, log.size());
    EXPECT_EQ(medium.snapshot().decode_attempts, log.size());
    sampled_total += log.size();
  }
  // The schedule must exercise both real neighbourhoods and the cull.
  EXPECT_GT(sampled_total, 1000u);
  EXPECT_GT(culled_total, 1000u);
  // Pinned: which receivers survive the cull test, and in what order, for
  // these 60 schedules. Any change to a frame's receiver set moves it.
  EXPECT_EQ(digest, 12085171639951961028ull) << "sample-sequence digest";
}

}  // namespace
}  // namespace vifi::mac
