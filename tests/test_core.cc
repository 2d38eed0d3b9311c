// Unit tests for ViFi core components: pab estimation/gossip, the relay
// probability computation (Eq. 1-3 and the ¬G variants), the sender's
// acknowledgment handling and retransmission order, the receiver's §4.3
// ack rule, duplicate suppression and piggyback window, stats accounting,
// and the id set.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "channel/loss_model.h"
#include "core/id_set.h"
#include "core/pab.h"
#include "core/receiver.h"
#include "core/relay_policy.h"
#include "core/sender.h"
#include "core/stats.h"
#include "mac/medium.h"
#include "mac/radio.h"
#include "net/packet.h"
#include "obs/recorder.h"
#include "sim/simulator.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace vifi::core {
namespace {

using sim::NodeId;

// ------------------------------------------------------------------ Pab --

/// A table's beacon gossip payload at \p now.
std::vector<mac::ProbReport> exported(const PabTable& pab, Time now) {
  std::vector<mac::ProbReport> out;
  pab.export_reports(now, out);
  return out;
}

TEST(PabTable, IncomingEstimateFromBeaconCounts) {
  PabTable pab(NodeId(9), 10, 0.5);
  // 8 of 10 beacons in the first second.
  for (int i = 0; i < 8; ++i)
    pab.note_beacon(NodeId(1), Time::millis(i * 10.0));
  pab.tick_second(Time::seconds(1.0));
  EXPECT_DOUBLE_EQ(pab.incoming(NodeId(1), Time::seconds(1.0)), 0.8);
}

TEST(PabTable, ExponentialAveraging) {
  PabTable pab(NodeId(9), 10, 0.5);
  for (int i = 0; i < 10; ++i)
    pab.note_beacon(NodeId(1), Time::millis(i * 10.0));
  pab.tick_second(Time::seconds(1.0));
  // Second 2: silence while still fresh -> 0 sample folds in.
  pab.tick_second(Time::seconds(2.0));
  EXPECT_DOUBLE_EQ(pab.incoming(NodeId(1), Time::seconds(2.0)), 0.5);
}

TEST(PabTable, StaleEstimatesFallBack) {
  PabTable pab(NodeId(9), 10, 0.5);
  pab.note_beacon(NodeId(1), Time::zero());
  pab.tick_second(Time::seconds(1.0));
  EXPECT_GT(pab.incoming(NodeId(1), Time::seconds(1.0), -1.0), 0.0);
  // Ten silent seconds later the estimate is stale.
  for (int s = 2; s <= 12; ++s) pab.tick_second(Time::seconds(s));
  EXPECT_DOUBLE_EQ(pab.incoming(NodeId(1), Time::seconds(30.0), -1.0), -1.0);
}

TEST(PabTable, GossipRoundTrip) {
  PabTable pab(NodeId(9), 10, 0.5);
  pab.fold_reports({{NodeId(2), NodeId(3), 0.6}}, Time::zero());
  EXPECT_DOUBLE_EQ(pab.get(NodeId(2), NodeId(3), Time::zero()), 0.6);
  // Unknown pair -> fallback.
  EXPECT_DOUBLE_EQ(pab.get(NodeId(4), NodeId(5), Time::zero(), 0.25), 0.25);
}

TEST(PabTable, GossipAboutSelfIsIgnored) {
  // We know our own incoming estimates better than remote gossip.
  PabTable pab(NodeId(9), 10, 0.5);
  pab.fold_reports({{NodeId(2), NodeId(9), 0.99}}, Time::zero());
  EXPECT_DOUBLE_EQ(pab.get(NodeId(2), NodeId(9), Time::zero(), -1.0), -1.0);
}

TEST(PabTable, ExportContainsIncomingAndReverse) {
  PabTable pab(NodeId(9), 10, 0.5);
  for (int i = 0; i < 10; ++i)
    pab.note_beacon(NodeId(1), Time::millis(i * 10.0));
  pab.tick_second(Time::seconds(1.0));
  // Gossip learned from BS1's beacon: our outgoing probability to it.
  pab.fold_reports({{NodeId(9), NodeId(1), 0.7}}, Time::seconds(1.0));
  const auto reports = exported(pab, Time::seconds(1.0));
  bool has_incoming = false, has_reverse = false;
  for (const auto& r : reports) {
    if (r.from == NodeId(1) && r.to == NodeId(9)) has_incoming = true;
    if (r.from == NodeId(9) && r.to == NodeId(1)) has_reverse = true;
  }
  EXPECT_TRUE(has_incoming);
  EXPECT_TRUE(has_reverse);
}

TEST(PabTable, GossipFoldsInAnyOrderAndExportsTheOwnRowSorted) {
  PabTable pab(NodeId(9), 10, 0.5);
  // Runs interleave transmitters and repeat links; the last report wins.
  pab.fold_reports({{NodeId(9), NodeId(4), 0.1},
                    {NodeId(3), NodeId(1), 0.2},
                    {NodeId(9), NodeId(2), 0.3},
                    {NodeId(3), NodeId(1), 0.4},
                    {NodeId(9), NodeId(4), 0.5}},
                   Time::zero());
  EXPECT_EQ(pab.gossip_entries(), 3u);
  EXPECT_DOUBLE_EQ(pab.get(NodeId(3), NodeId(1), Time::zero()), 0.4);
  EXPECT_DOUBLE_EQ(pab.get(NodeId(9), NodeId(4), Time::zero()), 0.5);
  EXPECT_DOUBLE_EQ(pab.get(NodeId(3), NodeId(2), Time::zero(), -1.0), -1.0);
  const auto reports = exported(pab, Time::zero());
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].to, NodeId(2));
  EXPECT_EQ(reports[1].to, NodeId(4));
  EXPECT_DOUBLE_EQ(reports[1].prob, 0.5);
}

TEST(PabTable, GossipIsEvictedOnceStale) {
  // Bounded state over long trips: what tick_second() evicts is exactly
  // what get() and export_reports() already treat as unknown.
  PabTable pab(NodeId(9), 10, 0.5);
  pab.fold_reports({{NodeId(2), NodeId(3), 0.6}, {NodeId(9), NodeId(3), 0.7}},
                   Time::zero());
  pab.fold_reports({{NodeId(4), NodeId(5), 0.8}}, Time::seconds(3.0));
  pab.tick_second(Time::seconds(5.0));  // 5 s old is still fresh
  EXPECT_EQ(pab.gossip_entries(), 3u);
  EXPECT_DOUBLE_EQ(pab.get(NodeId(2), NodeId(3), Time::seconds(5.0)), 0.6);
  pab.tick_second(Time::seconds(6.0));
  EXPECT_EQ(pab.gossip_entries(), 1u);
  EXPECT_DOUBLE_EQ(pab.get(NodeId(2), NodeId(3), Time::seconds(6.0), -1.0),
                   -1.0);
  EXPECT_TRUE(exported(pab, Time::seconds(6.0)).empty());
  EXPECT_DOUBLE_EQ(pab.get(NodeId(4), NodeId(5), Time::seconds(6.0)), 0.8);
  // A later report revives the link.
  pab.fold_reports({{NodeId(2), NodeId(3), 0.2}}, Time::seconds(7.0));
  EXPECT_DOUBLE_EQ(pab.get(NodeId(2), NodeId(3), Time::seconds(7.0)), 0.2);
  pab.tick_second(Time::seconds(60.0));
  EXPECT_EQ(pab.gossip_entries(), 0u);
}

TEST(PabTable, RecentNeighbors) {
  PabTable pab(NodeId(9));
  pab.note_beacon(NodeId(1), Time::seconds(1.0));
  pab.note_beacon(NodeId(2), Time::seconds(5.0));
  std::vector<NodeId> recent;
  pab.for_each_recent_neighbor(Time::seconds(6.0), Time::seconds(3.0),
                               [&](NodeId n) { recent.push_back(n); });
  EXPECT_EQ(recent, (std::vector<NodeId>{NodeId(2)}));
}

TEST(PabTable, VehicleFilesItsOwnRowOnlyWhileBsFilesEveryRow) {
  // BS 1's beacon: its incoming estimates from vehicles 9 and 7 and from
  // BS 2, and its reverse row to both vehicles.
  const std::vector<mac::ProbReport> beacon = {
      {NodeId(2), NodeId(1), 0.4}, {NodeId(7), NodeId(1), 0.3},
      {NodeId(9), NodeId(1), 0.8}, {NodeId(1), NodeId(7), 0.6},
      {NodeId(1), NodeId(9), 0.5}};
  const Time t = Time::seconds(1.0);
  // Vehicle 9, folding only its own row, against a table filing every row.
  PabTable own(NodeId(9), 10, 0.5);
  PabTable every(NodeId(9), 10, 0.5);
  for (PabTable* pab : {&own, &every}) {
    for (int i = 0; i < 7; ++i)
      pab->note_beacon(NodeId(1), Time::millis(i * 100.0));
    pab->tick_second(t);
  }
  own.fold_own_reports(beacon, t);
  every.fold_reports(beacon, t);
  EXPECT_EQ(own.gossip_entries(), 1u);
  EXPECT_EQ(every.gossip_entries(), 4u);
  EXPECT_DOUBLE_EQ(own.get(NodeId(9), NodeId(1), t), 0.8);
  const auto as_tuples = [](const std::vector<mac::ProbReport>& reports) {
    std::vector<std::tuple<NodeId, NodeId, double>> out;
    for (const mac::ProbReport& r : reports)
      out.emplace_back(r.from, r.to, r.prob);
    return out;
  };
  const auto own_payload = as_tuples(exported(own, t));
  EXPECT_EQ(own_payload, as_tuples(exported(every, t)));
  EXPECT_EQ(own_payload, (std::vector<std::tuple<NodeId, NodeId, double>>{
                          {NodeId(1), NodeId(9), 0.7},
                          {NodeId(9), NodeId(1), 0.8}}));

  // BS 3 hears the same beacon: relay decisions need every row.
  PabTable bs(NodeId(3), 10, 0.5);
  bs.fold_reports(beacon, t);
  EXPECT_EQ(bs.gossip_entries(), beacon.size());
  for (const mac::ProbReport& r : beacon)
    EXPECT_DOUBLE_EQ(bs.get(r.from, r.to, t, -1.0), r.prob)
        << r.from.to_string() << " -> " << r.to.to_string();
}

// --------------------------------------------------------- Relay policy --

/// Builds a pab table holding the full probability matrix the computation
/// needs, from the perspective of auxiliary `self`. Estimates about links
/// *into self* cannot come from gossip (fold_reports rightly ignores
/// them); they are established the way the protocol does it — by counting
/// received beacons (p must be a multiple of 0.1).
PabTable full_table(NodeId self, NodeId src, NodeId dst,
                    const std::vector<std::pair<NodeId, double>>& ps_bi,
                    double ps_d,
                    const std::vector<std::pair<NodeId, double>>& pd_bi,
                    const std::vector<std::pair<NodeId, double>>& pbi_d) {
  PabTable pab(self, 10, 0.5);
  std::vector<mac::ProbReport> reports;
  auto own_or_gossip = [&](NodeId from, NodeId bi, double p) {
    if (bi == self) {
      const int beacons = static_cast<int>(p * 10.0 + 0.5);
      for (int k = 0; k < beacons; ++k)
        pab.note_beacon(from, Time::millis(k * 10.0));
    } else {
      reports.push_back({from, bi, p});
    }
  };
  for (const auto& [bi, p] : ps_bi) own_or_gossip(src, bi, p);
  reports.push_back({src, dst, ps_d});
  for (const auto& [bi, p] : pd_bi) own_or_gossip(dst, bi, p);
  for (const auto& [bi, p] : pbi_d) reports.push_back({bi, dst, p});
  pab.tick_second(Time::seconds(1.0));
  pab.fold_reports(reports, Time::seconds(1.0));
  return pab;
}

RelayContext symmetric_context(const PabTable& pab, NodeId self, int n_aux) {
  RelayContext ctx;
  ctx.self = self;
  ctx.src = NodeId(100);
  ctx.dst = NodeId(101);
  for (int i = 0; i < n_aux; ++i) ctx.auxiliaries.push_back(NodeId(i));
  ctx.pab = &pab;
  ctx.now = Time::seconds(1.0);
  return ctx;
}

TEST(RelayPolicy, ContentionProbabilityMatchesEq3) {
  const NodeId src(100), dst(101), self(0);
  const PabTable pab = full_table(self, src, dst, {{self, 0.8}}, 0.6,
                                  {{self, 0.5}}, {{self, 0.9}});
  RelayContext ctx = symmetric_context(pab, self, 1);
  // c = p(s->B) * (1 - p(s->d) p(d->B)) = 0.8 * (1 - 0.3) = 0.56.
  EXPECT_NEAR(contention_probability(ctx, self), 0.56, 1e-9);
}

TEST(RelayPolicy, ExpectedRelaysEqualsOneSymmetricCase) {
  // K identical auxiliaries: sum_i c_i * r_i should be 1, so each relays
  // with probability 1 / (K * c).
  const NodeId src(100), dst(101);
  const int k = 4;
  std::vector<std::pair<NodeId, double>> ps, pd, pb;
  for (int i = 0; i < k; ++i) {
    ps.push_back({NodeId(i), 0.8});
    pd.push_back({NodeId(i), 0.5});
    pb.push_back({NodeId(i), 0.6});
  }
  const PabTable pab = full_table(NodeId(0), src, dst, ps, 0.5, pd, pb);
  RelayContext ctx = symmetric_context(pab, NodeId(0), k);
  const double c = 0.8 * (1.0 - 0.5 * 0.5);
  const double expected_r = 1.0 / (k * c);
  EXPECT_NEAR(relay_probability(ctx, RelayVariant::ViFi), expected_r, 1e-9);

  // Property: the expected number of relays across the set equals 1.
  double total = 0.0;
  for (int i = 0; i < k; ++i) {
    ctx.self = NodeId(i);
    total += c * relay_probability(ctx, RelayVariant::ViFi);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(RelayPolicy, PrefersBetterConnectedAuxiliaries) {
  // Eq. 2: r_i / r_j = p(Bi->d) / p(Bj->d). Three auxiliaries so no
  // probability clamps at 1 and the ratio is exact.
  const NodeId src(100), dst(101);
  std::vector<std::pair<NodeId, double>> ps, pd;
  for (int i = 0; i < 3; ++i) {
    ps.push_back({NodeId(i), 0.8});
    pd.push_back({NodeId(i), 0.4});
  }
  std::vector<std::pair<NodeId, double>> pb = {
      {NodeId(0), 0.5}, {NodeId(1), 0.25}, {NodeId(2), 0.5}};
  const PabTable pab = full_table(NodeId(0), src, dst, ps, 0.5, pd, pb);
  RelayContext ctx = symmetric_context(pab, NodeId(0), 3);
  const double r0 = relay_probability(ctx, RelayVariant::ViFi);
  ctx.self = NodeId(1);
  const double r1 = relay_probability(ctx, RelayVariant::ViFi);
  EXPECT_LT(r0, 1.0);  // not clamped
  EXPECT_NEAR(r0 / r1, 0.5 / 0.25, 1e-9);
}

TEST(RelayPolicy, ClampsToOne) {
  // A single weakly-connected auxiliary must still clamp at 1.
  const NodeId src(100), dst(101), self(0);
  const PabTable pab = full_table(self, src, dst, {{self, 0.2}}, 0.1,
                                  {{self, 0.1}}, {{self, 0.2}});
  RelayContext ctx = symmetric_context(pab, self, 1);
  EXPECT_DOUBLE_EQ(relay_probability(ctx, RelayVariant::ViFi), 1.0);
}

TEST(RelayPolicy, NoG1IgnoresOthers) {
  const NodeId src(100), dst(101);
  std::vector<std::pair<NodeId, double>> ps, pd, pb;
  for (int i = 0; i < 5; ++i) {
    ps.push_back({NodeId(i), 0.9});
    pd.push_back({NodeId(i), 0.5});
    pb.push_back({NodeId(i), 0.7});
  }
  const PabTable pab = full_table(NodeId(0), src, dst, ps, 0.5, pd, pb);
  RelayContext ctx = symmetric_context(pab, NodeId(0), 5);
  // ¬G1 relays with its delivery ratio regardless of the other four.
  EXPECT_NEAR(relay_probability(ctx, RelayVariant::NoG1), 0.7, 1e-9);
  // ViFi shares the expectation across all five.
  EXPECT_LT(relay_probability(ctx, RelayVariant::ViFi), 0.7);
}

TEST(RelayPolicy, NoG2IgnoresConnectivity) {
  const NodeId src(100), dst(101);
  std::vector<std::pair<NodeId, double>> ps = {{NodeId(0), 0.8},
                                               {NodeId(1), 0.8}};
  std::vector<std::pair<NodeId, double>> pd = {{NodeId(0), 0.0},
                                               {NodeId(1), 0.0}};
  std::vector<std::pair<NodeId, double>> pb = {{NodeId(0), 0.9},
                                               {NodeId(1), 0.1}};
  const PabTable pab = full_table(NodeId(0), src, dst, ps, 0.0, pd, pb);
  RelayContext ctx = symmetric_context(pab, NodeId(0), 2);
  const double r0 = relay_probability(ctx, RelayVariant::NoG2);
  ctx.self = NodeId(1);
  const double r1 = relay_probability(ctx, RelayVariant::NoG2);
  EXPECT_NEAR(r0, r1, 1e-9);  // same probability despite pb mismatch
}

TEST(RelayPolicy, NoG3Waterfills) {
  // Expected deliveries = 1: the best auxiliary relays with 1 first.
  const NodeId src(100), dst(101);
  std::vector<std::pair<NodeId, double>> ps = {{NodeId(0), 1.0},
                                               {NodeId(1), 1.0}};
  std::vector<std::pair<NodeId, double>> pd = {{NodeId(0), 0.0},
                                               {NodeId(1), 0.0}};
  std::vector<std::pair<NodeId, double>> pb = {{NodeId(0), 0.9},
                                               {NodeId(1), 0.8}};
  const PabTable pab = full_table(NodeId(0), src, dst, ps, 0.0, pd, pb);
  RelayContext ctx = symmetric_context(pab, NodeId(0), 2);
  // Best BS: cap = 0.9 * 1.0 = 0.9 < 1 -> relays with probability 1.
  EXPECT_NEAR(relay_probability(ctx, RelayVariant::NoG3), 1.0, 1e-9);
  // Second BS fills the remaining 0.1: r = 0.1 / 0.8.
  ctx.self = NodeId(1);
  EXPECT_NEAR(relay_probability(ctx, RelayVariant::NoG3), 0.1 / 0.8, 1e-9);
}

TEST(RelayPolicy, NoG3RelaysMoreThanViFiInExpectation) {
  // The paper's point: expected *deliveries* = 1 forces more relays when
  // links are weak.
  const NodeId src(100), dst(101);
  const int k = 4;
  std::vector<std::pair<NodeId, double>> ps, pd, pb;
  for (int i = 0; i < k; ++i) {
    ps.push_back({NodeId(i), 0.9});
    pd.push_back({NodeId(i), 0.2});
    pb.push_back({NodeId(i), 0.3});
  }
  const PabTable pab = full_table(NodeId(0), src, dst, ps, 0.4, pd, pb);
  double vifi_expected = 0.0, nog3_expected = 0.0;
  for (int i = 0; i < k; ++i) {
    RelayContext ctx = symmetric_context(pab, NodeId(i), k);
    const double c = contention_probability(ctx, NodeId(i));
    vifi_expected += c * relay_probability(ctx, RelayVariant::ViFi);
    nog3_expected += c * relay_probability(ctx, RelayVariant::NoG3);
  }
  EXPECT_NEAR(vifi_expected, 1.0, 1e-6);
  EXPECT_GT(nog3_expected, 1.5);
}

TEST(RelayPolicy, SymmetryFallbackUsesReverseDirection) {
  PabTable pab(NodeId(0));
  pab.fold_reports({{NodeId(3), NodeId(2), 0.45}}, Time::zero());
  EXPECT_DOUBLE_EQ(
      pab_or_symmetric(pab, NodeId(2), NodeId(3), Time::zero(), 0.0), 0.45);
}

TEST(RelayPolicy, UndesignatedAuxiliaryFallsBackConservatively) {
  const NodeId src(100), dst(101), self(7);
  const PabTable pab = full_table(self, src, dst, {}, 0.5, {},
                                  {{self, 0.6}});
  RelayContext ctx;
  ctx.self = self;
  ctx.src = src;
  ctx.dst = dst;
  ctx.auxiliaries = {NodeId(0)};  // self not designated
  ctx.pab = &pab;
  ctx.now = Time::zero();
  EXPECT_NEAR(relay_probability(ctx, RelayVariant::ViFi), 0.6, 1e-9);
}

// ------------------------------------------------------------- VifiStats --

TEST(VifiStats, Table1StyleAccounting) {
  VifiStats stats;
  using D = Direction;
  // Attempt 1: reaches destination, one aux heard, relayed anyway (FP).
  stats.on_source_tx(1, 1, D::Upstream, Time::zero(), 5);
  stats.on_dst_rx_direct(1, 1);
  stats.on_aux_overhear(1, 1, NodeId(2));
  stats.on_aux_contend(1, 1, NodeId(2));
  stats.on_aux_relay(1, 1, NodeId(2));
  stats.on_relay_reached_dst(1, 1, NodeId(2));
  // Attempt 2: fails, two aux heard, one relays successfully.
  stats.on_source_tx(2, 1, D::Upstream, Time::zero(), 5);
  stats.on_aux_overhear(2, 1, NodeId(2));
  stats.on_aux_overhear(2, 1, NodeId(3));
  stats.on_aux_contend(2, 1, NodeId(3));
  stats.on_aux_relay(2, 1, NodeId(3));
  stats.on_relay_reached_dst(2, 1, NodeId(3));
  // Attempt 3: fails, covered but nobody relays (FN).
  stats.on_source_tx(3, 1, D::Upstream, Time::zero(), 5);
  stats.on_aux_overhear(3, 1, NodeId(2));

  const CoordinationSummary s = stats.coordination(D::Upstream);
  EXPECT_EQ(s.attempts, 3);
  EXPECT_DOUBLE_EQ(s.median_designated_aux, 5.0);
  EXPECT_NEAR(s.avg_aux_heard, 4.0 / 3.0, 1e-9);
  EXPECT_NEAR(s.frac_src_tx_reached_dst, 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(s.frac_src_tx_failed, 2.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.false_positive_rate, 1.0);   // 1 FP relay / 1 success
  EXPECT_DOUBLE_EQ(s.avg_relays_when_fp, 1.0);
  EXPECT_DOUBLE_EQ(s.frac_failed_with_aux_cover, 1.0);
  EXPECT_DOUBLE_EQ(s.false_negative_rate, 0.5);   // 1 of 2 failures
  EXPECT_DOUBLE_EQ(s.frac_relays_reached_dst, 1.0);
}

TEST(VifiStats, DirectionsAreSeparate) {
  VifiStats stats;
  stats.on_source_tx(1, 1, Direction::Upstream, Time::zero(), 1);
  stats.on_source_tx(2, 1, Direction::Downstream, Time::zero(), 1);
  EXPECT_EQ(stats.coordination(Direction::Upstream).attempts, 1);
  EXPECT_EQ(stats.coordination(Direction::Downstream).attempts, 1);
}

TEST(VifiStats, EfficiencyCountsDeliveredPerTx) {
  VifiStats stats;
  stats.on_wireless_data_tx(Direction::Upstream);
  stats.on_wireless_data_tx(Direction::Upstream);
  stats.on_app_delivered(Direction::Upstream);
  const EfficiencySummary e = stats.efficiency();
  EXPECT_DOUBLE_EQ(e.up, 0.5);
}

TEST(VifiStats, PerfectRelayUpstreamUsesAuxCoverage) {
  VifiStats stats;
  // Two attempts: one heard only by an aux, one heard by nobody.
  stats.on_source_tx(1, 1, Direction::Upstream, Time::zero(), 3);
  stats.on_aux_overhear(1, 1, NodeId(0));
  stats.on_source_tx(2, 1, Direction::Upstream, Time::zero(), 3);
  const EfficiencySummary e = stats.efficiency();
  EXPECT_DOUBLE_EQ(e.perfect_up, 0.5);
}

TEST(VifiStats, PerfectRelayDownstreamRules) {
  VifiStats stats;
  // Attempt 1: dst heard directly (no relay cost).
  stats.on_source_tx(1, 1, Direction::Downstream, Time::zero(), 3);
  stats.on_dst_rx_direct(1, 1);
  // Attempt 2: missed, ViFi relayed and the relay reached dst.
  stats.on_source_tx(2, 1, Direction::Downstream, Time::zero(), 3);
  stats.on_aux_overhear(2, 1, NodeId(0));
  stats.on_aux_relay(2, 1, NodeId(0));
  stats.on_relay_reached_dst(2, 1, NodeId(0));
  // Attempt 3: missed, aux heard it, ViFi did not relay (rule ii: Perfect
  // would have relayed successfully).
  stats.on_source_tx(3, 1, Direction::Downstream, Time::zero(), 3);
  stats.on_aux_overhear(3, 1, NodeId(0));
  const EfficiencySummary e = stats.efficiency();
  // Delivered: 3 of 3; transmissions: 3 source + 2 relays.
  EXPECT_NEAR(e.perfect_down, 3.0 / 5.0, 1e-9);
}

// Records the same synthetic attempt population into `stats`, visiting the
// packet ids in the order given by `ids`. Each id deterministically decides
// its own features (direction, direct reception, aux coverage, relays), so
// any permutation of `ids` describes the same logical history.
void record_attempts(VifiStats& stats, const std::vector<std::uint64_t>& ids) {
  for (const std::uint64_t id : ids) {
    const Direction dir =
        id % 3 == 0 ? Direction::Downstream : Direction::Upstream;
    stats.on_source_tx(id, 1, dir, Time::millis(static_cast<double>(id)),
                       static_cast<int>(id % 7));
    if (id % 2 == 0) stats.on_dst_rx_direct(id, 1);
    if (id % 4 != 0) {
      stats.on_aux_overhear(id, 1, NodeId(2));
      stats.on_aux_contend(id, 1, NodeId(2));
    }
    if (id % 5 == 0) {
      stats.on_aux_overhear(id, 1, NodeId(3));
      stats.on_aux_relay(id, 1, NodeId(3));
      if (id % 10 == 0) stats.on_relay_reached_dst(id, 1, NodeId(3));
    }
    if (id % 2 == 0) stats.on_app_delivered(dir);
    stats.on_wireless_data_tx(dir);
  }
}

// Pins the order-independence of the coordination/efficiency summaries:
// VifiStats aggregates over an unordered_map of attempts, and detlint's
// unordered-iter annotations in src/core/stats.cc cite this test as the
// proof that iteration order cannot leak into results. Every aggregate must
// be byte-identical (EXPECT_EQ on doubles, not NEAR) across insertion orders.
TEST(VifiStats, CoordinationOrderInvariance) {
  std::vector<std::uint64_t> forward;
  for (std::uint64_t id = 1; id <= 200; ++id) forward.push_back(id);
  std::vector<std::uint64_t> reverse(forward.rbegin(), forward.rend());
  // A third order: odds first, then evens — exercises bucket chains that
  // neither monotone order produces.
  std::vector<std::uint64_t> shuffled;
  for (const std::uint64_t id : forward) if (id % 2 == 1) shuffled.push_back(id);
  for (const std::uint64_t id : forward) if (id % 2 == 0) shuffled.push_back(id);

  VifiStats a, b, c;
  record_attempts(a, forward);
  record_attempts(b, reverse);
  record_attempts(c, shuffled);

  for (const Direction dir : {Direction::Upstream, Direction::Downstream}) {
    const CoordinationSummary sa = a.coordination(dir);
    for (const VifiStats* other : {&b, &c}) {
      const CoordinationSummary so = other->coordination(dir);
      EXPECT_EQ(sa.attempts, so.attempts);
      EXPECT_EQ(sa.median_designated_aux, so.median_designated_aux);
      EXPECT_EQ(sa.avg_aux_heard, so.avg_aux_heard);
      EXPECT_EQ(sa.avg_aux_heard_no_ack, so.avg_aux_heard_no_ack);
      EXPECT_EQ(sa.frac_src_tx_reached_dst, so.frac_src_tx_reached_dst);
      EXPECT_EQ(sa.false_positive_rate, so.false_positive_rate);
      EXPECT_EQ(sa.avg_relays_when_fp, so.avg_relays_when_fp);
      EXPECT_EQ(sa.frac_src_tx_failed, so.frac_src_tx_failed);
      EXPECT_EQ(sa.frac_failed_with_aux_cover, so.frac_failed_with_aux_cover);
      EXPECT_EQ(sa.false_negative_rate, so.false_negative_rate);
      EXPECT_EQ(sa.frac_relays_reached_dst, so.frac_relays_reached_dst);
    }
    EXPECT_EQ(a.source_attempts(dir), b.source_attempts(dir));
    EXPECT_EQ(a.source_attempts(dir), c.source_attempts(dir));
  }
  const EfficiencySummary ea = a.efficiency();
  for (const VifiStats* other : {&b, &c}) {
    const EfficiencySummary eo = other->efficiency();
    EXPECT_EQ(ea.up, eo.up);
    EXPECT_EQ(ea.down, eo.down);
    EXPECT_EQ(ea.perfect_up, eo.perfect_up);
    EXPECT_EQ(ea.perfect_down, eo.perfect_down);
  }
}

// ---------------------------------------------------------- VifiSender --

/// Every link delivers.
class PerfectLoss final : public channel::LossModel {
 public:
  bool sample_delivery(NodeId, NodeId, Time) override { return true; }
  double reception_prob(NodeId, NodeId, Time) const override { return 1.0; }
};

/// The hop destination: logs each data frame as (arrival, id, attempt).
class AirLog final : public mac::FrameSink {
 public:
  explicit AirLog(const sim::Simulator& sim) : sim_(sim) {}
  void on_frame(const mac::Frame& f) override {
    if (f.type == mac::FrameType::Data)
      frames.emplace_back(sim_.now(), f.data.packet_id, f.data.attempt);
  }
  std::vector<std::tuple<Time, std::uint64_t, int>> frames;

 private:
  const sim::Simulator& sim_;
};

/// One source radio (node 0) on a lossless medium with its hop
/// destination (node 1); senders built here pump on the radio's idle
/// callback, as the owning agents wire them.
struct SenderRig {
  sim::Simulator sim;
  PerfectLoss loss;
  mac::Medium medium{sim, loss, {}};
  AirLog air{sim};
  mac::Radio radio{sim, medium, NodeId(0), Rng(1)};
  net::PacketFactory factory;
  bool paused = false;

  SenderRig() { medium.attach(NodeId(1), &air); }

  void wire(VifiSender& sender) {
    sender.set_hop_dst_provider(
        [this] { return paused ? NodeId{} : NodeId(1); });
    radio.set_idle_callback([&sender] { sender.pump(); });
  }
  std::uint64_t enqueue(VifiSender& sender) {
    net::PacketRef p = factory.make(Direction::Upstream, NodeId(0),
                                    NodeId(1), 100, sim.now());
    const std::uint64_t id = p->id;
    sender.enqueue(std::move(p));
    return id;
  }
  void run_for(Time t) { sim.run_until(sim.now() + t); }
};

TEST(VifiSender, AckAfterTheLastAttemptDropIsIgnored) {
  SenderRig rig;
  VifiConfig config;
  config.max_retx = 1;
  VifiSender sender(rig.sim, rig.radio, config, NodeId(0),
                    Direction::Upstream);
  rig.wire(sender);
  const std::uint64_t id = rig.enqueue(sender);
  rig.run_for(Time::seconds(1.0));
  ASSERT_EQ(rig.air.frames.size(), 2u);
  EXPECT_EQ(sender.dropped_count(), 1u);
  EXPECT_EQ(sender.pending(), 0u);
  sender.acknowledge(id, rig.sim.now(), /*explicit_ack=*/true);
  EXPECT_EQ(sender.acked_count(), 0u);
  EXPECT_EQ(sender.pending(), 0u);
}

TEST(VifiSender, DuplicateAckCountsOnce) {
  SenderRig rig;
  VifiSender sender(rig.sim, rig.radio, VifiConfig{}, NodeId(0),
                    Direction::Upstream);
  rig.wire(sender);
  const std::uint64_t id = rig.enqueue(sender);
  rig.enqueue(sender);
  rig.run_for(Time::millis(10));
  sender.acknowledge(id, rig.sim.now(), /*explicit_ack=*/true);
  sender.acknowledge(id, rig.sim.now(), /*explicit_ack=*/true);
  sender.acknowledge(id, rig.sim.now(), /*explicit_ack=*/false);
  EXPECT_EQ(sender.acked_count(), 1u);
  EXPECT_EQ(sender.pending(), 1u);
}

TEST(VifiSender, PiggybackedAcksAddNoDelaySample) {
  // 30 packets, each acknowledged 5 ms after it went out: explicit acks
  // pull the §4.7 interval down to its floor, piggybacked ones leave it at
  // the initial value.
  const auto interval_after_acks = [](bool explicit_ack) {
    SenderRig rig;
    VifiConfig config;
    VifiSender sender(rig.sim, rig.radio, config, NodeId(0),
                      Direction::Upstream);
    rig.wire(sender);
    for (int i = 0; i < 30; ++i) {
      const std::uint64_t id = rig.enqueue(sender);
      rig.run_for(Time::millis(5));
      sender.acknowledge(id, rig.sim.now(), explicit_ack);
    }
    EXPECT_EQ(sender.acked_count(), 30u);
    return sender.retx_interval();
  };
  const VifiConfig config;
  EXPECT_EQ(interval_after_acks(/*explicit_ack=*/false), config.retx_initial);
  EXPECT_EQ(interval_after_acks(/*explicit_ack=*/true), config.retx_floor);
}

TEST(VifiSender, AckForASiblingSendersPacketIsANoOp) {
  // A BS offers every ack to each of its per-vehicle senders.
  SenderRig rig;
  VifiSender mine(rig.sim, rig.radio, VifiConfig{}, NodeId(0),
                  Direction::Downstream);
  VifiSender sibling(rig.sim, rig.radio, VifiConfig{}, NodeId(0),
                     Direction::Downstream);
  rig.wire(mine);
  sibling.set_hop_dst_provider([] { return NodeId(1); });
  rig.enqueue(mine);
  const std::uint64_t theirs = rig.enqueue(sibling);
  rig.run_for(Time::millis(10));
  mine.acknowledge(theirs, rig.sim.now(), /*explicit_ack=*/true);
  EXPECT_EQ(mine.acked_count(), 0u);
  EXPECT_EQ(mine.pending(), 1u);
  EXPECT_EQ(mine.retx_interval(), VifiConfig{}.retx_initial);
  sibling.acknowledge(theirs, rig.sim.now(), /*explicit_ack=*/true);
  EXPECT_EQ(sibling.acked_count(), 1u);
  EXPECT_EQ(sibling.pending(), 0u);
}

TEST(VifiSender, SendsTheEarliestQueuedReadyPacket) {
  SenderRig rig;
  VifiConfig config;
  config.max_retx = 50;
  config.retx_initial = Time::seconds(1.0);
  VifiSender sender(rig.sim, rig.radio, config, NodeId(0),
                    Direction::Upstream);
  rig.wire(sender);
  // p1 goes out first and waits the initial 1 s for its retry.
  const std::uint64_t p1 = rig.enqueue(sender);
  rig.run_for(Time::millis(5));
  // Twenty fast acks pull the interval down to its 15 ms floor.
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t id = rig.enqueue(sender);
    rig.run_for(Time::millis(5));
    sender.acknowledge(id, rig.sim.now(), /*explicit_ack=*/true);
  }
  ASSERT_EQ(sender.retx_interval(), config.retx_floor);
  // p2, queued after p1, is ready again long before p1: it goes first,
  // retry after retry, while p1 waits.
  const std::uint64_t p2 = rig.enqueue(sender);
  rig.run_for(Time::millis(100));
  const auto attempts_of = [&](std::uint64_t id) {
    int n = 0;
    for (const auto& [at, fid, attempt] : rig.air.frames)
      if (fid == id) n = std::max(n, attempt);
    return n;
  };
  EXPECT_EQ(attempts_of(p1), 1);
  EXPECT_GE(attempts_of(p2), 5);
  // Paused until both are ready, the earliest-queued one goes first,
  // although p2 has been ready for longer.
  rig.paused = true;
  rig.run_for(Time::seconds(2.0));
  const std::size_t before = rig.air.frames.size();
  rig.paused = false;
  sender.pump();
  rig.run_for(Time::millis(5));
  ASSERT_GT(rig.air.frames.size(), before);
  EXPECT_EQ(std::get<1>(rig.air.frames[before]), p1);
  EXPECT_EQ(std::get<2>(rig.air.frames[before]), 2);
}

// -------------------------------------------------------- VifiReceiver --

/// Logs the ids of the ACK frames it hears.
class AckLog final : public mac::FrameSink {
 public:
  void on_frame(const mac::Frame& f) override {
    if (f.type == mac::FrameType::Ack) acks.push_back(f.ack.packet_id);
  }
  std::size_t count(std::uint64_t id) const {
    return static_cast<std::size_t>(std::count(acks.begin(), acks.end(), id));
  }
  std::vector<std::uint64_t> acks;
};

/// A destination radio (node 0) on a lossless medium with the source
/// (node 1) listening for its ACKs; each copy is handed to the receiver
/// the way the owning agents do, and the airtime it takes to ack is run
/// off before the next.
struct ReceiverRig {
  sim::Simulator sim;
  PerfectLoss loss;
  mac::Medium medium{sim, loss, {}};
  AckLog air;
  mac::Radio radio{sim, medium, NodeId(0), Rng(1)};
  net::PacketFactory factory;
  std::vector<std::uint64_t> released;

  ReceiverRig() { medium.attach(NodeId(1), &air); }

  void wire(VifiReceiver& receiver) {
    receiver.set_release_handler(
        [this](const net::PacketRef& p) { released.push_back(p->id); });
  }
  net::PacketRef packet(Direction dir) {
    return factory.make(dir, NodeId(1), NodeId(0), 100, sim.now());
  }
  void arrive(VifiReceiver& receiver, const net::PacketRef& p, bool relayed) {
    receiver.accept({.packet = p,
                     .attempt = 1,
                     .relayed = relayed,
                     .peer = relayed ? NodeId(2) : NodeId(1)});
    run_for(Time::millis(5));
  }
  void run_for(Time t) { sim.run_until(sim.now() + t); }
};

constexpr Direction kBothDirections[] = {Direction::Upstream,
                                         Direction::Downstream};

TEST(VifiReceiver, AcksEveryDirectCopy) {
  for (const Direction dir : kBothDirections) {
    SCOPED_TRACE(dir == Direction::Upstream ? "upstream" : "downstream");
    ReceiverRig rig;
    VifiReceiver receiver(rig.sim, rig.radio, VifiConfig{}, dir, nullptr);
    rig.wire(receiver);
    const net::PacketRef p = rig.packet(dir);
    for (int i = 0; i < 3; ++i) rig.arrive(receiver, p, /*relayed=*/false);
    EXPECT_EQ(rig.air.count(p->id), 3u);
    // A direct copy after a relayed one is acked too.
    const net::PacketRef q = rig.packet(dir);
    rig.arrive(receiver, q, /*relayed=*/true);
    rig.arrive(receiver, q, /*relayed=*/false);
    EXPECT_EQ(rig.air.count(q->id), 2u);
  }
}

TEST(VifiReceiver, AcksARelayedCopyOnlyIfNoCopyWasAcked) {
  for (const Direction dir : kBothDirections) {
    SCOPED_TRACE(dir == Direction::Upstream ? "upstream" : "downstream");
    ReceiverRig rig;
    VifiReceiver receiver(rig.sim, rig.radio, VifiConfig{}, dir, nullptr);
    rig.wire(receiver);
    // The first copy is a relay: acked once, later relays are not.
    const net::PacketRef p = rig.packet(dir);
    rig.arrive(receiver, p, /*relayed=*/true);
    rig.arrive(receiver, p, /*relayed=*/true);
    EXPECT_EQ(rig.air.count(p->id), 1u);
    // Directly acked first: no relayed copy is acked after it (§4.3 step 4).
    const net::PacketRef q = rig.packet(dir);
    rig.arrive(receiver, q, /*relayed=*/false);
    rig.arrive(receiver, q, /*relayed=*/true);
    rig.arrive(receiver, q, /*relayed=*/true);
    EXPECT_EQ(rig.air.count(q->id), 1u);
  }
}

TEST(VifiReceiver, DeliversDuplicatesOnceAndKeepsThemOutOfTheWindow) {
  for (const Direction dir : kBothDirections) {
    SCOPED_TRACE(dir == Direction::Upstream ? "upstream" : "downstream");
    ReceiverRig rig;
    VifiReceiver receiver(rig.sim, rig.radio, VifiConfig{}, dir, nullptr);
    rig.wire(receiver);
    const net::PacketRef p = rig.packet(dir);
    const net::PacketRef q = rig.packet(dir);
    EXPECT_TRUE(receiver.accept({.packet = p}));
    EXPECT_TRUE(receiver.accept({.packet = q}));
    EXPECT_FALSE(receiver.accept({.packet = p}));
    rig.arrive(receiver, p, /*relayed=*/true);
    rig.arrive(receiver, q, /*relayed=*/false);
    EXPECT_EQ(rig.released, (std::vector<std::uint64_t>{p->id, q->id}));
    std::vector<std::uint64_t> window = {99};
    receiver.recent_ids(window);
    EXPECT_EQ(window, (std::vector<std::uint64_t>{p->id, q->id}));
  }
}

TEST(VifiReceiver, WindowHoldsTheNewestPiggybackDepthIds) {
  for (const Direction dir : kBothDirections) {
    SCOPED_TRACE(dir == Direction::Upstream ? "upstream" : "downstream");
    ReceiverRig rig;
    VifiConfig config;
    config.piggyback_depth = 3;
    VifiReceiver receiver(rig.sim, rig.radio, config, dir, nullptr);
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 5; ++i) {
      const net::PacketRef p = rig.packet(dir);
      ids.push_back(p->id);
      rig.arrive(receiver, p, /*relayed=*/i % 2 == 1);
      rig.arrive(receiver, p, /*relayed=*/false);
    }
    std::vector<std::uint64_t> window;
    receiver.recent_ids(window);
    EXPECT_EQ(window, (std::vector<std::uint64_t>{ids[2], ids[3], ids[4]}));
  }
}

TEST(VifiReceiver, AppDeliverCarriesThePeerAndTheDirection) {
  for (const Direction dir : kBothDirections) {
    SCOPED_TRACE(dir == Direction::Upstream ? "upstream" : "downstream");
    obs::TraceRecorder recorder;
    obs::TraceScope scope(recorder);
    ReceiverRig rig;
    VifiReceiver receiver(rig.sim, rig.radio, VifiConfig{}, dir, nullptr);
    const net::PacketRef p = rig.packet(dir);
    receiver.accept({.packet = p, .peer = NodeId(7)});
    receiver.accept({.packet = p, .peer = NodeId(8)});
    std::vector<obs::TraceEvent> delivers;
    for (const obs::TraceEvent& e : recorder.merged())
      if (e.kind == obs::EventKind::AppDeliver) delivers.push_back(e);
    ASSERT_EQ(delivers.size(), 1u);
    EXPECT_EQ(delivers[0].node, NodeId(0));
    EXPECT_EQ(delivers[0].peer, NodeId(7));
    EXPECT_EQ(delivers[0].id, p->id);
    EXPECT_EQ(delivers[0].c, dir == Direction::Downstream ? 1 : 0);
  }
}

// ------------------------------------------------------------ RecentIdSet --

TEST(RecentIdSet, InsertAndContains) {
  RecentIdSet set(4);
  EXPECT_TRUE(set.insert(1));
  EXPECT_FALSE(set.insert(1));
  EXPECT_TRUE(set.contains(1));
  EXPECT_FALSE(set.contains(2));
}

TEST(RecentIdSet, EvictsOldestBeyondCapacity) {
  RecentIdSet set(3);
  for (std::uint64_t id = 1; id <= 5; ++id) set.insert(id);
  EXPECT_FALSE(set.contains(1));
  EXPECT_FALSE(set.contains(2));
  EXPECT_TRUE(set.contains(3));
  EXPECT_TRUE(set.contains(5));
  EXPECT_EQ(set.size(), 3u);
}

}  // namespace
}  // namespace vifi::core
