#include "channel/vehicular.h"

#include <algorithm>
#include <limits>
#include <string>

#include "util/contracts.h"

namespace vifi::channel {

namespace {
std::string link_name(const char* prefix, NodeId a, NodeId b) {
  return std::string(prefix) + "/" + std::to_string(a.value()) + "/" +
         std::to_string(b.value());
}

bool is_multiplier(double m) { return m >= 0.0 && m <= 1.0; }
}  // namespace

VehicularChannel::VehicularChannel(VehicularChannelParams params,
                                   PositionFn positions, Rng rng)
    : params_(params),
      curve_(params.distance),
      bands_(DistanceBands::shared(curve_)),
      positions_(std::move(positions)),
      rng_(rng),
      draw_rng_(rng.fork("per-packet-draws")) {
  VIFI_EXPECTS(positions_ != nullptr);
  VIFI_EXPECTS(is_multiplier(params.ge_bad_multiplier));
  VIFI_EXPECTS(is_multiplier(params.gray_multiplier));
  VIFI_EXPECTS(is_multiplier(params.common_multiplier));
  VIFI_EXPECTS(params.ge_mean_good > Time::zero());
  VIFI_EXPECTS(params.ge_mean_bad > Time::zero());
  VIFI_EXPECTS(params.gray_mean_off > Time::zero());
  VIFI_EXPECTS(params.gray_mean_on > Time::zero());
  VIFI_EXPECTS(params.common_mean_off > Time::zero());
  VIFI_EXPECTS(params.common_mean_on > Time::zero());
}

void VehicularChannel::mark_mobile(NodeId node) {
  VIFI_EXPECTS(node.valid());
  node_state(node).mobile = true;
}

void VehicularChannel::mark_fixed(NodeId node) {
  NodeState& ns = node_state(node);
  ns.position = positions_(node, Time::zero());
  ns.fixed = true;
}

mobility::Vec2 VehicularChannel::position(NodeId node, Time now) const {
  return position(node_state(node), node, now);
}

VehicularChannel::NodeState& VehicularChannel::node_state(NodeId n) const {
  VIFI_EXPECTS(n.valid());
  const auto i = static_cast<std::size_t>(n.value());
  if (i >= nodes_.size()) nodes_.resize(i + 1);
  return nodes_[i];
}

namespace {
std::uint32_t& slot(std::vector<std::uint32_t>& row, NodeId peer) {
  const auto i = static_cast<std::size_t>(peer.value());
  if (i >= row.size()) row.resize(i + 1, 0);
  return row[i];
}
}  // namespace

TwoStateProcess& VehicularChannel::burst(Link l) const {
  std::uint32_t& s = slot(l.tx_state.burst_slot, l.rx);
  if (s == 0) {
    Rng fork = rng_.fork(link_name("ge", l.tx, l.rx));
    bursts_.push_back(TwoStateProcess::stationary(
        params_.ge_mean_bad, params_.ge_mean_good, fork.fork("proc")));
    s = static_cast<std::uint32_t>(bursts_.size());
  }
  return bursts_[s - 1];
}

TwoStateProcess& VehicularChannel::gray(Link l) const {
  std::uint32_t& s = slot(l.tx_state.gray_slot, l.rx);
  if (s == 0) {
    const NodeId a = std::min(l.tx, l.rx), b = std::max(l.tx, l.rx);
    Rng fork = rng_.fork(link_name("gray", a, b));
    grays_.push_back(TwoStateProcess::stationary(
        params_.gray_mean_on, params_.gray_mean_off, fork.fork("proc")));
    s = static_cast<std::uint32_t>(grays_.size());
    slot(l.rx_state.gray_slot, l.tx) = s;
  }
  return grays_[s - 1];
}

TwoStateProcess* VehicularChannel::fade(NodeState& ns, NodeId n) const {
  if (!ns.mobile) return nullptr;
  if (!ns.fade_on) {
    Rng fork = rng_.fork(link_name("fade", n, n));
    ns.fade_on = TwoStateProcess::stationary(
        params_.common_mean_on, params_.common_mean_off, fork.fork("proc"));
  }
  return &*ns.fade_on;
}

mobility::Vec2 VehicularChannel::position(NodeState& ns, NodeId n,
                                          Time now) const {
  if (ns.position_at != now && !ns.fixed) {
    ns.position = positions_(n, now);
    ns.position_at = now;
  }
  return ns.position;
}

VehicularChannel::Link VehicularChannel::link(NodeId tx, NodeId rx) const {
  VIFI_EXPECTS(tx.valid() && rx.valid());
  node_state(std::max(tx, rx));  // grow first: both references stay valid
  return {tx, rx, nodes_[static_cast<std::size_t>(tx.value())],
          nodes_[static_cast<std::size_t>(rx.value())]};
}

mobility::Vec2 VehicularChannel::offset(const Link& l, Time now) const {
  return position(l.tx_state, l.tx, now) - position(l.rx_state, l.rx, now);
}

double VehicularChannel::geometric_reception_prob(NodeId tx, NodeId rx,
                                                  Time now) const {
  return curve_.reception_prob(offset(link(tx, rx), now).norm());
}

VehicularChannel::Fades VehicularChannel::fades(const Link& l, Time now) const {
  Fades f;
  f.burst = burst(l).on_at(now);
  f.gray = gray(l).on_at(now);
  if (TwoStateProcess* p = fade(l.tx_state, l.tx)) f.tx_fade = p->on_at(now);
  if (TwoStateProcess* p = fade(l.rx_state, l.rx)) f.rx_fade = p->on_at(now);
  return f;
}

double VehicularChannel::faded(double p, Fades f) const {
  if (f.burst) p *= params_.ge_bad_multiplier;
  if (f.gray) p *= params_.gray_multiplier;
  if (f.tx_fade) p *= params_.common_multiplier;
  if (f.rx_fade) p *= params_.common_multiplier;
  return std::clamp(p, 0.0, 1.0);
}

double VehicularChannel::exact_prob(const Link& l, mobility::Vec2 delta,
                                    Time now) const {
  const double d = delta.norm();
  if (d > curve_.cutoff_m()) return 0.0;
  return faded(curve_.reception_prob(d), fades(l, now));
}

double VehicularChannel::reception_prob(NodeId tx, NodeId rx,
                                        Time now) const {
  const Link l = link(tx, rx);
  return exact_prob(l, offset(l, now), now);
}

bool VehicularChannel::sample_delivery(NodeId tx, NodeId rx, Time now) {
  return sample(tx, rx, now, std::numeric_limits<double>::infinity())
      .delivered;
}

Reception VehicularChannel::sample(NodeId tx, NodeId rx, Time now,
                                   double audible_at) {
  // The reference is exact_prob, then draw_rng_.bernoulli. Every step below
  // settles the answer only where the bounds prove what the reference
  // computes, and draws exactly when it would.
  const Link l = link(tx, rx);
  // Not offset(): returned out of line, its Vec2 compiles (gcc 12 -O3) to a
  // packed subtraction whose stack reload stalls on every fresh position.
  const mobility::Vec2 a = position(l.tx_state, tx, now);
  const mobility::Vec2 b = position(l.rx_state, rx, now);
  const mobility::Vec2 delta{a.x - b.x, a.y - b.y};
  const double d2 = squared_length(a, b);
  // Beyond the cutoff: probability 0, which bernoulli settles without a
  // draw, and no fade state is looked at (out_of_range() is this test).
  if (d2 > bands_->far_sq()) return {0.0 >= audible_at, false};

  // Every multiplier is in [0, 1] and `faded` applies them in one order with
  // monotone roundings, so the band's bounds with all four applied and
  // without any bracket the probability. Strictly inside (0, 1), bernoulli
  // draws one uniform; otherwise the exact path settles it.
  const DistanceBands::Bounds* band = bands_->find(d2);
  if (band == nullptr || !(band->hi < 1.0) ||
      !(faded(band->lo, {true, true, true, true}) > 0.0)) {
    const double p = exact_prob(l, delta, now);
    return {p >= audible_at, draw_rng_.bernoulli(p)};
  }
  const double u = draw_rng_.uniform01();
  if (u >= band->hi && band->hi < audible_at) return {false, false};

  // The fade states at `now` are a pure function of time, so skipping them
  // above changes nothing later. With them, the same multipliers narrow the
  // bounds; the curve itself is needed only when u or audible_at falls
  // between them.
  const Fades f = fades(l, now);
  const double lo = faded(band->lo, f);
  const double hi = faded(band->hi, f);
  if ((u < lo || u >= hi) && (audible_at <= lo || audible_at > hi))
    return {audible_at <= lo, u < lo};
  const double p = faded(curve_.reception_prob(delta.norm()), f);
  return {p >= audible_at, u < p};
}

}  // namespace vifi::channel
