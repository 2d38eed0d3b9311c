#include "core/relay_policy.h"

#include <algorithm>

#include "util/contracts.h"

namespace vifi::core {

namespace {
/// Floor on probability estimates inside the computation: a contending BS
/// *did* hear the packet, so zero estimates (missing gossip) must not
/// zero-out the whole expectation.
constexpr double kMinSelfHear = 0.05;
}  // namespace

double pab_or_symmetric(const PabTable& pab, NodeId from, NodeId to,
                        Time now, double fallback) {
  const double direct = pab.get(from, to, now, -1.0);
  if (direct >= 0.0) return direct;
  const double reverse = pab.get(to, from, now, -1.0);
  if (reverse >= 0.0) return reverse;
  return fallback;
}

double contention_probability(const RelayContext& ctx, NodeId bi) {
  VIFI_EXPECTS(ctx.pab != nullptr);
  const PabTable& pab = *ctx.pab;
  // p(s->Bi): probability Bi heard the source transmission. For self we
  // know it happened; still use the estimate (the equations are about the
  // *population* of contenders), floored away from zero.
  double ps_bi = pab_or_symmetric(pab, ctx.src, bi, ctx.now, 0.0);
  if (bi == ctx.self) ps_bi = std::max(ps_bi, kMinSelfHear);
  // p(s->d) * p(d->Bi): probability the destination got the packet and Bi
  // heard its acknowledgment (independence assumed, §4.4).
  const double ps_d = pab_or_symmetric(pab, ctx.src, ctx.dst, ctx.now, 0.0);
  const double pd_bi = pab_or_symmetric(pab, ctx.dst, bi, ctx.now, 0.0);
  return ps_bi * (1.0 - ps_d * pd_bi);
}

namespace {

struct Contender {
  sim::NodeId id;
  double c = 0.0;   ///< Contention probability.
  double pd = 0.0;  ///< p(Bi -> d).
};

Contender contender(const RelayContext& ctx, NodeId bi) {
  Contender c;
  c.id = bi;
  c.c = contention_probability(ctx, bi);
  c.pd = pab_or_symmetric(*ctx.pab, bi, ctx.dst, ctx.now, 0.0);
  if (bi == ctx.self) c.pd = std::max(c.pd, kMinSelfHear);
  return c;
}

}  // namespace

double relay_probability(const RelayContext& ctx, RelayVariant variant) {
  VIFI_EXPECTS(ctx.pab != nullptr);
  VIFI_EXPECTS(ctx.self.valid() && ctx.src.valid() && ctx.dst.valid());
  // One pass over B1..BK in designation order gathers what every variant
  // but NoG3 needs, without materialising the contenders.
  bool designated = false;
  double self_pd = 0.0;
  double sum_c = 0.0;  // sum_j c_j
  double denom = 0.0;  // sum_j c_j * p_j
  for (const NodeId bi : ctx.auxiliaries) {
    const Contender c = contender(ctx, bi);
    if (!designated && c.id == ctx.self) {
      designated = true;
      self_pd = c.pd;
    }
    sum_c += c.c;
    denom += c.c * c.pd;
  }
  if (!designated) {
    // Not designated an auxiliary: relay conservatively as if alone.
    return std::clamp(
        pab_or_symmetric(*ctx.pab, ctx.self, ctx.dst, ctx.now, kMinSelfHear),
        0.0, 1.0);
  }

  switch (variant) {
    case RelayVariant::NoG1: {
      // Ignore other relays: relay w.p. own delivery ratio to destination.
      return std::clamp(self_pd, 0.0, 1.0);
    }
    case RelayVariant::NoG2: {
      // Ignore connectivity: expected relays = 1 with equal weights,
      // r_i = 1 / sum_j c_j.
      if (sum_c <= 0.0) return 1.0;
      return std::clamp(1.0 / sum_c, 0.0, 1.0);
    }
    case RelayVariant::NoG3: {
      // Expected *deliveries* = 1, minimising expected relays
      // (waterfilling over auxiliaries sorted by p(Bi->d), §5.5.1).
      std::vector<Contender> sorted;
      sorted.reserve(ctx.auxiliaries.size());
      for (const NodeId bi : ctx.auxiliaries)
        sorted.push_back(contender(ctx, bi));
      std::sort(sorted.begin(), sorted.end(),
                [](const Contender& a, const Contender& b) {
                  if (a.pd != b.pd) return a.pd > b.pd;
                  return a.id < b.id;
                });
      double filled = 0.0;  // sum of r_j * p_j * c_j over better-ranked js
      for (const Contender& c : sorted) {
        const double cap = c.pd * c.c;
        double ri = 0.0;
        if (filled >= 1.0) {
          ri = 0.0;
        } else if (filled + cap <= 1.0) {
          ri = 1.0;
        } else if (cap > 0.0) {
          ri = (1.0 - filled) / cap;
        }
        filled += ri * cap;
        if (c.id == ctx.self) return std::clamp(ri, 0.0, 1.0);
      }
      return 0.0;
    }
    case RelayVariant::ViFi: {
      // Solve sum_i c_i * r * p_i = 1 for r; relay w.p. min(r * p_x, 1).
      if (denom <= 0.0) return 1.0;  // pathological: nobody useful — relay
      const double r = 1.0 / denom;
      return std::clamp(r * self_pd, 0.0, 1.0);
    }
  }
  return 0.0;
}

}  // namespace vifi::core
