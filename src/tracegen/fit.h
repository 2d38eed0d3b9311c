#pragma once

/// \file fit.h
/// TraceForge model fitting: turns logged `MeasurementTrace` beacon records
/// into a generative per-link model of vehicle<->BS connectivity. Three
/// statistics drive the paper's trace-driven evaluation (§5) and are the
/// ones we fit:
///
///  * contact structure — per BS, the rate at which the vehicle enters
///    coverage and the empirical CDF of how long a contact lasts;
///  * loss level — the mean beacon loss ratio while a contact is up; and
///  * burstiness — losses cluster (Fig. 6), modelled by the same
///    Gilbert–Elliott two-state parameters `channel::TwoStateProcess`
///    simulates: mean good-run and bad-run sojourn times within contacts.
///
/// A fitted `TraceModel` is a plain value; `tracegen::synthesize_fleet`
/// turns it into arbitrarily many statistically-matched traces.

#include <string>
#include <vector>

#include "sim/ids.h"
#include "trace/observations.h"
#include "util/time.h"

namespace vifi::tracegen {

using sim::NodeId;

struct FitOptions {
  /// Silent seconds tolerated *inside* a contact before it is split in
  /// two. 2 s matches the paper's observation that short fades within a
  /// BS association are channel bursts, not disconnections.
  int gap_tolerance_s = 2;
};

/// One maximal coverage episode of a vehicle at a BS.
struct Contact {
  NodeId bs;
  int start_sec = 0;
  int duration_s = 0;     ///< First through last active second, inclusive.
  double mean_loss = 0.0; ///< 1 - beacons_heard / beacons_sent over the contact.
};

/// Maximal runs of seconds with >= 1 beacon decoded, per BS, split where
/// more than `gap_tolerance_s` consecutive seconds go silent. Ordered by
/// (bs, start_sec).
std::vector<Contact> extract_contacts(const trace::MeasurementTrace& trip,
                                      const FitOptions& opts = {});

/// The same contacts re-sorted into the order the vehicle *experienced*
/// them — (start_sec, bs) — so successive entries name successive coverage
/// episodes. This is the raw material of the coordination tier's next-BS
/// predictor: each pair of consecutive distinct-BS contacts is one
/// observed BS-to-BS succession.
std::vector<Contact> contact_timeline(const trace::MeasurementTrace& trip,
                                      const FitOptions& opts = {});

/// The generative model of one vehicle<->BS link.
struct LinkModel {
  NodeId bs;
  /// Contact arrivals per trip-second (Poisson gap between contacts).
  double contact_rate_hz = 0.0;
  /// Per-contact (duration, loss) samples, PARALLEL arrays in fitted
  /// contact order: synthesis bootstraps whole contacts (one index draws
  /// both), preserving the duration-loss correlation (long contacts pass
  /// close to the BS and lose less).
  std::vector<double> duration_s;
  std::vector<double> loss_level;
  /// Gilbert–Elliott sojourn means within a contact, in the exact shape
  /// `channel::TwoStateProcess(mean_on, mean_off, ...)` consumes. A zero
  /// mean_off means no bad run was ever observed (the link never fades
  /// inside a contact).
  Time mean_on = Time::seconds(1.0);
  Time mean_off = Time::zero();
  /// Beacon RSSI distribution while in contact.
  double rssi_mean_dbm = -75.0;
  double rssi_stddev_dbm = 4.0;
};

/// A whole testbed's fitted model: per-BS link models plus the campaign
/// constants synthesis must reproduce.
struct TraceModel {
  std::string testbed;
  Time trip_duration;
  int beacons_per_second = 10;
  int source_trips = 0;  ///< Traces the fit pooled.
  FitOptions fit;
  std::vector<LinkModel> links;  ///< In bs id order.

  /// The link model for \p bs, or nullptr if the BS was never fitted.
  const LinkModel* link(NodeId bs) const;
  std::vector<NodeId> bs_ids() const;
};

/// Fits one model from the pooled contacts of every given trace (several
/// trips, several vehicles — all vehicles sample the same environment).
/// Throws std::runtime_error on an empty input or traces from different
/// testbeds.
TraceModel fit_model(const std::vector<const trace::MeasurementTrace*>& trips,
                     const FitOptions& opts = {});
TraceModel fit_model(const trace::Campaign& campaign,
                     const FitOptions& opts = {});

/// Fig. 6-style conditional loss over the expected beacon grid within
/// contacts: P(beacon i+1 lost | beacon i lost) against the unconditional
/// loss. `ratio() > 1` means losses cluster; a memoryless channel gives 1.
struct BurstinessStats {
  double unconditional_loss = 0.0;
  double conditional_loss = 0.0;
  std::int64_t slots = 0;  ///< Expected beacon slots examined.

  double ratio() const {
    return unconditional_loss > 0.0 ? conditional_loss / unconditional_loss
                                    : 1.0;
  }
};

BurstinessStats measure_burstiness(
    const std::vector<const trace::MeasurementTrace*>& trips,
    const FitOptions& opts = {});

/// Pooled contact-duration samples (sorted) — the source side of the
/// synthetic-vs-source CDF distance `paper validation_synth` gates.
std::vector<double> pooled_contact_durations(
    const std::vector<const trace::MeasurementTrace*>& trips,
    const FitOptions& opts = {});

/// Mean beacon loss ratio over contact seconds, pooled across traces.
double pooled_contact_loss(
    const std::vector<const trace::MeasurementTrace*>& trips,
    const FitOptions& opts = {});

/// Kolmogorov–Smirnov distance between two empirical samples (each need
/// not be sorted); 0 = identical distributions, 1 = disjoint supports.
double ks_distance(std::vector<double> a, std::vector<double> b);

}  // namespace vifi::tracegen
