#include "runtime/executor.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/sessions.h"
#include "apps/cbr.h"
#include "apps/mos.h"
#include "coord/predictor.h"
#include "handoff/policies.h"
#include "mac/airtime.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "runtime/runner.h"
#include "scenario/campaign.h"
#include "scenario/live.h"
#include "tracegen/catalog.h"
#include "util/cdf.h"
#include "util/contracts.h"

namespace vifi::runtime {

namespace {

constexpr int kProbePayloadBytes = 500;  // §3.1 / §5.2 workload packets.

/// Shape checks shared by the replay and live workloads — catalog points
/// must name a catalog recorded on their exact scenario.
void validate_catalog_shape(const ExperimentPoint& point,
                            const scenario::Testbed& bed,
                            const std::string& testbed, int fleet_size,
                            const std::vector<sim::NodeId>& vehicle_ids) {
  if (testbed != point.testbed)
    throw std::runtime_error("trace set '" + point.trace_set +
                             "' was recorded on testbed '" + testbed +
                             "', not '" + point.testbed + "'");
  if (fleet_size != point.fleet_size)
    throw std::runtime_error(
        "trace set '" + point.trace_set + "' carries " +
        std::to_string(fleet_size) +
        " vehicles per trip but the point asks for fleet " +
        std::to_string(point.fleet_size));
  // Ids must match the testbed convention too, or the per-vehicle
  // accounting would key foreign ids and report silently empty fairness.
  for (const sim::NodeId v : vehicle_ids)
    if (!bed.is_vehicle(v))
      throw std::runtime_error(
          "trace set '" + point.trace_set + "' was logged by vehicle " +
          v.to_string() + ", which is not a vehicle of testbed " +
          point.testbed + " at fleet " + std::to_string(point.fleet_size));
}

/// The §3.1 study's campaign of a stochastic replay point: 100 ms probe
/// slots, no BS-to-BS beacons.
scenario::CampaignConfig replay_campaign_config(const ExperimentPoint& point) {
  scenario::CampaignConfig cfg;
  cfg.days = point.days;
  cfg.trips_per_day = point.trips_per_day;
  cfg.trip_duration = point.trip_duration;
  cfg.seed = point.campaign_seed;
  cfg.log_probes = true;
  cfg.log_bs_beacons = false;
  return cfg;
}

/// One campaign, generated cooperatively by every point that replays it:
/// each claims unclaimed trips one at a time and generates them with its
/// own Testbed, then waits for the trips others hold. The last trip to
/// land assembles the campaign in (day, trip, vehicle) order — byte for
/// byte generate_campaign's. A generation failure is kept and rethrown in
/// every point that shares the campaign.
class CampaignSlot {
 public:
  /// Throws ContractViolation unless the config has trips to generate.
  explicit CampaignSlot(const scenario::CampaignConfig& config)
      : config_(config),
        trips_(scenario::campaign_trip_count(config_)),
        parts_(trips_) {}

  const trace::Campaign& generate(const scenario::Testbed& bed) {
    const std::size_t n = trips_;
    for (;;) {
      std::size_t trip = 0;
      {
        const std::lock_guard<std::mutex> lock(mu_);
        if (claimed_ == n) break;
        trip = claimed_++;
      }
      std::vector<trace::MeasurementTrace> logs;
      std::exception_ptr error;
      try {
        const auto per_day = static_cast<std::size_t>(config_.trips_per_day);
        logs = scenario::generate_campaign_trip(
            bed, config_, static_cast<int>(trip / per_day),
            static_cast<int>(trip % per_day));
      } catch (...) {
        error = std::current_exception();
      }
      const std::lock_guard<std::mutex> lock(mu_);
      if (error != nullptr) {
        if (error_ == nullptr) error_ = error;
        claimed_ = n;  // Nobody generates for a lost campaign.
        ready_.notify_all();
        break;
      }
      parts_[trip] = std::move(logs);
      if (++landed_ < n) continue;
      campaign_.testbed = bed.layout().name;
      for (auto& part : parts_)
        for (auto& t : part) campaign_.trips.push_back(std::move(t));
      parts_ = {};
      ready_.notify_all();
    }
    std::unique_lock<std::mutex> lock(mu_);
    ready_.wait(lock, [&] { return landed_ == n || error_ != nullptr; });
    if (error_ != nullptr) std::rethrow_exception(error_);
    return campaign_;
  }

 private:
  const scenario::CampaignConfig config_;
  const std::size_t trips_;
  std::mutex mu_;
  std::condition_variable ready_;
  std::vector<std::vector<trace::MeasurementTrace>> parts_;  ///< Per trip.
  std::size_t claimed_ = 0;  ///< Trips [0, claimed_) have a generator.
  std::size_t landed_ = 0;   ///< Trips generated; all = campaign_ is set.
  std::exception_ptr error_;
  trace::Campaign campaign_;  ///< Immutable once every trip has landed.
};

}  // namespace

/// The campaigns of one enumerate() call, keyed by campaign seed (which
/// mixes base seed, testbed, fleet size and replicate seed; days, trips
/// and duration are spec-wide). A slot is created by the first point that
/// needs it and dropped once its last consumer finishes, so memory holds
/// the campaigns in flight, not the sweep's.
class CampaignPool {
 public:
  explicit CampaignPool(std::size_t consumers) : consumers_(consumers) {}

  std::shared_ptr<CampaignSlot> acquire(const ExperimentPoint& point) {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = slots_.find(point.campaign_seed);
    if (it != slots_.end()) return it->second.slot;
    auto slot = std::make_shared<CampaignSlot>(replay_campaign_config(point));
    slots_.emplace(point.campaign_seed, Entry{slot});
    return slot;
  }

  /// Counts one consumer of \p slot done; the last one drops it.
  void release(std::uint64_t key, const std::shared_ptr<CampaignSlot>& slot) {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = slots_.find(key);
    // A grid listing one campaign twice (a repeated seed) gives its key
    // more consumers than the pool counts: the slot is dropped early and
    // the latecomers regenerate it.
    if (it == slots_.end() || it->second.slot != slot) return;
    if (++it->second.done == consumers_) slots_.erase(it);
  }

 private:
  struct Entry {
    std::shared_ptr<CampaignSlot> slot;
    std::size_t done = 0;
  };

  const std::size_t consumers_;
  std::mutex mu_;
  std::map<std::uint64_t, Entry> slots_;
};

std::shared_ptr<CampaignPool> make_campaign_pool(std::size_t consumers) {
  return std::make_shared<CampaignPool>(consumers);
}

namespace {

/// A replay point's hold on its campaign: the pool's slot for the point's
/// key, or a private slot for a point without a pool — one code path
/// either way. Releasing on destruction counts the point done even when
/// its replay throws.
class CampaignLease {
 public:
  explicit CampaignLease(const ExperimentPoint& point)
      : key_(point.campaign_seed),
        pool_(point.campaigns.get()),
        slot_(pool_ != nullptr ? pool_->acquire(point)
                               : std::make_shared<CampaignSlot>(
                                     replay_campaign_config(point))) {}
  ~CampaignLease() {
    if (pool_ != nullptr) pool_->release(key_, slot_);
  }
  CampaignLease(const CampaignLease&) = delete;
  CampaignLease& operator=(const CampaignLease&) = delete;

  const trace::Campaign& campaign(const scenario::Testbed& bed) {
    return slot_->generate(bed);
  }

 private:
  const std::uint64_t key_;
  CampaignPool* const pool_;
  const std::shared_ptr<CampaignSlot> slot_;
};

/// The named §3.1 hard-handoff policy (History reads \p history, the
/// campaign's shared day tables); null for AllBSes, which replays without
/// one. Throws std::runtime_error for an unknown name.
std::unique_ptr<handoff::HandoffPolicy> make_replay_policy(
    const std::string& policy, const handoff::HistoryTables& history) {
  using namespace handoff;
  check_policy("replay", policy);
  if (policy == "BestBS") return std::make_unique<BestBsPolicy>();
  if (policy == "History") return std::make_unique<HistoryPolicy>(history);
  if (policy == "RSSI") return std::make_unique<RssiPolicy>();
  if (policy == "BRR") return std::make_unique<BrrPolicy>();
  if (policy == "Sticky") return std::make_unique<StickyPolicy>();
  return nullptr;
}

/// replay_trip with the campaign's History tables already built.
std::vector<handoff::SlotOutcome> replay_with(
    const trace::MeasurementTrace& trip, const std::string& policy,
    const handoff::HistoryTables& history) {
  if (policy == "AllBSes") return handoff::replay_allbses(trip);
  return handoff::replay_hard_handoff(trip,
                                      *make_replay_policy(policy, history));
}

/// Everything one trip contributes to its point — and, folded in trip order
/// with merge(), the point's running total: the shared metric accumulation
/// plus, for fleet points, the per-vehicle fairness view (delivered/sent
/// packets, airtime from the medium's ledger, the infrastructure/client
/// occupancy split). Fleet-1 tallies carry no per-vehicle vectors.
struct TripTally {
  MetricAccumulator acc;
  std::vector<double> veh_delivered, veh_sent, veh_airtime_s;
  double infra_airtime_s = 0.0, vehicle_airtime_s = 0.0;

  /// \p vehicles per-vehicle slots (0 for a fleet-1 point), all zero.
  explicit TripTally(std::size_t vehicles = 0)
      : veh_delivered(vehicles, 0.0),
        veh_sent(vehicles, 0.0),
        veh_airtime_s(vehicles, 0.0) {}

  /// Adds \p other's per-trip values after this tally's: summed in trip
  /// order, the floating-point totals match a sequential loop bit for bit.
  void merge(const TripTally& other) {
    acc.merge(other.acc);
    for (std::size_t i = 0; i < veh_delivered.size(); ++i) {
      veh_delivered[i] += other.veh_delivered[i];
      veh_sent[i] += other.veh_sent[i];
      veh_airtime_s[i] += other.veh_airtime_s[i];
    }
    infra_airtime_s += other.infra_airtime_s;
    vehicle_airtime_s += other.vehicle_airtime_s;
  }
};

/// What one trip hands the fold: its tally and its span on the point's
/// timeline, where the next trip's events begin.
struct TripOutcome {
  TripTally tally;
  Time span = Time::zero();
};

/// A finished trip held until every earlier trip has folded: its outcome
/// plus the recorder and registry it recorded into (null when the point
/// has no such session).
struct TripSlot {
  TripOutcome out;
  std::unique_ptr<obs::TraceRecorder> recorder;
  std::unique_ptr<obs::MetricsRegistry> metrics;
};

/// Trip \p trip's part spool, beside the session's own spool.
std::string part_spool(const obs::TraceRecorder& session, std::size_t trip) {
  char part[32];
  std::snprintf(part, sizeof(part), ".trip%05zu.part", trip);
  return session.spool_path() + part;
}

/// The one trip loop of both workloads. Runs trips [0, n) of the point on
/// \p pool — run_trip must be a pure function of the trip index, so any
/// worker may run it — and folds each into \p total in trip order as soon
/// as every earlier trip is done. When the point has a session, a trip
/// records into its own recorder and registry (a part spool beside the
/// session's spool), absorbed at the summed spans of the trips before it:
/// one timeline per point, byte for byte a sequential loop's for any
/// worker count, and an inline pool holds one trip's session at a time. A
/// failed trip throws "trip N: <what>" for the lowest failing N and leaves
/// no part spool.
void fold_trips(std::size_t n, const Runner& pool,
                const std::function<TripOutcome(std::size_t)>& run_trip,
                TripTally& total) {
  obs::TraceRecorder* session_rec = obs::current_recorder();
  obs::MetricsRegistry* session_metrics = obs::current_metrics();
  Time trace_base =
      session_rec != nullptr ? session_rec->time_base() : Time::zero();
  std::vector<std::optional<TripSlot>> slots(n);
  std::size_t folded = 0;  // Trips [0, folded) are in total and session.
  std::mutex mu;
  std::atomic<bool> failed{false};
  const ResultSink trips = pool.run_indexed(n, [&](std::size_t trip) {
    PointResult status;
    status.index = trip;
    if (failed.load()) return status;  // The point is lost already.
    TripSlot slot;
    try {
      // The trip's scopes are live before run_trip builds anything:
      // VifiSystem labels its nodes through current_recorder().
      std::optional<obs::TraceScope> trace_scope;
      std::optional<obs::MetricsScope> metrics_scope;
      if (session_rec != nullptr) {
        slot.recorder = std::make_unique<obs::TraceRecorder>(
            std::make_unique<obs::SpoolWriter>(part_spool(*session_rec, trip)));
        trace_scope.emplace(*slot.recorder);
      }
      if (session_metrics != nullptr) {
        slot.metrics = std::make_unique<obs::MetricsRegistry>();
        metrics_scope.emplace(*slot.metrics);
      }
      slot.out = run_trip(trip);
    } catch (...) {
      failed = true;
      throw;
    }
    const std::lock_guard<std::mutex> lock(mu);
    slots[trip] = std::move(slot);
    for (; folded < n && slots[folded].has_value(); ++folded) {
      TripSlot& done = *slots[folded];
      total.merge(done.out.tally);
      if (done.recorder != nullptr) {
        session_rec->absorb(*done.recorder, trace_base);
        trace_base = trace_base + done.out.span;
      }
      if (done.metrics != nullptr) session_metrics->merge(*done.metrics);
      slots[folded].reset();
      if (session_rec != nullptr)
        std::filesystem::remove(part_spool(*session_rec, folded));
    }
    return status;
  });
  for (const PointResult& status : trips.ordered()) {
    if (status.error.empty()) continue;
    // Trips from the failed one on never folded: close their part spools
    // (the failed trip's own included) and delete them.
    slots.clear();
    if (session_rec != nullptr)
      for (std::size_t trip = folded; trip < n; ++trip)
        std::filesystem::remove(part_spool(*session_rec, trip));
    throw std::runtime_error("trip " + std::to_string(status.index) + ": " +
                             status.error);
  }
  if (session_rec != nullptr) session_rec->set_time_base(trace_base);
}

/// The §3.1 replay workload: the point's generated campaign (shared with
/// the sweep's other policies through its pool), or the point's catalog
/// (shared, immutable), whose Campaign the History policy reads in place.
/// Each trace of the campaign is one trip of the fold.
void run_replay(const scenario::Testbed& bed, const ExperimentPoint& point,
                const Runner& pool, PointResult& r) {
  std::shared_ptr<const tracegen::TraceCatalog> catalog;
  std::optional<CampaignLease> lease;
  const trace::Campaign* campaign = nullptr;
  int days = point.days;
  if (point.trace_set.empty()) {
    campaign = &lease.emplace(point).campaign(bed);
  } else {
    catalog = tracegen::load_catalog_shared(point.trace_set);
    validate_catalog_shape(point, bed, catalog->testbed(),
                           catalog->fleet_size(), catalog->vehicle_ids());
    // §3.1 policy replay consumes 100 ms probe slots; beacon-only
    // catalogs (everything traceforge record/synth produces) would
    // replay to silent all-zero metrics — fail loudly instead.
    const bool any_slots = std::any_of(
        catalog->traces().begin(), catalog->traces().end(),
        [](const trace::MeasurementTrace& t) { return !t.slots.empty(); });
    if (!any_slots)
      throw std::runtime_error(
          "trace set '" + point.trace_set +
          "' carries no probe slots (beacon-only traces); the §3.1 "
          "replay workload needs log_probes campaigns — replay this "
          "catalog with the cbr workload instead");
    campaign = &catalog->campaign();
    days = catalog->days();
  }

  // An unknown policy fails the point itself, not each of its trips.
  // History's day tables are built once for the point's campaign, by the
  // first trace that needs each day, and read by every trace after.
  const handoff::HistoryTables history(*campaign);
  make_replay_policy(point.policy, history);

  // Fleet campaigns carry one trace per vehicle per trip; every vehicle's
  // log replays under the policy and aggregates into the point's metrics.
  // Fleet points (V > 1) additionally split deliveries per logging vehicle
  // for the fairness columns; fleet-1 points skip this entirely so their
  // output stays byte-identical to the pre-fairness sweeps.
  const std::vector<sim::NodeId>& vehicles = bed.vehicle_ids();
  const std::size_t fleet = vehicles.size() > 1 ? vehicles.size() : 0;
  TripTally total(fleet);
  fold_trips(
      campaign->trips.size(), pool,
      [&](std::size_t i) {
        const trace::MeasurementTrace& trip = campaign->trips[i];
        const auto stream =
            outcomes_to_stream(replay_with(trip, point.policy, history));
        TripOutcome out{TripTally(fleet),
                        std::max(trip.duration, Time::seconds(1.0))};
        out.tally.acc.add_trip(stream, point.session);
        const auto v = std::ranges::find(vehicles, trip.vehicle);
        if (fleet > 0 && v != vehicles.end())
          for (const int d : stream.delivered)
            out.tally.veh_delivered[v - vehicles.begin()] += d;
        return out;
      },
      total);
  total.acc.finish(days, r);
  if (fleet > 0) {
    r.metrics["fairness_jain_delivery"] = mac::jain_index(total.veh_delivered);
    r.series["veh_delivered"] = std::move(total.veh_delivered);
  }
}

/// The live stack configuration a point runs under (§5.2): the policy's
/// switches, link-layer retransmissions off, and — for city-scale points —
/// the medium's spatial culling derived from the testbed geometry.
core::SystemConfig live_system_config(const ExperimentPoint& point,
                                      const scenario::Testbed& bed) {
  core::SystemConfig sys = live_policy_config(point.policy);
  sys.vifi.max_retx = 0;  // §5.2: link-layer retransmissions disabled.
  if (point.cull_medium)
    sys.medium.culling = bed.make_culling(sys.medium.audibility_threshold);
  return sys;
}

/// Applies the point's coordination axis to the live stack config. "" and
/// "pab" run the vehicle-driven baseline untouched; "coord" enables the
/// BS-side ConnectivityManager and seeds its next-BS predictor from
/// mobility history — the replayed catalog's own contact timelines, or
/// (for stochastic points) a small generated campaign on the same testbed.
/// The history seed deliberately derives from the campaign seed with a
/// fixed salt, never from the coordination string itself: coord and pab
/// twins of a point replay identical trips (experiment.cc keeps the axis
/// out of both campaign_seed and point_seed).
void seed_coordination(const ExperimentPoint& point,
                       const scenario::Testbed& bed,
                       core::SystemConfig& sys) {
  if (point.coordination.empty() || point.coordination == "pab") return;
  if (point.coordination != "coord")
    throw std::runtime_error("unknown coordination '" + point.coordination +
                             "' (expected pab/coord)");
  sys.coord.enabled = true;
  // The history fit wants the whole catalog at once; only the coord axis
  // pays for that load (from the shared cache).
  std::shared_ptr<const tracegen::TraceCatalog> catalog;
  trace::Campaign generated;
  const trace::Campaign* history = &generated;
  if (!point.trace_set.empty()) {
    catalog = tracegen::load_catalog_shared(point.trace_set);
    history = &catalog->campaign();
  } else {
    scenario::CampaignConfig cfg;
    cfg.days = 1;
    cfg.trips_per_day = 4;  // Enough laps to clear the support floor.
    cfg.trip_duration = point.trip_duration;
    cfg.seed = mix_seed(point.campaign_seed, "coord-history");
    cfg.log_probes = false;
    cfg.log_bs_beacons = false;
    generated = scenario::generate_campaign(bed, cfg);
  }
  std::vector<const trace::MeasurementTrace*> trips;
  trips.reserve(history->trips.size());
  for (const trace::MeasurementTrace& t : history->trips) trips.push_back(&t);
  sys.coord.history = coord::fit_history(trips);
}

/// Runs one already-constructed live trip to its horizon and measures it;
/// its span is the final simulator clock. \p trace_horizon carries a
/// replay trip's absolute schedule horizon; nullopt means a stochastic
/// trip (one route lap).
TripOutcome measure_live_trip(const scenario::Testbed& bed,
                              const ExperimentPoint& point,
                              scenario::LiveTrip& live,
                              std::optional<Time> trace_horizon) {
  const std::size_t fleet = static_cast<std::size_t>(bed.fleet_size());
  const bool fairness = fleet > 1;
  live.run_until(scenario::LiveTrip::warmup());
  // One CBR probe stream per vehicle, all sharing the trip's medium —
  // fleet points measure the stack under real multi-client contention.
  std::vector<std::unique_ptr<apps::CbrWorkload>> cbrs;
  for (const auto& transport : live.transports())
    cbrs.push_back(
        std::make_unique<apps::CbrWorkload>(live.simulator(), *transport));
  // Replay trips end at the trace's *absolute* horizon: the loss
  // schedule covers seconds [0, duration) and reads 100% lossy beyond
  // it, so measuring past the horizon would count dead air as loss.
  // An explicit trip_duration is the caller's to overrun with.
  const Time end =
      !point.trip_duration.is_zero()
          ? live.simulator().now() + point.trip_duration
      : trace_horizon.has_value()
          ? std::max(live.simulator().now(), *trace_horizon)
          : live.simulator().now() + bed.trip_duration();
  for (auto& cbr : cbrs) cbr->start(end);
  live.run_until(end + Time::seconds(1.0));
  TripOutcome out{TripTally(fairness ? fleet : 0), live.simulator().now()};
  if (obs::MetricsRegistry* metrics = obs::current_metrics()) {
    live.system().medium().publish(*metrics);
    live.system().stats().publish(*metrics);
    for (const auto& cbr : cbrs) cbr->publish(*metrics);
    if (live.coord() != nullptr) live.coord()->publish(*metrics);
  }
  TripTally& tally = out.tally;
  for (auto& cbr : cbrs) tally.acc.add_trip(cbr->slot_stream(), point.session);
  if (fairness) {
    const mac::MediumStats ms = live.medium_stats();
    for (std::size_t i = 0; i < fleet; ++i) {
      tally.veh_delivered[i] = static_cast<double>(cbrs[i]->delivered());
      tally.veh_sent[i] = static_cast<double>(cbrs[i]->sent());
      const mac::NodeAirtime& row = ms.node(bed.vehicle_ids()[i]);
      tally.veh_airtime_s[i] = (row.tx_airtime + row.rx_airtime).to_seconds();
    }
    tally.infra_airtime_s =
        ms.tx_airtime(mac::NodeRole::Infrastructure).to_seconds();
    tally.vehicle_airtime_s =
        ms.tx_airtime(mac::NodeRole::Vehicle).to_seconds();
  }
  return out;
}

/// The live tail: metric distillation, fairness columns (fleet points
/// only) and §5.3.2 call quality.
void finish_live_point(const TripTally& total, int days, PointResult& r) {
  total.acc.finish(days, r);
  if (!total.veh_delivered.empty()) {
    double min_rate = 1.0;
    for (std::size_t i = 0; i < total.veh_delivered.size(); ++i)
      min_rate = std::min(min_rate, total.veh_sent[i] > 0.0
                                        ? total.veh_delivered[i] /
                                              total.veh_sent[i]
                                        : 0.0);
    r.metrics["airtime_infra_s"] = total.infra_airtime_s;
    r.metrics["airtime_vehicle_s"] = total.vehicle_airtime_s;
    r.metrics["fairness_jain_airtime"] = mac::jain_index(total.veh_airtime_s);
    r.metrics["fairness_jain_delivery"] =
        mac::jain_index(total.veh_delivered);
    r.metrics["per_vehicle_delivery_min"] = min_rate;
    r.series["veh_airtime_s"] = total.veh_airtime_s;
    r.series["veh_delivered"] = total.veh_delivered;
  }

  // §5.3.2 call quality under the fixed delay budget, charging half the
  // wireless deadline to the wireless segment.
  const apps::VoipDelayBudget budget;
  const double delay_ms = budget.coding_ms + budget.jitter_buffer_ms +
                          budget.wired_ms + budget.wireless_deadline_ms() / 2;
  r.metrics["mos"] =
      apps::mos_g729(delay_ms, 1.0 - r.metrics["delivery_rate"]);
}

/// The §5.2 live workload: the point's trips — a catalog's trip groups,
/// streamed one at a time, or days x trips_per_day stochastic draws from
/// per-trip seeds — through the trip fold on \p pool.
void run_live(const scenario::Testbed& bed, const ExperimentPoint& point,
              const Runner& pool, PointResult& r) {
  // Replay points run every trip group of their catalog exactly once; the
  // point's days/trips knobs describe generated campaigns only, under a
  // replay campaign's precondition.
  std::optional<tracegen::CatalogStream> stream;
  std::size_t n = 0;
  if (point.trace_set.empty()) {
    n = scenario::campaign_trip_count(replay_campaign_config(point));
  } else {
    stream = tracegen::CatalogStream::open(point.trace_set);
    validate_catalog_shape(point, bed, stream->testbed(), stream->fleet_size(),
                           stream->vehicle_ids());
    n = stream->trip_groups();
  }
  core::SystemConfig sys = live_system_config(point, bed);
  seed_coordination(point, bed, sys);
  // Fleet points (V > 1) accumulate the per-vehicle fairness view on top
  // of the shared metric set; fleet-1 points skip all of it so their
  // output bytes stay identical to the single-vehicle sweeps.
  const std::size_t fleet = static_cast<std::size_t>(bed.fleet_size());
  TripTally total(fleet > 1 ? fleet : 0);
  fold_trips(
      n, pool,
      [&](std::size_t trip) {
        const std::uint64_t seed =
            mix_seed(point.point_seed, static_cast<std::uint64_t>(trip));
        if (!stream) {
          // Stochastic trips draw a fresh channel.
          scenario::LiveTrip live(bed, sys, seed);
          return measure_live_trip(bed, point, live, std::nullopt);
        }
        // Replay trips drive the fleet loss schedule straight from their
        // trip group's traces, loaded for this trip only.
        const std::vector<trace::MeasurementTrace> traces =
            stream->load_group(trip);
        std::vector<const trace::MeasurementTrace*> ptrs;
        ptrs.reserve(traces.size());
        for (const trace::MeasurementTrace& t : traces) ptrs.push_back(&t);
        scenario::LiveTrip live(bed, ptrs, sys, seed);
        return measure_live_trip(bed, point, live, traces.front().duration);
      },
      total);
  finish_live_point(total, stream ? stream->days() : point.days, r);
}

/// `point_NNNN<ext>` in the point's trace directory, which is created.
std::string point_file(const ExperimentPoint& point, const char* ext) {
  namespace fs = std::filesystem;
  fs::create_directories(point.trace_dir);
  char tag[48];
  std::snprintf(tag, sizeof(tag), "point_%04zu%s",
                static_cast<std::size_t>(point.index), ext);
  return (fs::path(point.trace_dir) / tag).string();
}

/// Shared TripScope tail of both point executors: metric result columns
/// drawn from the session registry and, when the point owns its recorder
/// (an ambient caller owns its own), the sealed spool and the registry's
/// `.metrics.json` beside it. `tripscope export` renders the spool's text
/// exports.
void export_tripscope(const ExperimentPoint& point, PointResult& r,
                      const obs::TraceRecorder* own_recorder,
                      obs::MetricsRegistry* metrics,
                      const obs::MetricsRegistry* own_metrics) {
  if (metrics != nullptr && !point.metric_columns.empty()) {
    // Exact flattened key first (`mac.frames_tx{node=n3,role=vehicle}`),
    // else the bare name summed across its label variants.
    const auto flat = metrics->flatten();
    for (const std::string& name : point.metric_columns) {
      const auto it = flat.find(name);
      r.metrics["obs." + name] =
          it != flat.end() ? it->second : metrics->total(name);
    }
  }
  if (own_recorder == nullptr || point.trace_dir.empty()) return;
  own_recorder->finalize();
  if (own_metrics == nullptr) return;
  const std::string path = point_file(point, ".metrics.json");
  std::ofstream os(path);
  os << own_metrics->to_json();
  os.close();
  if (os.fail()) throw std::runtime_error("cannot write trace file " + path);
}

}  // namespace

const std::vector<std::string>& replay_policy_names() {
  static const std::vector<std::string> names{
      "AllBSes", "BestBS", "History", "RSSI", "BRR", "Sticky"};
  return names;
}

const std::vector<std::string>& live_policy_names() {
  static const std::vector<std::string> names{"ViFi", "BRR", "Diversity"};
  return names;
}

core::SystemConfig live_policy_config(const std::string& name) {
  check_policy("cbr", name);
  core::SystemConfig sys;  // ViFi: diversity and salvage on.
  if (name == "BRR") {
    sys.vifi.diversity = false;
    sys.vifi.salvage = false;
  } else if (name == "Diversity") {
    sys.vifi.salvage = false;
  }
  return sys;
}

void check_policy(const std::string& workload, const std::string& policy) {
  const bool live = workload == "cbr";
  if (!live && workload != "replay") return;
  const std::vector<std::string>& names =
      live ? live_policy_names() : replay_policy_names();
  if (std::ranges::find(names, policy) != names.end()) return;
  std::string expected;
  for (const std::string& name : names)
    expected += (expected.empty() ? "" : "/") + name;
  throw std::runtime_error("unknown " + std::string(live ? "live" : "replay") +
                           " policy '" + policy + "' (expected " + expected +
                           ")");
}

void check_spec(const ExperimentSpec& spec) {
  for (const std::string& bed : spec.grid.testbeds)
    if (!known_testbed(bed))
      throw std::runtime_error("unknown testbed: " + bed);
  if (spec.workload != "replay" && spec.workload != "cbr")
    throw std::runtime_error("unknown workload '" + spec.workload +
                             "' (expected replay/cbr)");
  for (const std::string& policy : spec.grid.policies)
    check_policy(spec.workload, policy);
  if (spec.workload == "replay" && !spec.grid.coordinations.empty())
    throw std::runtime_error(
        "the coordination axis applies to cbr (live) points only");
  for (const std::string& coordination : spec.grid.coordinations)
    if (coordination != "pab" && coordination != "coord")
      throw std::runtime_error("unknown coordination '" + coordination +
                               "' (expected pab/coord)");
}

const std::vector<double>& cdf_quantiles() {
  static const std::vector<double> qs{0.10, 0.25, 0.50, 0.75, 0.90};
  return qs;
}

void MetricAccumulator::add_trip(const analysis::SlotStream& stream,
                                 const analysis::SessionDef& def) {
  slots += static_cast<std::int64_t>(stream.delivered.size());
  for (const int d : stream.delivered) delivered += d;
  const auto lengths = analysis::session_lengths_s(stream, def);
  session_lengths.insert(session_lengths.end(), lengths.begin(),
                         lengths.end());
  // Per-second goodput of the mirrored workload: reception ratio times
  // the slot capacity (2 x 500 bytes per 100 ms slot).
  const Time interval = Time::seconds(1.0);
  const double slots_per_interval = interval / stream.slot;
  const double interval_capacity_kbits =
      slots_per_interval * stream.per_slot_max * kProbePayloadBytes * 8.0 /
      1000.0;
  for (const double ratio : analysis::interval_ratios(stream, interval))
    throughput_kbps.push_back(ratio * interval_capacity_kbits);
}

void MetricAccumulator::merge(const MetricAccumulator& other) {
  slots += other.slots;
  delivered += other.delivered;
  session_lengths.insert(session_lengths.end(),
                         other.session_lengths.begin(),
                         other.session_lengths.end());
  throughput_kbps.insert(throughput_kbps.end(),
                         other.throughput_kbps.begin(),
                         other.throughput_kbps.end());
}

void MetricAccumulator::finish(int days, PointResult& r) const {
  r.metrics["slots"] = static_cast<double>(slots);
  r.metrics["packets_sent"] = static_cast<double>(2 * slots);
  r.metrics["packets_delivered"] = static_cast<double>(delivered);
  r.metrics["delivery_rate"] =
      slots > 0 ? static_cast<double>(delivered) /
                      static_cast<double>(2 * slots)
                : 0.0;
  r.metrics["packets_per_day"] =
      static_cast<double>(delivered) / static_cast<double>(days);
  r.metrics["session_count"] = static_cast<double>(session_lengths.size());
  r.metrics["median_session_s"] =
      analysis::median_session_length(session_lengths);

  const Cdf sessions = analysis::session_time_cdf(session_lengths);
  Cdf throughput;
  for (const double kbps : throughput_kbps) throughput.add(kbps);
  std::vector<double> session_q, throughput_q;
  for (const double q : cdf_quantiles()) {
    session_q.push_back(sessions.empty() ? 0.0 : sessions.quantile(q));
    throughput_q.push_back(throughput.empty() ? 0.0
                                              : throughput.quantile(q));
  }
  r.series["session_len_s_q"] = std::move(session_q);
  r.series["throughput_kbps_q"] = std::move(throughput_q);
}

analysis::SlotStream outcomes_to_stream(
    const std::vector<handoff::SlotOutcome>& outcomes) {
  analysis::SlotStream s;
  s.slot = Time::millis(100);
  s.per_slot_max = 2;
  s.delivered.reserve(outcomes.size());
  for (const auto& o : outcomes) s.delivered.push_back(o.delivered());
  return s;
}

std::vector<handoff::SlotOutcome> replay_trip(
    const trace::MeasurementTrace& trip, const std::string& policy,
    const trace::Campaign& campaign) {
  return replay_with(trip, policy, handoff::HistoryTables(campaign));
}

PointResult run_point(const ExperimentPoint& point) {
  return run_point_sharded(point, Runner({.threads = 1}));
}

PointResult run_point_sharded(const ExperimentPoint& point,
                              const Runner& pool) {
  PointResult r = identity_of(point);

  // TripScope session. A caller (a test, a benchmark) may have
  // installed a recorder/registry on this thread already — the point then
  // records into those and the caller owns the spool. Otherwise a point
  // that dumps a trace records into its own recorder, and one that dumps a
  // trace or asks for metric columns into its own registry (metric columns
  // alone keep no trace: nothing would write it). Content is a pure
  // function of the point, so sweep trace files are byte-identical for any
  // worker count.
  std::unique_ptr<obs::TraceRecorder> own_recorder;
  std::unique_ptr<obs::MetricsRegistry> own_metrics;
  std::optional<obs::TraceScope> trace_scope;
  std::optional<obs::MetricsScope> metrics_scope;
  if (!point.trace_dir.empty() && obs::current_recorder() == nullptr) {
    own_recorder = std::make_unique<obs::TraceRecorder>(
        std::make_unique<obs::SpoolWriter>(point_file(point, ".spool")));
    trace_scope.emplace(*own_recorder);
  }
  if ((!point.trace_dir.empty() || !point.metric_columns.empty()) &&
      obs::current_metrics() == nullptr) {
    own_metrics = std::make_unique<obs::MetricsRegistry>();
    metrics_scope.emplace(*own_metrics);
  }

  const scenario::Testbed bed = make_testbed(point.testbed, point.fleet_size);
  if (point.workload == "replay") {
    run_replay(bed, point, pool, r);
  } else if (point.workload == "cbr") {
    run_live(bed, point, pool, r);
  } else {
    VIFI_EXPECTS(!"unknown workload (expected replay/cbr)");
  }

  export_tripscope(point, r, own_recorder.get(), obs::current_metrics(),
                   own_metrics.get());
  return r;
}

}  // namespace vifi::runtime
