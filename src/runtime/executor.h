#pragma once

/// \file executor.h
/// Built-in interpretation of an `ExperimentPoint`: construct the testbed,
/// realise the measurement campaign from the point's derived seed (once
/// per sweep, shared by the points that replay it), run the policy — trace
/// replay for the §3.1 policies, the live ViFi/BRR/Diversity stacks for
/// the "cbr" workload, each built by name here — and distil the standard
/// metric set (delivery rate, packets/day, session lengths, throughput CDF
/// quantiles, MOS).

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/sessions.h"
#include "core/system.h"
#include "handoff/replay.h"
#include "runtime/experiment.h"
#include "runtime/result.h"
#include "trace/observations.h"

namespace vifi::runtime {

class Runner;

/// Replay policy names understood by the executor, in the paper's ordering.
const std::vector<std::string>& replay_policy_names();

/// Live ("cbr" workload) policy names: the §5 ViFi stack and its two
/// baselines, BRR hard handoff and "only diversity" (fig09).
const std::vector<std::string>& live_policy_names();

/// The stack switches of live policy \p name: ViFi keeps diversity and
/// salvage on, Diversity turns salvage off, BRR turns both off; every
/// other field keeps its default. Throws std::runtime_error naming the
/// policy and the expected names for any other name.
core::SystemConfig live_policy_config(const std::string& name);

/// Throws std::runtime_error ("unknown replay policy 'X' (expected ...)",
/// or the live equivalent) unless \p policy is one of \p workload's
/// names. An unknown workload is left to the point, which fails on it.
void check_policy(const std::string& workload, const std::string& policy);

/// Throws std::runtime_error naming the first thing in \p spec no point
/// can run: an unknown testbed, workload, policy or coordination, or a
/// coordination axis on replay points (which ignore it). A CLI calls it
/// before enumerating, so a bad spec is one usage error rather than a
/// failure per point; the executor keeps its own checks for hand-built
/// points.
void check_spec(const ExperimentSpec& spec);

/// Converts replay outcomes into the analysis slot stream (100 ms slots,
/// one packet each way).
analysis::SlotStream outcomes_to_stream(
    const std::vector<handoff::SlotOutcome>& outcomes);

/// Quantile grid used for every CDF series the executor emits.
const std::vector<double>& cdf_quantiles();

/// Replays one trip under a named §3.1 policy (AllBSes handled specially;
/// History needs the whole campaign). Shared with bench ports.
std::vector<handoff::SlotOutcome> replay_trip(
    const trace::MeasurementTrace& trip, const std::string& policy,
    const trace::Campaign& campaign);

/// Accumulates the metric set shared by replay and live workloads, one
/// trip at a time. Counters are exact and sample vectors append in call
/// order, so folding per-trip partials with merge() *in trip order*
/// reproduces a sequential accumulation bit for bit — the contract the
/// sharded executor's byte-identity rests on.
struct MetricAccumulator {
  std::int64_t slots = 0;
  std::int64_t delivered = 0;
  std::vector<double> session_lengths;
  /// Per-second goodput samples of the mirrored workload, in kbit/s.
  std::vector<double> throughput_kbps;

  void add_trip(const analysis::SlotStream& stream,
                const analysis::SessionDef& def);
  /// Appends \p other's counters and samples after this accumulator's.
  void merge(const MetricAccumulator& other);
  /// Distils the standard metric/series set into \p r.
  void finish(int days, PointResult& r) const;
};

/// Executes one point end-to-end on the calling thread:
/// run_point_sharded over an inline single-worker pool. The point is the
/// only input: the executor builds its own Testbed, Simulator and Rng
/// streams. A replay point with a campaign pool (ExperimentPoint::campaigns)
/// shares its generated campaign with the concurrent calls that replay it:
/// each generates some of its trips, waits for the rest, and reads the
/// write-once result — byte for byte the campaign it would generate alone.
PointResult run_point(const ExperimentPoint& point);

/// Executes one point, sharding its trips across \p pool's workers. Both
/// workloads run one trip loop: a "replay" trip is one trace of the
/// point's campaign, a "cbr" trip is a catalog's trip group (the catalog
/// opened as a CatalogStream, manifest only; each worker loads just its
/// own group) or one of days x trips_per_day stochastic draws from per-trip
/// seeds. Each trip records into its own TripScope recorder/registry when
/// the point has a session (point-owned, or installed by the caller);
/// outcomes and sessions fold in trip order, so the result and every trace
/// artifact are byte-identical for any thread count. Throws on trip
/// failure ("trip N: ..."), leaving no part spool behind.
PointResult run_point_sharded(const ExperimentPoint& point,
                              const Runner& pool);

}  // namespace vifi::runtime
