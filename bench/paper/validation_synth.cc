// Synthetic-vs-source validation of TraceForge (tracegen): a model fitted
// on a recorded campaign must synthesize traces whose replay-relevant
// statistics match the source, the same way §5.1 validates the
// trace-driven methodology against the deployment. Three fidelity gates,
// per testbed:
//
//  * contact-duration CDF distance — Kolmogorov–Smirnov statistic between
//    source and synthetic pooled contact durations;
//  * mean loss gap — |mean in-contact beacon loss (synth) - (source)|;
//  * burstiness ratio gap — conditional-loss clustering à la Fig. 6:
//    |P(loss_{i+1}|loss_i)/P(loss) (synth) - (source)|.
//
// All three are deterministic functions of the committed seeds (they
// transfer across machines) and smaller is better. `paper
// validation_synth --json PATH` writes them as value entries
// (bigger_is_better: false) for bench_compare.py, so a fidelity
// regression fails CI like a slowdown.
// Values are floored at 0.01: the gate compares ratios, and a
// near-zero baseline would turn double noise into spurious failures.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "figures.h"
#include "tracegen/fit.h"
#include "tracegen/synth.h"

using namespace vifi;

namespace {

struct Fidelity {
  double ks = 0.0;
  double loss_gap = 0.0;
  double burst_gap = 0.0;
  double burst_ratio_src = 0.0;
  double burst_ratio_syn = 0.0;
  double loss_src = 0.0;
  double loss_syn = 0.0;
};

/// Floor for gate entries: keeps the baseline ratio meaningful when the
/// match is essentially perfect.
double gated(double v) { return std::max(v, 0.01); }

Fidelity validate(const std::string& testbed, std::uint64_t source_seed,
                  std::uint64_t synth_seed) {
  const int trips = 4 * bench::scale();
  const Time duration = Time::seconds(120.0);

  const scenario::Testbed bed = runtime::make_testbed(testbed, 1);
  scenario::CampaignConfig cfg;
  cfg.days = 1;
  cfg.trips_per_day = trips;
  cfg.trip_duration = duration;
  cfg.seed = source_seed;
  cfg.log_probes = false;
  const trace::Campaign source = scenario::generate_campaign(bed, cfg);

  const tracegen::TraceModel model = tracegen::fit_model(source);
  tracegen::SynthesisSpec spec;
  spec.vehicles = 1;
  spec.trips_per_day = trips;
  spec.trip_duration = duration;
  spec.seed = synth_seed;
  const trace::Campaign synth = tracegen::synthesize_fleet(model, spec);

  std::vector<const trace::MeasurementTrace*> src, syn;
  for (const auto& t : source.trips) src.push_back(&t);
  for (const auto& t : synth.trips) syn.push_back(&t);

  Fidelity f;
  f.ks = tracegen::ks_distance(tracegen::pooled_contact_durations(src),
                               tracegen::pooled_contact_durations(syn));
  f.loss_src = tracegen::pooled_contact_loss(src);
  f.loss_syn = tracegen::pooled_contact_loss(syn);
  f.loss_gap = std::abs(f.loss_syn - f.loss_src);
  f.burst_ratio_src = tracegen::measure_burstiness(src).ratio();
  f.burst_ratio_syn = tracegen::measure_burstiness(syn).ratio();
  f.burst_gap = std::abs(f.burst_ratio_syn - f.burst_ratio_src);
  return f;
}

}  // namespace

std::vector<vifi::bench::ValueEntry> vifi::bench::validation_synth() {
  std::vector<ValueEntry> entries;
  TextTable table(
      "TraceForge validation — synthetic vs source trace statistics");
  table.set_header({"testbed", "contact CDF KS", "mean loss (src)",
                    "mean loss (synth)", "loss gap", "burst ratio (src)",
                    "burst ratio (synth)", "burst gap"});
  for (const std::string bed : {"VanLAN", "DieselNet-Ch1"}) {
    const Fidelity f = validate(bed, 16180, 27182);
    table.add_row({bed, TextTable::num(f.ks, 3),
                   TextTable::pct(f.loss_src, 1),
                   TextTable::pct(f.loss_syn, 1),
                   TextTable::num(f.loss_gap, 3),
                   TextTable::num(f.burst_ratio_src, 2),
                   TextTable::num(f.burst_ratio_syn, 2),
                   TextTable::num(f.burst_gap, 2)});
    const std::string prefix = "ValidationSynth/" + bed + "/";
    entries.push_back({prefix + "contact_cdf_ks", gated(f.ks), false});
    entries.push_back({prefix + "mean_loss_gap", gated(f.loss_gap), false});
    entries.push_back(
        {prefix + "burstiness_ratio_gap", gated(f.burst_gap), false});
  }
  table.print(std::cout);
  std::cout << "\nPaper shape check: synthetic traces keep the source's "
               "contact-duration CDF (small KS), its in-contact loss level, "
               "and its conditional-loss clustering (burst ratio > 1 on "
               "both sides, Fig. 6).\n";
  return entries;
}
