// TripScope CLI: replay one experiment point under full observability and
// show what the protocol actually did — a per-node timeline summary of
// typed protocol events (beacons, anchor switches, relay decisions,
// salvage hand-offs, the frame lifecycle), the unified metrics registry,
// and a reconciliation of timeline events against the point's delivery
// counters. Optionally exports the timeline as Chrome trace-event JSON
// (loadable in Perfetto / chrome://tracing), a JSONL event stream, and a
// metrics JSON document.
//
// The `query` subcommand reads a spooled trace (sweep --trace) without
// loading it whole: the spool's footer index seeks straight to a
// node's chunks, filters stream chunk-by-chunk, per-kind counts reconcile
// exactly against the recorder counters stored in the footer, and span
// summaries report anchor-tenure percentiles and the handoff gap
// distribution.
//
// Examples:
//   tripscope --testbed VanLAN --workload cbr --policy ViFi
//   tripscope --testbed DieselNet-Ch1 --fleet 4 --workload cbr --out /tmp/ts
//   tripscope --catalog ./catalog_dir --workload cbr --policy ViFi
//   tripscope query /tmp/traces/point_0000.spool --counts --spans
//   tripscope query point_0000.spool --node 3 --kind anchor_change --jsonl

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "cli_args.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/span.h"
#include "obs/spool.h"
#include "runtime/executor.h"
#include "runtime/experiment.h"
#include "util/cdf.h"
#include "util/table.h"

using namespace vifi;

namespace {

int usage(const char* argv0) {
  std::cerr
      << "Usage: " << argv0 << " [options]\n"
      << "  --testbed NAME     VanLAN (default), DieselNet-Ch1, "
         "DieselNet-Ch6\n"
      << "  --fleet N          vehicles riding the testbed (default 1)\n"
      << "  --policy P         replay: AllBSes/BestBS/History/RSSI/BRR/"
         "Sticky\n"
      << "                     cbr (live): ViFi/BRR/Diversity (default "
         "ViFi)\n"
      << "  --workload W       cbr (default) or replay\n"
      << "  --seed N           replicate seed (default 1)\n"
      << "  --days N           campaign days (default 1)\n"
      << "  --trips N          trips per day (default 1)\n"
      << "  --trip-seconds S   trip length; 0 = one full route lap\n"
      << "  --catalog DIR      TraceCatalog directory to replay instead of\n"
         "                     generating the campaign\n"
      << "  --events N         print the first N merged timeline events\n"
         "                     (default 0)\n"
      << "  --out DIR          export trip.trace.json (Chrome/Perfetto),\n"
         "                     trip.jsonl and trip.metrics.json into DIR\n"
      << "Subcommands:\n"
      << "  query SPOOL ...    inspect a spooled trace (sweep --trace);\n"
         "                     see `" << argv0
      << " query`\n";
  return 2;
}

std::string node_name(const obs::TraceRecorder& rec, sim::NodeId node) {
  if (!node.valid()) return "-";
  std::string name = node.to_string();
  const std::string& label = rec.node_label(node);
  if (!label.empty()) name += "(" + label + ")";
  return name;
}

// --- the query subcommand --------------------------------------------------

int query_usage(const char* argv0) {
  std::cerr
      << "Usage: " << argv0 << " query SPOOL [options]\n"
      << "  Reads a TripScope spool (sweep --trace) via its footer index —\n"
         "  chunks stream from disk, never the whole file.\n"
      << "  --node N           only node N's events (footer-index seek)\n"
      << "  --kind NAME        only events of this kind (e.g. beacon_rx,\n"
         "                     anchor_change, coord_transition)\n"
      << "  --from S / --to S  only events in the [S, S] second window\n"
      << "  --limit N          print the first N matching events (timeline\n"
         "                     order) as a table\n"
      << "  --jsonl            print matching events as JSONL instead\n"
      << "  --counts           per-kind counts: full chunk scan reconciled\n"
         "                     exactly against the footer's recorder\n"
         "                     counters (exit 1 on any mismatch)\n"
      << "  --spans            span summaries: anchor-tenure percentiles,\n"
         "                     handoff gap distribution, coord-phase\n"
         "                     occupancy, contact runs\n"
      << "  With none of --limit/--jsonl/--counts/--spans, prints the\n"
      << "  overview plus --counts and --spans.\n";
  return 2;
}

std::optional<obs::EventKind> parse_kind(const std::string& name) {
  for (int k = 0; k < obs::kEventKindCount; ++k) {
    const auto kind = static_cast<obs::EventKind>(k);
    if (name == obs::to_string(kind)) return kind;
  }
  return std::nullopt;
}

std::string spool_node_name(const obs::SpoolReader& reader, sim::NodeId node) {
  if (!node.valid()) return "-";
  std::string name = node.to_string();
  const obs::SpoolNodeIndex* idx = reader.find_node(node);
  if (idx != nullptr && !idx->label.empty()) name += "(" + idx->label + ")";
  return name;
}

std::string quantile_row(const Cdf& cdf, double q) {
  return cdf.empty() ? "-" : TextTable::num(cdf.quantile(q), 3);
}

/// Per-kind counts from a full chunk scan, reconciled against the footer's
/// recorder counters. Returns false on any mismatch.
bool query_counts(const obs::SpoolReader& reader) {
  std::uint64_t scanned[obs::kEventKindCount] = {};
  std::uint64_t total = 0;
  reader.scan([&](const obs::TraceEvent& e) {
    ++scanned[static_cast<int>(e.kind)];
    ++total;
  });
  bool ok = true;
  TextTable table("Event counts (chunk scan vs recorder counters)");
  table.set_header({"event", "scanned", "recorded", "match"});
  for (int k = 0; k < obs::kEventKindCount; ++k) {
    const auto kind = static_cast<obs::EventKind>(k);
    // Log lines travel in the footer, not as chunk records.
    const std::uint64_t have = kind == obs::EventKind::Log
                                   ? static_cast<std::uint64_t>(
                                         reader.logs().size())
                                   : scanned[k];
    const std::uint64_t want = reader.kind_count(kind);
    if (have == 0 && want == 0) continue;
    if (have != want) ok = false;
    table.add_row({obs::to_string(kind), std::to_string(have),
                   std::to_string(want), have == want ? "ok" : "MISMATCH"});
  }
  table.print(std::cout);
  std::cout << total << " records scanned, " << reader.recorded()
            << " recorded in footer"
            << (total == reader.recorded() ? "" : "  [MISMATCH]") << "\n\n";
  if (total != reader.recorded()) ok = false;
  return ok;
}

void query_spans(const obs::SpoolReader& reader) {
  obs::SpanBuilder builder;
  reader.visit([&builder](const obs::TraceEvent& e) { builder.add(e); });
  const std::vector<obs::Span> spans =
      builder.finish(Time::micros(reader.max_at_us()));

  // Anchor tenures: how long each designation stretch lasted, and the
  // handoff gap (anchor-less stretch) between consecutive tenures of the
  // same vehicle.
  Cdf tenure_s, gap_s, contact_s;
  std::size_t tenures = 0, contacts = 0;
  std::map<sim::NodeId, Time> last_tenure_end;
  std::map<std::string, Time> phase_occupancy;
  for (const obs::Span& span : spans) {
    switch (span.kind) {
      case obs::SpanKind::AnchorTenure: {
        ++tenures;
        tenure_s.add(span.duration().to_seconds());
        const auto it = last_tenure_end.find(span.node);
        if (it != last_tenure_end.end())
          gap_s.add((span.begin - it->second).to_seconds());
        last_tenure_end[span.node] = span.end;
        break;
      }
      case obs::SpanKind::CoordPhase:
        phase_occupancy[span.detail] += span.duration();
        break;
      case obs::SpanKind::Contact:
        ++contacts;
        contact_s.add(span.duration().to_seconds());
        break;
    }
  }

  TextTable table("Span summaries (seconds)");
  table.set_header({"span", "count", "p10", "p25", "p50", "p75", "p90"});
  const auto add_cdf_row = [&table](const std::string& name, std::size_t n,
                                    const Cdf& cdf) {
    table.add_row({name, std::to_string(n), quantile_row(cdf, 0.10),
                   quantile_row(cdf, 0.25), quantile_row(cdf, 0.50),
                   quantile_row(cdf, 0.75), quantile_row(cdf, 0.90)});
  };
  add_cdf_row("anchor_tenure", tenures, tenure_s);
  add_cdf_row("handoff_gap", gap_s.sample_count(), gap_s);
  add_cdf_row("contact", contacts, contact_s);
  table.print(std::cout);
  std::cout << "\n";

  if (!phase_occupancy.empty()) {
    TextTable phases("Coord-phase occupancy");
    phases.set_header({"phase", "total_s"});
    for (const auto& [phase, total] : phase_occupancy)
      phases.add_row({phase, TextTable::num(total.to_seconds(), 3)});
    phases.print(std::cout);
    std::cout << "\n";
  }
}

int run_query(int argc, char** argv) {
  if (argc < 3) return query_usage(argv[0]);
  const std::string path = argv[2];
  std::optional<sim::NodeId> node_filter;
  std::optional<obs::EventKind> kind_filter;
  Time from = Time::micros(INT64_MIN);
  Time to = Time::max();
  std::size_t limit = 0;
  bool jsonl = false, counts = false, spans = false;

  try {
    for (int i = 3; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) {
          std::cerr << arg << " needs a value\n";
          std::exit(query_usage(argv[0]));
        }
        return argv[++i];
      };
      if (arg == "--node")
        node_filter = sim::NodeId{cli::parse_number(arg, value(), 0)};
      else if (arg == "--kind") {
        const std::string name = value();
        kind_filter = parse_kind(name);
        if (!kind_filter) {
          std::cerr << "unknown event kind: " << name << "\n";
          return query_usage(argv[0]);
        }
      }
      else if (arg == "--from")
        from = Time::seconds(cli::parse_number(arg, value(), 0.0, 1e9));
      else if (arg == "--to")
        to = Time::seconds(cli::parse_number(arg, value(), 0.0, 1e9));
      else if (arg == "--limit")
        limit = cli::parse_number<std::size_t>(arg, value());
      else if (arg == "--jsonl") jsonl = true;
      else if (arg == "--counts") counts = true;
      else if (arg == "--spans") spans = true;
      else return query_usage(argv[0]);
    }
  } catch (const cli::BadNumber& e) {
    std::cerr << e.what() << "\n";
    return query_usage(argv[0]);
  }
  const bool overview = !counts && !spans && limit == 0 && !jsonl;
  if (overview) counts = spans = true;

  try {
    const obs::SpoolReader reader(path);

    if (overview) {
      std::cout << "Spool: " << reader.path() << "\n  " << reader.recorded()
                << " events across " << reader.nodes().size()
                << " nodes, timeline end "
                << Time::micros(reader.max_at_us()).to_seconds() << "s, "
                << reader.logs().size() << " log lines, block "
                << reader.block_events() << " events\n\n";
    }

    if (limit > 0 || jsonl) {
      // Stream the records in timeline (seq) order — one node's chunks via
      // the footer index when --node is given, else the whole spool's
      // ordered merge — keeping the first `limit` matches.
      std::vector<obs::TraceEvent> matched;
      std::size_t shown = 0;
      std::string line;
      const auto consider = [&](const obs::TraceEvent& e) {
        if (kind_filter && e.kind != *kind_filter) return;
        if (e.at < from || e.at > to) return;
        if (limit > 0 && shown == limit) return;
        ++shown;
        if (!jsonl) {
          matched.push_back(e);
          return;
        }
        line.clear();
        obs::append_jsonl(line, e);
        std::cout << line;
      };
      if (node_filter)
        reader.scan_node(*node_filter, consider);
      else
        reader.visit(consider);
      if (!jsonl) {
        TextTable table("Matching events (" + std::to_string(matched.size()) +
                        ")");
        table.set_header({"t_s", "kind", "node", "peer", "id", "a", "b", "c"});
        for (const obs::TraceEvent& e : matched)
          table.add_row({TextTable::num(e.at.to_seconds(), 3),
                         obs::to_string(e.kind), spool_node_name(reader, e.node),
                         spool_node_name(reader, e.peer), std::to_string(e.id),
                         TextTable::num(e.a, 4), TextTable::num(e.b, 4),
                         std::to_string(e.c)});
        table.print(std::cout);
        std::cout << "\n";
      }
    }

    bool ok = true;
    if (counts) ok = query_counts(reader);
    if (spans) query_spans(reader);
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "query")
    return run_query(argc, argv);

  // A one-point sweep: the point, its seeds included, is the one `sweep`
  // enumerates for the same flags, so both export the same timeline.
  runtime::ExperimentSpec spec;
  spec.grid.testbeds = {"VanLAN"};
  spec.grid.policies = {"ViFi"};
  spec.workload = "cbr";
  spec.days = 1;
  spec.trips_per_day = 1;
  std::string out_dir;
  std::size_t print_events = 0;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) {
          std::cerr << arg << " needs a value\n";
          std::exit(usage(argv[0]));
        }
        return argv[++i];
      };
      if (arg == "--testbed") spec.grid.testbeds = {value()};
      else if (arg == "--fleet")
        spec.grid.fleet_sizes = {cli::parse_number(arg, value(), 1)};
      else if (arg == "--policy") spec.grid.policies = {value()};
      else if (arg == "--workload") spec.workload = value();
      else if (arg == "--seed")
        spec.grid.seeds = {cli::parse_number<std::uint64_t>(arg, value())};
      else if (arg == "--days") spec.days = cli::parse_number(arg, value(), 0);
      else if (arg == "--trips")
        spec.trips_per_day = cli::parse_number(arg, value(), 0);
      else if (arg == "--trip-seconds")
        spec.trip_duration =
            Time::seconds(cli::parse_number(arg, value(), 0.0, 1e7));
      else if (arg == "--catalog") spec.grid.trace_sets = {value()};
      else if (arg == "--events")
        print_events = cli::parse_number<std::size_t>(arg, value());
      else if (arg == "--out") out_dir = value();
      else return usage(argv[0]);
    }
  } catch (const cli::BadNumber& e) {
    std::cerr << e.what() << "\n";
    return usage(argv[0]);
  }
  try {
    runtime::check_spec(spec);
  } catch (const std::runtime_error& e) {
    std::cerr << e.what() << "\n";
    return usage(argv[0]);
  }
  namespace fs = std::filesystem;
  if (!out_dir.empty()) {
    // Fail before the point runs, not after it.
    std::error_code ec;
    fs::create_directories(out_dir, ec);
    if (ec) {
      std::cerr << "error: cannot create output directory " << out_dir << ": "
                << ec.message() << "\n";
      return 1;
    }
  }
  const runtime::ExperimentPoint point = spec.enumerate().front();

  // Install the observability session ourselves: run_point records into it
  // and we own the printing/export afterwards.
  obs::TraceRecorder recorder;
  obs::MetricsRegistry metrics;
  runtime::PointResult result;
  {
    obs::TraceScope trace_scope(recorder);
    obs::MetricsScope metrics_scope(metrics);
    try {
      result = runtime::run_point(point);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }

  std::cout << "TripScope: " << point.testbed << " fleet="
            << point.fleet_size << " policy=" << point.policy
            << " workload=" << point.workload << " seed=" << point.seed
            << "\n\n";

  // --- timeline summary: events per node per category ---------------------
  {
    TextTable table("Timeline summary (events per node)");
    table.set_header({"node", "events", "beacon", "designation", "relay",
                      "salvage", "mac", "app", "handoff"});
    struct NodeCounts {
      std::uint64_t events = 0;
      std::map<std::string, std::uint64_t> per_cat;
    };
    std::map<sim::NodeId, NodeCounts> per_node;
    recorder.visit([&per_node](const obs::TraceEvent& e) {
      NodeCounts& counts = per_node[e.node];
      ++counts.events;
      ++counts.per_cat[obs::category(e.kind)];
    });
    for (const sim::NodeId node : recorder.nodes()) {
      auto& [events, per_cat] = per_node[node];
      table.add_row({node_name(recorder, node), std::to_string(events),
                     std::to_string(per_cat["beacon"]),
                     std::to_string(per_cat["designation"]),
                     std::to_string(per_cat["relay"]),
                     std::to_string(per_cat["salvage"]),
                     std::to_string(per_cat["mac"]),
                     std::to_string(per_cat["app"]),
                     std::to_string(per_cat["handoff"])});
    }
    table.print(std::cout);
    std::cout << recorder.recorded() << " events recorded\n\n";
  }

  // --- per-kind exact counts ----------------------------------------------
  {
    TextTable table("Protocol event counts (exact)");
    table.set_header({"event", "count"});
    for (int k = 0; k < obs::kEventKindCount; ++k) {
      const auto kind = static_cast<obs::EventKind>(k);
      if (recorder.count(kind) == 0) continue;
      table.add_row({obs::to_string(kind),
                     std::to_string(recorder.count(kind))});
    }
    table.print(std::cout);
    std::cout << "\n";
  }

  if (print_events > 0) {
    std::cout << "First " << print_events << " timeline events:\n";
    std::size_t shown = 0;
    recorder.visit([&](const obs::TraceEvent& e) {
      if (shown++ >= print_events) return;
      std::cout << "  t=" << e.at.to_micros() << "us " << obs::to_string(e.kind)
                << " node=" << node_name(recorder, e.node)
                << " peer=" << node_name(recorder, e.peer) << " id=" << e.id
                << " a=" << e.a << " b=" << e.b << " c=" << e.c << "\n";
    });
    std::cout << "\n";
  }

  // --- point metrics + registry -------------------------------------------
  {
    TextTable table("Point metrics");
    table.set_header({"metric", "value"});
    for (const auto& [name, v] : result.metrics)
      table.add_row({name, TextTable::num(v, 4)});
    table.print(std::cout);
    std::cout << "\n";
  }
  {
    TextTable table("Metrics registry (totals by name)");
    table.set_header({"name", "total"});
    std::map<std::string, double> totals;
    for (const auto& [key, v] : metrics.flatten()) {
      const std::string name = key.substr(0, key.find('{'));
      totals[name] += v;
    }
    for (const auto& [name, v] : totals)
      table.add_row({name, TextTable::num(v, 4)});
    table.print(std::cout);
    std::cout << "\n";
  }

  // --- reconciliation: timeline vs delivery counters ----------------------
  {
    const double app_delivered =
        static_cast<double>(recorder.count(obs::EventKind::AppDeliver));
    const auto it = result.metrics.find("packets_delivered");
    std::cout << "Reconciliation: " << app_delivered
              << " AppDeliver timeline events";
    if (it != result.metrics.end()) {
      // The timeline counts unique end-to-end deliveries; the workload
      // counters count deliveries within the slot deadline, so the
      // timeline reads >= the counter.
      std::cout << " vs packets_delivered=" << it->second
                << (app_delivered + 0.5 >= it->second ? "  [ok]"
                                                      : "  [MISMATCH]");
    }
    std::cout << "\n";
    std::cout << "  relay: " << recorder.count(obs::EventKind::RelayEval)
              << " evaluations, " << recorder.count(obs::EventKind::RelayTx)
              << " relays sent; salvage: "
              << recorder.count(obs::EventKind::SalvageRequest)
              << " requests, "
              << recorder.count(obs::EventKind::SalvageHandoff)
              << " packets handed off, "
              << recorder.count(obs::EventKind::SalvageDeliver)
              << " delivered to the new anchor\n\n";
  }

  if (!out_dir.empty()) {
    const fs::path base = fs::path(out_dir);
    using Render = std::function<void(std::ostream&)>;
    const std::pair<const char*, Render> files[] = {
        {"trip.trace.json",
         [&](std::ostream& os) { obs::write_chrome_trace(recorder, os); }},
        {"trip.jsonl",
         [&](std::ostream& os) { obs::write_jsonl(recorder, os); }},
        {"trip.metrics.json",
         [&](std::ostream& os) { os << metrics.to_json(); }}};
    for (const auto& [name, render] : files) {
      const std::string path = (base / name).string();
      std::ofstream os(path);
      render(os);
      os.close();
      if (os.fail()) {
        std::cerr << "error: cannot write " << path << "\n";
        return 1;
      }
    }
    std::cout << "wrote " << (base / "trip.trace.json").string()
              << " (load in Perfetto), trip.jsonl, trip.metrics.json\n";
  }
  return result.error.empty() ? 0 : 1;
}
