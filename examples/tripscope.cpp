// TripScope CLI: reads the spool a traced sweep point writes (`sweep
// --trace DIR` leaves DIR/point_NNNN.spool) and shows what the protocol
// actually did.
//
// `export` renders a spool's two text exports beside it in one pass over
// its events: point_NNNN.trace.json (Chrome trace-event JSON, loadable in
// Perfetto / chrome://tracing) and point_NNNN.jsonl (one event per line).
//
// `query` reads a spool without loading it whole: the footer index seeks
// straight to a node's chunks, filters stream chunk-by-chunk, per-kind
// counts reconcile exactly against the recorder counters stored in the
// footer, and span summaries report anchor-tenure percentiles and the
// handoff gap distribution. Its overview also tabulates each node's
// events by category.
//
// Examples:
//   tripscope export /tmp/traces/point_0000.spool
//   tripscope query /tmp/traces/point_0000.spool --counts --spans
//   tripscope query point_0000.spool --node 3 --kind anchor_change --jsonl

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cli_args.h"
#include "obs/export.h"
#include "obs/span.h"
#include "obs/spool.h"
#include "util/cdf.h"
#include "util/table.h"

using namespace vifi;

namespace {

int usage(const char* argv0) {
  std::cerr << "Usage: " << argv0 << " export SPOOL | query SPOOL [options]\n"
            << "  export SPOOL       write X.trace.json (Chrome/Perfetto)\n"
               "                     and X.jsonl beside SPOOL (X.spool,\n"
               "                     from sweep --trace) in one pass\n"
            << "  query SPOOL ...    inspect a spool; see `" << argv0
            << " query`\n";
  return 2;
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
      << "  overview plus --counts, a per-node table of events by\n"
      << "  category, and --spans.\n";
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
    const std::uint64_t have = scanned[k];
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

/// Per-kind event counts of each node.
using KindCounts = std::map<sim::NodeId, std::array<std::uint64_t,
                                                    obs::kEventKindCount>>;

/// Each node's events by category, one row per node of the footer index
/// and one column per category in kind order (none for the retired Log
/// kind, which no event carries).
void print_node_table(const obs::SpoolReader& reader,
                      const KindCounts& per_node) {
  std::vector<std::string> header{"node", "events"};
  for (int k = 0; k < obs::kEventKindCount; ++k) {
    const std::string category = obs::category(static_cast<obs::EventKind>(k));
    if (category != "log" &&
        std::find(header.begin(), header.end(), category) == header.end())
      header.push_back(category);
  }
  TextTable table("Timeline summary (events per node)");
  table.set_header(header);
  for (const obs::SpoolNodeIndex& idx : reader.nodes()) {
    std::vector<std::string> row{spool_node_name(reader, idx.node),
                                 std::to_string(idx.events)};
    const auto it = per_node.find(idx.node);
    for (std::size_t col = 2; col < header.size(); ++col) {
      std::uint64_t n = 0;
      for (int k = 0; it != per_node.end() && k < obs::kEventKindCount; ++k)
        if (obs::category(static_cast<obs::EventKind>(k)) == header[col])
          n += it->second[k];
      row.push_back(std::to_string(n));
    }
    table.add_row(row);
  }
  table.print(std::cout);
  std::cout << "\n";
}

/// Span summaries, from one visit; with \p node_table the same visit
/// also tallies the per-node table, printed first.
void query_spans(const obs::SpoolReader& reader, bool node_table) {
  obs::SpanBuilder builder;
  KindCounts per_node;
  reader.visit([&](const obs::TraceEvent& e) {
    builder.add(e);
    if (node_table) ++per_node[e.node][static_cast<int>(e.kind)];
  });
  if (node_table) print_node_table(reader, per_node);
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
                << Time::micros(reader.max_at_us()).to_seconds()
                << "s, block "
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
    if (spans) query_spans(reader, overview);
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc >= 2 ? argv[1] : "";
  if (command == "query") return run_query(argc, argv);
  if (command != "export" || argc != 3) return usage(argv[0]);
  try {
    obs::export_spool(argv[2]);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
