#pragma once

/// \file catalog.h
/// TraceCatalogs: a manifest-backed directory of `vifi-trace v1` files
/// describing a fleet's replayable trips. The manifest (`manifest.txt`,
/// `vifi-catalog v1`) names the testbed, the fleet, and one trace file per
/// (day, trip, vehicle).
///
/// `CatalogStream` is the one loader: `open` parses and validates the
/// manifest alone (duplicate, vehicle-set and fleet-size checks are all
/// manifest-derivable), and `load_group` reads one trip group's traces at
/// a time, so a thousand-vehicle catalog never has to sit in memory whole.
/// `TraceCatalog` is that stream with every group loaded, held as one
/// immutable Campaign for the consumers that need the whole catalog at
/// once (the replay workload's History policy, the coord history fit).
///
/// `load_catalog_shared` adds a process-wide cache keyed by directory:
/// runtime workers sweeping a `trace_sets` axis all share one parsed,
/// immutable catalog instead of re-reading files per point.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "trace/observations.h"

namespace vifi::tracegen {

using sim::NodeId;

/// Lazy view of a catalog directory: `open` parses and validates the
/// manifest without reading any trace file; `load_group` materialises one
/// (day, trip) fleet group on demand. `TraceCatalog::load` is exactly this
/// stream with every group loaded in index order, so a sharded replay that
/// folds groups in index order sees the eager catalog's traces while
/// holding only one group in memory per worker.
class CatalogStream {
 public:
  /// Parses `dir/manifest.txt`. Throws std::runtime_error with a crisp
  /// message on every manifest-level defect (missing file, bad
  /// magic/header, duplicate entries, mismatched trip vehicle sets,
  /// fleet-size contradictions). Trace-level defects (unreadable files,
  /// headers contradicting the manifest, ragged trip durations) surface
  /// from `load_group`.
  static CatalogStream open(const std::string& dir);

  const std::string& name() const { return name_; }
  const std::string& testbed() const { return testbed_; }
  const std::string& dir() const { return dir_; }
  int fleet_size() const { return fleet_size_; }
  const std::vector<NodeId>& vehicle_ids() const { return vehicle_ids_; }
  int days() const { return days_; }
  std::size_t trip_groups() const { return groups_.size(); }

  /// The (day, trip) coordinates of a group, in the catalog's canonical
  /// (day, trip)-sorted group order.
  std::pair<int, int> group_key(std::size_t group) const;

  /// Reads and validates one trip group's traces, in vehicle-id order —
  /// the shape `trace::build_fleet_loss_schedule` and the fleet `LiveTrip`
  /// take. The returned vector owns its traces; nothing is cached.
  std::vector<trace::MeasurementTrace> load_group(std::size_t group) const;

 private:
  struct GroupEntry {
    std::string file;
    int day = 0;
    int trip = 0;
    NodeId vehicle;
  };

  std::string name_;
  std::string testbed_;
  std::string dir_;
  int fleet_size_ = 0;
  int days_ = 1;
  std::vector<NodeId> vehicle_ids_;
  std::vector<std::vector<GroupEntry>> groups_;  ///< Vehicle order per group.
};

/// A whole catalog in memory: the stream's manifest plus every trip
/// group's traces, loaded in group order into one Campaign.
class TraceCatalog {
 public:
  /// `CatalogStream::open(dir)` followed by `load_group` for every group,
  /// in order; throws whatever those throw.
  static TraceCatalog load(const std::string& dir);

  const std::string& name() const { return stream_.name(); }
  const std::string& testbed() const { return stream_.testbed(); }
  const std::string& dir() const { return stream_.dir(); }
  int fleet_size() const { return stream_.fleet_size(); }
  /// The fleet's vehicle ids (every trip group carries exactly this set),
  /// in id order.
  const std::vector<NodeId>& vehicle_ids() const {
    return stream_.vehicle_ids();
  }
  /// Distinct campaign days the catalog covers (>= 1).
  int days() const { return stream_.days(); }

  /// The catalog as a Campaign (its testbed, and every trace ordered by
  /// (day, trip, vehicle)) — what the History policy and the coord history
  /// fit read.
  const trace::Campaign& campaign() const { return campaign_; }
  /// All traces, ordered by (day, trip, vehicle).
  const std::vector<trace::MeasurementTrace>& traces() const {
    return campaign_.trips;
  }

  /// Number of (day, trip) fleet groups.
  std::size_t trip_groups() const { return stream_.trip_groups(); }

 private:
  CatalogStream stream_;
  trace::Campaign campaign_;
};

/// Writes \p campaign as a catalog: one `vifi-trace v1` file per trace plus
/// the manifest. Creates \p dir (and parents) if needed; overwrites an
/// existing manifest. Every trace must name its logging vehicle, and every
/// (day, trip) must carry the same vehicle set.
void write_catalog(const std::string& dir, const std::string& catalog_name,
                   const trace::Campaign& campaign);

/// Loads through the process-wide cache: repeated calls for the same
/// directory return the *same* immutable instance, so concurrent runtime
/// workers share one parsed copy. Thread-safe.
std::shared_ptr<const TraceCatalog> load_catalog_shared(
    const std::string& dir);

/// Drops the cache (tests; also lets a CLI re-read a rewritten catalog).
void drop_catalog_cache();

}  // namespace vifi::tracegen
