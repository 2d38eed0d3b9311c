#pragma once

/// \file medium.h
/// The shared wireless medium. Physics only: per-receiver delivery sampling
/// through the channel's LossModel, airtime occupancy at a fixed bitrate
/// (1 Mbps, §5.1), and collisions — two overlapping transmissions audible at
/// the same receiver destroy each other there (no capture). CSMA deferral
/// lives in Radio; the medium answers "is the channel busy for me?".
///
/// Besides the global counters, the medium keeps an airtime ledger: one
/// NodeAirtime row per attached node, reconciling exactly with the global
/// counters (see airtime.h for the counting model) and snapshotted as
/// MediumStats for fairness analysis.
///
/// Per-frame cost: one LossModel::sample() per receiver on the sender's
/// receiver list, and a per-listener airtime index (the transmissions
/// audible at each node plus its own) that the collision check scans
/// instead of every frame on the air; carrier sense reads one latest end
/// per listener. Nodes live in dense attach-order ports, so the hot path
/// never hashes a node id, and each port's receiver list (every other
/// port, or with culling the ones that survive the cell test) is rebuilt
/// only when a node attaches or the cull cells refresh, never per frame.

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "channel/loss_model.h"
#include "mac/airtime.h"
#include "mac/frame.h"
#include "mobility/vec2.h"
#include "sim/ids.h"
#include "sim/simulator.h"
#include "util/time.h"

namespace vifi::obs {
class MetricsRegistry;
}

namespace vifi::mac {

/// Spatial interference culling (city-scale fleets). The medium keeps a
/// grid of cell coordinates keyed off the node positions and skips the
/// per-receiver decode/audibility sampling for pairs whose cells prove the
/// link longer than `max_audible_m` — i.e. *provably* below the audibility
/// threshold for any channel state (see DistanceLossCurve::range_for).
/// Cached cells refresh every `refresh`; `margin_m` of extra range absorbs
/// the motion both endpoints can accumulate between refreshes, so the
/// sub-audibility proof holds at every transmit instant as long as
/// `margin_m >= max node speed x refresh`.
///
/// Semantics when enabled: culled links get *no* `LossModel::sample` call,
/// so they take no decode draw (the channel models advance their fade
/// state lazily by wall-clock time, so this is safe but changes the shared
/// draw sequence) — a culled run is deterministic and conserves
/// airtime/decode counts exactly, but its results differ from an unculled
/// run. Leaving `MediumParams::culling` unset keeps the historical
/// every-node broadcast byte-for-byte.
struct SpatialCulling {
  /// Position of any attached node at a time (e.g. Testbed::position_fn();
  /// the provider must outlive the medium).
  std::function<mobility::Vec2(NodeId, Time)> position;
  /// Links longer than this are provably sub-audibility.
  double max_audible_m = 250.0;
  /// Grid cell edge in meters; 0 derives (max_audible_m + 2*margin_m) / 8.
  /// Each refresh tests every pair once, at the same cost whatever the
  /// cell size, to rebuild the per-port receiver lists; smaller cells only
  /// sharpen the keep radius (cell-quantisation slack is about one cell
  /// diagonal), and the floor is keeping cell indices well inside 32-bit
  /// for any plausible coordinate.
  double cell_m = 0.0;
  /// Cached cell coordinates refresh when older than this.
  Time refresh = Time::millis(250);
  /// Motion allowance per endpoint between refreshes.
  double margin_m = 25.0;
  /// Optional frequency partition: nodes on different channels never pay
  /// decode cost for each other. Unset = everyone shares one channel.
  std::function<int(NodeId)> channel_of;
};

struct MediumParams {
  double bitrate_bps = 1e6;      ///< Fixed 802.11b broadcast rate (§5.1).
  int phy_overhead_bytes = 24;   ///< PLCP preamble/header equivalent.
  /// Links with current reception probability above this are "audible" for
  /// carrier sense and collision purposes.
  double audibility_threshold = 0.05;
  bool model_collisions = true;
  /// Spatial interference culling; unset (the default) keeps the
  /// historical all-pairs broadcast byte-for-byte.
  std::optional<SpatialCulling> culling;
};

/// Single shared channel connecting all attached nodes.
class Medium {
 public:
  Medium(sim::Simulator& sim, channel::LossModel& loss, MediumParams params);

  Medium(const Medium&) = delete;
  Medium& operator=(const Medium&) = delete;

  /// Attaches a node; frames it successfully decodes arrive at \p sink.
  ///
  /// Contract for attach during an in-flight transmission: a transmission
  /// samples its receiver set (decode attempts, audibility) once at
  /// start-of-frame, so a node attached mid-flight joins *subsequent*
  /// transmissions only — for frames already in the air it gets no decode
  /// attempt, cannot deliver, and does not hear them for carrier sense
  /// (busy_for()/busy_until() report idle for it). This keeps the
  /// conservation invariants exact: the new node's ledger row starts at
  /// zero and only counts transmissions that started after the attach.
  /// Pinned by Medium.AttachDuringFlightJoinsSubsequentTransmissionsOnly.
  void attach(NodeId node, FrameSink* sink);

  /// Tags an attached node's role so snapshots can split infrastructure
  /// from client airtime. Untagged nodes stay Unknown.
  void set_role(NodeId node, NodeRole role);

  /// Charges CSMA deferral wait to an attached node's ledger row. Called
  /// by the Radio, which owns carrier-sense timing.
  void note_deferral(NodeId node, Time wait);

  /// The longest frame (Frame::bytes_on_air()) the medium carries. Records
  /// are pruned once they ended this frame's airtime ago, so a longer frame
  /// could outlive records it overlaps and miss their collisions without
  /// any error; transmit() rejects it instead.
  static constexpr int kMaxFrameBytes = 2000;

  /// Starts transmitting \p frame from node \p frame.tx immediately. The
  /// caller (Radio) is responsible for carrier-sense deferral; the medium
  /// will happily model the resulting collision otherwise. Returns the
  /// time the channel is held (airtime). Throws ContractViolation for a
  /// frame longer than kMaxFrameBytes, before anything is on the air.
  Time transmit(Frame frame);

  /// Airtime of a frame with the given MAC-body size.
  Time airtime(int mac_bytes) const;

  /// True if any in-progress transmission is audible at \p listener.
  /// Prunes long-finished records first, so the answer (and the scan cost)
  /// never depends on when a transmit() last happened to prune.
  bool busy_for(NodeId listener, Time now);

  /// Latest end time among transmissions audible at \p listener
  /// (now if the channel is idle for them). Prunes like busy_for(). Throws
  /// ContractViolation for an instant before the prune horizon (more than
  /// a max-frame airtime before the latest instant pruned at), where
  /// records it would need may already be gone.
  Time busy_until(NodeId listener, Time now);

  std::uint64_t transmissions() const { return transmissions_; }
  std::uint64_t transmissions_from(NodeId node) const;
  std::uint64_t collisions() const { return collisions_; }
  std::uint64_t deliveries() const { return deliveries_; }
  std::uint64_t channel_losses() const { return channel_losses_; }
  std::uint64_t decode_attempts() const { return decode_attempts_; }

  /// Consistent copy of the global counters and the per-node ledger.
  MediumStats snapshot() const;

  /// Compatibility shim onto the unified metrics registry: adds the global
  /// counters and the per-node ledger rows (labeled node/role) under the
  /// `mac.*` namespace. Counters *add*, so publishing once per trip
  /// accumulates a whole point's totals.
  void publish(obs::MetricsRegistry& registry) const;

  /// Transmission records not yet pruned (tests pin prune behaviour).
  std::size_t active_records() const;

  const MediumParams& params() const { return params_; }

 private:
  struct ActiveTx {
    std::uint64_t seq = 0;
    NodeId tx;
    Time start;
    Time end;
    Frame frame;
    /// Ports that sampled a successful decode at start-of-frame.
    std::vector<std::uint32_t> decoders;
  };
  /// One transmission as one listener perceives it.
  struct Heard {
    std::uint64_t seq = 0;
    Time start;
    Time end;
  };
  /// An attached node, indexed by attach order.
  struct Port {
    NodeId node;
    FrameSink* sink = nullptr;
    /// The per-node side of the global counters.
    NodeAirtime ledger;
    /// Per-listener airtime index: the transmissions audible here plus the
    /// node's own, not yet pruned. The collision check reads only this,
    /// never the whole on-air set.
    std::vector<Heard> heard;
    /// Latest end among every transmission ever added to `heard`, pruned
    /// ones included: busy_until()'s answer without a scan.
    Time latest_end = Time::micros(std::numeric_limits<std::int64_t>::min());
    /// Ports that sample this node's transmissions, in ascending attach
    /// order: every other port, or with culling the ones that survived the
    /// latest cell refresh. Valid while receivers_fresh_.
    std::vector<std::uint32_t> receivers;
  };

  std::int32_t index_of(NodeId node) const;  ///< -1: not attached
  Port* port(NodeId node);
  Port& attached(NodeId node);
  void listen(Port& p, const ActiveTx& tx);
  bool pruned(Time end) const { return end < pruned_before_; }
  void finish(std::uint64_t seq);
  void prune(Time now);
  void refresh_receivers(Time now);
  bool culled(std::size_t a, std::size_t b) const;

  sim::Simulator& sim_;
  channel::LossModel& loss_;
  MediumParams params_;
  std::vector<Port> ports_;
  /// Node id -> index into ports_ (-1: not attached).
  std::vector<std::int32_t> port_of_;
  /// False after an attach: every port's receiver list needs a rebuild
  /// (with culling, from freshly sampled cells) before the next frame.
  bool receivers_fresh_ = false;
  /// Spatial-culling state, parallel to ports_; empty and unused when
  /// params_.culling is unset.
  std::vector<std::pair<std::int32_t, std::int32_t>> cull_cell_;
  std::vector<int> cull_channel_;
  Time cull_refreshed_;
  double cull_cell_size_ = 0.0;
  double cull_range_sq_ = 0.0;  ///< (max_audible + 2*margin)^2, m^2.
  /// Includes recently finished transmissions, in seq order. A deque so
  /// records stay put while finish() dispatches from them even if a sink
  /// synchronously transmits (appends); prune is deferred meanwhile.
  std::deque<ActiveTx> active_;
  /// Every record ending before this is pruned: it no longer exists for
  /// collisions, carrier sense or active_records(). Storage catches up
  /// lazily — active_ pops from the front, listeners drop their entries
  /// when they next look.
  Time pruned_before_ = Time::micros(std::numeric_limits<std::int64_t>::min());
  std::vector<std::uint32_t> deliver_scratch_;  ///< Reused by finish().
  bool delivering_ = false;
  std::uint64_t next_seq_ = 1;
  std::uint64_t transmissions_ = 0;
  std::uint64_t collisions_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t channel_losses_ = 0;
  std::uint64_t decode_attempts_ = 0;
  Time busy_airtime_;
};

}  // namespace vifi::mac
