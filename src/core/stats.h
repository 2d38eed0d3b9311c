#pragma once

/// \file stats.h
/// Behavioural statistics of ViFi's coordination, recorded per source
/// transmission *attempt*. Feeds Table 1 (A1–C4), Table 2 / §5.5
/// false-positive/negative rates, and the Fig. 12 medium-efficiency
/// comparison including the PerfectRelay estimate (§5.4).
///
/// Every hook runs on the frame path, once per source attempt or per
/// overhearing, relaying or receiving node, so the records are flat: one
/// vector of fixed-size attempt records in first-transmission order, a
/// FlatIdMap from (id, attempt) to a record, and one shared vector holding
/// every attempt's relays as linked lists. None of them allocates per
/// attempt; each grows by doubling with the trip. The summaries walk the
/// records in that order, and every sum they take is an integer count, so
/// no order reaches the figures.

#include <cstdint>
#include <vector>

#include "net/packet.h"
#include "sim/ids.h"
#include "util/flat_id_map.h"
#include "util/time.h"

namespace vifi::obs {
class MetricsRegistry;
}

namespace vifi::core {

using net::Direction;
using sim::NodeId;

/// Table 1 rows for one direction.
struct CoordinationSummary {
  double median_designated_aux = 0.0;      // A1
  double avg_aux_heard = 0.0;              // A2
  double avg_aux_heard_no_ack = 0.0;       // A3
  double frac_src_tx_reached_dst = 0.0;    // B1
  double false_positive_rate = 0.0;        // B2: relays for successful tx /
                                           //     successful tx
  double avg_relays_when_fp = 0.0;         // B3
  double frac_src_tx_failed = 0.0;         // C1
  double frac_failed_with_aux_cover = 0.0; // C2
  // C3: failed transmissions that at least one auxiliary overheard but
  // nobody relayed, over covered failures. (Measuring over *all* failures
  // would contradict the paper's own numbers: upstream C2 = 66% implies
  // >= 34% of failures are uncoverable, yet C3 = 10%.)
  double false_negative_rate = 0.0;
  double frac_relays_reached_dst = 0.0;    // C4
  std::int64_t attempts = 0;
};

/// Fig. 12: application packets delivered per data transmission on the
/// vehicle-BS wireless channel.
struct EfficiencySummary {
  double up = 0.0;
  double down = 0.0;
  /// The PerfectRelay oracle estimated from the same logs (§5.4).
  double perfect_up = 0.0;
  double perfect_down = 0.0;
};

class VifiStats {
 public:
  // --- recording hooks (called by the protocol agents) -------------------
  void on_source_tx(std::uint64_t id, int attempt, Direction dir, Time now,
                    int designated_aux);
  void on_dst_rx_direct(std::uint64_t id, int attempt);
  void on_aux_overhear(std::uint64_t id, int attempt, NodeId aux);
  void on_aux_contend(std::uint64_t id, int attempt, NodeId aux);
  void on_aux_relay(std::uint64_t id, int attempt, NodeId aux);
  void on_relay_reached_dst(std::uint64_t id, int attempt, NodeId aux);
  /// Unique end-to-end delivery of an application packet.
  void on_app_delivered(Direction dir);
  /// A data frame hit the wireless channel (source or downstream relay).
  void on_wireless_data_tx(Direction dir);
  /// A packet was recovered through salvaging (§4.5).
  void on_salvaged() { ++salvaged_; }

  // --- summaries ----------------------------------------------------------
  CoordinationSummary coordination(Direction dir) const;
  EfficiencySummary efficiency() const;

  /// Compatibility shim onto the unified metrics registry: delivery/tx/
  /// salvage tallies as counters (additive across trips) and the Table 1 /
  /// Fig. 12 summaries as gauges under the `core.*` namespace.
  void publish(obs::MetricsRegistry& registry) const;

  std::int64_t app_delivered(Direction dir) const;
  std::int64_t wireless_data_tx(Direction dir) const;
  std::int64_t salvaged() const { return salvaged_; }
  std::int64_t source_attempts(Direction dir) const;

 private:
  /// Everything the summaries read about one source transmission attempt.
  /// Overhearing and contending auxiliaries are only ever counted; the
  /// relays are a list in relays_, because a relay's outcome is credited
  /// to it by auxiliary id.
  struct AttemptRecord {
    Direction dir = Direction::Upstream;
    bool dst_heard = false;  ///< Destination decoded this attempt directly.
    int designated_aux = 0;  ///< Size of the auxiliary set at tx time.
    std::int32_t aux_heard = 0;      ///< Auxiliaries that decoded it.
    std::int32_t aux_contended = 0;  ///< Heard it but no ACK at decision.
    std::int32_t relays = 0;
    std::uint32_t first_relay = kNoRelay;  ///< Head of its relays_ list.
  };
  /// One auxiliary relay of an attempt, linked to the attempt's previous
  /// one.
  struct Relay {
    NodeId aux;
    bool reached_dst = false;
    std::uint32_t next = kNoRelay;
  };
  static constexpr std::uint32_t kNoRelay = 0xFFFFFFFFu;

  static std::uint64_t key(std::uint64_t id, int attempt) {
    return id * 64 + static_cast<std::uint64_t>(attempt & 63);
  }
  AttemptRecord* find(std::uint64_t id, int attempt);

  /// Every attempt in first-transmission order, and key -> index into it.
  /// Both grow with the trip and are summarised at its end.
  std::vector<AttemptRecord> attempts_;
  FlatIdMap<std::uint32_t> index_;
  std::vector<Relay> relays_;
  std::int64_t delivered_up_ = 0;
  std::int64_t delivered_down_ = 0;
  std::int64_t tx_up_ = 0;
  std::int64_t tx_down_ = 0;
  std::int64_t salvaged_ = 0;
};

}  // namespace vifi::core
