#pragma once

/// \file id_set.h
/// A bounded recently-seen-ids set with FIFO eviction, used for duplicate
/// suppression (received packets, acked packets, relay-considered packets).
///
/// Flat on both sides: membership is a FlatIdMap (open addressing, no
/// per-id node) and the eviction order a RingQueue of the ids in insertion
/// order. Both grow with the ids actually held instead of being sized for
/// the capacity up front, which would give each of a trip's dozens of sets
/// its full size from the first packet. Once a set is full, an insert
/// evicts one id and adds one without allocating.

#include <cstddef>
#include <cstdint>

#include "util/contracts.h"
#include "util/flat_id_map.h"
#include "util/ring_queue.h"

namespace vifi::core {

class RecentIdSet {
 public:
  explicit RecentIdSet(std::size_t capacity = 4096) : capacity_(capacity) {
    VIFI_EXPECTS(capacity >= 1);
  }

  /// Inserts; returns true if the id was new. At capacity the oldest id
  /// goes first.
  bool insert(std::uint64_t id) {
    if (set_.contains(id)) return false;
    if (order_.size() == capacity_) {
      set_.erase(order_.front());
      order_.pop_front();
    }
    set_.try_emplace(id);
    order_.push_back(id);
    return true;
  }

  bool contains(std::uint64_t id) const { return set_.contains(id); }
  std::size_t size() const { return order_.size(); }

 private:
  std::size_t capacity_;
  FlatIdSet set_;
  RingQueue<std::uint64_t> order_;
};

}  // namespace vifi::core
