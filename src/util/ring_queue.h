#pragma once

/// \file ring_queue.h
/// A FIFO over one power-of-two ring of slots. The ring grows lazily, by
/// doubling when a push finds it full, and never shrinks: a queue that has
/// reached its working size pushes and pops without touching the heap.
///
/// Popping only advances the head. The popped slot keeps its value until a
/// later push hands the slot out again (push_slot()), so a caller can
/// recycle whatever storage that value owns; push_back() simply overwrites
/// it. A caller that wants the value gone moves it out before popping.

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/contracts.h"

namespace vifi {

template <typename T>
class RingQueue {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  /// Slots held; the ring grows to the largest size the queue reached,
  /// rounded up to a power of two.
  std::size_t capacity() const { return slots_.size(); }

  /// The i-th queued value, 0 being the front.
  T& operator[](std::size_t i) { return slots_[(head_ + i) & mask()]; }
  const T& operator[](std::size_t i) const {
    return slots_[(head_ + i) & mask()];
  }
  T& front() {
    VIFI_EXPECTS(size_ > 0);
    return slots_[head_];
  }
  const T& front() const {
    VIFI_EXPECTS(size_ > 0);
    return slots_[head_];
  }
  T& back() {
    VIFI_EXPECTS(size_ > 0);
    return (*this)[size_ - 1];
  }

  /// Appends one slot and returns it still holding the value it held when
  /// last popped (a default-constructed T if it is new), for the caller to
  /// overwrite or reuse.
  T& push_slot() {
    if (size_ == slots_.size()) grow();
    ++size_;
    return back();
  }
  void push_back(T value) { push_slot() = std::move(value); }

  /// Drops the front value from the queue; its slot keeps it (see above).
  void pop_front() {
    VIFI_EXPECTS(size_ > 0);
    head_ = (head_ + 1) & mask();
    --size_;
  }

 private:
  static constexpr std::size_t kMinSlots = 8;

  std::size_t mask() const { return slots_.size() - 1; }

  /// Only called when full, so every slot is live and moves in queue order.
  void grow() {
    std::vector<T> bigger(std::max(kMinSlots, 2 * slots_.size()));
    for (std::size_t i = 0; i < size_; ++i)
      bigger[i] = std::move((*this)[i]);
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace vifi
