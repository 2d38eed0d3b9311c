#pragma once

/// \file flat_id_map.h
/// An open-addressing hash map from 64-bit ids (packet ids, or keys built
/// from them) to small values: one flat array of slots, linear probing and
/// backward-shift erase, so there are no per-entry nodes and no tombstones.
/// The array grows lazily, doubling whenever an insert would take it past
/// half full, and never shrinks.
///
/// Keys are hashed multiplicatively (Fibonacci hashing: the top bits of
/// key * 2^64/phi), so keys that differ only in their high bits spread as
/// well as sequential ones. VifiStats' keys are id*64 + attempt, whose low
/// six bits are the attempt number; a modulo-range hash would pile every
/// first attempt into one bucket in 64.
///
/// The map offers no iteration: slot order is an artifact of hashing, and
/// anything that iterates an id-keyed table must do so in a defined order.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace vifi {

/// Value type of a FlatIdMap used as a set.
struct NoValue {};

template <typename V>
class FlatIdMap {
 public:
  std::size_t size() const { return size_ + (has_zero_ ? 1 : 0); }
  bool empty() const { return size() == 0; }
  /// Slots held (0 before the first insert); tests pin lazy growth.
  std::size_t slot_count() const { return slots_.size(); }

  bool contains(std::uint64_t key) const { return find(key) != nullptr; }

  const V* find(std::uint64_t key) const {
    if (key == kEmpty) return has_zero_ ? &zero_value_ : nullptr;
    if (slots_.empty()) return nullptr;
    for (std::size_t i = home(key);; i = next(i)) {
      if (slots_[i].key == key) return &slots_[i].value;
      if (slots_[i].key == kEmpty) return nullptr;
    }
  }
  V* find(std::uint64_t key) {
    return const_cast<V*>(std::as_const(*this).find(key));
  }

  /// Inserts {key, value} unless \p key is present. Returns the key's
  /// value and whether it was inserted. The pointer stays valid until the
  /// next insert or erase.
  std::pair<V*, bool> try_emplace(std::uint64_t key, V value = {}) {
    if (key == kEmpty) {
      if (has_zero_) return {&zero_value_, false};
      has_zero_ = true;
      zero_value_ = std::move(value);
      return {&zero_value_, true};
    }
    if (2 * (size_ + 1) > slots_.size()) grow();
    std::size_t i = home(key);
    for (; slots_[i].key != kEmpty; i = next(i))
      if (slots_[i].key == key) return {&slots_[i].value, false};
    slots_[i].key = key;
    slots_[i].value = std::move(value);
    ++size_;
    return {&slots_[i].value, true};
  }

  /// Removes \p key; returns whether it was present.
  bool erase(std::uint64_t key) {
    if (key == kEmpty) {
      const bool had = has_zero_;
      has_zero_ = false;
      zero_value_ = V{};
      return had;
    }
    if (slots_.empty()) return false;
    std::size_t hole = home(key);
    for (; slots_[hole].key != key; hole = next(hole))
      if (slots_[hole].key == kEmpty) return false;
    // Backward shift: pull each later entry of the probe run into the hole
    // unless that would move it before its home slot.
    for (std::size_t j = next(hole); slots_[j].key != kEmpty; j = next(j)) {
      const std::size_t from_home = (j - home(slots_[j].key)) & mask();
      if (from_home >= ((j - hole) & mask())) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

 private:
  /// 0 marks a free slot; the key 0 itself lives beside the array.
  static constexpr std::uint64_t kEmpty = 0;
  static constexpr std::size_t kMinSlots = 16;

  struct Slot {
    std::uint64_t key = kEmpty;
    [[no_unique_address]] V value{};
  };

  std::size_t mask() const { return slots_.size() - 1; }
  std::size_t next(std::size_t i) const { return (i + 1) & mask(); }
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t n = old.empty() ? kMinSlots : 2 * old.size();
    slots_.assign(n, Slot{});
    shift_ = 64;
    for (std::size_t s = n; s > 1; s >>= 1) --shift_;
    for (Slot& s : old) {
      if (s.key == kEmpty) continue;
      std::size_t i = home(s.key);
      while (slots_[i].key != kEmpty) i = next(i);
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;  ///< Keys held in slots_ (all but key 0).
  int shift_ = 64;
  bool has_zero_ = false;
  [[no_unique_address]] V zero_value_{};
};

using FlatIdSet = FlatIdMap<NoValue>;

}  // namespace vifi
