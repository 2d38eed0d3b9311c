#pragma once

/// \file flat_map.h
/// An ordered map kept as one vector of {key, value} pairs sorted by key:
/// lookups are binary searches over contiguous memory, iteration runs in
/// ascending key order like std::map's, and an insert or erase shifts the
/// tail instead of allocating or freeing a node. It suits the NodeId-keyed
/// tables of the frame path, which are small, read on every frame and
/// changed only when a node first appears or goes quiet.
///
/// Unlike std::map, an insert or erase invalidates references to every
/// entry after its position.

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace vifi {

template <typename K, typename V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  iterator begin() { return items_.begin(); }
  iterator end() { return items_.end(); }
  const_iterator begin() const { return items_.begin(); }
  const_iterator end() const { return items_.end(); }
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  iterator find(const K& key) {
    const auto it = lower_bound(key);
    return it != items_.end() && it->first == key ? it : items_.end();
  }
  const_iterator find(const K& key) const {
    const auto it = lower_bound(key);
    return it != items_.end() && it->first == key ? it : items_.end();
  }
  bool contains(const K& key) const { return find(key) != items_.end(); }

  /// The value under \p key, default-constructed and inserted if absent.
  V& operator[](const K& key) { return try_emplace(key).first->second; }

  /// Inserts {key, value} unless \p key is present; returns its entry and
  /// whether it was inserted.
  std::pair<iterator, bool> try_emplace(const K& key, V value = V{}) {
    auto it = lower_bound(key);
    if (it != items_.end() && it->first == key) return {it, false};
    return {items_.insert(it, value_type(key, std::move(value))), true};
  }

  /// Removes \p key; returns whether it was present.
  bool erase(const K& key) {
    const auto it = find(key);
    if (it == items_.end()) return false;
    items_.erase(it);
    return true;
  }

  /// Removes every entry \p pred(const value_type&) holds for, keeping the
  /// rest in order; returns how many went.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    return std::erase_if(items_, pred);
  }

 private:
  iterator lower_bound(const K& key) {
    return std::lower_bound(
        items_.begin(), items_.end(), key,
        [](const value_type& item, const K& k) { return item.first < k; });
  }
  const_iterator lower_bound(const K& key) const {
    return std::lower_bound(
        items_.begin(), items_.end(), key,
        [](const value_type& item, const K& k) { return item.first < k; });
  }

  std::vector<value_type> items_;
};

}  // namespace vifi
