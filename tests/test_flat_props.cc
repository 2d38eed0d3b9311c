// Property tests for the flat containers of the frame path. Each one is
// driven by seeded random operation sequences against a std:: reference
// model and must answer every query the model answers, the same way:
//   - RingQueue against std::deque (FIFO order, lazy power-of-two growth,
//     popped slots handed back for reuse);
//   - FlatIdMap against std::unordered_map, with keys that share their low
//     bits (id*64 + attempt, as VifiStats builds them), sequential keys,
//     wide random keys and the key 0;
//   - FlatMap against std::map, including its ascending iteration order;
//   - RecentIdSet against a deque + set model of FIFO eviction, at
//     capacities 1, 2, 3 and 4096 and through every growth step.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/id_set.h"
#include "util/contracts.h"
#include "util/flat_id_map.h"
#include "util/flat_map.h"
#include "util/ring_queue.h"
#include "util/rng.h"

namespace vifi {
namespace {

bool power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

/// FlatMap and std::map hold the same entries in the same order.
template <typename K, typename V>
bool same_entries(const FlatMap<K, V>& map, const std::map<K, V>& model) {
  return std::equal(map.begin(), map.end(), model.begin(), model.end(),
                    [](const auto& a, const auto& b) {
                      return a.first == b.first && a.second == b.second;
                    });
}

// ------------------------------------------------------------- RingQueue --

TEST(RingQueueProps, MatchesADequeUnderRandomPushesAndPops) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    RingQueue<std::uint64_t> ring;
    std::deque<std::uint64_t> model;
    EXPECT_EQ(ring.capacity(), 0u);
    std::size_t peak = 0;
    // A push bias that drifts from growing to draining crosses every
    // growth step up to a few hundred and wraps the ring repeatedly.
    const double bias = rng.uniform(0.45, 0.75);
    for (int op = 0; op < 3000; ++op) {
      const double push_p = op < 1500 ? bias : 1.0 - bias;
      if (model.empty() || rng.bernoulli(push_p)) {
        const std::uint64_t v = rng.next_u64();
        ring.push_back(v);
        model.push_back(v);
      } else {
        ASSERT_EQ(ring.front(), model.front());
        ring.pop_front();
        model.pop_front();
      }
      peak = std::max(peak, model.size());
      ASSERT_EQ(ring.size(), model.size());
      ASSERT_EQ(ring.empty(), model.empty());
      if (!model.empty()) {
        ASSERT_EQ(ring.front(), model.front());
        ASSERT_EQ(ring.back(), model.back());
      }
      if (op % 97 == 0) {
        for (std::size_t i = 0; i < model.size(); ++i)
          ASSERT_EQ(ring[i], model[i]) << "position " << i;
      }
    }
    // Lazy: the ring is the peak size rounded up to a power of two.
    EXPECT_TRUE(power_of_two(ring.capacity()));
    EXPECT_GE(ring.capacity(), peak);
    EXPECT_LE(ring.capacity(), std::max<std::size_t>(8, 2 * peak));
  }
}

TEST(RingQueueProps, PushSlotHandsBackThePoppedValue) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    RingQueue<std::vector<int>> ring;
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 40));
    for (std::size_t i = 0; i < n; ++i)
      ring.push_back(std::vector<int>(i + 1, static_cast<int>(i)));
    // Fill the ring, so that pushes after the pops below wrap onto the
    // popped slots.
    const std::size_t slots = ring.capacity();
    for (std::size_t i = n; i < slots; ++i)
      ring.push_back(std::vector<int>(i + 1, static_cast<int>(i)));
    const auto k = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(slots)));
    for (std::size_t i = 0; i < k; ++i) ring.pop_front();
    for (std::size_t i = 0; i < k; ++i) {
      std::vector<int>& v = ring.push_slot();
      ASSERT_EQ(v.size(), i + 1);
      ASSERT_EQ(v.front(), static_cast<int>(i));
    }
    EXPECT_EQ(ring.capacity(), slots);
    for (std::size_t i = 0; i < slots; ++i)
      ASSERT_EQ(ring[i].front(), static_cast<int>((i + k) % slots));
  }
}

// ------------------------------------------------------------- FlatIdMap --

/// Draws a key from one of four families: sequential ids, VifiStats keys
/// (id*64 + attempt, sharing their low six bits), wide random keys, and 0.
std::uint64_t draw_key(Rng& rng, int family, std::int64_t span) {
  switch (family) {
    case 0:
      return static_cast<std::uint64_t>(rng.uniform_int(1, span));
    case 1:
      return static_cast<std::uint64_t>(rng.uniform_int(1, span)) * 64 +
             static_cast<std::uint64_t>(rng.uniform_int(1, 3));
    case 2:
      return rng.bernoulli(0.01) ? 0 : rng.next_u64();
    default:
      return rng.bernoulli(0.02)
                 ? 0
                 : static_cast<std::uint64_t>(rng.uniform_int(0, span)) << 40;
  }
}

TEST(FlatIdMapProps, MatchesAnUnorderedMapUnderRandomInsertsLookupsErases) {
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const int family = static_cast<int>(seed % 4);
    // Spans from a handful of keys (heavy reuse) to thousands (growth to
    // 8192 slots and beyond).
    const std::int64_t span = std::int64_t{1} << rng.uniform_int(2, 13);
    FlatIdMap<std::uint32_t> map;
    std::unordered_map<std::uint64_t, std::uint32_t> model;
    std::size_t peak = 0;
    const int ops = 6000;
    for (int op = 0; op < ops; ++op) {
      const std::uint64_t key = draw_key(rng, family, span);
      // Grow for the first two thirds, then erase more than insert.
      const double insert_p = op < 2 * ops / 3 ? 0.7 : 0.3;
      if (rng.bernoulli(insert_p)) {
        const auto value = static_cast<std::uint32_t>(op);
        const auto [at, inserted] = map.try_emplace(key, value);
        const auto [mit, minserted] = model.try_emplace(key, value);
        ASSERT_EQ(inserted, minserted) << "key " << key;
        ASSERT_EQ(*at, mit->second) << "key " << key;
        if (rng.bernoulli(0.3)) *at = mit->second = value + 1;
      } else {
        ASSERT_EQ(map.erase(key), model.erase(key) == 1) << "key " << key;
      }
      peak = std::max(peak, model.size());
      ASSERT_EQ(map.size(), model.size());
      const std::uint64_t probe = draw_key(rng, family, span);
      const std::uint32_t* got = map.find(probe);
      const auto want = model.find(probe);
      ASSERT_EQ(got != nullptr, want != model.end()) << "probe " << probe;
      if (got != nullptr) {
        ASSERT_EQ(*got, want->second);
      }
      if (op % 500 == 0) {
        for (const auto& [k, v] : model) {
          ASSERT_TRUE(map.contains(k)) << "key " << k;
          ASSERT_EQ(*map.find(k), v);
        }
      }
    }
    for (const auto& [k, v] : model) ASSERT_EQ(*map.find(k), v);
    // At most half full, and no bigger than the peak needed.
    EXPECT_TRUE(map.slot_count() == 0 || power_of_two(map.slot_count()));
    const std::size_t in_slots = map.size() - (map.contains(0) ? 1 : 0);
    EXPECT_GE(map.slot_count(), 2 * in_slots);
    EXPECT_LE(map.slot_count(), std::max<std::size_t>(16, 4 * peak));
  }
}

TEST(FlatIdMapProps, KeysSharingLowBitsEraseWithoutLosingTheirNeighbours) {
  // Dense runs of id*64 + attempt keys, erased in random order: every
  // backward shift must leave each remaining key reachable.
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    FlatIdSet set;
    std::vector<std::uint64_t> keys;
    const auto ids = rng.uniform_int(1, 3000);
    for (std::int64_t id = 1; id <= ids; ++id)
      for (std::uint64_t attempt = 1; attempt <= 4; ++attempt)
        keys.push_back(static_cast<std::uint64_t>(id) * 64 + attempt);
    for (const std::uint64_t k : keys) ASSERT_TRUE(set.try_emplace(k).second);
    rng.shuffle(keys);
    const std::size_t half = keys.size() / 2;
    for (std::size_t i = 0; i < half; ++i) ASSERT_TRUE(set.erase(keys[i]));
    for (std::size_t i = 0; i < keys.size(); ++i)
      ASSERT_EQ(set.contains(keys[i]), i >= half) << "key " << keys[i];
    EXPECT_EQ(set.size(), keys.size() - half);
  }
}

// --------------------------------------------------------------- FlatMap --

TEST(FlatMapProps, MatchesAStdMapIncludingIterationOrder) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const std::int64_t span = rng.uniform_int(1, 300);
    FlatMap<std::int64_t, std::int64_t> map;
    std::map<std::int64_t, std::int64_t> model;
    for (int op = 0; op < 2000; ++op) {
      const std::int64_t key = rng.uniform_int(-span, span);
      switch (rng.uniform_int(0, 4)) {
        case 0: {
          const auto [it, inserted] = map.try_emplace(key, op);
          const auto [mit, minserted] = model.try_emplace(key, op);
          ASSERT_EQ(inserted, minserted);
          ASSERT_EQ(it->second, mit->second);
          break;
        }
        case 1:
          map[key] += op;
          model[key] += op;
          break;
        case 2:
          ASSERT_EQ(map.erase(key), model.erase(key) == 1);
          break;
        case 3: {
          const std::int64_t cut = rng.uniform_int(-span, span);
          const auto below = [cut](const auto& kv) { return kv.first < cut; };
          ASSERT_EQ(map.erase_if(below), std::erase_if(model, below));
          break;
        }
        default: {
          const auto it = map.find(key);
          const auto mit = model.find(key);
          ASSERT_EQ(it != map.end(), mit != model.end());
          ASSERT_EQ(map.contains(key), model.contains(key));
          if (it != map.end()) {
            ASSERT_EQ(it->second, mit->second);
          }
        }
      }
      ASSERT_EQ(map.size(), model.size());
      if (op % 50 == 0) {
        ASSERT_TRUE(same_entries(map, model));
      }
    }
    EXPECT_TRUE(same_entries(map, model));
  }
}

// ----------------------------------------------------------- RecentIdSet --

TEST(RecentIdSetProps, MatchesAFifoEvictionModel) {
  for (const std::size_t capacity : {1u, 2u, 3u, 4096u}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE("capacity " + std::to_string(capacity) + " seed " +
                   std::to_string(seed));
      Rng rng(seed * 1000 + capacity);
      core::RecentIdSet set(capacity);
      std::deque<std::uint64_t> order;  // insertion order, oldest first
      std::set<std::uint64_t> members;
      // Ids from a pool about twice the capacity, so some repeat while
      // held and some come back after eviction; with capacity 4096 the set
      // fills through every growth step of both sides.
      const auto pool = static_cast<std::int64_t>(2 * capacity + 2);
      const bool stats_keys = seed % 2 == 0;
      const int ops = capacity < 4096 ? 4000 : 20000;
      for (int op = 0; op < ops; ++op) {
        std::uint64_t id = static_cast<std::uint64_t>(rng.uniform_int(1, pool));
        if (stats_keys) id = id * 64 + static_cast<std::uint64_t>(op % 3 + 1);
        const bool fresh = !members.contains(id);
        std::uint64_t evicted = 0;
        bool evicts = false;
        if (fresh) {
          if (order.size() == capacity) {
            evicted = order.front();
            evicts = true;
            members.erase(evicted);
            order.pop_front();
          }
          order.push_back(id);
          members.insert(id);
        }
        ASSERT_EQ(set.insert(id), fresh) << "id " << id;
        ASSERT_EQ(set.size(), order.size());
        ASSERT_TRUE(set.contains(id));
        // The evicted id is exactly the oldest one, and the next oldest
        // is still held.
        if (evicts) {
          ASSERT_FALSE(set.contains(evicted)) << "id " << evicted;
        }
        ASSERT_TRUE(set.contains(order.front()));
        const std::uint64_t probe =
            static_cast<std::uint64_t>(rng.uniform_int(1, pool));
        const std::uint64_t key =
            stats_keys ? probe * 64 + static_cast<std::uint64_t>(op % 3 + 1)
                       : probe;
        ASSERT_EQ(set.contains(key), members.contains(key)) << "id " << key;
      }
      for (const std::uint64_t id : order) ASSERT_TRUE(set.contains(id));
    }
  }
}

TEST(RecentIdSetProps, ZeroCapacityIsAContractViolation) {
  EXPECT_THROW(core::RecentIdSet(0), ContractViolation);
}

}  // namespace
}  // namespace vifi
