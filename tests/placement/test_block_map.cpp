// Property tests for the flat block tables (placement/block_map.hpp) and
// for the placement built on them, each checked against a std::map
// oracle.
#include "placement/block_map.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <string>
#include <vector>

#include "placement/placement.hpp"
#include "util/rng.hpp"
#include "workload/registry.hpp"

namespace em2 {
namespace {

constexpr Addr kSentinel = BlockMap<CoreId>::kEmptyBlock;

/// The table's documented hash: the top log2(capacity) bits of
/// block * 2^64/phi.
constexpr std::uint64_t kFibonacci = 0x9e3779b97f4a7c15ull;

/// Multiplicative inverse of an odd number mod 2^64 (Newton iteration).
std::uint64_t inverse_mod_2_64(std::uint64_t a) {
  std::uint64_t x = a;  // correct to 3 bits for odd a
  for (int i = 0; i < 5; ++i) {
    x *= 2 - a * x;
  }
  return x;
}

/// `n` distinct blocks whose home slot in a table of `capacity` is `slot`.
std::vector<Addr> keys_in_slot(std::size_t slot, std::size_t capacity,
                               std::size_t n) {
  const int bits = std::countr_zero(capacity);
  const std::uint64_t inv = inverse_mod_2_64(kFibonacci);
  std::vector<Addr> keys;
  for (std::uint64_t low = 1; keys.size() < n; ++low) {
    const std::uint64_t product =
        (static_cast<std::uint64_t>(slot) << (64 - bits)) | low;
    keys.push_back(product * inv);
  }
  return keys;
}

void expect_matches(const BlockMap<CoreId>& map,
                    const std::map<Addr, CoreId>& oracle,
                    const std::vector<Addr>& absent) {
  ASSERT_EQ(map.size(), oracle.size());
  for (const auto& [block, value] : oracle) {
    const CoreId* found = map.find(block);
    ASSERT_NE(found, nullptr) << "block " << block;
    EXPECT_EQ(*found, value) << "block " << block;
  }
  for (const Addr block : absent) {
    if (oracle.count(block) == 0) {
      EXPECT_EQ(map.find(block), nullptr) << "block " << block;
    }
  }
  std::map<Addr, CoreId> walked;
  map.for_each([&walked](Addr block, CoreId value) {
    EXPECT_TRUE(walked.emplace(block, value).second) << "block " << block;
  });
  EXPECT_EQ(walked, oracle);
}

TEST(BlockMap, RandomBlockSetsMatchTheOracle) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    BlockMap<CoreId> map;
    std::map<Addr, CoreId> oracle;
    std::vector<Addr> probes;
    // Dense small blocks, sparse huge ones, and multiples of a large
    // power of two (identical low bits).
    for (int i = 0; i < 3000; ++i) {
      Addr block = 0;
      switch (rng.next_below(3)) {
        case 0: block = rng.next_below(4096); break;
        case 1: block = rng.next_u64() >> 1; break;
        default: block = rng.next_below(1024) << 40; break;
      }
      const auto value = static_cast<CoreId>(rng.next_below(256));
      if (rng.next_below(4) == 0) {
        probes.push_back(block);  // kept absent unless drawn again
        continue;
      }
      const auto [stored, inserted] = map.try_emplace(block, value);
      const auto [it, oracle_inserted] = oracle.emplace(block, value);
      EXPECT_EQ(inserted, oracle_inserted);
      EXPECT_EQ(*stored, it->second);
    }
    expect_matches(map, oracle, probes);
  }
}

TEST(BlockMap, KeysForcedIntoOneProbeChain) {
  BlockMap<CoreId> map;
  map.reserve(64);
  const std::size_t capacity = map.capacity();
  ASSERT_EQ(capacity, 128u);
  std::map<Addr, CoreId> oracle;
  // One chain in the middle and one that wraps from the last slot to 0.
  const std::vector<Addr> middle = keys_in_slot(40, capacity, 20);
  const std::vector<Addr> wrapping = keys_in_slot(capacity - 1, capacity, 12);
  for (std::size_t i = 0; i < middle.size(); ++i) {
    map.try_emplace(middle[i], static_cast<CoreId>(i));
    oracle.emplace(middle[i], static_cast<CoreId>(i));
  }
  for (std::size_t i = 0; i < wrapping.size(); ++i) {
    map.try_emplace(wrapping[i], static_cast<CoreId>(100 + i));
    oracle.emplace(wrapping[i], static_cast<CoreId>(100 + i));
  }
  ASSERT_EQ(map.capacity(), capacity) << "no rehash inside the test";
  // The middle chain fills slots 40..59 in insertion order, so it is
  // walked as one consecutive run: the keys really did collide.
  std::vector<Addr> order;
  map.for_each([&order](Addr block, CoreId) { order.push_back(block); });
  const auto first = std::find(order.begin(), order.end(), middle[0]);
  ASSERT_LE(first + static_cast<std::ptrdiff_t>(middle.size()), order.end());
  EXPECT_TRUE(std::equal(middle.begin(), middle.end(), first));
  // Absent keys homed in the same slots walk the whole chain to a miss.
  std::vector<Addr> absent = keys_in_slot(40, capacity, 30);
  const std::vector<Addr> more = keys_in_slot(capacity - 1, capacity, 20);
  absent.insert(absent.end(), more.begin(), more.end());
  expect_matches(map, oracle, absent);
}

TEST(BlockMap, ReassignOverwrites) {
  BlockMap<CoreId> map;
  map[7] = 1;
  map[7] = 3;
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(*map.find(7), 3);
  const auto [stored, inserted] = map.try_emplace(7, 9);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(*stored, 3) << "try_emplace keeps the present value";

  Placement p(4);
  p.assign(5, 2);
  p.assign(5, 0);
  EXPECT_EQ(p.home_of_block(5), 0);
  EXPECT_EQ(p.assigned_blocks(), 1u);
}

TEST(BlockMap, GrowthAcrossRehashKeepsEveryEntry) {
  BlockMap<CoreId> map;
  std::map<Addr, CoreId> oracle;
  Rng rng(17);
  std::size_t last_capacity = 0;
  int rehashes = 0;
  for (int i = 0; i < 20000; ++i) {
    const Addr block = rng.next_u64() >> 3;
    const auto value = static_cast<CoreId>(i % 1000);
    map[block] = value;
    oracle[block] = value;
    ASSERT_TRUE(std::has_single_bit(map.capacity()));
    ASSERT_GE(map.capacity(), 2 * map.size());
    if (map.capacity() != last_capacity) {
      ++rehashes;
      last_capacity = map.capacity();
      expect_matches(map, oracle, {});
    }
  }
  EXPECT_GE(rehashes, 10);
  expect_matches(map, oracle, {});

  // clear() empties but keeps the capacity; the table refills.
  const std::size_t capacity = map.capacity();
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.capacity(), capacity);
  EXPECT_EQ(map.find(oracle.begin()->first), nullptr);
  map[oracle.begin()->first] = 5;
  EXPECT_EQ(*map.find(oracle.begin()->first), 5);
}

TEST(BlockMap, SentinelKeyIsRejectedNotAliased) {
  BlockMap<CoreId> map;
  map[1] = 3;
  // A lookup of the sentinel lands on a free slot and must read absent.
  EXPECT_EQ(map.find(kSentinel), nullptr);
  EXPECT_FALSE(map.contains(kSentinel));
  EXPECT_DEATH(map.try_emplace(kSentinel, 1), "free-slot sentinel");
  BlockSet set;
  EXPECT_DEATH(set.insert(kSentinel), "free-slot sentinel");
  Placement p(4);
  EXPECT_DEATH(p.assign(kSentinel, 1), "free-slot sentinel");
  // The placement answers the sentinel block from its fallback.
  p.assign(2, 1);
  EXPECT_EQ(p.home_of_block(kSentinel),
            static_cast<CoreId>(kSentinel % 4));
}

TEST(BlockSet, MembershipMatchesTheOracle) {
  Rng rng(5);
  BlockSet set;
  std::map<Addr, bool> oracle;
  for (int i = 0; i < 5000; ++i) {
    const Addr block = rng.next_below(3000);
    EXPECT_EQ(set.insert(block), oracle.emplace(block, true).second);
  }
  EXPECT_EQ(set.size(), oracle.size());
  for (Addr block = 0; block < 3500; ++block) {
    EXPECT_EQ(set.contains(block), oracle.count(block) != 0);
  }
}

TEST(PlacementTable, AssignedBlocksAndBlocksPerCoreMatchTheOracle) {
  Rng rng(23);
  constexpr std::int32_t kCores = 13;
  Placement p(kCores);
  std::map<Addr, CoreId> oracle;
  for (int i = 0; i < 4000; ++i) {
    const Addr block = rng.next_below(2500) * 977;
    const auto home = static_cast<CoreId>(rng.next_below(kCores));
    p.assign(block, home);
    oracle[block] = home;
  }
  EXPECT_EQ(p.assigned_blocks(), oracle.size());
  std::vector<std::uint64_t> per_core(kCores, 0);
  for (const auto& [block, home] : oracle) {
    EXPECT_EQ(p.home_of_block(block), home);
    ++per_core[static_cast<std::size_t>(home)];
  }
  EXPECT_EQ(p.blocks_per_core(), per_core);
}

/// The hashed fallback as the placement defined it before it was a table.
std::uint64_t reference_splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

TEST(PlacementTable, AbsentBlocksReproduceStripedAndHashedFormulas) {
  Rng rng(3);
  for (const std::int32_t cores : {1, 3, 16, 64, 250, 256}) {
    const Placement striped = striped_placement(cores);
    const Placement hashed = hashed_placement(cores);
    const Placement salted = hashed_placement(cores, 0xfeedull);
    Placement table(cores);  // assigned blocks do not disturb the rest
    for (Addr b = 0; b < 64; b += 2) {
      table.assign(b, 0);
    }
    const auto p = static_cast<std::uint64_t>(cores);
    for (int i = 0; i < 2000; ++i) {
      const Addr block =
          i < 200 ? static_cast<Addr>(i) : rng.next_u64() >> rng.next_below(40);
      EXPECT_EQ(striped.home_of_block(block),
                static_cast<CoreId>(block % p));
      EXPECT_EQ(hashed.home_of_block(block),
                static_cast<CoreId>(reference_splitmix64(block) % p));
      EXPECT_EQ(salted.home_of_block(block),
                static_cast<CoreId>(reference_splitmix64(block ^ 0xfeedull) %
                                    p));
      if (block >= 64 || block % 2 == 1) {
        EXPECT_EQ(table.home_of_block(block),
                  static_cast<CoreId>(block % p));
      }
    }
  }
}

/// First-touch by its definition: walk the round-robin interleaving (one
/// access per live thread per round, threads in id order) and give each
/// block to the first thread that touches it.
std::map<Addr, CoreId> first_touch_by_walk(const TraceSet& ts) {
  std::map<Addr, CoreId> homes;
  std::size_t longest = 0;
  for (const ThreadTrace& tt : ts.threads()) {
    longest = std::max(longest, tt.size());
  }
  for (std::size_t k = 0; k < longest; ++k) {
    for (const ThreadTrace& tt : ts.threads()) {
      if (k < tt.size()) {
        homes.emplace(ts.block_of(tt.accesses()[k].addr), tt.native_core());
      }
    }
  }
  return homes;
}

/// Profile-greedy by its definition: per block, the native core with the
/// most accesses, ties to the lower core id.
std::map<Addr, CoreId> profile_greedy_by_count(const TraceSet& ts,
                                               std::int32_t cores) {
  std::map<Addr, std::map<CoreId, std::uint64_t>> counts;
  for (const ThreadTrace& tt : ts.threads()) {
    for (const Access& a : tt.accesses()) {
      ++counts[ts.block_of(a.addr)][tt.native_core()];
    }
  }
  std::map<Addr, CoreId> homes;
  for (const auto& [block, per_core] : counts) {
    CoreId best = kNoCore;
    std::uint64_t best_count = 0;
    for (const auto& [core, c] : per_core) {
      if (core >= 0 && core < cores && c > best_count) {
        best = core;
        best_count = c;
      }
    }
    if (best != kNoCore) {
      homes.emplace(block, best);
    }
  }
  return homes;
}

void expect_placement_is(const Placement& built,
                         const std::map<Addr, CoreId>& homes,
                         const std::string& label) {
  EXPECT_EQ(built.assigned_blocks(), homes.size()) << label;
  for (const auto& [block, home] : homes) {
    ASSERT_EQ(built.home_of_block(block), home)
        << label << " block " << block;
  }
}

TEST(FirstTouch, EqualsTheRoundRobinWalkOnEveryRegistryWorkload) {
  constexpr std::int32_t kCores = 16;
  for (const std::string& name : workload::workload_names()) {
    const auto ts = workload::make_by_name(name, kCores, 1, 1);
    ASSERT_TRUE(ts.has_value()) << name;
    expect_placement_is(first_touch_placement(*ts, kCores),
                        first_touch_by_walk(*ts), name);
  }
}

TEST(ProfileGreedy, EqualsTheCountDefinitionOnEveryRegistryWorkload) {
  constexpr std::int32_t kCores = 16;
  for (const std::string& name : workload::workload_names()) {
    const auto ts = workload::make_by_name(name, kCores, 1, 1);
    ASSERT_TRUE(ts.has_value()) << name;
    expect_placement_is(profile_greedy_placement(*ts, kCores),
                        profile_greedy_by_count(*ts, kCores), name);
  }
}

TEST(ProfileGreedy, SharedNativeCoresPoolTheirCounts) {
  // Threads 0 and 2 share native core 3; together they outvote thread 1
  // (core 1) on block 0, though each alone would lose.  Thread 3's
  // native core lies outside the mesh, so it counts nowhere.
  TraceSet ts(64);
  const CoreId natives[] = {3, 1, 3, 9};
  const int reads[] = {2, 3, 2, 50};
  for (std::int32_t t = 0; t < 4; ++t) {
    ThreadTrace tt(t, natives[t]);
    for (int i = 0; i < reads[t]; ++i) {
      tt.append(0x00, MemOp::kRead);
    }
    ts.add_thread(std::move(tt));
  }
  const Placement p = profile_greedy_placement(ts, 4);
  EXPECT_EQ(p.home_of_block(0), 3);
  expect_placement_is(p, profile_greedy_by_count(ts, 4), "shared natives");
}

}  // namespace
}  // namespace em2
