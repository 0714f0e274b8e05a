#include "placement/placement.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace em2 {
namespace {

TEST(StripedPlacement, RoundRobin) {
  const Placement p = striped_placement(4);
  EXPECT_EQ(p.home_of_block(0), 0);
  EXPECT_EQ(p.home_of_block(1), 1);
  EXPECT_EQ(p.home_of_block(4), 0);
  EXPECT_EQ(p.home_of_block(7), 3);
}

TEST(HashedPlacement, InRangeAndDeterministic) {
  const Placement p = hashed_placement(16);
  const Placement q = hashed_placement(16);
  for (Addr b = 0; b < 1000; ++b) {
    const CoreId c = p.home_of_block(b);
    EXPECT_GE(c, 0);
    EXPECT_LT(c, 16);
    EXPECT_EQ(c, q.home_of_block(b));
  }
}

TEST(HashedPlacement, SaltChangesMapping) {
  const Placement a = hashed_placement(16, 0);
  const Placement b = hashed_placement(16, 99);
  int diff = 0;
  for (Addr blk = 0; blk < 256; ++blk) {
    if (a.home_of_block(blk) != b.home_of_block(blk)) {
      ++diff;
    }
  }
  EXPECT_GT(diff, 128);
}

TEST(TablePlacement, AssignAndFallback) {
  Placement p(4);
  p.assign(10, 3);
  EXPECT_EQ(p.home_of_block(10), 3);
  EXPECT_EQ(p.home_of_block(11), 3);  // fallback: 11 % 4
  EXPECT_EQ(p.assigned_blocks(), 1u);
  p.assign(10, 1);  // reassign
  EXPECT_EQ(p.home_of_block(10), 1);
  EXPECT_EQ(p.assigned_blocks(), 1u);
}

TraceSet two_thread_traces() {
  TraceSet ts(64);
  ThreadTrace t0(0, 0);
  // Thread 0 touches blocks 0 and 1 (addresses 0x00, 0x40).
  t0.append(0x00, MemOp::kWrite);
  t0.append(0x40, MemOp::kWrite);
  t0.append(0x80, MemOp::kRead);  // block 2, touched later by round-robin
  ThreadTrace t1(1, 1);
  // Thread 1 touches block 2 first in its stream, and block 1 second.
  t1.append(0x80, MemOp::kWrite);
  t1.append(0x40, MemOp::kRead);
  ts.add_thread(std::move(t0));
  ts.add_thread(std::move(t1));
  return ts;
}

TEST(FirstTouch, RoundRobinInterleaveDecidesOwnership) {
  const TraceSet ts = two_thread_traces();
  const Placement p = first_touch_placement(ts, 4);
  // Round 0: t0 touches block 0, t1 touches block 2.
  // Round 1: t0 touches block 1, t1 touches block 1 (already owned by t0).
  EXPECT_EQ(p.home_of_block(0), 0);
  EXPECT_EQ(p.home_of_block(2), 1);
  EXPECT_EQ(p.home_of_block(1), 0);
  EXPECT_EQ(p.assigned_blocks(), 3u);
}

TEST(FirstTouch, Deterministic) {
  const TraceSet ts = two_thread_traces();
  const Placement a = first_touch_placement(ts, 4);
  const Placement b = first_touch_placement(ts, 4);
  for (Addr blk = 0; blk < 3; ++blk) {
    EXPECT_EQ(a.home_of_block(blk), b.home_of_block(blk));
  }
}

TEST(FirstTouch, MatchesTheRoundRobinWalk) {
  // Threads of uneven length (some run dry early), shared blocks touched
  // at equal and at different per-thread indices, natives not in thread
  // order: the per-thread build must equal a literal walk of the
  // interleaving, block for block.
  TraceSet ts(64);
  Rng rng(41);
  for (std::int32_t t = 0; t < 7; ++t) {
    ThreadTrace tt(t, (t * 5) % 7);
    const auto len = 1 + rng.next_below(300);
    for (std::uint64_t k = 0; k < len; ++k) {
      tt.append(64 * rng.next_below(200), MemOp::kRead);
    }
    ts.add_thread(std::move(tt));
  }
  Placement walked(7);
  std::vector<bool> seen(200, false);
  for (std::size_t k = 0; k < 300; ++k) {
    for (const ThreadTrace& tt : ts.threads()) {
      if (k < tt.size()) {
        const Addr block = ts.block_of(tt.accesses()[k].addr);
        if (!seen[block]) {
          seen[block] = true;
          walked.assign(block, tt.native_core());
        }
      }
    }
  }
  const Placement built = first_touch_placement(ts, 7);
  EXPECT_EQ(built.assigned_blocks(), walked.assigned_blocks());
  for (Addr block = 0; block < 200; ++block) {
    EXPECT_EQ(built.home_of_block(block), walked.home_of_block(block))
        << "block " << block;
  }
}

TEST(ProfileGreedy, MajorityAccessorWins) {
  TraceSet ts(64);
  ThreadTrace t0(0, 0);
  t0.append(0x40, MemOp::kRead);  // block 1 x1
  ThreadTrace t1(1, 1);
  t1.append(0x40, MemOp::kRead);  // block 1 x3
  t1.append(0x40, MemOp::kRead);
  t1.append(0x40, MemOp::kWrite);
  ts.add_thread(std::move(t0));
  ts.add_thread(std::move(t1));
  const Placement p = profile_greedy_placement(ts, 4);
  EXPECT_EQ(p.home_of_block(1), 1);
}

TEST(ProfileGreedy, TieGoesToLowerCore) {
  TraceSet ts(64);
  ThreadTrace t0(0, 2);
  t0.append(0x00, MemOp::kRead);
  ThreadTrace t1(1, 1);
  t1.append(0x00, MemOp::kRead);
  ts.add_thread(std::move(t0));
  ts.add_thread(std::move(t1));
  const Placement p = profile_greedy_placement(ts, 4);
  EXPECT_EQ(p.home_of_block(0), 1);  // cores 1 and 2 tie; lower id wins
}

TEST(HomeSequence, MapsEveryAccess) {
  const TraceSet ts = two_thread_traces();
  const Placement p = striped_placement(4);
  const auto homes = home_sequence(ts.thread(0), ts, p);
  ASSERT_EQ(homes.size(), 3u);
  EXPECT_EQ(homes[0], 0);  // block 0 -> core 0
  EXPECT_EQ(homes[1], 1);  // block 1 -> core 1
  EXPECT_EQ(homes[2], 2);  // block 2 -> core 2
}

TEST(MakePlacement, FactoryKnowsAllSchemes) {
  const TraceSet ts = two_thread_traces();
  for (const char* name :
       {"striped", "hashed", "first-touch", "profile-greedy"}) {
    const auto p = make_placement(name, ts, 4);
    ASSERT_NE(p, nullptr) << name;
    EXPECT_EQ(p->name(), name);
  }
  EXPECT_EQ(make_placement("bogus", ts, 4), nullptr);
}

TEST(TablePlacement, BlocksPerCore) {
  Placement p(3);
  p.assign(0, 0);
  p.assign(1, 0);
  p.assign(2, 2);
  const auto counts = p.blocks_per_core();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 0u);
  EXPECT_EQ(counts[2], 1u);
}

}  // namespace
}  // namespace em2
