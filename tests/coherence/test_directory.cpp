#include "coherence/directory.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace em2 {
namespace {

struct CcFixture {
  Mesh mesh{4, 4};
  CostModel cost{mesh, CostModelParams{}};
  const Placement placement = striped_placement(16);
  DirCcParams params{};
  DirectoryCC cc{mesh, cost, params, placement};
};

TEST(DirectoryCC, ColdReadMissFetchesFromHome) {
  CcFixture f;
  const auto r = f.cc.access(0, 0x1000, MemOp::kRead);
  EXPECT_FALSE(r.hit);
  EXPECT_EQ(f.cc.counters().get("gets"), 1u);
  EXPECT_EQ(f.cc.counters().get("data_home"), 1u);
  EXPECT_EQ(f.cc.counters().get("dram_fills"), 1u);
}

TEST(DirectoryCC, ReadAfterReadHits) {
  CcFixture f;
  f.cc.access(0, 0x1000, MemOp::kRead);
  const auto r = f.cc.access(0, 0x1004, MemOp::kRead);
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(f.cc.counters().get("hits"), 1u);
}

TEST(DirectoryCC, SharersReplicateLines) {
  CcFixture f;
  // Four cores read the same line: 4 copies on chip.
  for (CoreId c = 0; c < 4; ++c) {
    f.cc.access(c, 0x2000, MemOp::kRead);
  }
  EXPECT_EQ(f.cc.total_valid_lines(), 4u);
  EXPECT_EQ(f.cc.distinct_resident_lines(), 1u);
  EXPECT_DOUBLE_EQ(f.cc.replication_factor(), 4.0);
}

TEST(DirectoryCC, WriteInvalidatesSharers) {
  CcFixture f;
  for (CoreId c = 0; c < 4; ++c) {
    f.cc.access(c, 0x2000, MemOp::kRead);
  }
  // Core 0 upgrades: the other three sharers must be invalidated.
  f.cc.access(0, 0x2000, MemOp::kWrite);
  EXPECT_EQ(f.cc.counters().get("inv"), 3u);
  EXPECT_EQ(f.cc.counters().get("inv_ack"), 3u);
  EXPECT_EQ(f.cc.total_valid_lines(), 1u);
}

TEST(DirectoryCC, WriteThenWriteHitsInM) {
  CcFixture f;
  f.cc.access(2, 0x3000, MemOp::kWrite);
  const auto r = f.cc.access(2, 0x3000, MemOp::kWrite);
  EXPECT_TRUE(r.hit);
}

TEST(DirectoryCC, ReadOfModifiedForwardsToOwner) {
  CcFixture f;
  f.cc.access(1, 0x3000, MemOp::kWrite);  // core 1 owns in M
  const auto r = f.cc.access(2, 0x3000, MemOp::kRead);
  EXPECT_FALSE(r.hit);
  EXPECT_EQ(f.cc.counters().get("fwd_gets"), 1u);
  EXPECT_EQ(f.cc.counters().get("data_owner"), 1u);
  EXPECT_EQ(f.cc.counters().get("wb_downgrade"), 1u);
  // Both now share.
  EXPECT_EQ(f.cc.total_valid_lines(), 2u);
}

TEST(DirectoryCC, WriteOfModifiedTransfersOwnership) {
  CcFixture f;
  f.cc.access(1, 0x3000, MemOp::kWrite);
  f.cc.access(2, 0x3000, MemOp::kWrite);
  EXPECT_EQ(f.cc.counters().get("fwd_getm"), 1u);
  EXPECT_EQ(f.cc.total_valid_lines(), 1u);  // old owner invalidated
  // New owner hits.
  EXPECT_TRUE(f.cc.access(2, 0x3000, MemOp::kWrite).hit);
}

TEST(DirectoryCC, UpgradeAvoidsDataTransfer) {
  CcFixture f;
  f.cc.access(0, 0x4000, MemOp::kRead);
  f.cc.access(0, 0x4000, MemOp::kWrite);  // S -> M upgrade
  EXPECT_EQ(f.cc.counters().get("upgrade"), 1u);
  EXPECT_EQ(f.cc.counters().get("upgrade_ack"), 1u);
}

TEST(DirectoryCC, DirectoryBitsGrowWithTrackedLines) {
  CcFixture f;
  EXPECT_EQ(f.cc.directory_bits(), 0u);
  f.cc.access(0, 0x1000, MemOp::kRead);
  f.cc.access(0, 0x2000, MemOp::kRead);
  // Two tracked lines x (2 + 16) bits.
  EXPECT_EQ(f.cc.directory_bits(), 2u * 18u);
}

TEST(DirectoryCC, LatencyIncludesInvalidationCriticalPath) {
  CcFixture f;
  const Cost solo_write = f.cc.access(0, 0x5000, MemOp::kWrite).latency;
  // New line, now shared by 3 more cores, then re-written: must cost at
  // least as much as the unshared write (inv round trips added, DRAM
  // fill removed — compare against a fresh unshared write instead).
  for (CoreId c = 1; c < 4; ++c) {
    f.cc.access(c, 0x5000, MemOp::kRead);
  }
  const Cost shared_write = f.cc.access(0, 0x5000, MemOp::kWrite).latency;
  // The shared write pays invalidation round trips but no DRAM fill;
  // the solo write paid a DRAM fill.  Both must exceed a pure hit.
  const Cost hit = f.cc.access(0, 0x5000, MemOp::kWrite).latency;
  EXPECT_GT(solo_write, hit);
  EXPECT_GT(shared_write, hit);
}

TEST(DirectoryCC, MessagesConserveWithTraffic) {
  CcFixture f;
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    f.cc.access(static_cast<CoreId>(rng.next_below(16)),
                rng.next_below(64) * 64,
                rng.next_bool(0.3) ? MemOp::kWrite : MemOp::kRead);
  }
  // Every message carries at least a header.
  EXPECT_GE(f.cc.traffic_bits(),
            f.cc.counters().get("messages") * f.cost.params().header_bits);
  EXPECT_EQ(f.cc.counters().get("accesses"), 500u);
  EXPECT_EQ(f.cc.counters().get("hits") + f.cc.counters().get("misses"),
            500u);
}

// Protocol invariant sweep: after any random access stream, every line is
// either uncached, in M at exactly one core, or in S at >= 1 cores — we
// verify via the replication/occupancy accessors.
class CcInvariants : public ::testing::TestWithParam<int> {};

TEST_P(CcInvariants, OccupancyConsistent) {
  CcFixture f;
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 1000; ++i) {
    f.cc.access(static_cast<CoreId>(rng.next_below(16)),
                rng.next_below(32) * 64,
                rng.next_bool(0.4) ? MemOp::kWrite : MemOp::kRead);
  }
  EXPECT_GE(f.cc.total_valid_lines(), f.cc.distinct_resident_lines());
  EXPECT_GE(f.cc.replication_factor(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CcInvariants, ::testing::Range(1, 9));

}  // namespace
}  // namespace em2
