// Tests for the HPF distribution algebra, including property-style checks
// over randomized BLOCK / CYCLIC / BLOCK-CYCLIC configurations.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>
#include <vector>

#include "oocc/hpf/distribution.hpp"
#include "oocc/util/error.hpp"
#include "oocc/util/rng.hpp"

namespace oocc::hpf {
namespace {

TEST(DimDistributionTest, BlockBasics) {
  // 64 elements over 4 procs: blocks of 16.
  DimDistribution d(DistKind::kBlock, 64, 4);
  EXPECT_EQ(d.block(), 16);
  EXPECT_EQ(d.owner(0), 0);
  EXPECT_EQ(d.owner(15), 0);
  EXPECT_EQ(d.owner(16), 1);
  EXPECT_EQ(d.owner(63), 3);
  EXPECT_EQ(d.global_to_local(17), 1);
  EXPECT_EQ(d.local_to_global(2, 3), 35);
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(d.local_extent(p), 16);
  }
}

TEST(DimDistributionTest, BlockUneven) {
  // 10 over 4: ceil = 3 -> extents 3,3,3,1.
  DimDistribution d(DistKind::kBlock, 10, 4);
  EXPECT_EQ(d.local_extent(0), 3);
  EXPECT_EQ(d.local_extent(3), 1);
  EXPECT_EQ(d.owner(9), 3);
  EXPECT_EQ(d.global_to_local(9), 0);
}

TEST(DimDistributionTest, CyclicBasics) {
  DimDistribution d(DistKind::kCyclic, 10, 3);
  EXPECT_EQ(d.owner(0), 0);
  EXPECT_EQ(d.owner(4), 1);
  EXPECT_EQ(d.global_to_local(7), 2);  // 7 = 2*3 + 1 -> local 2 on proc 1
  EXPECT_EQ(d.local_to_global(1, 2), 7);
  EXPECT_EQ(d.local_extent(0), 4);  // 0,3,6,9
  EXPECT_EQ(d.local_extent(1), 3);  // 1,4,7
  EXPECT_EQ(d.local_extent(2), 3);  // 2,5,8
}

TEST(DimDistributionTest, BlockCyclicBasics) {
  // Blocks of 2 over 2 procs, extent 10:
  // p0: 0,1, 4,5, 8,9 ; p1: 2,3, 6,7.
  DimDistribution d(DistKind::kBlockCyclic, 10, 2, 2);
  EXPECT_EQ(d.owner(0), 0);
  EXPECT_EQ(d.owner(3), 1);
  EXPECT_EQ(d.owner(4), 0);
  EXPECT_EQ(d.local_extent(0), 6);
  EXPECT_EQ(d.local_extent(1), 4);
  EXPECT_EQ(d.global_to_local(6), 2);
  EXPECT_EQ(d.local_to_global(1, 3), 7);
}

TEST(DimDistributionTest, CollapsedIsUniversal) {
  DimDistribution d(DistKind::kCollapsed, 12, 4);
  EXPECT_FALSE(d.distributed());
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(d.local_extent(p), 12);
    EXPECT_TRUE(d.owns(p, 11));
  }
  EXPECT_EQ(d.global_to_local(7), 7);
  EXPECT_EQ(d.local_to_global(2, 7), 7);
}

TEST(DimDistributionTest, BoundsChecked) {
  DimDistribution d(DistKind::kBlock, 8, 2);
  EXPECT_THROW(d.owner(8), Error);
  EXPECT_THROW(d.owner(-1), Error);
  EXPECT_THROW(d.local_extent(2), Error);
  EXPECT_THROW(d.local_to_global(0, 4), Error);
  EXPECT_THROW(DimDistribution(DistKind::kBlock, 0, 2), Error);
  EXPECT_THROW(DimDistribution(DistKind::kBlockCyclic, 8, 2, 0), Error);
}

// gtest prints a parameter type that has no PrintTo overload as its raw
// bytes, and CTest builds each case name from that dump. The `pad` fields
// occupy what would otherwise be alignment padding, so every printed byte
// is initialised and a case has the same name in every build.
struct DistCase {
  DistCase(DistKind k, std::int64_t e, int p, std::int64_t b)
      : kind(k), extent(e), nprocs(p), block(b) {}
  DistKind kind;
  std::int32_t pad0 = 0;
  std::int64_t extent;
  int nprocs;
  std::int32_t pad1 = 0;
  std::int64_t block;
};
static_assert(std::has_unique_object_representations_v<DistCase>);

class DimDistributionProperty : public ::testing::TestWithParam<DistCase> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, DimDistributionProperty,
    ::testing::Values(DistCase{DistKind::kBlock, 64, 4, 0},
                      DistCase{DistKind::kBlock, 100, 7, 0},
                      DistCase{DistKind::kBlock, 5, 5, 0},
                      DistCase{DistKind::kCyclic, 64, 4, 0},
                      DistCase{DistKind::kCyclic, 101, 8, 0},
                      DistCase{DistKind::kBlockCyclic, 64, 4, 4},
                      DistCase{DistKind::kBlockCyclic, 97, 5, 3},
                      DistCase{DistKind::kBlockCyclic, 32, 2, 32},
                      DistCase{DistKind::kCollapsed, 50, 6, 0}));

TEST_P(DimDistributionProperty, RoundTripAndPartition) {
  const DistCase c = GetParam();
  DimDistribution d(c.kind, c.extent, c.nprocs, c.block);

  // (1) Every global index round-trips through (owner, local).
  for (std::int64_t g = 0; g < c.extent; ++g) {
    const int p = d.owner(g);
    ASSERT_GE(p, 0);
    ASSERT_LT(p, c.nprocs);
    EXPECT_TRUE(d.owns(p, g));
    const std::int64_t l = d.global_to_local(g);
    ASSERT_GE(l, 0);
    ASSERT_LT(l, d.local_extent(p));
    EXPECT_EQ(d.local_to_global(p, l), g);
  }

  // (2) Local extents sum to the global extent (for distributed kinds) —
  // the local pieces tile the dimension exactly.
  if (c.kind != DistKind::kCollapsed) {
    std::int64_t total = 0;
    for (int p = 0; p < c.nprocs; ++p) {
      total += d.local_extent(p);
    }
    EXPECT_EQ(total, c.extent);
  }

  // (3) local_to_global is injective across (proc, local).
  if (c.kind != DistKind::kCollapsed) {
    std::vector<bool> seen(static_cast<std::size_t>(c.extent), false);
    for (int p = 0; p < c.nprocs; ++p) {
      for (std::int64_t l = 0; l < d.local_extent(p); ++l) {
        const std::int64_t g = d.local_to_global(p, l);
        EXPECT_FALSE(seen[static_cast<std::size_t>(g)]);
        seen[static_cast<std::size_t>(g)] = true;
      }
    }
  }
}

TEST(DimDistributionProperty, RandomizedConfigurations) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const std::int64_t extent = rng.next_int(1, 300);
    const int nprocs = static_cast<int>(rng.next_int(1, 16));
    const int kind_pick = static_cast<int>(rng.next_int(0, 2));
    DistKind kind = kind_pick == 0   ? DistKind::kBlock
                    : kind_pick == 1 ? DistKind::kCyclic
                                     : DistKind::kBlockCyclic;
    const std::int64_t block = rng.next_int(1, 8);
    DimDistribution d(kind, extent, nprocs, block);
    std::int64_t total = 0;
    for (int p = 0; p < nprocs; ++p) {
      total += d.local_extent(p);
    }
    ASSERT_EQ(total, extent) << "kind=" << static_cast<int>(kind)
                             << " extent=" << extent << " P=" << nprocs;
    for (int probe = 0; probe < 20; ++probe) {
      const std::int64_t g = rng.next_int(0, extent - 1);
      const int p = d.owner(g);
      ASSERT_EQ(d.local_to_global(p, d.global_to_local(g)), g);
    }
  }
}

TEST(DimDistributionProperty, BlockCyclicDegeneratesToBlockAndCyclic) {
  // CYCLIC(1) == CYCLIC and CYCLIC(ceil(N/P)) == BLOCK, elementwise.
  for (const auto& [extent, nprocs] :
       std::vector<std::pair<std::int64_t, int>>{
           {64, 4}, {100, 7}, {13, 13}, {96, 5}}) {
    const DimDistribution cyclic(DistKind::kCyclic, extent, nprocs);
    const DimDistribution bc1(DistKind::kBlockCyclic, extent, nprocs, 1);
    const std::int64_t ceil_block = (extent + nprocs - 1) / nprocs;
    const DimDistribution block(DistKind::kBlock, extent, nprocs);
    const DimDistribution bcb(DistKind::kBlockCyclic, extent, nprocs,
                              ceil_block);
    for (std::int64_t g = 0; g < extent; ++g) {
      ASSERT_EQ(bc1.owner(g), cyclic.owner(g)) << "g=" << g;
      ASSERT_EQ(bc1.global_to_local(g), cyclic.global_to_local(g));
      ASSERT_EQ(bcb.owner(g), block.owner(g)) << "g=" << g;
      ASSERT_EQ(bcb.global_to_local(g), block.global_to_local(g));
    }
    for (int proc = 0; proc < nprocs; ++proc) {
      ASSERT_EQ(bc1.local_extent(proc), cyclic.local_extent(proc));
      ASSERT_EQ(bcb.local_extent(proc), block.local_extent(proc));
    }
  }
}

TEST(DimDistributionProperty, GlobalToLocalIsMonotonicOnOwnedSets) {
  // The GAXPY reduction's output batches rely on this: a processor's
  // owned global indices, taken in increasing order, map to consecutive
  // local indices 0, 1, 2, ...
  Rng rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    const std::int64_t extent = rng.next_int(1, 200);
    const int nprocs = static_cast<int>(rng.next_int(1, 9));
    const int kind_pick = static_cast<int>(rng.next_int(0, 2));
    const DistKind kind = kind_pick == 0   ? DistKind::kBlock
                          : kind_pick == 1 ? DistKind::kCyclic
                                           : DistKind::kBlockCyclic;
    const DimDistribution d(kind, extent, nprocs, rng.next_int(1, 6));
    std::vector<std::int64_t> next_local(static_cast<std::size_t>(nprocs),
                                         0);
    for (std::int64_t g = 0; g < extent; ++g) {
      const int owner = d.owner(g);
      ASSERT_EQ(d.global_to_local(g),
                next_local[static_cast<std::size_t>(owner)]++)
          << "kind=" << static_cast<int>(kind) << " g=" << g;
    }
  }
}

// ---------------------------------------------------------------------
// Ownership runs (the block routing layer's foundation)

TEST(OwnerRunsTest, BlockRunsFollowProcessorBoundaries) {
  // 10 over 4: blocks 3,3,3,1 — non-divisible extent.
  DimDistribution d(DistKind::kBlock, 10, 4);
  const std::vector<OwnerRun> runs = d.owner_runs(0, 10);
  ASSERT_EQ(runs.size(), 4u);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].owner, static_cast<int>(i));
  }
  EXPECT_EQ(runs[0].g0, 0);
  EXPECT_EQ(runs[0].g1, 3);
  EXPECT_EQ(runs[2].g1, 9);
  EXPECT_EQ(runs[3].g0, 9);
  EXPECT_EQ(runs[3].g1, 10);  // final short run clamped to the extent
}

TEST(OwnerRunsTest, SubRangeClipsRunsAtBothEnds) {
  DimDistribution d(DistKind::kBlock, 16, 4);  // blocks of 4
  const std::vector<OwnerRun> runs = d.owner_runs(3, 13);
  ASSERT_EQ(runs.size(), 4u);
  EXPECT_EQ(runs[0].g0, 3);
  EXPECT_EQ(runs[0].g1, 4);  // tail of proc 0's block
  EXPECT_EQ(runs[1].g0, 4);
  EXPECT_EQ(runs[1].g1, 8);
  EXPECT_EQ(runs[3].g0, 12);
  EXPECT_EQ(runs[3].g1, 13);  // head of proc 3's block
}

TEST(OwnerRunsTest, CyclicDegeneratesToUnitRuns) {
  DimDistribution d(DistKind::kCyclic, 7, 3);
  const std::vector<OwnerRun> runs = d.owner_runs(0, 7);
  ASSERT_EQ(runs.size(), 7u);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].g1 - runs[i].g0, 1);
    EXPECT_EQ(runs[i].owner, static_cast<int>(i % 3));
  }
  EXPECT_EQ(d.run_length_hint(), 1);
}

TEST(OwnerRunsTest, BlockCyclicRunsArePeriodicBlocks) {
  // BLOCK-CYCLIC(2), extent 10, P = 2: blocks dealt 0,1,0,1,0.
  DimDistribution d(DistKind::kBlockCyclic, 10, 2, 2);
  const std::vector<OwnerRun> runs = d.owner_runs(0, 10);
  ASSERT_EQ(runs.size(), 5u);
  const int expected_owner[] = {0, 1, 0, 1, 0};
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].g0, static_cast<std::int64_t>(2 * i));
    EXPECT_EQ(runs[i].g1, static_cast<std::int64_t>(2 * i + 2));
    EXPECT_EQ(runs[i].owner, expected_owner[i]);
  }
  // Period boundary inside the range: a run straddling `begin` is clipped.
  const std::vector<OwnerRun> mid = d.owner_runs(3, 7);
  ASSERT_EQ(mid.size(), 3u);
  EXPECT_EQ(mid[0].g0, 3);
  EXPECT_EQ(mid[0].g1, 4);
  EXPECT_EQ(mid[0].owner, 1);
  EXPECT_EQ(mid[2].g0, 6);
  EXPECT_EQ(mid[2].g1, 7);
  EXPECT_EQ(mid[2].owner, 1);
}

TEST(OwnerRunsTest, CollapsedIsOneRun) {
  DimDistribution d(DistKind::kCollapsed, 9, 4);
  const std::vector<OwnerRun> runs = d.owner_runs(0, 9);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].g0, 0);
  EXPECT_EQ(runs[0].g1, 9);
  EXPECT_EQ(runs[0].owner, 0);
  EXPECT_EQ(d.run_length_hint(), 9);
}

TEST(OwnerRunsTest, SingleProcessorCollapsesToOneRun) {
  // Every kind with P = 1 owns everything contiguously.
  for (DistKind kind : {DistKind::kBlock, DistKind::kCyclic,
                        DistKind::kBlockCyclic}) {
    DimDistribution d(kind, 12, 1, 3);
    const std::vector<OwnerRun> runs = d.owner_runs(0, 12);
    ASSERT_EQ(runs.size(), 1u) << dist_kind_name(kind);
    EXPECT_EQ(runs[0].owner, 0);
    EXPECT_GE(d.run_length_hint(), 2);
  }
}

TEST(OwnerRunsTest, EmptyRangeYieldsNoRuns) {
  DimDistribution d(DistKind::kBlock, 8, 2);
  EXPECT_TRUE(d.owner_runs(3, 3).empty());
  EXPECT_THROW(d.owner_runs(3, 2), Error);
  EXPECT_THROW(d.owner_runs(0, 9), Error);
}

TEST(OwnerRunsTest, RunsPartitionAndAgreeWithOwnerEverywhere) {
  // Property: for every kind and a non-divisible extent, the runs tile
  // [0, N) exactly, agree with owner(), and map to consecutive local
  // indices within each run.
  for (DistKind kind : {DistKind::kBlock, DistKind::kCyclic,
                        DistKind::kBlockCyclic, DistKind::kCollapsed}) {
    DimDistribution d(kind, 23, 3, 4);
    std::int64_t expect_next = 0;
    for (const OwnerRun& run : d.owner_runs(0, 23)) {
      EXPECT_EQ(run.g0, expect_next) << dist_kind_name(kind);
      EXPECT_LT(run.g0, run.g1);
      for (std::int64_t g = run.g0; g < run.g1; ++g) {
        EXPECT_EQ(d.owner(g), run.owner) << dist_kind_name(kind) << " g=" << g;
        if (g > run.g0) {
          EXPECT_EQ(d.global_to_local(g), d.global_to_local(g - 1) + 1)
              << dist_kind_name(kind) << " g=" << g;
        }
      }
      expect_next = run.g1;
    }
    EXPECT_EQ(expect_next, 23) << dist_kind_name(kind);
  }
}

TEST(OwnerRunsTest, LocalRunEndMatchesGlobalContiguity) {
  // Property: [l, local_run_end(l)) maps to consecutive globals, and the
  // run is maximal (the next local index, if any, breaks contiguity).
  for (DistKind kind : {DistKind::kBlock, DistKind::kCyclic,
                        DistKind::kBlockCyclic, DistKind::kCollapsed}) {
    DimDistribution d(kind, 23, 3, 4);
    for (int proc = 0; proc < 3; ++proc) {
      const std::int64_t n = d.local_extent(proc);
      for (std::int64_t l = 0; l < n;) {
        const std::int64_t e = d.local_run_end(proc, l);
        ASSERT_GT(e, l);
        for (std::int64_t i = l + 1; i < e; ++i) {
          EXPECT_EQ(d.local_to_global(proc, i),
                    d.local_to_global(proc, i - 1) + 1)
              << dist_kind_name(kind) << " proc=" << proc << " l=" << i;
        }
        if (e < n) {
          EXPECT_NE(d.local_to_global(proc, e),
                    d.local_to_global(proc, e - 1) + 1)
              << dist_kind_name(kind) << " run not maximal at l=" << l;
        }
        l = e;
      }
    }
  }
}

TEST(ArrayDistributionTest, ColumnBlockMatchesPaperExample) {
  // Figure 8: 8x8 array over 4 processors, column-block.
  ArrayDistribution d = column_block(8, 8, 4);
  EXPECT_EQ(d.axis(), DistAxis::kCols);
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(d.local_rows(p), 8);
    EXPECT_EQ(d.local_cols(p), 2);
    EXPECT_EQ(d.local_elements(p), 16);
  }
  EXPECT_EQ(d.owner_of_col(0), 0);
  EXPECT_EQ(d.owner_of_col(5), 2);
  EXPECT_EQ(d.owner(3, 5), 2);
  EXPECT_EQ(d.global_to_local_col(5), 1);
  EXPECT_EQ(d.local_to_global_col(2, 1), 5);
  EXPECT_EQ(d.global_to_local_row(3), 3);
}

TEST(ArrayDistributionTest, RowBlockMatchesPaperExample) {
  ArrayDistribution d = row_block(8, 8, 4);
  EXPECT_EQ(d.axis(), DistAxis::kRows);
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(d.local_rows(p), 2);
    EXPECT_EQ(d.local_cols(p), 8);
  }
  EXPECT_EQ(d.owner_of_row(7), 3);
  EXPECT_EQ(d.owner(7, 0), 3);
}

TEST(ArrayDistributionTest, ReplicatedOwnsEverywhere) {
  ArrayDistribution d(4, 4, DistAxis::kNone, DistKind::kCollapsed, 3);
  for (int p = 0; p < 3; ++p) {
    EXPECT_TRUE(d.owns(p, 2, 3));
    EXPECT_EQ(d.local_elements(p), 16);
  }
  EXPECT_EQ(d.owner(2, 3), 0);
}

TEST(ArrayDistributionTest, EqualityAndToString) {
  ArrayDistribution a = column_block(16, 16, 4);
  ArrayDistribution b = column_block(16, 16, 4);
  ArrayDistribution c = row_block(16, 16, 4);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_NE(a.to_string().find("BLOCK"), std::string::npos);
  EXPECT_NE(a.to_string().find("cols"), std::string::npos);
}

TEST(ArrayDistributionTest, EqualExactlyWhenStringsAreEqual) {
  // The plan-cache key hashes to_string(): two layouts that compare
  // unequal must never print alike, and equal ones always do.
  std::vector<ArrayDistribution> all;
  for (const DistAxis axis :
       {DistAxis::kNone, DistAxis::kRows, DistAxis::kCols}) {
    for (const DistKind kind : {DistKind::kBlock, DistKind::kCyclic,
                                DistKind::kBlockCyclic, DistKind::kCollapsed}) {
      for (const std::int64_t block : {1, 2, 4}) {
        if (kind != DistKind::kBlockCyclic && block != 1) {
          continue;  // the block argument is read by BLOCK-CYCLIC only
        }
        for (const int p : {1, 2, 3, 4}) {
          if (axis == DistAxis::kNone && kind != DistKind::kCollapsed &&
              p != 1) {
            continue;  // a replicated array names no kind
          }
          all.emplace_back(12, 8, axis, kind, p, block);
        }
      }
    }
  }
  for (const ArrayDistribution& a : all) {
    for (const ArrayDistribution& b : all) {
      EXPECT_EQ(a == b, a.to_string() == b.to_string())
          << a.to_string() << " vs " << b.to_string();
    }
  }
  EXPECT_EQ(ArrayDistribution(12, 8, DistAxis::kCols, DistKind::kBlockCyclic,
                              4, 2)
                .to_string(),
            "12x8 dist(cols,BLOCK-CYCLIC(2)) over 4 procs");
}

}  // namespace
}  // namespace oocc::hpf
