// SlabBufferPool / IoScheduler unit tests: hit/miss accounting, LRU-with-
// reuse-hint eviction under exact-fit budgets, pin-count discipline and
// leak detection, dirty write-back ordering (disk must see staged data
// before an entry disappears), copy-free async write-back (re-staging
// waits for the write reading the buffer; at most one orphaned slab in
// flight), multi-entry column-coverage assembly, the write-path
// invalidation of overlapping stale ranges, and the --prefetch=auto
// compiler decision built on the cached step pricer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <vector>

#include "oocc/compiler/lower.hpp"
#include "oocc/hpf/programs.hpp"
#include "oocc/io/async_engine.hpp"
#include "oocc/io/file_backend.hpp"
#include "oocc/runtime/bufferpool.hpp"
#include "oocc/sim/collectives.hpp"

namespace oocc::runtime {
namespace {

using io::DiskModel;
using io::LocalArrayFile;
using io::Section;
using io::StorageOrder;
using io::TempDir;
using sim::Machine;
using sim::MachineCostModel;
using sim::SpmdContext;

/// Runs `body` on a single simulated processor.
void spmd(const std::function<void(SpmdContext&)>& body) {
  Machine machine(1, MachineCostModel::zero());
  machine.run(body);
}

/// 8x8 column-major LAF filled with r + 100*c.
void fill_laf(SpmdContext& ctx, LocalArrayFile& laf) {
  std::vector<double> all(
      static_cast<std::size_t>(laf.rows() * laf.cols()));
  for (std::int64_t c = 0; c < laf.cols(); ++c) {
    for (std::int64_t r = 0; r < laf.rows(); ++r) {
      all[static_cast<std::size_t>(c * laf.rows() + r)] =
          static_cast<double>(r + 100 * c);
    }
  }
  laf.write_full(ctx, std::span<const double>(all.data(), all.size()));
  laf.reset_stats();
}

Section cols(std::int64_t c0, std::int64_t c1, std::int64_t rows = 8) {
  return Section{0, rows, c0, c1};
}

TEST(SlabBufferPool, HitMissAndStats) {
  TempDir dir;
  spmd([&](SpmdContext& ctx) {
    LocalArrayFile laf(dir.file("a.laf"), 8, 8, StorageOrder::kColumnMajor,
                       DiskModel::zero());
    fill_laf(ctx, laf);
    MemoryBudget budget(1000);
    SlabBufferPool pool(budget, "t");

    IclaBuffer& b0 = pool.acquire_read(ctx, laf, "a", cols(0, 2), -1.0);
    EXPECT_DOUBLE_EQ(b0.at(3, 1), 3 + 100 * 1);
    pool.unpin(ctx, "a", cols(0, 2));
    EXPECT_EQ(pool.stats().misses, 1u);
    EXPECT_EQ(pool.stats().hits, 0u);
    EXPECT_EQ(laf.stats().read_requests, 1u);

    // Same section again: a hit, no new LAF traffic.
    (void)pool.acquire_read(ctx, laf, "a", cols(0, 2), -1.0);
    pool.unpin(ctx, "a", cols(0, 2));
    EXPECT_EQ(pool.stats().hits, 1u);
    EXPECT_EQ(pool.stats().elements_hit, 16u);
    EXPECT_EQ(laf.stats().read_requests, 1u);

    // A sub-range of a cached entry also hits (containment).
    IclaBuffer& sub = pool.acquire_read(ctx, laf, "a", cols(1, 2), -1.0);
    EXPECT_DOUBLE_EQ(sub.at(5, 0), 5 + 100 * 1);
    pool.unpin(ctx, "a", cols(1, 2));
    EXPECT_EQ(pool.stats().hits, 2u);
    EXPECT_EQ(laf.stats().read_requests, 1u);
    EXPECT_EQ(pool.pinned_count(), 0);
  });
}

TEST(SlabBufferPool, MultiEntryColumnCoverageAssembles) {
  // Entries of width 3 serve a misaligned width-2 read spanning two of
  // them — the cross-geometry case two fused-then-unfused statements hit.
  TempDir dir;
  spmd([&](SpmdContext& ctx) {
    LocalArrayFile laf(dir.file("a.laf"), 8, 8, StorageOrder::kColumnMajor,
                       DiskModel::zero());
    fill_laf(ctx, laf);
    MemoryBudget budget(1000);
    SlabBufferPool pool(budget, "t");
    (void)pool.acquire_read(ctx, laf, "a", cols(0, 3), -1.0);
    (void)pool.acquire_read(ctx, laf, "a", cols(3, 6), -1.0);
    pool.unpin(ctx, "a", cols(0, 3));
    pool.unpin(ctx, "a", cols(3, 6));
    laf.reset_stats();

    IclaBuffer& buf = pool.acquire_read(ctx, laf, "a", cols(2, 4), -1.0);
    pool.unpin(ctx, "a", cols(2, 4));
    EXPECT_EQ(laf.stats().read_requests, 0u);  // assembled, no disk I/O
    EXPECT_DOUBLE_EQ(buf.at(0, 0), 100 * 2);
    EXPECT_DOUBLE_EQ(buf.at(7, 1), 7 + 100 * 3);
    EXPECT_EQ(pool.stats().hits, 1u);
  });
}

TEST(SlabBufferPool, EvictionUnderExactFitBudgetUsesReuseHints) {
  // Budget holds exactly two 8-column-element entries; the third acquire
  // must evict the one whose next use is farthest away (hint 50), not the
  // least recently used (hint 5).
  TempDir dir;
  spmd([&](SpmdContext& ctx) {
    LocalArrayFile laf(dir.file("a.laf"), 8, 8, StorageOrder::kColumnMajor,
                       DiskModel::zero());
    fill_laf(ctx, laf);
    MemoryBudget budget(16);  // exactly two 8-element single-column entries
    SlabBufferPool pool(budget, "t");

    (void)pool.acquire_read(ctx, laf, "a", cols(0, 1), 5.0);   // keep
    pool.unpin(ctx, "a", cols(0, 1));
    (void)pool.acquire_read(ctx, laf, "a", cols(1, 2), 50.0);  // victim
    pool.unpin(ctx, "a", cols(1, 2));
    (void)pool.acquire_read(ctx, laf, "a", cols(2, 3), -1.0);
    pool.unpin(ctx, "a", cols(2, 3));
    EXPECT_EQ(pool.stats().evictions, 1u);
    EXPECT_TRUE(pool.resident("a", cols(0, 1)));
    EXPECT_FALSE(pool.resident("a", cols(1, 2)));

    // Unknown reuse (-1) ranks even farther: the new entry goes first next.
    (void)pool.acquire_read(ctx, laf, "a", cols(3, 4), 2.0);
    pool.unpin(ctx, "a", cols(3, 4));
    EXPECT_FALSE(pool.resident("a", cols(2, 3)));
    EXPECT_TRUE(pool.resident("a", cols(0, 1)));
  });
}

TEST(SlabBufferPool, PinnedEntriesAreNeverEvicted) {
  TempDir dir;
  spmd([&](SpmdContext& ctx) {
    LocalArrayFile laf(dir.file("a.laf"), 8, 8, StorageOrder::kColumnMajor,
                       DiskModel::zero());
    fill_laf(ctx, laf);
    MemoryBudget budget(16);
    SlabBufferPool pool(budget, "t");
    (void)pool.acquire_read(ctx, laf, "a", cols(0, 1), -1.0);  // pinned
    (void)pool.acquire_read(ctx, laf, "a", cols(1, 2), -1.0);  // pinned
    EXPECT_EQ(pool.pinned_count(), 2);
    // Nothing evictable: the third acquire must fail loudly, not corrupt a
    // pinned buffer.
    EXPECT_THROW((void)pool.acquire_read(ctx, laf, "a", cols(2, 3), -1.0),
                 Error);
    pool.unpin(ctx, "a", cols(0, 1));
    (void)pool.acquire_read(ctx, laf, "a", cols(2, 3), -1.0);  // now fits
    pool.unpin(ctx, "a", cols(1, 2));
    pool.unpin(ctx, "a", cols(2, 3));
    EXPECT_EQ(pool.pinned_count(), 0);
  });
}

TEST(SlabBufferPool, PinLeakAndDoubleUnpinAreDetected) {
  TempDir dir;
  spmd([&](SpmdContext& ctx) {
    LocalArrayFile laf(dir.file("a.laf"), 8, 8, StorageOrder::kColumnMajor,
                       DiskModel::zero());
    fill_laf(ctx, laf);
    MemoryBudget budget(1000);
    SlabBufferPool pool(budget, "t");
    (void)pool.acquire_read(ctx, laf, "a", cols(0, 2), -1.0);
    (void)pool.acquire_read(ctx, laf, "a", cols(0, 2), -1.0);  // pins twice
    EXPECT_EQ(pool.pinned_count(), 1);
    pool.unpin(ctx, "a", cols(0, 2));
    EXPECT_EQ(pool.pinned_count(), 1);  // still held once — a "leak"
    pool.unpin(ctx, "a", cols(0, 2));
    EXPECT_EQ(pool.pinned_count(), 0);
    EXPECT_THROW(pool.unpin(ctx, "a", cols(0, 2)), Error);
  });
}

TEST(SlabBufferPool, DirtyWriteBackOrderingAndDurability) {
  // A dirty slab evicted under budget pressure must land on disk *before*
  // the entry disappears, and a later (uncached) read must see the staged
  // values; flush() writes the remainder in deterministic section order.
  TempDir dir;
  spmd([&](SpmdContext& ctx) {
    LocalArrayFile laf(dir.file("a.laf"), 8, 8, StorageOrder::kColumnMajor,
                       DiskModel::zero());
    fill_laf(ctx, laf);
    MemoryBudget budget(16);
    SlabBufferPool pool(budget, "t");

    IclaBuffer& stage = pool.acquire_write(ctx, laf, "a", cols(0, 1), -1.0);
    for (std::int64_t r = 0; r < 8; ++r) {
      stage.at(r, 0) = 1000.0 + static_cast<double>(r);
    }
    pool.mark_dirty(ctx, "a", cols(0, 1), -1.0);
    pool.unpin(ctx, "a", cols(0, 1));
    EXPECT_EQ(laf.stats().write_requests, 0u);  // still deferred

    // Force eviction of the dirty slab.
    (void)pool.acquire_read(ctx, laf, "a", cols(1, 2), -1.0);
    (void)pool.acquire_read(ctx, laf, "a", cols(2, 3), -1.0);
    pool.unpin(ctx, "a", cols(1, 2));
    pool.unpin(ctx, "a", cols(2, 3));
    EXPECT_EQ(pool.stats().writebacks, 1u);
    EXPECT_EQ(laf.stats().write_requests, 1u);

    // Disk now holds the staged values.
    std::vector<double> col(8);
    laf.read_section(ctx, cols(0, 1), std::span<double>(col.data(), 8));
    EXPECT_DOUBLE_EQ(col[3], 1003.0);

    // Stage two more dirty slabs; flush writes both (ascending sections).
    IclaBuffer& s5 = pool.acquire_write(ctx, laf, "a", cols(5, 6), -1.0);
    s5.fill(5.5);
    pool.mark_dirty(ctx, "a", cols(5, 6), -1.0);
    pool.unpin(ctx, "a", cols(5, 6));
    const std::uint64_t writes_before = laf.stats().write_requests;
    pool.flush(ctx);
    EXPECT_EQ(laf.stats().write_requests, writes_before + 1);
    laf.read_section(ctx, cols(5, 6), std::span<double>(col.data(), 8));
    EXPECT_DOUBLE_EQ(col[0], 5.5);
  });
}

TEST(SlabBufferPool, MissReadSeesUnflushedDirtyData) {
  // A demand read whose coverage has a hole goes to disk — but a dirty
  // entry overlapping the request holds data the disk does not have yet.
  // The miss path must write it back first, or the read returns stale
  // bytes (the partially-evicted cross-geometry case).
  TempDir dir;
  spmd([&](SpmdContext& ctx) {
    LocalArrayFile laf(dir.file("a.laf"), 8, 8, StorageOrder::kColumnMajor,
                       DiskModel::zero());
    fill_laf(ctx, laf);
    MemoryBudget budget(1000);
    SlabBufferPool pool(budget, "t");

    IclaBuffer& stage = pool.acquire_write(ctx, laf, "a", cols(0, 1), -1.0);
    stage.fill(42.0);
    pool.mark_dirty(ctx, "a", cols(0, 1), -1.0);
    pool.unpin(ctx, "a", cols(0, 1));

    // Columns [0,2): column 1 is not cached, so this is a miss that reads
    // the disk — it must still observe the staged column 0.
    IclaBuffer& buf = pool.acquire_read(ctx, laf, "a", cols(0, 2), -1.0);
    EXPECT_DOUBLE_EQ(buf.at(3, 0), 42.0);
    EXPECT_DOUBLE_EQ(buf.at(3, 1), 3 + 100 * 1);
    pool.unpin(ctx, "a", cols(0, 2));
    EXPECT_EQ(pool.stats().writebacks, 1u);
  });
}

TEST(SlabBufferPool, WriteInvalidatesOverlappingStaleRanges) {
  // A cached wide entry overlapping a newly staged narrow one would serve
  // stale data after the write; acquire_write must retire it (writing it
  // back first if dirty).
  TempDir dir;
  spmd([&](SpmdContext& ctx) {
    LocalArrayFile laf(dir.file("a.laf"), 8, 8, StorageOrder::kColumnMajor,
                       DiskModel::zero());
    fill_laf(ctx, laf);
    MemoryBudget budget(1000);
    SlabBufferPool pool(budget, "t");
    (void)pool.acquire_read(ctx, laf, "a", cols(0, 4), -1.0);
    pool.unpin(ctx, "a", cols(0, 4));

    IclaBuffer& stage = pool.acquire_write(ctx, laf, "a", cols(1, 2), -1.0);
    stage.fill(-7.0);
    pool.mark_dirty(ctx, "a", cols(1, 2), -1.0);
    pool.unpin(ctx, "a", cols(1, 2));
    EXPECT_FALSE(pool.resident("a", cols(0, 4)));  // stale range dropped

    // A fresh read of column 1 must see the staged data (via the dirty
    // entry), and after flush the disk agrees.
    IclaBuffer& again = pool.acquire_read(ctx, laf, "a", cols(1, 2), -1.0);
    EXPECT_DOUBLE_EQ(again.at(2, 0), -7.0);
    pool.unpin(ctx, "a", cols(1, 2));
    pool.flush(ctx);
    std::vector<double> col(8);
    laf.read_section(ctx, cols(1, 2), std::span<double>(col.data(), 8));
    EXPECT_DOUBLE_EQ(col[2], -7.0);
  });
}

/// Sets OOCC_HOST_IO_DELAY_US for the LAFs opened during its lifetime
/// (FileBackend reads it at construction), so engine write-backs stay in
/// flight long enough to observe.
class HostIoDelay {
 public:
  explicit HostIoDelay(const char* us) {
    ::setenv("OOCC_HOST_IO_DELAY_US", us, 1);
  }
  ~HostIoDelay() { ::unsetenv("OOCC_HOST_IO_DELAY_US"); }
  HostIoDelay(const HostIoDelay&) = delete;
  HostIoDelay& operator=(const HostIoDelay&) = delete;
};

TEST(SlabBufferPool, EvictedWriteBacksKeepAtMostOneOrphanInFlight) {
  // A write-back reads the slab's own buffer. An evicted dirty slab hands
  // that storage to its write, and a pool keeps at most one such orphan in
  // flight, so a run of evictions under a one-slab budget cannot pile up
  // unaccounted slab copies behind a slow disk.
  TempDir dir;
  io::AsyncEngine engine(2);
  spmd([&](SpmdContext& ctx) {
    const HostIoDelay delay("2000");
    LocalArrayFile laf(dir.file("a.laf"), 8, 16, StorageOrder::kColumnMajor,
                       DiskModel::zero());
    MemoryBudget budget(8);  // one 8-element slab
    SlabBufferPool pool(budget, "t");
    pool.set_async_engine(&engine);
    for (std::int64_t c = 0; c < 16; ++c) {
      IclaBuffer& slab = pool.acquire_write(ctx, laf, "a", cols(c, c + 1),
                                            -1.0);
      for (std::int64_t r = 0; r < 8; ++r) {
        slab.at(r, 0) = static_cast<double>(r + 100 * c);
      }
      pool.mark_dirty(ctx, "a", cols(c, c + 1), -1.0);
      pool.unpin(ctx, "a", cols(c, c + 1));
    }
    pool.flush(ctx);
    EXPECT_EQ(pool.stats().writebacks, 16u);
    EXPECT_LE(engine.counters().max_queue_depth, 2u);
    std::vector<double> all(8 * 16);
    laf.read_full(ctx, std::span<double>(all.data(), all.size()));
    for (std::int64_t c = 0; c < 16; ++c) {
      for (std::int64_t r = 0; r < 8; ++r) {
        ASSERT_EQ(all[static_cast<std::size_t>(c * 8 + r)],
                  static_cast<double>(r + 100 * c))
            << "(" << r << "," << c << ")";
      }
    }
  });
}

TEST(SlabBufferPool, RestagingWaitsForTheWriteBackReadingTheBuffer) {
  // A write-back in flight reads the resident buffer itself, so staging the
  // slab again must settle that write before handing the buffer out for
  // modification: the disk keeps the bytes that were written back, the
  // pool the new ones.
  TempDir dir;
  io::AsyncEngine engine(2);
  spmd([&](SpmdContext& ctx) {
    const HostIoDelay delay("2000");
    LocalArrayFile laf(dir.file("a.laf"), 8, 8, StorageOrder::kColumnMajor,
                       DiskModel::zero());
    fill_laf(ctx, laf);
    std::vector<double> col(8);
    const auto on_disk = [&](std::int64_t c) {
      laf.read_section(ctx, cols(c, c + 1), std::span<double>(col.data(), 8));
      return col[3];
    };
    {
      // Retaining: an overlapping miss writes the dirty slab back and the
      // entry stays resident.
      MemoryBudget budget(1000);
      SlabBufferPool pool(budget, "t");
      pool.set_async_engine(&engine);
      pool.acquire_write(ctx, laf, "a", cols(0, 1), -1.0).fill(42.0);
      pool.mark_dirty(ctx, "a", cols(0, 1), -1.0);
      pool.unpin(ctx, "a", cols(0, 1));
      (void)pool.acquire_read(ctx, laf, "a", cols(0, 2), -1.0);
      pool.unpin(ctx, "a", cols(0, 2));
      EXPECT_EQ(pool.stats().writebacks, 1u);

      pool.acquire_write(ctx, laf, "a", cols(0, 1), -1.0).fill(7.0);
      pool.unpin(ctx, "a", cols(0, 1));
      pool.drain_writes(ctx);
      EXPECT_EQ(on_disk(0), 42.0);
      EXPECT_EQ(pool.acquire_read(ctx, laf, "a", cols(0, 1), -1.0).at(3, 0),
                7.0);
      pool.unpin(ctx, "a", cols(0, 1));
    }
    {
      // No-retain: the write goes through at mark_dirty while the slab is
      // still pinned, so a second stage finds the write in flight.
      MemoryBudget budget(1000);
      SlabBufferPool pool(budget, "t", /*retain=*/false);
      pool.set_async_engine(&engine);
      pool.acquire_write(ctx, laf, "a", cols(1, 2), -1.0).fill(42.0);
      pool.mark_dirty(ctx, "a", cols(1, 2), -1.0);
      IclaBuffer& again = pool.acquire_write(ctx, laf, "a", cols(1, 2), -1.0);
      again.fill(7.0);
      pool.drain_writes(ctx);
      EXPECT_EQ(on_disk(1), 42.0);
      EXPECT_EQ(again.at(3, 0), 7.0);
      pool.unpin(ctx, "a", cols(1, 2));
      pool.unpin(ctx, "a", cols(1, 2));
    }
  });
}

TEST(IoSchedulerTest, PumpsReadAheadInScheduleOrder) {
  TempDir dir;
  spmd([&](SpmdContext& ctx) {
    LocalArrayFile laf(dir.file("a.laf"), 8, 8, StorageOrder::kColumnMajor,
                       DiskModel::zero());
    fill_laf(ctx, laf);
    MemoryBudget budget(32);  // room for four single-column entries
    SlabBufferPool pool(budget, "t");
    IoScheduler sched;
    sched.schedule(SlabIterator(8, 8, SlabOrientation::kColumnSlabs, 8),
                   {IoScheduler::Request{"a", {}, -1.0}});
    // Demand-read column 0, then pump with lookahead 2: columns 1 and 2
    // are fetched ahead; the queue front advances past the resident one.
    (void)pool.acquire_read(ctx, laf, "a", cols(0, 1), -1.0);
    sched.pump(
        2,
        [&](const IoScheduler::Request& r) {
          return pool.resident(r.array, r.section);
        },
        [&](const IoScheduler::Request& r) {
          return pool.read_ahead(ctx, laf, r.array, r.section, r.reuse_hint);
        });
    EXPECT_TRUE(pool.resident("a", cols(1, 2)));
    EXPECT_TRUE(pool.resident("a", cols(2, 3)));
    EXPECT_FALSE(pool.resident("a", cols(3, 4)));
    // The prefetched acquire is the double-buffer path, not a reuse hit.
    const std::uint64_t hits_before = pool.stats().hits;
    (void)pool.acquire_read(ctx, laf, "a", cols(1, 2), -1.0);
    EXPECT_EQ(pool.stats().hits, hits_before);
    pool.unpin(ctx, "a", cols(0, 1));
    pool.unpin(ctx, "a", cols(1, 2));
  });
}

// --------------------------------------------------------- prefetch=auto

TEST(AutoPrefetch, EnablesWhenComputeCanHideIo) {
  // Compute-heavy machine: the elementwise sweep's input reads overlap
  // with evaluation, so double-buffering pays and auto turns it on. The
  // budget forces a genuinely multi-slab sweep (one slab would leave
  // nothing to read ahead) but leaves the pool spare room to issue the
  // read-aheads: a read-ahead never evicts, so a budget the retained slabs
  // saturate would starve the queue and auto would (correctly) decline.
  compiler::CompileOptions options;
  options.memory_budget_elements = 1024;
  options.prefetch = compiler::PrefetchMode::kAuto;
  options.disk = DiskModel::unit_test();
  options.machine = MachineCostModel::unit_test();
  options.machine.compute.seconds_per_flop = 1e-3;  // pathologically slow
  const compiler::NodeProgram plan = compiler::compile_source(
      hpf::elementwise_source(64, 64, 4, 3), options);
  ASSERT_FALSE(plan.loops.empty());
  EXPECT_TRUE(plan.loops.front().prefetch);
  EXPECT_NE(plan.cost.prefetch_rationale.find("enabled"),
            std::string::npos)
      << plan.cost.prefetch_rationale;
}

TEST(AutoPrefetch, StaysOffWhenThereIsNothingToOverlap) {
  // Zero-cost compute: overlapping buys nothing, while halving the shares
  // doubles the request count — auto must decline.
  compiler::CompileOptions options;
  options.memory_budget_elements = 512;
  options.prefetch = compiler::PrefetchMode::kAuto;
  options.disk = DiskModel::unit_test();
  options.machine = MachineCostModel::zero();
  const compiler::NodeProgram plan = compiler::compile_source(
      hpf::elementwise_source(64, 64, 4, 3), options);
  ASSERT_FALSE(plan.loops.empty());
  EXPECT_FALSE(plan.loops.front().prefetch);
  EXPECT_NE(plan.cost.prefetch_rationale.find("disabled"),
            std::string::npos)
      << plan.cost.prefetch_rationale;
}

TEST(AutoPrefetch, ExplicitFlagsStillForceTheLayout) {
  for (const auto mode :
       {compiler::PrefetchMode::kOn, compiler::PrefetchMode::kOff}) {
    compiler::CompileOptions options;
    options.memory_budget_elements = 4096;
    options.prefetch = mode;
    const compiler::NodeProgram plan = compiler::compile_source(
        hpf::elementwise_source(64, 64, 4, 3), options);
    ASSERT_FALSE(plan.loops.empty());
    EXPECT_EQ(plan.loops.front().prefetch,
              mode == compiler::PrefetchMode::kOn);
    EXPECT_TRUE(plan.cost.prefetch_rationale.empty());
  }
}

TEST(SlabCachePricing, SequenceWithGaxpyBarrierPricesCleanly) {
  // An elementwise statement followed by a GAXPY nest: the persistent
  // priced cache carries statement 1's dirty y into the GAXPY plan (whose
  // arrays are {a,b,c}); write-back attribution must resolve y through
  // the sequence's array union instead of the current plan.
  const std::string src =
      "parameter (n=16, p=2)\n"
      "real x(n,n), y(n,n), a(n,n), b(n,n), c(n,n), temp(n,n)\n"
      "!hpf$ processors Pr(p)\n"
      "!hpf$ template d(n)\n"
      "!hpf$ distribute d(block) onto Pr\n"
      "!hpf$ align (*,:) with d :: x, y, a, c, temp\n"
      "!hpf$ align (:,*) with d :: b\n"
      "forall (k=1:n)\n"
      "  y(1:n,k) = x(1:n,k)*2\n"
      "end forall\n"
      "do j=1, n\n"
      "  forall (k=1:n)\n"
      "    temp(1:n,k) = b(k,j)*a(1:n,k)\n"
      "  end forall\n"
      "  c(1:n,j) = SUM(temp,2)\n"
      "end do\n"
      "end\n";
  compiler::CompileOptions options;
  options.memory_budget_elements = 2048;
  const std::vector<compiler::NodeProgram> plans =
      compiler::compile_sequence_source(src, options);
  ASSERT_EQ(plans.size(), 2u);
  compiler::PriceOptions popts;
  popts.model_cache = true;
  const std::vector<compiler::PlanPrice> priced = compiler::price_sequence(
      std::span<const compiler::NodeProgram>(plans.data(), plans.size()), 0,
      popts);
  ASSERT_EQ(priced.size(), 2u);
  // y's deferred write must be charged somewhere in the sequence.
  double y_written = 0.0;
  for (const compiler::PlanPrice& p : priced) {
    const auto it = p.arrays.find("y");
    if (it != p.arrays.end()) {
      y_written += it->second.elements_written;
    }
  }
  EXPECT_GT(y_written, 0.0);
}

TEST(AutoPrefetch, ReuseDistancesAnnotateTheChain) {
  // In the unfused chain, plan 1's read of x is re-read by plan 2: its
  // ReadSlab step must get a finite forward distance, while the final
  // write of w (never read again) stays at -1.
  compiler::CompileOptions options;
  options.memory_budget_elements = 4096;
  options.enable_statement_fusion = false;
  const std::string src =
      "parameter (n=16, p=4)\n"
      "real x(n,n), y(n,n), w(n,n)\n"
      "!hpf$ processors Pr(p)\n"
      "!hpf$ template d(n)\n"
      "!hpf$ distribute d(block) onto Pr\n"
      "!hpf$ align (*,:) with d :: x, y, w\n"
      "forall (k=1:n)\n"
      "  y(1:n,k) = x(1:n,k)*2\n"
      "end forall\n"
      "forall (k=1:n)\n"
      "  w(1:n,k) = y(1:n,k) + x(1:n,k)\n"
      "end forall\n"
      "end\n";
  const std::vector<compiler::NodeProgram> plans =
      compiler::compile_sequence_source(src, options);
  ASSERT_EQ(plans.size(), 2u);
  const std::vector<std::vector<double>> hints =
      compiler::annotate_reuse_distances(plans);
  ASSERT_EQ(hints.size(), 2u);
  // The hint of the sweep's `kind` step on `arr`, by step id: the sweep is
  // step 0 and its body's leaves follow in order.
  const auto hint_of = [&](std::size_t plan, compiler::StepKind kind,
                           const std::string& arr) {
    const std::vector<compiler::Step>& body =
        plans[plan].steps.front().body;
    for (std::size_t i = 0; i < body.size(); ++i) {
      if (body[i].kind == kind && body[i].array == arr) {
        return hints[plan].at(1 + i);
      }
    }
    ADD_FAILURE() << "no such step";
    return 0.0;
  };
  // read again by plan 2
  EXPECT_GE(hint_of(0, compiler::StepKind::kReadSlab, "x"), 0.0);
  // plan 2 reads y
  EXPECT_GE(hint_of(0, compiler::StepKind::kWriteSlab, "y"), 0.0);
  // never read again
  EXPECT_LT(hint_of(1, compiler::StepKind::kWriteSlab, "w"), 0.0);
}

TEST(SlabBufferPoolDeathTest, PinLeakAtTeardownIsFatalUnderSanitize) {
  if (!SlabBufferPool::strict_teardown()) {
    GTEST_SKIP() << "pin-leak hard error is compiled in only under "
                    "OOCC_SANITIZE builds";
  }
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        TempDir dir;
        spmd([&](SpmdContext& ctx) {
          LocalArrayFile laf(dir.file("a.laf"), 8, 8,
                             StorageOrder::kColumnMajor, DiskModel::zero());
          fill_laf(ctx, laf);
          MemoryBudget budget(1000);
          SlabBufferPool pool(budget, "leaky");
          // Acquire pins the entry; "forgetting" the unpin leaks the pin
          // into the pool's destructor.
          (void)pool.acquire_read(ctx, laf, "a", cols(0, 2), -1.0);
        });
      },
      "pin leak");
}

}  // namespace
}  // namespace oocc::runtime
