// Tests for the real asynchronous I/O engine (docs/async-io.md): engine
// ordering/error semantics, per-fd pread/pwrite concurrency, the LAF's
// charge-at-submit / settle-at-wait split, fault and crash-journal behaviour
// on worker threads, and bit-identity of the pool between async and
// synchronous modes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "oocc/io/async_engine.hpp"
#include "oocc/io/laf.hpp"
#include "oocc/runtime/bufferpool.hpp"
#include "oocc/sim/machine.hpp"
#include "oocc/util/faults.hpp"

namespace oocc::io {
namespace {

using faults::ScopedFaultPlan;

/// Runs `body` on a 1-processor machine with unit-test cost models.
template <typename F>
sim::RunReport run1(F&& body) {
  sim::Machine machine(1, sim::MachineCostModel::unit_test());
  return machine.run(std::forward<F>(body));
}

// ------------------------------------------------------------- the engine

TEST(AsyncEngineTest, SubmitWaitCompletesAllJobsAndCounts) {
  AsyncEngine engine(3);
  EXPECT_EQ(engine.threads(), 3);
  std::atomic<int> ran{0};
  std::vector<AsyncEngine::Ticket> tickets;
  int key_a = 0;
  int key_b = 0;
  for (int i = 0; i < 32; ++i) {
    tickets.push_back(
        engine.submit(i % 2 == 0 ? &key_a : &key_b, [&] { ++ran; }));
  }
  for (AsyncEngine::Ticket& t : tickets) {
    t.wait();
  }
  EXPECT_EQ(ran.load(), 32);
  const AsyncEngine::Counters c = engine.counters();
  EXPECT_EQ(c.jobs_submitted, 32u);
  EXPECT_EQ(c.jobs_completed, 32u);
  EXPECT_GE(c.max_queue_depth, 1u);
}

TEST(AsyncEngineTest, PerStreamJobsRunInFifoOrder) {
  AsyncEngine engine(4);  // more workers than streams: order must still hold
  std::vector<int> order;
  std::mutex mu;
  int key = 0;
  std::vector<AsyncEngine::Ticket> tickets;
  for (int i = 0; i < 64; ++i) {
    tickets.push_back(engine.submit(&key, [&, i] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
    }));
  }
  for (AsyncEngine::Ticket& t : tickets) {
    t.wait();
  }
  std::vector<int> want(64);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(order, want);
}

TEST(AsyncEngineTest, JobExceptionRethrowsAtWait) {
  AsyncEngine engine(1);
  int key = 0;
  AsyncEngine::Ticket t = engine.submit(
      &key, [] { OOCC_THROW(ErrorCode::kIoError, "worker boom"); });
  try {
    t.wait();
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIoError);
    EXPECT_NE(std::string(e.what()).find("worker boom"), std::string::npos);
  }
  // A failed job still counts as completed; the engine stays usable.
  EXPECT_EQ(engine.counters().jobs_completed, 1u);
  AsyncEngine::Ticket ok = engine.submit(&key, [] {});
  EXPECT_NO_THROW(ok.wait());
}

TEST(AsyncEngineTest, DestructorDrainsUnwaitedJobs) {
  std::atomic<int> ran{0};
  {
    AsyncEngine engine(2);
    int key_a = 0;
    int key_b = 0;
    for (int i = 0; i < 16; ++i) {
      engine.submit(i % 2 == 0 ? &key_a : &key_b, [&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++ran;
      });
    }
    // No wait: the destructor must finish every queued job, not drop them.
  }
  EXPECT_EQ(ran.load(), 16);
}

TEST(AsyncEngineTest, DefaultThreadsHonorsEnvAndProcessorCount) {
  unsetenv("OOCC_IO_THREADS");
  EXPECT_EQ(AsyncEngine::default_threads(1), 1);
  EXPECT_EQ(AsyncEngine::default_threads(4), 4);
  EXPECT_EQ(AsyncEngine::default_threads(16), 4);  // capped at 4 by default
  setenv("OOCC_IO_THREADS", "7", 1);
  EXPECT_EQ(AsyncEngine::default_threads(2), 7);
  unsetenv("OOCC_IO_THREADS");
}

// ------------------------------------------- FileBackend: raw concurrency

TEST(FileBackendAsyncTest, ConcurrentPerFdPreadPwriteAreSafe) {
  // Pins the contract the engine relies on: pread/pwrite carry their own
  // offsets, so disjoint-range transfers on one fd need no locking.
  TempDir dir;
  FileBackend f(dir.file("c.bin"));
  constexpr int kThreads = 4;
  constexpr std::size_t kPer = 4096;  // doubles per thread
  f.truncate(kThreads * kPer * sizeof(double));
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      std::vector<double> block(kPer);
      for (std::size_t i = 0; i < kPer; ++i) {
        block[i] = t * 10000.0 + static_cast<double>(i);
      }
      f.write_at(static_cast<std::uint64_t>(t) * kPer * sizeof(double),
                 block.data(), kPer * sizeof(double));
    });
  }
  for (std::thread& t : writers) {
    t.join();
  }
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      std::vector<double> block(kPer);
      f.read_at(static_cast<std::uint64_t>(t) * kPer * sizeof(double),
                block.data(), kPer * sizeof(double));
      for (std::size_t i = 0; i < kPer; ++i) {
        if (block[i] != t * 10000.0 + static_cast<double>(i)) {
          ++bad;
        }
      }
    });
  }
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_EQ(bad.load(), 0);
}

TEST(FileBackendAsyncTest, AsyncRoundTripOnOneStream) {
  TempDir dir;
  FileBackend f(dir.file("rt.bin"));
  AsyncEngine engine(2);
  std::vector<double> out(64, 7.5);
  std::vector<double> in(64, 0.0);
  // Same backend = same stream: the read is FIFO-ordered after the write.
  AsyncEngine::Ticket w =
      f.write_at_async(engine, 0, out.data(), out.size() * sizeof(double));
  AsyncEngine::Ticket r =
      f.read_at_async(engine, 0, in.data(), in.size() * sizeof(double));
  w.wait();
  r.wait();
  EXPECT_EQ(in, out);
}

// ----------------------------------------------- LAF async vs sync parity

class LafAsyncOrderTest : public ::testing::TestWithParam<StorageOrder> {};

INSTANTIATE_TEST_SUITE_P(Orders, LafAsyncOrderTest,
                         ::testing::Values(StorageOrder::kColumnMajor,
                                           StorageOrder::kRowMajor));

TEST_P(LafAsyncOrderTest, ReadSectionAsyncMatchesSyncExactly) {
  TempDir dir;
  run1([&](sim::SpmdContext& ctx) {
    LocalArrayFile laf(dir.file("a.laf"), 8, 6, GetParam(),
                       DiskModel::unit_test());
    std::vector<double> all(48);
    for (std::size_t i = 0; i < all.size(); ++i) {
      all[i] = static_cast<double>(i) * 1.25;
    }
    laf.write_full(ctx, all);
    const Section s{1, 7, 1, 5};  // strided in either order
    AsyncEngine engine(2);

    std::vector<double> sync_buf(static_cast<std::size_t>(s.elements()));
    const double t0 = ctx.clock().now();
    const IoStats before_sync = laf.stats();
    laf.read_section(ctx, s, sync_buf);
    const double sync_time = ctx.clock().now() - t0;
    const std::uint64_t sync_reqs =
        laf.stats().read_requests - before_sync.read_requests;

    std::vector<double> async_buf(static_cast<std::size_t>(s.elements()));
    const double t1 = ctx.clock().now();
    const IoStats before_async = laf.stats();
    AsyncHandle h = laf.read_section_async(ctx, engine, s, async_buf);
    laf.settle(ctx, h);
    const double async_time = ctx.clock().now() - t1;

    EXPECT_EQ(async_buf, sync_buf);
    // Priced identically: same simulated time, same request count; only the
    // async_reads counter distinguishes the modes.
    EXPECT_DOUBLE_EQ(async_time, sync_time);
    EXPECT_EQ(laf.stats().read_requests - before_async.read_requests,
              sync_reqs);
    EXPECT_EQ(laf.stats().async_reads, 1u);
  });
}

TEST_P(LafAsyncOrderTest, WriteSectionAsyncMatchesSyncExactly) {
  TempDir dir;
  run1([&](sim::SpmdContext& ctx) {
    LocalArrayFile sync_laf(dir.file("s.laf"), 8, 6, GetParam(),
                            DiskModel::unit_test());
    LocalArrayFile async_laf(dir.file("a.laf"), 8, 6, GetParam(),
                             DiskModel::unit_test());
    sync_laf.fill(ctx, 0.0);
    async_laf.fill(ctx, 0.0);
    const Section s{2, 7, 0, 4};
    std::vector<double> data(static_cast<std::size_t>(s.elements()));
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = 100.0 - static_cast<double>(i);
    }
    AsyncEngine engine(2);

    const double t0 = ctx.clock().now();
    sync_laf.write_section(ctx, s, data);
    const double sync_time = ctx.clock().now() - t0;

    const double t1 = ctx.clock().now();
    AsyncHandle h = async_laf.write_section_async(ctx, engine, s, data);
    async_laf.settle(ctx, h);
    const double async_time = ctx.clock().now() - t1;

    std::vector<double> want(48);
    std::vector<double> got(48);
    sync_laf.read_full(ctx, want);
    async_laf.read_full(ctx, got);
    EXPECT_EQ(got, want);
    EXPECT_DOUBLE_EQ(async_time, sync_time);
    EXPECT_EQ(async_laf.stats().write_requests,
              sync_laf.stats().write_requests);
    EXPECT_EQ(async_laf.stats().bytes_written, sync_laf.stats().bytes_written);
    EXPECT_EQ(async_laf.stats().async_writes, 1u);
  });
}

// ------------------------------------------------ faults on worker threads

TEST(LafAsyncFaultTest, PermanentFaultSurfacesAtSettle) {
  TempDir dir;
  ScopedFaultPlan plan("read:nth=1,kind=permanent");
  run1([&](sim::SpmdContext& ctx) {
    LocalArrayFile laf(dir.file("p.laf"), 4, 4, StorageOrder::kColumnMajor,
                       DiskModel::unit_test());
    laf.fill(ctx, 3.0);
    AsyncEngine engine(2);
    std::vector<double> buf(16);
    AsyncHandle h = laf.read_section_async(ctx, engine, laf.full(), buf);
    try {
      laf.settle(ctx, h);
      FAIL();
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kIoError);
    }
  });
}

TEST(LafAsyncFaultTest, RankFilteredFaultHitsSubmittingRankOnWorker) {
  // The worker runs under the submitting rank's identity, so a rank-
  // filtered spec fires for that rank's jobs even though the host thread
  // executing them is not a simulated processor.
  TempDir dir;
  ScopedFaultPlan plan("read:rank=1,nth=1,kind=permanent");
  sim::Machine machine(2, sim::MachineCostModel::unit_test());
  std::atomic<int> failures{0};
  machine.run([&](sim::SpmdContext& ctx) {
    LocalArrayFile laf(dir.file("rank" + std::to_string(ctx.rank()) + ".laf"),
                       4, 4, StorageOrder::kColumnMajor,
                       DiskModel::unit_test());
    laf.fill(ctx, 1.0);
    AsyncEngine engine(2);
    std::vector<double> buf(16);
    AsyncHandle h = laf.read_section_async(ctx, engine, laf.full(), buf);
    try {
      laf.settle(ctx, h);
    } catch (const Error&) {
      ++failures;
      EXPECT_EQ(ctx.rank(), 1);
    }
  });
  EXPECT_EQ(failures.load(), 1);
}

TEST(LafAsyncFaultTest, TransientFaultMaskedAndBackoffChargedAtSettle) {
  TempDir dir;
  ScopedFaultPlan plan("read:nth=1");  // transient by default
  run1([&](sim::SpmdContext& ctx) {
    LocalArrayFile laf(dir.file("t.laf"), 4, 4, StorageOrder::kColumnMajor,
                       DiskModel::unit_test());
    laf.fill(ctx, 9.0);
    AsyncEngine engine(2);
    std::vector<double> buf(16);
    const double io_before = ctx.stats().io_time_s;
    AsyncHandle h = laf.read_section_async(ctx, engine, laf.full(), buf);
    laf.settle(ctx, h);
    EXPECT_DOUBLE_EQ(buf[0], 9.0);
    EXPECT_EQ(laf.stats().retries, 1u);
    EXPECT_EQ(ctx.stats().retries, 1u);
    // Deferred backoff landed on the simulated clock at the wait point.
    EXPECT_GT(ctx.stats().io_time_s - io_before,
              laf.disk().request_time(16 * 8, 1) - 1e-12);
  });
}

// ----------------------------------- crash-journal protocol from a worker

TEST(LafAsyncJournalTest, CrashAtShadowFromWorkerDiscardsOnReopen) {
  TempDir dir;
  const std::filesystem::path path = dir.file("j.laf");
  ScopedFaultPlan plan("crash:at=shadow,nth=1");
  run1([&](sim::SpmdContext& ctx) {
    {
      LocalArrayFile laf(path, 4, 4, StorageOrder::kColumnMajor,
                         DiskModel::unit_test());
      laf.fill(ctx, 1.0);
      laf.set_journaling(true);
      AsyncEngine engine(2);
      AsyncHandle h = laf.write_section_async(ctx, engine, laf.full(),
                                              std::vector<double>(16, 2.0));
      try {
        laf.settle(ctx, h);
        FAIL();
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kCrash);
      }
    }
    // Reopen: the uncommitted journal record is discarded; the array still
    // holds the pre-crash contents, not a torn mix.
    LocalArrayFile laf(path, 4, 4, StorageOrder::kColumnMajor,
                       DiskModel::unit_test());
    std::vector<double> buf(16);
    laf.read_full(ctx, buf);
    for (double v : buf) {
      EXPECT_DOUBLE_EQ(v, 1.0);
    }
    EXPECT_EQ(laf.stats().recoveries, 0u);
  });
}

TEST(LafAsyncJournalTest, CrashAtApplyFromWorkerReplaysOnReopen) {
  TempDir dir;
  const std::filesystem::path path = dir.file("k.laf");
  ScopedFaultPlan plan("crash:at=apply,nth=1");
  run1([&](sim::SpmdContext& ctx) {
    {
      LocalArrayFile laf(path, 4, 4, StorageOrder::kColumnMajor,
                         DiskModel::unit_test());
      laf.fill(ctx, 1.0);
      laf.set_journaling(true);
      AsyncEngine engine(2);
      AsyncHandle h = laf.write_section_async(ctx, engine, laf.full(),
                                              std::vector<double>(16, 2.0));
      EXPECT_THROW(laf.settle(ctx, h), Error);
      EXPECT_GE(laf.stats().journal_writes, 1u);
    }
    // Reopen: the committed record is replayed — the write is complete.
    LocalArrayFile laf(path, 4, 4, StorageOrder::kColumnMajor,
                       DiskModel::unit_test());
    std::vector<double> buf(16);
    laf.read_full(ctx, buf);
    for (double v : buf) {
      EXPECT_DOUBLE_EQ(v, 2.0);
    }
    EXPECT_EQ(laf.stats().recoveries, 1u);
  });
}

TEST(LafAsyncJournalTest, JournaledWritesInterleaveWithAsyncReads) {
  // Mixed traffic on one LAF: journaled async write-backs and async reads
  // share the file's FIFO stream, so a read submitted after a write of the
  // same range sees the new bytes.
  TempDir dir;
  run1([&](sim::SpmdContext& ctx) {
    LocalArrayFile laf(dir.file("m.laf"), 8, 8, StorageOrder::kColumnMajor,
                       DiskModel::unit_test());
    laf.fill(ctx, 0.0);
    laf.set_journaling(true);
    AsyncEngine engine(2);
    const Section left{0, 8, 0, 4};
    const Section right{0, 8, 4, 8};
    AsyncHandle w1 = laf.write_section_async(ctx, engine, left,
                                             std::vector<double>(32, 1.0));
    std::vector<double> r1(32);
    AsyncHandle h1 = laf.read_section_async(ctx, engine, left, r1);
    AsyncHandle w2 = laf.write_section_async(ctx, engine, right,
                                             std::vector<double>(32, 2.0));
    // A synchronous read of a disjoint range runs on the compute thread
    // while the workers are busy — per-fd concurrency in anger.
    std::vector<double> l0(32);
    laf.read_section(ctx, left, l0);
    laf.settle(ctx, w1);
    laf.settle(ctx, h1);
    laf.settle(ctx, w2);
    for (double v : r1) {
      EXPECT_DOUBLE_EQ(v, 1.0);
    }
    std::vector<double> r2(32);
    laf.read_section(ctx, right, r2);
    for (double v : r2) {
      EXPECT_DOUBLE_EQ(v, 2.0);
    }
    EXPECT_EQ(laf.stats().journal_writes, 2u);
    EXPECT_EQ(laf.stats().async_writes, 2u);
    EXPECT_EQ(laf.stats().async_reads, 1u);
  });
}

// -------------------------------------------- pool + machine bit-identity

/// Streams two arrays through a SlabBufferPool (read a, stage b = 2*a with
/// read-ahead), flushes, and returns b's final bytes; fills `sim_time` with
/// the rank-0 simulated clock. With `async` the pool uses the machine's
/// engine; without, everything is synchronous.
std::vector<double> run_pool_workload(const std::filesystem::path& dir,
                                      bool async, double* sim_time) {
  constexpr std::int64_t kRows = 16;
  constexpr std::int64_t kCols = 16;
  constexpr std::int64_t kSlab = 4;
  std::vector<double> result;
  sim::Machine machine(2, sim::MachineCostModel::unit_test());
  machine.run([&](sim::SpmdContext& ctx) {
    const std::string tag = std::to_string(ctx.rank());
    LocalArrayFile a(dir / ("a" + tag + (async ? "y" : "n") + ".laf"), kRows,
                     kCols, StorageOrder::kColumnMajor,
                     DiskModel::unit_test());
    LocalArrayFile b(dir / ("b" + tag + (async ? "y" : "n") + ".laf"), kRows,
                     kCols, StorageOrder::kColumnMajor,
                     DiskModel::unit_test());
    std::vector<double> init(kRows * kCols);
    for (std::size_t i = 0; i < init.size(); ++i) {
      init[i] = static_cast<double>(i % 97) + ctx.rank();
    }
    a.write_full(ctx, init);
    b.fill(ctx, 0.0);

    runtime::MemoryBudget budget(kRows * kCols);
    runtime::SlabBufferPool pool(budget, "async_test");
    if (async) {
      pool.set_async_engine(ctx.async_engine());
    }
    for (std::int64_t c = 0; c < kCols; c += kSlab) {
      const Section sec{0, kRows, c, c + kSlab};
      if (c + kSlab < kCols) {  // submit-ahead of the next input slab
        pool.read_ahead(ctx, a, "a", Section{0, kRows, c + kSlab,
                                             c + 2 * kSlab},
                        1.0);
      }
      const runtime::IclaBuffer& in = pool.acquire_read(ctx, a, "a", sec, 1.0);
      runtime::IclaBuffer& out = pool.acquire_write(ctx, b, "b", sec, 1.0);
      const std::span<const double> src = in.data();
      const std::span<double> dst = out.data();
      for (std::size_t i = 0; i < src.size(); ++i) {
        dst[i] = 2.0 * src[i];
      }
      pool.mark_dirty(ctx, "b", sec, 1.0);
      pool.unpin(ctx, "b", sec);
      pool.unpin(ctx, "a", sec);
    }
    pool.flush(ctx);
    std::vector<double> out(kRows * kCols);
    b.read_full(ctx, out);
    if (ctx.rank() == 0) {
      result = std::move(out);
      if (sim_time != nullptr) {
        *sim_time = ctx.clock().now();
      }
    }
  });
  return result;
}

TEST(PoolAsyncTest, EngineModeIsBitIdenticalToSynchronous) {
  TempDir dir;
  double t_async = 0.0;
  double t_sync = 0.0;
  const std::vector<double> with_engine =
      run_pool_workload(dir.path(), true, &t_async);
  const std::vector<double> without =
      run_pool_workload(dir.path(), false, &t_sync);
  ASSERT_EQ(with_engine.size(), without.size());
  EXPECT_EQ(with_engine, without);   // same bytes,
  EXPECT_DOUBLE_EQ(t_async, t_sync);  // same price
  for (std::size_t i = 0; i < with_engine.size(); ++i) {
    EXPECT_DOUBLE_EQ(with_engine[i], 2.0 * (static_cast<double>(i % 97)));
  }
}

TEST(PoolAsyncTest, RunReportCountsEngineActivity) {
  TempDir dir;
  constexpr std::int64_t kRows = 8;
  sim::Machine machine(2, sim::MachineCostModel::unit_test());
  sim::RunReport report = machine.run([&](sim::SpmdContext& ctx) {
    ASSERT_NE(ctx.async_engine(), nullptr);
    LocalArrayFile a(dir.file("r" + std::to_string(ctx.rank()) + ".laf"),
                     kRows, kRows, StorageOrder::kColumnMajor,
                     DiskModel::unit_test());
    a.fill(ctx, 1.0);
    runtime::MemoryBudget budget(kRows * kRows);
    runtime::SlabBufferPool pool(budget, "report_test");
    pool.set_async_engine(ctx.async_engine());
    pool.acquire_read(ctx, a, "a", Section{0, kRows, 0, kRows}, 1.0);
    pool.unpin(ctx, "a", Section{0, kRows, 0, kRows});
    pool.flush(ctx);
  });
  EXPECT_TRUE(report.async.enabled);
  EXPECT_GT(report.async.threads, 0);
  EXPECT_GE(report.async.jobs, 2u);  // one demand read per rank at least
  EXPECT_GE(report.async.busy_s, 0.0);
}

}  // namespace
}  // namespace oocc::io
