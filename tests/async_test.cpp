// Tests for the real asynchronous I/O engine (docs/async-io.md): engine
// ordering/error semantics, per-fd pread/pwrite concurrency, parity of the
// LAF's inline and engine routes (bytes, simulated time, counters, journal,
// retries), fault and crash-journal behaviour on worker threads, and
// bit-identity of the pool between async and synchronous modes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <numeric>
#include <string>
#include <system_error>
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

TEST(AsyncEngineTest, MachineSizesTheEngineFromItsOptions) {
  // The machine owns the rule: io_threads workers when set (at most 64),
  // otherwise min(P, 4).
  const auto threads = [](int nprocs, int io_threads) {
    sim::MachineOptions options;
    options.io_threads = io_threads;
    sim::Machine machine(nprocs, sim::MachineCostModel::unit_test(), options);
    return machine.run([](sim::SpmdContext&) {}).async.threads;
  };
  EXPECT_EQ(threads(1, 0), 1);
  EXPECT_EQ(threads(4, 0), 4);
  EXPECT_EQ(threads(16, 0), 4);  // capped at 4 by default
  EXPECT_EQ(threads(2, 7), 7);
  EXPECT_EQ(threads(2, 100), 64);
  // OOCC_IO_THREADS reaches the rule through MachineOptions::from_env.
  setenv("OOCC_IO_THREADS", "7", 1);
  EXPECT_EQ(sim::MachineOptions::from_env().io_threads, 7);
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

// ----------------------------------------------- LAF async vs sync parity

/// What one transfer route left behind.
struct RouteResult {
  std::vector<double> section;  ///< the buffer after the transfer
  std::vector<double> file;     ///< the whole array afterwards
  double sim_time = 0.0;        ///< the simulated clock afterwards
  IoStats stats;
  std::uintmax_t wal_bytes = 0;  ///< journal size afterwards (0: none)
};

/// Writes a known 8x6 array to a fresh LAF at `path`, then reads or writes
/// section `s` once, inline or through an engine, with `faults` installed
/// afresh around that one transfer. Each route gets its own 1-processor
/// machine, so two routes' clocks compare bit for bit.
RouteResult run_route(const std::filesystem::path& path, StorageOrder order,
                      bool journaled, bool async, bool is_read,
                      const Section& s, const std::string& faults) {
  RouteResult out;
  run1([&](sim::SpmdContext& ctx) {
    LocalArrayFile laf(path, 8, 6, order, DiskModel::unit_test());
    std::vector<double> all(48);
    for (std::size_t i = 0; i < all.size(); ++i) {
      all[i] = static_cast<double>(i) * 1.25;
    }
    laf.write_full(ctx, all);
    laf.set_journaling(journaled);
    std::vector<double> data(static_cast<std::size_t>(s.elements()));
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = 100.0 - static_cast<double>(i);
    }
    AsyncEngine engine(2);
    {
      ScopedFaultPlan plan(faults);
      if (async) {
        AsyncHandle h = is_read
                            ? laf.read_section_async(ctx, engine, s, data)
                            : laf.write_section_async(ctx, engine, s, data);
        laf.settle(ctx, h);
      } else if (is_read) {
        laf.read_section(ctx, s, data);
      } else {
        laf.write_section(ctx, s, data);
      }
    }
    out.sim_time = ctx.clock().now();
    out.stats = laf.stats();
    out.section = data;
    out.file.resize(all.size());
    laf.read_full(ctx, out.file);
  });
  std::error_code ec;
  const std::uintmax_t wal = std::filesystem::file_size(
      std::filesystem::path(path.string() + ".wal"), ec);
  out.wal_bytes = ec ? 0 : wal;
  return out;
}

/// Runs the inline and the engine route of one transfer and checks they
/// agree on bytes, simulated time, counters and the journal's final state.
/// Returns the inline route's result for further checks.
RouteResult expect_routes_agree(const std::filesystem::path& dir,
                                StorageOrder order, bool journaled,
                                bool is_read, const Section& s,
                                const std::string& faults = "") {
  SCOPED_TRACE(::testing::Message()
               << (is_read ? "read" : "write") << " of [" << s.row0 << ","
               << s.row1 << ")x[" << s.col0 << "," << s.col1 << ")"
               << (journaled ? ", journaled" : "") << ", faults '" << faults
               << "'");
  const RouteResult inline_route = run_route(
      dir / "inline.laf", order, journaled, false, is_read, s, faults);
  const RouteResult engine_route = run_route(
      dir / "engine.laf", order, journaled, true, is_read, s, faults);
  EXPECT_EQ(engine_route.section, inline_route.section);
  EXPECT_EQ(engine_route.file, inline_route.file);
  EXPECT_EQ(engine_route.sim_time, inline_route.sim_time);
  EXPECT_EQ(engine_route.stats.time_s, inline_route.stats.time_s);
  EXPECT_EQ(engine_route.stats.read_requests,
            inline_route.stats.read_requests);
  EXPECT_EQ(engine_route.stats.write_requests,
            inline_route.stats.write_requests);
  EXPECT_EQ(engine_route.stats.bytes_read, inline_route.stats.bytes_read);
  EXPECT_EQ(engine_route.stats.bytes_written,
            inline_route.stats.bytes_written);
  EXPECT_EQ(engine_route.stats.journal_writes,
            inline_route.stats.journal_writes);
  EXPECT_EQ(engine_route.stats.bytes_journaled,
            inline_route.stats.bytes_journaled);
  EXPECT_EQ(engine_route.stats.retries, inline_route.stats.retries);
  // Only the async counters tell the routes apart.
  EXPECT_EQ(engine_route.stats.async_reads, is_read ? 1u : 0u);
  EXPECT_EQ(engine_route.stats.async_writes, is_read ? 0u : 1u);
  EXPECT_EQ(inline_route.stats.async_reads + inline_route.stats.async_writes,
            0u);
  EXPECT_EQ(inline_route.wal_bytes, 0u);
  EXPECT_EQ(engine_route.wal_bytes, 0u);
  return inline_route;
}

/// Sections of the 8x6 test array: strided in either order, full-height
/// (one extent column-major), full-width (one extent row-major).
const Section kParitySections[] = {
    {1, 7, 1, 5}, {0, 8, 1, 5}, {2, 6, 0, 6}};

class LafAsyncOrderTest : public ::testing::TestWithParam<StorageOrder> {};

INSTANTIATE_TEST_SUITE_P(Orders, LafAsyncOrderTest,
                         ::testing::Values(StorageOrder::kColumnMajor,
                                           StorageOrder::kRowMajor));

TEST_P(LafAsyncOrderTest, ReadSectionAsyncMatchesSyncExactly) {
  for (const Section& s : kParitySections) {
    TempDir dir;
    expect_routes_agree(dir.path(), GetParam(), false, true, s);
  }
}

TEST_P(LafAsyncOrderTest, WriteSectionAsyncMatchesSyncExactly) {
  for (const Section& s : kParitySections) {
    TempDir dir;
    const RouteResult r =
        expect_routes_agree(dir.path(), GetParam(), false, false, s);
    EXPECT_EQ(r.stats.journal_writes, 0u);
    EXPECT_EQ(r.file[static_cast<std::size_t>(s.col0 * 8 + s.row0)], 100.0);
  }
}

TEST_P(LafAsyncOrderTest, JournaledWriteSectionAsyncMatchesSyncExactly) {
  for (const Section& s : kParitySections) {
    TempDir dir;
    const RouteResult r =
        expect_routes_agree(dir.path(), GetParam(), true, false, s);
    EXPECT_EQ(r.stats.journal_writes, 1u);
    EXPECT_EQ(r.stats.bytes_journaled,
              static_cast<std::uint64_t>(s.elements()) * sizeof(double));
    EXPECT_EQ(r.file[static_cast<std::size_t>(s.col0 * 8 + s.row0)], 100.0);
  }
}

TEST_P(LafAsyncOrderTest, TransientReadFaultRetriesIdentically) {
  TempDir dir;
  const RouteResult r = expect_routes_agree(
      dir.path(), GetParam(), false, true, kParitySections[0], "read:nth=1");
  EXPECT_EQ(r.stats.retries, 1u);
}

TEST_P(LafAsyncOrderTest, TransientWriteFaultRetriesIdentically) {
  for (const bool journaled : {false, true}) {
    TempDir dir;
    const RouteResult r =
        expect_routes_agree(dir.path(), GetParam(), journaled, false,
                            kParitySections[0], "write:nth=1");
    EXPECT_EQ(r.stats.retries, 1u);
  }
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
      const std::vector<double> twos(16, 2.0);  // valid until settle
      AsyncHandle h = laf.write_section_async(ctx, engine, laf.full(), twos);
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
      const std::vector<double> twos(16, 2.0);  // valid until settle
      AsyncHandle h = laf.write_section_async(ctx, engine, laf.full(), twos);
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
    // The write payloads must outlive their settle.
    const std::vector<double> ones(32, 1.0);
    const std::vector<double> twos(32, 2.0);
    AsyncHandle w1 = laf.write_section_async(ctx, engine, left, ones);
    std::vector<double> r1(32);
    AsyncHandle h1 = laf.read_section_async(ctx, engine, left, r1);
    AsyncHandle w2 = laf.write_section_async(ctx, engine, right, twos);
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
