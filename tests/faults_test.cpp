// Fault-tolerance tests: the deterministic fault-injection framework
// (plan grammar, nth/p-mode determinism, rank filtering), the bounded
// retry loops masking transient disk and message faults, the
// crash-consistent write-back journal (no torn slab across an injected
// crash at either protocol point), structured failure on the routing
// paths, and checkpoint/restart bit-identity for the compiled Jacobi
// stencil at P = 1 / 3 / 4.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "oocc/apps/jacobi.hpp"
#include "oocc/compiler/lower.hpp"
#include "oocc/exec/checkpoint.hpp"
#include "oocc/exec/interp.hpp"
#include "oocc/hpf/programs.hpp"
#include "oocc/io/file_backend.hpp"
#include "oocc/io/gaf.hpp"
#include "oocc/io/laf.hpp"
#include "oocc/runtime/icla.hpp"
#include "oocc/runtime/redistribute.hpp"
#include "oocc/runtime/twophase.hpp"
#include "oocc/sim/collectives.hpp"
#include "oocc/util/faults.hpp"

namespace oocc {
namespace {

using faults::FaultInjector;
using faults::FaultPlan;
using faults::Kind;
using faults::ScopedFaultPlan;
using faults::Site;
using io::DiskModel;
using io::GlobalArrayFile;
using io::LocalArrayFile;
using io::Section;
using io::StorageOrder;
using io::TempDir;
using sim::Machine;
using sim::MachineCostModel;
using sim::SpmdContext;

void run1(const std::function<void(SpmdContext&)>& body) {
  Machine machine(1, MachineCostModel::zero());
  machine.run(body);
}

// ------------------------------------------------------------ plan grammar

TEST(FaultPlanTest, ParsesTheDocumentedGrammar) {
  const FaultPlan plan = FaultPlan::parse(
      "read:rank=2,nth=7;write:p=0.01,seed=42,kind=permanent;"
      "crash:at=shadow;budget:nth=1,count=3");
  ASSERT_EQ(plan.specs.size(), 4u);
  EXPECT_EQ(plan.specs[0].site, Site::kRead);
  EXPECT_EQ(plan.specs[0].rank, 2);
  EXPECT_EQ(plan.specs[0].nth, 7u);
  EXPECT_EQ(plan.specs[0].kind, Kind::kTransient);
  EXPECT_EQ(plan.specs[1].site, Site::kWrite);
  EXPECT_DOUBLE_EQ(plan.specs[1].p, 0.01);
  EXPECT_EQ(plan.specs[1].seed, 42u);
  EXPECT_EQ(plan.specs[1].kind, Kind::kPermanent);
  EXPECT_EQ(plan.specs[2].site, Site::kCrash);
  EXPECT_EQ(plan.specs[2].at, "shadow");
  EXPECT_EQ(plan.specs[2].nth, 1u);  // bare spec -> first matching op
  EXPECT_EQ(plan.specs[3].effective_count(), 3u);
  // Round trip through to_string.
  EXPECT_EQ(FaultPlan::parse(plan.to_string()).to_string(), plan.to_string());
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("disk:nth=1"), Error);          // bad site
  EXPECT_THROW(FaultPlan::parse("read:p=1.5"), Error);          // p range
  EXPECT_THROW(FaultPlan::parse("read:p=0.5,nth=2"), Error);    // exclusive
  EXPECT_THROW(FaultPlan::parse("read:at=shadow"), Error);      // crash-only
  EXPECT_THROW(FaultPlan::parse("read:bogus=1"), Error);        // bad key
  EXPECT_THROW(FaultPlan::parse("read:nth=zebra"), Error);      // bad value
  EXPECT_THROW(FaultPlan::parse("crash:at=later"), Error);      // bad point
  EXPECT_TRUE(FaultPlan::parse("").empty());
}

TEST(FaultInjectorTest, ProbabilisticStreamIsDeterministic) {
  const auto sample = [] {
    ScopedFaultPlan plan("read:p=0.4,seed=99");
    std::string pattern;
    for (int i = 0; i < 64; ++i) {
      try {
        FaultInjector::instance().check(Site::kRead, "probe");
        pattern += '.';
      } catch (const Error&) {
        pattern += 'X';
      }
    }
    return pattern;
  };
  const std::string first = sample();
  EXPECT_NE(first.find('X'), std::string::npos);
  EXPECT_NE(first.find('.'), std::string::npos);
  // Reinstalling the same plan replays the same decisions.
  EXPECT_EQ(sample(), first);
}

TEST(FaultInjectorTest, RankFilteredSpecsMissOtherRanks) {
  ScopedFaultPlan plan("read:rank=1,nth=1,kind=permanent");
  {
    faults::ThreadRankGuard guard(2);
    EXPECT_NO_THROW(FaultInjector::instance().check(Site::kRead, "r2"));
  }
  // The host thread (rank -1) never matches a rank-filtered spec.
  EXPECT_NO_THROW(FaultInjector::instance().check(Site::kRead, "host"));
  {
    faults::ThreadRankGuard guard(1);
    EXPECT_THROW(FaultInjector::instance().check(Site::kRead, "r1"), Error);
  }
}

TEST(FaultInjectorTest, StatsCountInjections) {
  ScopedFaultPlan plan("write:nth=2,kind=permanent");
  char byte = 0;
  TempDir dir;
  io::FileBackend f(dir.file("s.bin"));
  f.write_at(0, &byte, 1);
  EXPECT_THROW(f.write_at(0, &byte, 1), Error);
  const faults::FaultStats stats = FaultInjector::instance().stats();
  EXPECT_EQ(stats.permanent_injected, 1u);
  EXPECT_GE(stats.ops_checked, 2u);
  EXPECT_EQ(stats.injected(), 1u);
}

// ------------------------------------------------------------- retry loops

TEST(RetryTest, TransientReadFaultIsMaskedAndCharged) {
  TempDir dir;
  ScopedFaultPlan plan("read:nth=1");  // transient by default
  run1([&](SpmdContext& ctx) {
    LocalArrayFile laf(dir.file("r.laf"), 4, 4, StorageOrder::kColumnMajor,
                       DiskModel::unit_test());
    laf.fill(ctx, 7.0);
    const double io_before = ctx.stats().io_time_s;
    std::vector<double> buf(16);
    laf.read_full(ctx, std::span<double>(buf.data(), buf.size()));
    EXPECT_DOUBLE_EQ(buf[0], 7.0);
    EXPECT_EQ(laf.stats().retries, 1u);
    EXPECT_EQ(ctx.stats().retries, 1u);
    // The backoff was charged to the simulated clock on top of the read.
    EXPECT_GT(ctx.stats().io_time_s - io_before,
              laf.disk().request_time(16 * 8, 1) - 1e-12);
  });
}

TEST(RetryTest, ExhaustedRetriesEscalateToPermanent) {
  TempDir dir;
  ScopedFaultPlan plan("read:p=1.0,seed=1");  // every attempt fails
  run1([&](SpmdContext& ctx) {
    LocalArrayFile laf(dir.file("x.laf"), 4, 4, StorageOrder::kColumnMajor,
                       DiskModel::unit_test());
    std::vector<double> buf(16);
    try {
      laf.read_full(ctx, std::span<double>(buf.data(), buf.size()));
      FAIL();
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kIoError);
      EXPECT_NE(std::string(e.what()).find("persisted after"),
                std::string::npos);
    }
    EXPECT_EQ(laf.stats().retries,
              static_cast<std::uint64_t>(laf.retry_policy().max_attempts - 1));
  });
}

TEST(RetryTest, TransientMessageFaultIsRetransmitted) {
  ScopedFaultPlan plan("collective:rank=0,nth=1");
  Machine machine(2, MachineCostModel());
  const sim::RunReport report = machine.run([](SpmdContext& ctx) {
    if (ctx.rank() == 0) {
      ctx.send_value<double>(1, 7, 42.0);
    } else {
      EXPECT_DOUBLE_EQ(ctx.recv_value<double>(0, 7), 42.0);
    }
  });
  EXPECT_EQ(report.total_retries(), 1u);
}

TEST(RetryTest, PermanentMessageFaultAbortsTheRegion) {
  ScopedFaultPlan plan("collective:rank=0,nth=1,kind=permanent");
  Machine machine(2, MachineCostModel());
  EXPECT_THROW(machine.run([](SpmdContext& ctx) {
                 if (ctx.rank() == 0) {
                   ctx.send_value<double>(1, 7, 1.0);
                 } else {
                   (void)ctx.recv_value<double>(0, 7);
                 }
               }),
               Error);
  // The machine stays usable for the next region.
  machine.run([](SpmdContext& ctx) { sim::barrier(ctx); });
}

TEST(RetryTest, BudgetFaultIsStructuredAndNotRetried) {
  runtime::MemoryBudget budget(1024);
  {
    ScopedFaultPlan plan("budget:nth=1,kind=permanent");
    try {
      budget.reserve(8, "probe");
      FAIL();
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kResourceExhausted);
    }
  }
  // The nth counter was consumed: the retry (restart) succeeds.
  EXPECT_NO_THROW(budget.reserve(8, "probe"));
}

// -------------------------------------------- crash-consistent write-back

TEST(JournalTest, CrashBeforeCommitLeavesOldContents) {
  TempDir dir;
  const std::filesystem::path path = dir.file("j.laf");
  run1([&](SpmdContext& ctx) {
    {
      LocalArrayFile laf(path, 4, 4, StorageOrder::kColumnMajor,
                         DiskModel::unit_test());
      laf.fill(ctx, 1.0);
      laf.set_journaling(true);
      EXPECT_TRUE(laf.journaling());
      ScopedFaultPlan plan("crash:at=shadow,nth=1");
      std::vector<double> next(16, 2.0);
      try {
        laf.write_full(ctx, next);
        FAIL();
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kCrash);
      }
    }
    // Reopen: the uncommitted journal record is discarded; the array
    // still holds the pre-crash contents, not a torn mix.
    LocalArrayFile laf(path, 4, 4, StorageOrder::kColumnMajor,
                       DiskModel::unit_test());
    std::vector<double> buf(16);
    laf.read_full(ctx, std::span<double>(buf.data(), buf.size()));
    for (double v : buf) {
      EXPECT_DOUBLE_EQ(v, 1.0);
    }
    EXPECT_EQ(laf.stats().recoveries, 0u);
  });
}

TEST(JournalTest, CrashAfterCommitReplaysOnOpen) {
  TempDir dir;
  const std::filesystem::path path = dir.file("k.laf");
  run1([&](SpmdContext& ctx) {
    {
      LocalArrayFile laf(path, 4, 4, StorageOrder::kColumnMajor,
                         DiskModel::unit_test());
      laf.fill(ctx, 1.0);
      laf.set_journaling(true);
      ScopedFaultPlan plan("crash:at=apply,nth=1");
      std::vector<double> next(16, 2.0);
      EXPECT_THROW(laf.write_full(ctx, next), Error);
      EXPECT_GE(laf.stats().journal_writes, 1u);
    }
    // Reopen: the committed record is replayed — the write is complete.
    LocalArrayFile laf(path, 4, 4, StorageOrder::kColumnMajor,
                       DiskModel::unit_test());
    std::vector<double> buf(16);
    laf.read_full(ctx, std::span<double>(buf.data(), buf.size()));
    for (double v : buf) {
      EXPECT_DOUBLE_EQ(v, 2.0);
    }
    EXPECT_EQ(laf.stats().recoveries, 1u);
  });
}

TEST(JournalTest, RowMajorPartialSectionReplaysExactBytes) {
  // The journal payload is stored in file-extent order; for a row-major
  // partial section that is a transpose of the caller's column-major
  // buffer. The replay must land the same bytes the apply would have.
  TempDir dir;
  const std::filesystem::path path = dir.file("rm.laf");
  const Section s{1, 3, 1, 4};  // 2 rows x 3 cols, strided in the file
  std::vector<double> data = {11, 21, 12, 22, 13, 23};  // col-major section
  run1([&](SpmdContext& ctx) {
    {
      LocalArrayFile laf(path, 4, 4, StorageOrder::kRowMajor,
                         DiskModel::unit_test());
      laf.fill(ctx, 0.0);
      laf.set_journaling(true);
      ScopedFaultPlan plan("crash:at=apply,nth=1");
      EXPECT_THROW(laf.write_section(ctx, s, data), Error);
    }
    LocalArrayFile laf(path, 4, 4, StorageOrder::kRowMajor,
                       DiskModel::unit_test());
    EXPECT_EQ(laf.stats().recoveries, 1u);
    std::vector<double> buf(6);
    laf.read_section(ctx, s, std::span<double>(buf.data(), buf.size()));
    EXPECT_EQ(buf, data);
    // Untouched elements stayed zero.
    std::vector<double> all(16);
    laf.read_full(ctx, std::span<double>(all.data(), all.size()));
    EXPECT_DOUBLE_EQ(all[0], 0.0);
  });
}

TEST(JournalTest, CleanJournaledWriteLeavesEmptyJournal) {
  TempDir dir;
  const std::filesystem::path path = dir.file("c.laf");
  run1([&](SpmdContext& ctx) {
    LocalArrayFile laf(path, 4, 4, StorageOrder::kColumnMajor,
                       DiskModel::unit_test());
    laf.set_journaling(true);
    std::vector<double> data(16, 3.0);
    laf.write_full(ctx, data);
    EXPECT_EQ(laf.stats().journal_writes, 1u);
    EXPECT_EQ(laf.stats().bytes_journaled, 16u * 8u);
    std::error_code ec;
    EXPECT_EQ(std::filesystem::file_size(path.string() + ".wal", ec), 0u);
  });
}

// ------------------------------------------------- routing paths (faults)

TEST(RoutingFaultTest, TwoPhaseLoadFailsStructuredUnderReadFault) {
  const int p = 4;
  const std::int64_t n = 16;
  TempDir dir;
  GlobalArrayFile gaf(dir.file("g.bin"), n, n, StorageOrder::kColumnMajor,
                      DiskModel::zero());
  gaf.fill_host([](std::int64_t r, std::int64_t c) {
    return static_cast<double>(r * 100 + c);
  });
  Machine machine(p, MachineCostModel::zero());
  ScopedFaultPlan plan("read:rank=2,nth=1,kind=permanent");
  try {
    machine.run([&](SpmdContext& ctx) {
      runtime::OutOfCoreArray dst(ctx, dir.path(), "dst",
                                  hpf::row_block(n, n, p),
                                  StorageOrder::kColumnMajor,
                                  DiskModel::zero());
      runtime::two_phase_load(ctx, gaf, dst, n * 4);
    });
    FAIL() << "expected the region to abort";
  } catch (const Error& e) {
    EXPECT_TRUE(e.code() == ErrorCode::kIoError ||
                e.code() == ErrorCode::kRuntimeError)
        << e.what();
  }
  // No hang, and the machine is reusable afterwards.
  machine.run([](SpmdContext& ctx) { sim::barrier(ctx); });
}

TEST(RoutingFaultTest, RedistributeFailsStructuredUnderCollectiveFault) {
  const int p = 4;
  const std::int64_t n = 16;
  TempDir dir;
  Machine machine(p, MachineCostModel::zero());
  // Let the staging writes through, then break a redistribution message.
  ScopedFaultPlan plan("collective:rank=1,nth=3,kind=permanent");
  try {
    machine.run([&](SpmdContext& ctx) {
      runtime::OutOfCoreArray src(ctx, dir.path(), "src",
                                  hpf::column_block(n, n, p),
                                  StorageOrder::kColumnMajor,
                                  DiskModel::zero());
      runtime::OutOfCoreArray dst(ctx, dir.path(), "dst",
                                  hpf::row_block(n, n, p),
                                  StorageOrder::kColumnMajor,
                                  DiskModel::zero());
      src.initialize(ctx,
                     [](std::int64_t r, std::int64_t c) {
                       return static_cast<double>(r + c);
                     },
                     n * n);
      runtime::redistribute(ctx, src, dst, n * 4);
    });
    FAIL() << "expected the region to abort";
  } catch (const Error& e) {
    EXPECT_TRUE(e.code() == ErrorCode::kRuntimeError) << e.what();
  }
  machine.run([](SpmdContext& ctx) { sim::barrier(ctx); });
}

// --------------------------------------------------- checkpoint / restart

double hot_edge(std::int64_t r, std::int64_t c) {
  return c == 0 ? 100.0 : (r % 4 == 0 ? 2.0 : -1.0);
}

compiler::NodeProgram compile_stencil(std::int64_t n, int p,
                                      std::int64_t budget) {
  compiler::CompileOptions options;
  options.memory_budget_elements = budget;
  return compiler::compile_source(hpf::stencil_source(n, p), options);
}

TEST(CheckpointStoreTest, SaveRestoreRoundTrip) {
  const std::int64_t n = 12;
  const int p = 3;
  TempDir dir;
  TempDir ckpt;
  Machine machine(p, MachineCostModel::zero());
  machine.run([&](SpmdContext& ctx) {
    runtime::OutOfCoreArray a(ctx, dir.path(), "a", hpf::column_block(n, n, p),
                              StorageOrder::kColumnMajor, DiskModel::zero());
    a.initialize(ctx, hot_edge, n * n);
    exec::CheckpointStore store(ckpt.path());
    store.save(ctx, 2, "a", a);
    // Clobber, then restore.
    a.laf().fill(ctx, 0.0);
    const auto meta = exec::CheckpointStore::latest(ckpt.path());
    ASSERT_TRUE(meta.has_value());
    EXPECT_EQ(meta->iterations, 2);
    EXPECT_EQ(meta->state, "a");
    store.restore(ctx, *meta, a);
    std::vector<double> got = a.gather_global(ctx, n * n);
    if (ctx.rank() == 0) {
      for (std::int64_t c = 0; c < n; ++c) {
        for (std::int64_t r = 0; r < n; ++r) {
          ASSERT_EQ(got[static_cast<std::size_t>(c * n + r)], hot_edge(r, c));
        }
      }
    }
  });
}

TEST(CheckpointStoreTest, NewerSaveSupersedesAndCleansOld) {
  const std::int64_t n = 8;
  TempDir dir;
  TempDir ckpt;
  run1([&](SpmdContext& ctx) {
    runtime::OutOfCoreArray a(ctx, dir.path(), "a", hpf::column_block(n, n, 1),
                              StorageOrder::kColumnMajor, DiskModel::zero());
    a.initialize(ctx, hot_edge, n * n);
    exec::CheckpointStore store(ckpt.path());
    store.save(ctx, 2, "a", a);
    store.save(ctx, 4, "a", a);
    const auto meta = exec::CheckpointStore::latest(ckpt.path());
    ASSERT_TRUE(meta.has_value());
    EXPECT_EQ(meta->iterations, 4);
    // The iteration-2 files were garbage-collected.
    EXPECT_FALSE(std::filesystem::exists(ckpt.path() / "a.2.r0"));
    EXPECT_TRUE(std::filesystem::exists(ckpt.path() / "a.4.r0"));
  });
}

/// Reference: the fault-free compiled run's gathered final state.
std::vector<double> reference_state(const compiler::NodeProgram& plan,
                                    std::int64_t n, int p, int iters) {
  std::vector<double> state;
  TempDir dir("oocc-faults-ref");
  Machine machine(p, MachineCostModel::zero());
  machine.run([&](SpmdContext& ctx) {
    auto arrays =
        exec::create_plan_arrays(ctx, plan, dir.path(), DiskModel::zero());
    arrays.at("a")->initialize(ctx, hot_edge, n * n);
    sim::barrier(ctx);
    exec::ArrayBindings bindings;
    for (auto& [name, arr] : arrays) {
      bindings[name] = arr.get();
    }
    exec::ExecOptions options;
    options.max_iters = iters;
    exec::StencilRunInfo info;
    options.stencil_info = &info;
    exec::execute(ctx, plan, bindings, options);
    std::vector<double> got = arrays.at(info.result)->gather_global(ctx, n * n);
    if (ctx.rank() == 0) {
      state = std::move(got);
    }
  });
  return state;
}

class RestartBitIdentityTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Procs, RestartBitIdentityTest,
                         ::testing::Values(1, 3, 4));

TEST_P(RestartBitIdentityTest, RecoveredRunMatchesFaultFreeRun) {
  const int p = GetParam();
  const std::int64_t n = 16;
  const int iters = 6;
  const compiler::NodeProgram plan = compile_stencil(n, p, n * 8);
  const std::vector<double> want = reference_state(plan, n, p, iters);

  TempDir dir("oocc-faults-restart");
  TempDir ckpt("oocc-faults-ckpt");
  Machine machine(p, MachineCostModel::zero());
  exec::RestartRunInfo run;
  {
    // Two injected crashes on rank 0: one early (recovers from the cold
    // initializer), one later (recovers from a committed checkpoint).
    // Journaling is on automatically because a fault plan is active.
    ScopedFaultPlan fault_plan(
        "crash:at=apply,rank=0,nth=3;crash:at=apply,rank=0,nth=40");
    exec::RestartOptions options;
    options.exec = exec::default_exec_options();
    options.exec.max_iters = iters;
    options.array_dir = dir.path();
    options.disk = DiskModel::zero();
    options.exec.checkpoint_every = 2;
    options.exec.checkpoint_dir = ckpt.path();
    options.initialize = [&](SpmdContext& ctx,
                             const exec::ArrayBindings& bindings) {
      // Re-runs only on cold starts; deterministic, so a cold restart
      // reaches the same bits as the original first attempt.
      runtime::OutOfCoreArray* a = bindings.at("a");
      a->initialize(ctx, hot_edge, n * n);
      bindings.at("b")->laf().fill(ctx, 0.0);
    };
    run = exec::run_stencil_with_restart(machine, plan, options);
    EXPECT_GE(run.restarts, 1);
    EXPECT_GT(FaultInjector::instance().stats().crashes_injected, 0u);
  }
  EXPECT_EQ(run.stencil.iterations, iters);

  // Gather with the injector cleared: the surviving on-disk state must be
  // bit-identical to the fault-free run.
  std::vector<double> got;
  machine.run([&](SpmdContext& ctx) {
    auto arrays =
        exec::create_plan_arrays(ctx, plan, dir.path(), DiskModel::zero());
    std::vector<double> state =
        arrays.at(run.stencil.result)->gather_global(ctx, n * n);
    if (ctx.rank() == 0) {
      got = std::move(state);
    }
  });
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "element " << i;
  }
}

TEST(RestartTest, CheckpointingAloneDoesNotChangeResults) {
  // Fault-free run WITH checkpointing and journaling on: still
  // bit-identical to the plain run (the machinery must be inert).
  const int p = 2;
  const std::int64_t n = 16;
  const int iters = 5;
  const compiler::NodeProgram plan = compile_stencil(n, p, n * 8);
  const std::vector<double> want = reference_state(plan, n, p, iters);

  TempDir dir("oocc-faults-inert");
  TempDir ckpt("oocc-faults-inert-ckpt");
  Machine machine(p, MachineCostModel::zero());
  exec::RestartOptions options;
  options.exec.max_iters = iters;
  options.exec.journal = true;
  options.array_dir = dir.path();
  options.disk = DiskModel::zero();
  options.exec.checkpoint_every = 2;
  options.exec.checkpoint_dir = ckpt.path();
  options.initialize = [&](SpmdContext& ctx,
                           const exec::ArrayBindings& bindings) {
    bindings.at("a")->initialize(ctx, hot_edge, n * n);
    bindings.at("b")->laf().fill(ctx, 0.0);
  };
  const exec::RestartRunInfo run =
      exec::run_stencil_with_restart(machine, plan, options);
  EXPECT_EQ(run.restarts, 0);
  EXPECT_EQ(run.stencil.iterations, iters);
  // A mid-run checkpoint was committed.
  const auto meta = exec::CheckpointStore::latest(ckpt.path());
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->iterations, 4);

  std::vector<double> got;
  machine.run([&](SpmdContext& ctx) {
    auto arrays =
        exec::create_plan_arrays(ctx, plan, dir.path(), DiskModel::zero());
    std::vector<double> state =
        arrays.at(run.stencil.result)->gather_global(ctx, n * n);
    if (ctx.rank() == 0) {
      got = std::move(state);
    }
  });
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "element " << i;
  }
}

// A pool of three panels holds both ping-pong halves, so a sweep's output
// stays cached. A checkpoint writes back the live half alone: the other
// half is the next sweep's target, which that sweep drops unwritten.
constexpr std::int64_t kPoolN = 32;
constexpr int kPoolP = 2;
constexpr int kPoolIters = 8;
constexpr std::int64_t kPoolElements = 3 * kPoolN * kPoolN / kPoolP;

compiler::NodeProgram pool_stencil() {
  return compile_stencil(kPoolN, kPoolP, kPoolN * 8);
}

struct CheckpointedRun {
  std::uint64_t written = 0;  ///< LAF bytes written, all ranks
  std::vector<double> state;  ///< gathered final state (rank 0)
};

/// A fault-free run of pool_stencil() that checkpoints every `every`
/// sweeps.
CheckpointedRun run_checkpointed(int every) {
  const compiler::NodeProgram plan = pool_stencil();
  TempDir dir("oocc-ckpt-pool");
  TempDir ckpt("oocc-ckpt-pool-ckpt");
  Machine machine(kPoolP, MachineCostModel::zero());
  CheckpointedRun out;
  std::mutex mu;
  machine.run([&](SpmdContext& ctx) {
    auto arrays =
        exec::create_plan_arrays(ctx, plan, dir.path(), DiskModel::zero());
    arrays.at("a")->initialize(ctx, hot_edge, kPoolN * kPoolN);
    exec::ArrayBindings bindings;
    for (auto& [name, arr] : arrays) {
      arr->laf().reset_stats();
      bindings[name] = arr.get();
    }
    sim::barrier(ctx);
    exec::ExecOptions options;
    options.max_iters = kPoolIters;
    options.budget_elements = kPoolElements;
    options.checkpoint_every = every;
    options.checkpoint_dir = ckpt.path();
    exec::StencilRunInfo info;
    options.stencil_info = &info;
    exec::execute(ctx, plan, bindings, options);
    std::uint64_t written = 0;
    for (auto& [name, arr] : arrays) {
      written += arr->laf().stats().bytes_written;
    }
    std::vector<double> state =
        arrays.at(info.result)->gather_global(ctx, kPoolN * kPoolN);
    const std::lock_guard<std::mutex> lock(mu);
    out.written += written;
    if (ctx.rank() == 0) {
      out.state = std::move(state);
    }
  });
  return out;
}

TEST(CheckpointPoolTest, CheckpointWritesBackOnlyTheLiveHalf) {
  const std::vector<double> want =
      apps::serial_jacobi(kPoolN, kPoolIters, hot_edge);
  // LAF bytes written when a checkpoint wrote back every dirty slab of
  // both halves.
  const std::map<int, std::uint64_t> before = {{2, 65536}, {3, 49152}};
  for (const auto& [every, ceiling] : before) {
    SCOPED_TRACE("checkpoint every " + std::to_string(every));
    const CheckpointedRun run = run_checkpointed(every);
    EXPECT_LT(run.written, ceiling);
    ASSERT_EQ(run.state.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(run.state[i], want[i]) << "element " << i;
    }
  }
}

TEST(CheckpointPoolTest, RestartFromALiveHalfCheckpointIsBitIdentical) {
  // A crash on rank 0's 24th journaled write, after the first checkpoint:
  // the restart restores the live half, and the other half's stale LAF is
  // the next sweep's dead target.
  const compiler::NodeProgram plan = pool_stencil();
  const std::vector<double> want =
      apps::serial_jacobi(kPoolN, kPoolIters, hot_edge);
  TempDir dir("oocc-ckpt-pool-restart");
  TempDir ckpt("oocc-ckpt-pool-restart-ckpt");
  Machine machine(kPoolP, MachineCostModel::zero());
  int cold_starts = 0;
  exec::RestartRunInfo run;
  {
    ScopedFaultPlan fault_plan("crash:at=apply,rank=0,nth=24");
    exec::RestartOptions options;
    options.exec = exec::default_exec_options();
    options.exec.max_iters = kPoolIters;
    options.exec.budget_elements = kPoolElements;
    options.array_dir = dir.path();
    options.disk = DiskModel::zero();
    options.exec.checkpoint_every = 2;
    options.exec.checkpoint_dir = ckpt.path();
    options.initialize = [&](SpmdContext& ctx,
                             const exec::ArrayBindings& bindings) {
      if (ctx.rank() == 0) {
        ++cold_starts;
      }
      bindings.at("a")->initialize(ctx, hot_edge, kPoolN * kPoolN);
      bindings.at("b")->laf().fill(ctx, 0.0);
    };
    run = exec::run_stencil_with_restart(machine, plan, options);
  }
  EXPECT_GE(run.restarts, 1);
  EXPECT_EQ(cold_starts, 1);  // every restart resumed from a checkpoint
  EXPECT_EQ(run.stencil.iterations, kPoolIters);
  std::vector<double> got;
  machine.run([&](SpmdContext& ctx) {
    auto arrays =
        exec::create_plan_arrays(ctx, plan, dir.path(), DiskModel::zero());
    std::vector<double> state =
        arrays.at(run.stencil.result)->gather_global(ctx, kPoolN * kPoolN);
    if (ctx.rank() == 0) {
      got = std::move(state);
    }
  });
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "element " << i;
  }
}

TEST(RestartTest, NonRestartableErrorsSurfaceImmediately) {
  EXPECT_FALSE(exec::restartable_error(ErrorCode::kCompileError));
  EXPECT_FALSE(exec::restartable_error(ErrorCode::kInvalidArgument));
  EXPECT_TRUE(exec::restartable_error(ErrorCode::kTransientIoError));
  EXPECT_TRUE(exec::restartable_error(ErrorCode::kCrash));
  EXPECT_TRUE(exec::restartable_error(ErrorCode::kIoError));
}

}  // namespace
}  // namespace oocc
