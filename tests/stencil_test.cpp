// Tests for the compiled halo-stencil path: the Jacobi FORALL lowered by
// compiler/lower.cpp's stencil matcher into halo ReadSlab steps + ghost
// exchange + a Barrier, executed by exec's iterate-to-convergence driver.
//
// The hand-coded apps/jacobi.cpp kernel is the oracle: the compiled step
// program must be bit-identical to it across distributions (processor
// counts) and memory budgets, its priced LAF traffic (halo reads included)
// must equal the measured IoStats counters over whole multi-sweep runs, in
// which each sweep drops its target half's dead slabs unwritten, and
// unsupported stencil shapes must produce structured "stencil lowering:
// ..." diagnostics instead of silently mis-lowering.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "oocc/apps/jacobi.hpp"
#include "oocc/compiler/lower.hpp"
#include "oocc/compiler/pretty.hpp"
#include "oocc/exec/interp.hpp"
#include "oocc/hpf/programs.hpp"
#include "oocc/io/async_engine.hpp"
#include "oocc/runtime/bufferpool.hpp"
#include "oocc/sim/collectives.hpp"

namespace oocc {
namespace {

using io::DiskModel;
using io::StorageOrder;
using io::TempDir;
using sim::Machine;
using sim::MachineCostModel;
using sim::SpmdContext;

double hot_edge(std::int64_t r, std::int64_t c) {
  return c == 0 ? 100.0 : (r % 4 == 0 ? 2.0 : -1.0);
}

/// Every column differs, so a ghost column read from the wrong offset
/// changes the result (hot_edge's columns past the first are identical).
double column_ramp(std::int64_t r, std::int64_t c) {
  return static_cast<double>(c * c) + 0.25 * static_cast<double>(r % 3);
}

compiler::NodeProgram compile_stencil(std::int64_t n, int p,
                                      std::int64_t budget) {
  compiler::CompileOptions options;
  options.memory_budget_elements = budget;
  return compiler::compile_source(hpf::stencil_source(n, p), options);
}

struct CompiledRun {
  std::vector<double> state;  ///< gathered final state (rank 0)
  exec::StencilRunInfo info;
  runtime::SlabCacheStats cache;
  /// Per-rank, per-array LAF counters accumulated over the run.
  std::map<int, std::map<std::string, io::IoStats>> stats;
};

/// `pool` is the slab pool's budget in elements (0 = the plan's own);
/// `async` gives the machine an I/O engine, which runs the LAF transfers.
CompiledRun run_compiled(
    const compiler::NodeProgram& plan, std::int64_t n, int p, int iters,
    bool use_cache, double tol = 0.0,
    double (*init)(std::int64_t, std::int64_t) = hot_edge,
    std::int64_t pool = 0, bool async = true) {
  CompiledRun out;
  TempDir dir("oocc-stencil");
  sim::MachineOptions machine_options = sim::MachineOptions::from_env();
  machine_options.async = machine_options.async && async;
  Machine machine(p, MachineCostModel::zero(), machine_options);
  std::mutex mu;
  machine.run([&](SpmdContext& ctx) {
    auto arrays =
        exec::create_plan_arrays(ctx, plan, dir.path(), DiskModel::zero());
    arrays.at("a")->initialize(ctx, init, n * n);
    for (auto& [name, arr] : arrays) {
      arr->laf().reset_stats();
    }
    sim::barrier(ctx);
    exec::ArrayBindings bindings;
    for (auto& [name, arr] : arrays) {
      bindings[name] = arr.get();
    }
    exec::ExecOptions options;
    options.use_cache = use_cache;
    options.budget_elements = pool;
    options.max_iters = iters;
    options.residual_tol = tol;
    exec::StencilRunInfo info;
    options.stencil_info = &info;
    runtime::SlabCacheStats cache;
    options.cache_stats = &cache;
    exec::execute(ctx, plan, bindings, options);
    // Snapshot the counters before gather_global pollutes them.
    std::map<std::string, io::IoStats> measured;
    for (auto& [name, arr] : arrays) {
      measured[name] = arr->laf().stats();
    }
    std::vector<double> state =
        arrays.at(info.result)->gather_global(ctx, n * n);
    std::lock_guard<std::mutex> lock(mu);
    out.cache.merge(cache);
    out.stats[ctx.rank()] = std::move(measured);
    if (ctx.rank() == 0) {
      out.state = std::move(state);
      out.info = info;
    }
  });
  return out;
}

/// Runs an elementwise plan y = f(x) once over column_ramp input and
/// returns the gathered y (rank 0).
std::vector<double> run_elementwise(const compiler::NodeProgram& plan,
                                    std::int64_t n, int p) {
  std::vector<double> y;
  TempDir dir("oocc-elementwise");
  Machine machine(p, MachineCostModel::zero());
  machine.run([&](SpmdContext& ctx) {
    auto arrays =
        exec::create_plan_arrays(ctx, plan, dir.path(), DiskModel::zero());
    arrays.at("x")->initialize(ctx, column_ramp, n * n);
    exec::ArrayBindings bindings;
    for (auto& [name, arr] : arrays) {
      bindings[name] = arr.get();
    }
    exec::execute(ctx, plan, bindings);
    std::vector<double> got = arrays.at("y")->gather_global(ctx, n * n);
    if (ctx.rank() == 0) {
      y = std::move(got);
    }
  });
  return y;
}

std::vector<double> run_oracle(std::int64_t n, int p, int iters,
                               std::int64_t slab_elements) {
  std::vector<double> state;
  TempDir dir("oocc-stencil-oracle");
  Machine machine(p, MachineCostModel::zero());
  machine.run([&](SpmdContext& ctx) {
    runtime::OutOfCoreArray a(ctx, dir.path(), "a",
                              hpf::column_block(n, n, p),
                              StorageOrder::kColumnMajor, DiskModel::zero());
    runtime::OutOfCoreArray b(ctx, dir.path(), "b",
                              hpf::column_block(n, n, p),
                              StorageOrder::kColumnMajor, DiskModel::zero());
    a.initialize(ctx, hot_edge, n * n);
    runtime::OutOfCoreArray& fin =
        apps::ooc_jacobi(ctx, a, b, iters, slab_elements);
    std::vector<double> got = fin.gather_global(ctx, n * n);
    if (ctx.rank() == 0) {
      state = std::move(got);
    }
  });
  return state;
}

// ---------------------------------------------------------------- lowering

TEST(StencilLowering, RecognizesTheJacobiForall) {
  const compiler::NodeProgram plan = compile_stencil(32, 4, 1 << 10);
  EXPECT_EQ(plan.kind, compiler::ProgramKind::kStencil);
  ASSERT_EQ(plan.statements.size(), 1u);
  EXPECT_EQ(plan.statements[0].lhs, "b");
  EXPECT_EQ(plan.statements[0].source, "a");
  EXPECT_EQ(plan.statements[0].halo, 1);
  EXPECT_EQ(plan.statements[0].row_halo, 1);
  // Steps: exchange, sweep (halo read + compute + write), barrier.
  ASSERT_EQ(plan.steps.size(), 3u);
  EXPECT_EQ(plan.steps[0].kind, compiler::StepKind::kExchangeHalo);
  EXPECT_EQ(plan.steps[1].kind, compiler::StepKind::kForEachSlab);
  ASSERT_EQ(plan.steps[1].body.size(), 3u);
  EXPECT_EQ(plan.steps[1].body[0].kind, compiler::StepKind::kReadSlab);
  EXPECT_EQ(plan.steps[1].body[0].halo, 1);
  EXPECT_EQ(plan.steps[1].body[1].kind, compiler::StepKind::kComputeStencil);
  EXPECT_EQ(plan.steps[1].body[2].kind, compiler::StepKind::kWriteSlab);
  EXPECT_EQ(plan.steps[2].kind, compiler::StepKind::kBarrier);
}

TEST(StencilLowering, StepProgramTextShowsHaloSections) {
  const compiler::NodeProgram plan = compile_stencil(32, 4, 1 << 10);
  const std::string text = compiler::step_program_text(plan);
  EXPECT_NE(text.find("exchange-halo"), std::string::npos);
  EXPECT_NE(text.find("(halo +/-1, clipped)"), std::string::npos);
  EXPECT_NE(text.find("compute-stencil"), std::string::npos);
  const std::string pseudo = compiler::pseudo_code(plan);
  EXPECT_NE(pseudo.find("widened by 1"), std::string::npos);
}

TEST(StencilLowering, ParameterScalarsFoldToConstants) {
  // A parameter coefficient in the rhs must reach lowering as a constant
  // (sema binds it): the executor binds only the FORALL index, so a
  // surviving VarRef would evaluate as the column number.
  const std::string with_param =
      "      parameter (n=16, p=2, w=2)\n"
      "      real a(n,n), b(n,n)\n"
      "!hpf$ processors Pr(p)\n"
      "!hpf$ template d(n)\n"
      "!hpf$ distribute d(block) onto Pr\n"
      "!hpf$ align (*,:) with d :: a, b\n"
      "      forall (k=2:n-1)\n"
      "        b(1:n,k) = (w*a(1:n,k-1) + w*a(1:n,k+1))/4\n"
      "      end forall\n"
      "      end\n";
  const std::string with_literal =
      "      parameter (n=16, p=2)\n"
      "      real a(n,n), b(n,n)\n"
      "!hpf$ processors Pr(p)\n"
      "!hpf$ template d(n)\n"
      "!hpf$ distribute d(block) onto Pr\n"
      "!hpf$ align (*,:) with d :: a, b\n"
      "      forall (k=2:n-1)\n"
      "        b(1:n,k) = (2*a(1:n,k-1) + 2*a(1:n,k+1))/4\n"
      "      end forall\n"
      "      end\n";
  compiler::CompileOptions options;
  options.memory_budget_elements = 16 * 10;
  const compiler::NodeProgram folded =
      compiler::compile_source(with_param, options);
  const compiler::NodeProgram literal =
      compiler::compile_source(with_literal, options);
  // The normalized trees must be free of parameter VarRefs...
  std::function<void(const hpf::Expr&)> no_vars =
      [&](const hpf::Expr& e) {
        EXPECT_NE(e.kind, hpf::ExprKind::kVarRef);
        if (e.lhs) no_vars(*e.lhs);
        if (e.rhs) no_vars(*e.rhs);
      };
  no_vars(*folded.statements[0].rhs);
  // ...and both spellings must run bit-identically.
  const CompiledRun a = run_compiled(folded, 16, 2, 3, true);
  const CompiledRun b = run_compiled(literal, 16, 2, 3, true);
  ASSERT_EQ(a.state.size(), b.state.size());
  for (std::size_t i = 0; i < a.state.size(); ++i) {
    ASSERT_EQ(a.state[i], b.state[i]) << "element " << i;
  }

  // Sema binds an elementwise statement's parameters the same way (an
  // unfolded one used to fail at run time as an unbound scalar after the
  // plan had verified).
  for (const int p : {1, 3, 4}) {
    SCOPED_TRACE("P=" + std::to_string(p));
    const auto elementwise = [&](const std::string& params,
                                 const std::string& coeff) {
      return "      parameter (n=16, p=" + std::to_string(p) + params +
             ")\n"
             "      real x(n,n), y(n,n)\n"
             "!hpf$ processors Pr(p)\n"
             "!hpf$ template d(n)\n"
             "!hpf$ distribute d(block) onto Pr\n"
             "!hpf$ align (*,:) with d :: x, y\n"
             "      forall (k=1:n)\n"
             "        y(1:n,k) = x(1:n,k)*" +
             coeff +
             " + 1\n"
             "      end forall\n"
             "      end\n";
    };
    const compiler::NodeProgram param =
        compiler::compile_source(elementwise(", s=3", "s"), options);
    const compiler::NodeProgram lit =
        compiler::compile_source(elementwise("", "3"), options);
    no_vars(*param.statements[0].rhs);
    const std::vector<double> got = run_elementwise(param, 16, p);
    const std::vector<double> want = run_elementwise(lit, 16, p);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "element " << i;
    }
  }
}

// --------------------------------------------------- oracle bit-identity

// gtest prints a parameter type that has no PrintTo overload as its raw
// bytes, and CTest builds each case name from that dump. The `pad` fields
// occupy what would otherwise be alignment padding, so every printed byte
// is initialised and a case has the same name in every build.
struct StencilCase {
  StencilCase(int p, std::int64_t size, int it, std::int64_t m)
      : nprocs(p), n(size), iters(it), budget(m) {}
  int nprocs;
  std::int32_t pad = 0;
  std::int64_t n;
  int iters;
  std::int32_t iters_pad = 0;
  std::int64_t budget;  ///< compiler memory budget in elements
};
static_assert(std::has_unique_object_representations_v<StencilCase>);

class StencilOracleTest : public ::testing::TestWithParam<StencilCase> {};

// >= 2 distributions (P = 1, 3, 4 column-BLOCK instances) x >= 2 memory
// budgets (whole-array vs tight multi-slab).
INSTANTIATE_TEST_SUITE_P(
    Sweep, StencilOracleTest,
    ::testing::Values(StencilCase{1, 16, 3, 16 * 40},
                      StencilCase{1, 16, 3, 16 * 8},
                      StencilCase{4, 16, 5, 16 * 24},
                      StencilCase{4, 16, 5, 16 * 8},
                      StencilCase{4, 32, 4, 32 * 20},
                      StencilCase{3, 18, 4, 18 * 12}),
    [](const ::testing::TestParamInfo<StencilCase>& info) {
      std::string name = "p";
      name += std::to_string(info.param.nprocs) + "_n";
      name += std::to_string(info.param.n) + "_it";
      name += std::to_string(info.param.iters) + "_m";
      name += std::to_string(info.param.budget);
      return name;
    });

TEST_P(StencilOracleTest, CompiledIsBitIdenticalToHandcodedJacobi) {
  const StencilCase tc = GetParam();
  const compiler::NodeProgram plan =
      compile_stencil(tc.n, tc.nprocs, tc.budget);
  const CompiledRun compiled =
      run_compiled(plan, tc.n, tc.nprocs, tc.iters, /*use_cache=*/true);
  const std::vector<double> oracle =
      run_oracle(tc.n, tc.nprocs, tc.iters, tc.n * 2);
  ASSERT_EQ(compiled.state.size(), oracle.size());
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    ASSERT_EQ(compiled.state[i], oracle[i]) << "element " << i;
  }
  EXPECT_EQ(compiled.info.iterations, tc.iters);
}

TEST(StencilExec, CacheOnAndOffAreBitIdentical) {
  const compiler::NodeProgram plan = compile_stencil(16, 4, 16 * 8);
  const CompiledRun pooled = run_compiled(plan, 16, 4, 4, true);
  const CompiledRun plain = run_compiled(plan, 16, 4, 4, false);
  ASSERT_EQ(pooled.state.size(), plain.state.size());
  for (std::size_t i = 0; i < plain.state.size(); ++i) {
    ASSERT_EQ(pooled.state[i], plain.state[i]) << "element " << i;
  }
  // The pool serves the later sweeps' halo reads from the slabs the
  // previous sweep staged.
  EXPECT_GT(pooled.cache.hits, 0u);
}

TEST(StencilExec, MatchesSerialReference) {
  const std::int64_t n = 16;
  const compiler::NodeProgram plan = compile_stencil(n, 2, n * 10);
  const CompiledRun compiled = run_compiled(plan, n, 2, 6, true);
  const std::vector<double> want = apps::serial_jacobi(n, 6, hot_edge);
  ASSERT_EQ(compiled.state.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(compiled.state[i], want[i]) << "element " << i;
  }
}

TEST(StencilExec, WiderExchangeIsBitIdentical) {
  // Ghost columns are found by the width the exchange shipped, not by the
  // stencil's reach: trading 2 edge columns for a distance-1 stencil must
  // not change a single element.
  const std::int64_t n = 24;
  const compiler::NodeProgram plan = compile_stencil(n, 4, 960);
  compiler::NodeProgram wide = compile_stencil(n, 4, 960);
  ASSERT_EQ(wide.steps[0].kind, compiler::StepKind::kExchangeHalo);
  ASSERT_EQ(wide.steps[0].halo, 1);
  wide.steps[0].halo = 2;
  wide.verified = false;  // the executor verifies the edited plan first
  const CompiledRun want = run_compiled(plan, n, 4, 3, true, 0.0, column_ramp);
  const CompiledRun got = run_compiled(wide, n, 4, 3, true, 0.0, column_ramp);
  ASSERT_EQ(got.state.size(), want.state.size());
  for (std::size_t i = 0; i < want.state.size(); ++i) {
    ASSERT_EQ(got.state[i], want.state[i]) << "element " << i;
  }
}

// ------------------------------------------------------ priced == measured

/// Expects `measured` (one rank's per-array LAF counters) to equal `price`.
void expect_measured(const compiler::PlanPrice& price,
                     const std::map<std::string, io::IoStats>& measured) {
  for (const auto& [name, cost] : price.arrays) {
    const io::IoStats& s = measured.at(name);
    EXPECT_DOUBLE_EQ(static_cast<double>(s.read_requests), cost.read_requests)
        << name;
    EXPECT_DOUBLE_EQ(static_cast<double>(s.bytes_read) / 8.0,
                     cost.elements_read)
        << name;
    EXPECT_DOUBLE_EQ(static_cast<double>(s.write_requests),
                     cost.write_requests)
        << name;
    EXPECT_DOUBLE_EQ(static_cast<double>(s.bytes_written) / 8.0,
                     cost.elements_written)
        << name;
  }
}

TEST(StencilPricing, PricedHaloReadsMatchMeasuredCounters) {
  const std::int64_t n = 32;
  const int p = 4;
  const compiler::NodeProgram plan = compile_stencil(n, p, n * 8);
  // One sweep, pool off: the pricer walks exactly what the executor runs.
  const CompiledRun run =
      run_compiled(plan, n, p, /*iters=*/1, /*use_cache=*/false);
  for (int rank = 0; rank < p; ++rank) {
    SCOPED_TRACE("rank " + std::to_string(rank));
    expect_measured(compiler::price_plan(plan, rank), run.stats.at(rank));
  }
}

TEST(StencilPricing, CachedPriceMatchesMeasuredCounters) {
  const std::int64_t n = 32;
  const int p = 2;
  const compiler::NodeProgram plan = compile_stencil(n, p, n * 8);
  const CompiledRun run =
      run_compiled(plan, n, p, /*iters=*/1, /*use_cache=*/true);
  compiler::PriceOptions popts;
  popts.model_cache = true;
  double priced_hits = 0.0;
  for (int rank = 0; rank < p; ++rank) {
    SCOPED_TRACE("rank " + std::to_string(rank));
    const compiler::PlanPrice price = compiler::price_plan(plan, rank, popts);
    priced_hits += price.cache_hits;
    expect_measured(price, run.stats.at(rank));
  }
  EXPECT_DOUBLE_EQ(static_cast<double>(run.cache.hits), priced_hits);
}

// ------------------------------------------ whole runs and dead slabs

/// (P, async engine, prefetching slab loop)
class StencilWholeRunTest
    : public ::testing::TestWithParam<std::tuple<int, bool, bool>> {};

INSTANTIATE_TEST_SUITE_P(
    Pools, StencilWholeRunTest,
    ::testing::Combine(::testing::Values(1, 3, 4), ::testing::Bool(),
                       ::testing::Bool()),
    [](const auto& info) {
      // Appended piecewise: GCC 12's -O3 -Wrestrict misfires on a chain
      // of operator+ over std::string temporaries.
      std::string name = "p";
      name += std::to_string(std::get<0>(info.param));
      name += std::get<1>(info.param) ? "_async" : "_sync";
      name += std::get<2>(info.param) ? "_prefetch" : "";
      return name;
    });

TEST_P(StencilWholeRunTest, PricedEqualsMeasuredOverEverySweep) {
  // price_sequence walks every sweep of the run over one directory, as the
  // convergence driver runs them through one pool. The pools range from
  // half a panel (nothing survives a sweep) to three (both ping-pong halves
  // stay resident); in between, the slabs of each sweep's target half are
  // dropped dead instead of written back.
  const auto [p, async, prefetch] = GetParam();
  const std::int64_t n = 64;
  const std::int64_t panel = n * ((n + p - 1) / p);  // the widest rank's
  compiler::CompileOptions options;
  options.memory_budget_elements = 512;  // one-column slabs
  options.prefetch =
      prefetch ? compiler::PrefetchMode::kOn : compiler::PrefetchMode::kOff;
  const compiler::NodeProgram plan =
      compiler::compile_source(hpf::stencil_source(n, p), options);
  std::uint64_t discarded = 0;
  for (const int iters : {1, 2, 3, 8}) {
    const std::vector<double> want = apps::serial_jacobi(n, iters, hot_edge);
    for (const double panels : {0.5, 1.1, 2.0, 3.0}) {
      SCOPED_TRACE(std::to_string(iters) + " sweeps, pool " +
                   std::to_string(panels) + " panels");
      const auto pool = static_cast<std::int64_t>(panels * panel);
      const CompiledRun run = run_compiled(plan, n, p, iters, true, 0.0,
                                           hot_edge, pool, async);
      ASSERT_EQ(run.state.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(run.state[i], want[i]) << "element " << i;
      }
      compiler::PriceOptions popts;
      popts.model_cache = true;
      popts.cache_budget_elements = pool;
      popts.sweeps = iters;
      double hits = 0.0;
      for (int rank = 0; rank < p; ++rank) {
        SCOPED_TRACE("rank " + std::to_string(rank));
        const compiler::PlanPrice price =
            compiler::price_plan(plan, rank, popts);
        hits += price.cache_hits;
        expect_measured(price, run.stats.at(rank));
      }
      EXPECT_DOUBLE_EQ(static_cast<double>(run.cache.hits), hits);
      discarded += run.cache.discarded;
    }
  }
  EXPECT_GT(discarded, 0u);
}

TEST(StencilDeadSlabs, WrittenBytesNeverRiseWithThePool) {
  // 8 sweeps of a 64x64 Jacobi on 2 ranks in one-column slabs. `before` is
  // what the pool wrote when it wrote every dead target slab back: all 8
  // sweeps' output until both ping-pong halves fit outright.
  const std::int64_t n = 64;
  const int p = 2;
  const std::int64_t panel = n * n / p;
  compiler::CompileOptions options;
  options.memory_budget_elements = panel / 4;
  options.prefetch = compiler::PrefetchMode::kOn;
  const compiler::NodeProgram plan =
      compiler::compile_source(hpf::stencil_source(n, p), options);
  const std::vector<std::pair<double, std::uint64_t>> before = {
      {0.5, 262144}, {1.0, 262144}, {1.1, 262144}, {1.5, 262144},
      {1.9, 262144}, {2.0, 262144}, {2.5, 65536},  {3.0, 65536}};
  std::uint64_t smaller_pool = std::numeric_limits<std::uint64_t>::max();
  for (const auto& [panels, ceiling] : before) {
    SCOPED_TRACE("pool " + std::to_string(panels) + " panels");
    const CompiledRun run =
        run_compiled(plan, n, p, 8, true, 0.0, hot_edge,
                     static_cast<std::int64_t>(panels * panel));
    std::uint64_t written = 0;
    for (const auto& [rank, arrays] : run.stats) {
      for (const auto& [name, s] : arrays) {
        written += s.bytes_written;
      }
    }
    EXPECT_LE(written, smaller_pool);
    EXPECT_LE(written, ceiling);
    if (panels == 2.0) {
      EXPECT_LE(2 * written, ceiling);
    }
    smaller_pool = written;
  }
}

/// Sets OOCC_HOST_IO_DELAY_US for the LAFs opened during its lifetime, so
/// engine write-backs stay in flight long enough to overlap a drop.
class HostIoDelay {
 public:
  explicit HostIoDelay(const char* us) {
    ::setenv("OOCC_HOST_IO_DELAY_US", us, 1);
  }
  ~HostIoDelay() { ::unsetenv("OOCC_HOST_IO_DELAY_US"); }
  HostIoDelay(const HostIoDelay&) = delete;
  HostIoDelay& operator=(const HostIoDelay&) = delete;
};

TEST(StencilDeadSlabs, DroppingAWriteBackInFlightHandsItTheBuffer) {
  // Dropping a dead array's slabs while one of them is still being written
  // back: like any erased entry, it hands its buffer's storage to that
  // write, which completes with the bytes it was given. The dirty slab is
  // dropped unwritten, and the pending read-ahead is settled first.
  TempDir dir("oocc-dead-slabs");
  io::AsyncEngine engine(2);
  Machine machine(1, MachineCostModel::zero());
  machine.run([&](SpmdContext& ctx) {
    const HostIoDelay delay("2000");
    io::LocalArrayFile laf(dir.file("b.laf"), 8, 4,
                           StorageOrder::kColumnMajor, DiskModel::zero());
    runtime::MemoryBudget budget(1000);
    runtime::SlabBufferPool pool(budget, "t");
    pool.set_async_engine(&engine);
    const auto stage = [&](const io::Section& s, double value) {
      pool.acquire_write(ctx, laf, "b", s, -1.0).fill(value);
      pool.mark_dirty(ctx, "b", s, -1.0);
      pool.unpin(ctx, "b", s);
    };
    const io::Section col0{0, 8, 0, 1};
    stage(col0, 42.0);
    // A read-ahead overlapping the dirty slab writes it back first; the
    // entry stays resident, its buffer read by the write in flight.
    ASSERT_TRUE(pool.read_ahead(ctx, laf, "b", io::Section{0, 8, 0, 2}, -1.0));
    stage(io::Section{0, 8, 3, 4}, 7.0);
    pool.drop(ctx, "b", /*dead=*/true);
    EXPECT_EQ(pool.stats().discarded, 3u);
    EXPECT_EQ(pool.stats().writebacks, 1u);
    EXPECT_EQ(budget.used(), 0);
    pool.flush(ctx);  // nothing dirty is left; settles the orphaned write
    std::vector<double> all(8 * 4);
    laf.read_full(ctx, std::span<double>(all.data(), all.size()));
    for (std::int64_t r = 0; r < 8; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)], 42.0) << "row " << r;
      EXPECT_EQ(all[static_cast<std::size_t>(24 + r)], 0.0) << "row " << r;
    }
  });
}

// ------------------------------------------------------ convergence driver

TEST(StencilExec, ConvergenceDriverStopsAtResidual) {
  const std::int64_t n = 8;
  const compiler::NodeProgram plan = compile_stencil(n, 2, n * 10);
  const CompiledRun run = run_compiled(plan, n, 2, /*iters=*/300,
                                       /*use_cache=*/true, /*tol=*/1e-2);
  EXPECT_LT(run.info.iterations, 300);
  EXPECT_GT(run.info.iterations, 1);
  EXPECT_LE(run.info.final_residual, 1e-2);
  // The early-stopped state equals the oracle run for that sweep count.
  const std::vector<double> oracle =
      run_oracle(n, 2, run.info.iterations, n * 4);
  ASSERT_EQ(run.state.size(), oracle.size());
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    ASSERT_EQ(run.state[i], oracle[i]) << "element " << i;
  }
}

TEST(StencilExec, ResultNameFollowsThePingPong) {
  const std::int64_t n = 16;
  const compiler::NodeProgram plan = compile_stencil(n, 1, n * 10);
  EXPECT_EQ(run_compiled(plan, n, 1, 1, true).info.result, "b");
  EXPECT_EQ(run_compiled(plan, n, 1, 2, true).info.result, "a");
  EXPECT_EQ(run_compiled(plan, n, 1, 3, true).info.result, "b");
}

// ----------------------------------------------------- diagnostics (no
// silent mis-lowering: stencil-shaped but unsupported statements throw)

void expect_stencil_error(const std::string& source,
                          const std::string& needle) {
  try {
    compiler::CompileOptions options;
    options.memory_budget_elements = 1 << 12;
    compiler::compile_source(source, options);
    FAIL() << "expected a stencil lowering error mentioning '" << needle
           << "'";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCompileError);
    const std::string what = e.what();
    EXPECT_NE(what.find("stencil lowering"), std::string::npos) << what;
    EXPECT_NE(what.find(needle), std::string::npos) << what;
  }
}

std::string stencil_prologue() {
  return "      parameter (n=16, p=4)\n"
         "      real a(n,n), b(n,n)\n"
         "!hpf$ processors Pr(p)\n"
         "!hpf$ template d(n)\n"
         "!hpf$ distribute d(block) onto Pr\n"
         "!hpf$ align (*,:) with d :: a, b\n";
}

TEST(StencilDiagnostics, MixedDistancesRejected) {
  expect_stencil_error(stencil_prologue() +
                           "      forall (k=2:n-1)\n"
                           "        b(1:n,k) = (a(1:n,k-1) + a(1:n,k+2))/2\n"
                           "      end forall\n"
                           "      end\n",
                       "mixed stencil distances");
}

TEST(StencilDiagnostics, RowSubscriptStencilRejected) {
  expect_stencil_error(stencil_prologue() +
                           "      forall (k=2:n-1)\n"
                           "        b(k,k) = (a(k,k-1) + a(k,k+1))/2\n"
                           "      end forall\n"
                           "      end\n",
                       "row-subscript stencils are unsupported");
}

TEST(StencilDiagnostics, HaloBeyondSlabWidthRejected) {
  // d = 2 with a budget that only affords 1-column slabs: the halo read
  // would span more than the adjacent slab.
  const std::string source =
      stencil_prologue() +
      "      forall (k=3:n-2)\n"
      "        b(1:n,k) = (a(1:n,k-2) + a(1:n,k+2))/2\n"
      "      end forall\n"
      "      end\n";
  try {
    compiler::CompileOptions options;
    options.memory_budget_elements = 16 * 12;  // w = 3 - 2 = 1 < d = 2
    compiler::compile_source(source, options);
    FAIL() << "expected the slab-width diagnostic";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCompileError);
    const std::string what = e.what();
    EXPECT_NE(what.find("exceeds the slab width"), std::string::npos)
        << what;
  }
}

TEST(StencilDiagnostics, WideBudgetAcceptsDistanceTwo) {
  // The same d = 2 stencil lowers fine once the slabs are wide enough.
  const std::string source =
      stencil_prologue() +
      "      forall (k=3:n-2)\n"
      "        b(1:n,k) = (a(1:n,k-2) + a(1:n,k+2))/2\n"
      "      end forall\n"
      "      end\n";
  compiler::CompileOptions options;
  options.memory_budget_elements = 16 * 16;
  const compiler::NodeProgram plan =
      compiler::compile_source(source, options);
  EXPECT_EQ(plan.kind, compiler::ProgramKind::kStencil);
  EXPECT_EQ(plan.statements[0].halo, 2);
  EXPECT_EQ(plan.statements[0].row_halo, 0);
}

TEST(StencilDiagnostics, InPlaceStencilRejected) {
  expect_stencil_error(stencil_prologue() +
                           "      forall (k=2:n-1)\n"
                           "        a(1:n,k) = (a(1:n,k-1) + a(1:n,k+1))/2\n"
                           "      end forall\n"
                           "      end\n",
                       "in-place stencils");
}

TEST(StencilDiagnostics, CyclicDistributionRejected) {
  const std::string source =
      "      parameter (n=16, p=4)\n"
      "      real a(n,n), b(n,n)\n"
      "!hpf$ processors Pr(p)\n"
      "!hpf$ template d(n)\n"
      "!hpf$ distribute d(cyclic) onto Pr\n"
      "!hpf$ align (*,:) with d :: a, b\n"
      "      forall (k=2:n-1)\n"
      "        b(1:n,k) = (a(1:n,k-1) + a(1:n,k+1))/2\n"
      "      end forall\n"
      "      end\n";
  expect_stencil_error(source, "column-BLOCK");
}

TEST(StencilDiagnostics, TwoSourceArraysRejected) {
  const std::string source =
      "      parameter (n=16, p=4)\n"
      "      real a(n,n), b(n,n), x(n,n)\n"
      "!hpf$ processors Pr(p)\n"
      "!hpf$ template d(n)\n"
      "!hpf$ distribute d(block) onto Pr\n"
      "!hpf$ align (*,:) with d :: a, b, x\n"
      "      forall (k=2:n-1)\n"
      "        b(1:n,k) = (a(1:n,k-1) + x(1:n,k+1))/2\n"
      "      end forall\n"
      "      end\n";
  expect_stencil_error(source, "exactly one source array");
}

TEST(StencilDiagnostics, WrongForallBoundsRejected) {
  expect_stencil_error(stencil_prologue() +
                           "      forall (k=1:n)\n"
                           "        b(1:n,k) = (a(1:n,k-1) + a(1:n,k+1))/2\n"
                           "      end forall\n"
                           "      end\n",
                       "must exclude the halo");
}

}  // namespace
}  // namespace oocc
