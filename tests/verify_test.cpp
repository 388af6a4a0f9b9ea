// Static verifier tests: a mutation harness proving every OOCC-V0xx
// diagnostic fires on a seeded broken program, an exhaustive clean pass
// over all shipped plan shapes (elementwise, fused chains, GAXPY, stencil
// at P = 1/3/4 with tight and roomy budgets), and the executor
// integration (unstamped plans verify by default, --no-verify escapes).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "oocc/compiler/lower.hpp"
#include "oocc/compiler/verify.hpp"
#include "oocc/exec/interp.hpp"
#include "oocc/hpf/programs.hpp"
#include "oocc/sim/collectives.hpp"
#include "oocc/util/error.hpp"

namespace oocc::compiler {
namespace {

using exec::ArrayBindings;
using exec::ExecOptions;
using io::DiskModel;
using io::TempDir;
using sim::Machine;
using sim::MachineCostModel;
using sim::SpmdContext;

// ------------------------------------------------------------- fixtures

constexpr std::int64_t kRows = 10;
constexpr std::int64_t kCols = 20;

/// `y = x*2 + k` over column-block arrays; budget 0 = roomy default.
NodeProgram elementwise_plan(int nprocs, std::int64_t budget = 4096) {
  CompileOptions options;
  options.memory_budget_elements = budget;
  return compile_source(hpf::elementwise_source(kRows, kCols, nprocs, 2),
                        options);
}

NodeProgram gaxpy_plan(int nprocs, std::int64_t budget,
                       std::int64_t n = 24) {
  CompileOptions options;
  options.memory_budget_elements = budget;
  return compile_source(hpf::gaxpy_source(n, nprocs), options);
}

NodeProgram stencil_plan(int nprocs, std::int64_t budget,
                         std::int64_t n = 24) {
  CompileOptions options;
  options.memory_budget_elements = budget;
  return compile_source(hpf::stencil_source(n, nprocs), options);
}

/// A two-statement chain that fuses into one sweep writing y and z.
std::vector<NodeProgram> fused_plans(int nprocs, std::int64_t budget) {
  const std::string src =
      "      parameter (n=20, p=" + std::to_string(nprocs) +
      ")\n"
      "      real x(n,n), y(n,n), z(n,n)\n"
      "!hpf$ processors Pr(p)\n"
      "!hpf$ template d(n)\n"
      "!hpf$ distribute d(block) onto Pr\n"
      "!hpf$ align (*,:) with d :: x, y, z\n"
      "      forall (k=1:n)\n"
      "        y(1:n,k) = x(1:n,k)*2 + 1\n"
      "      end forall\n"
      "      forall (k=1:n)\n"
      "        z(1:n,k) = y(1:n,k) + k\n"
      "      end forall\n"
      "      end\n";
  CompileOptions options;
  options.memory_budget_elements = budget;
  return compile_sequence_source(src, options);
}

// ------------------------------------------------------- step mutation

Step* find_step(std::vector<Step>& steps, StepKind kind) {
  for (Step& s : steps) {
    if (s.kind == kind) {
      return &s;
    }
    if (Step* hit = find_step(s.body, kind)) {
      return hit;
    }
  }
  return nullptr;
}

Step* require_step(NodeProgram& plan, StepKind kind) {
  Step* step = find_step(plan.steps, kind);
  EXPECT_NE(step, nullptr) << "plan has no " << step_kind_name(kind);
  return step;
}

bool remove_step(std::vector<Step>& steps, StepKind kind) {
  for (auto it = steps.begin(); it != steps.end(); ++it) {
    if (it->kind == kind) {
      steps.erase(it);
      return true;
    }
    if (remove_step(it->body, kind)) {
      return true;
    }
  }
  return false;
}

/// The sweep body of the plan's first ForEachSlab (where the elementwise
/// and stencil mutations seed their breakage).
std::vector<Step>& sweep_body(NodeProgram& plan) {
  Step* sweep = require_step(plan, StepKind::kForEachSlab);
  return sweep->body;
}

bool has_code(const VerifyReport& report, const std::string& code) {
  return std::any_of(report.diagnostics.begin(), report.diagnostics.end(),
                     [&](const VerifyDiagnostic& d) { return d.code == code; });
}

::testing::AssertionResult fires(const NodeProgram& plan,
                                 const std::string& code) {
  const VerifyReport report = verify_plan(plan);
  if (has_code(report, code)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "expected " << code << ", got:\n"
         << report.to_string();
}

// ------------------------------------------------------------ clean pass

// gtest prints a parameter type that has no PrintTo overload as its raw
// bytes, and CTest builds each case name from that dump. The `pad` fields
// occupy what would otherwise be alignment padding, so every printed byte
// is initialised and a case has the same name in every build.
struct CleanCase {
  CleanCase(int p, bool t) : nprocs(p), tight(t) {}
  int nprocs;
  bool tight;  ///< smallest budget the lowering accepts vs a roomy one
  std::uint8_t pad[3] = {};
};
static_assert(std::has_unique_object_representations_v<CleanCase>);

class VerifyClean : public ::testing::TestWithParam<CleanCase> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, VerifyClean,
    ::testing::Values(CleanCase{1, false}, CleanCase{1, true},
                      CleanCase{3, false}, CleanCase{3, true},
                      CleanCase{4, false}, CleanCase{4, true}),
    [](const ::testing::TestParamInfo<CleanCase>& info) {
      return std::string("p") + std::to_string(info.param.nprocs) +
             (info.param.tight ? "_tight" : "_roomy");
    });

TEST_P(VerifyClean, Elementwise) {
  const CleanCase& tc = GetParam();
  // Tight: exactly one full-height column per array share.
  const NodeProgram plan =
      elementwise_plan(tc.nprocs, tc.tight ? 2 * kRows : 4096);
  const VerifyReport report = verify_plan(plan);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.stats.ranks, tc.nprocs);
  EXPECT_TRUE(plan.verified);
}

TEST_P(VerifyClean, FusedChain) {
  const CleanCase& tc = GetParam();
  const std::vector<NodeProgram> plans =
      fused_plans(tc.nprocs, tc.tight ? 3 * 20 : 4096);
  const VerifyReport report = verify_sequence(
      std::span<const NodeProgram>(plans.data(), plans.size()));
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST_P(VerifyClean, Gaxpy) {
  const CleanCase& tc = GetParam();
  const std::int64_t n = 24;
  // The CLI's default: a quarter of the largest local array plus room for
  // the reduction temporary — genuinely out-of-core.
  const std::int64_t local =
      n * ((n + tc.nprocs - 1) / tc.nprocs);
  const NodeProgram plan =
      gaxpy_plan(tc.nprocs, tc.tight ? local / 4 + 4 * n : 2 * n * n, n);
  const VerifyReport report = verify_plan(plan);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.stats.ranks, tc.nprocs);
}

TEST_P(VerifyClean, Stencil) {
  const CleanCase& tc = GetParam();
  const std::int64_t n = 24;
  // Tight: w = budget/(4*local_rows) - d == 1, the narrowest legal sweep.
  const NodeProgram plan =
      stencil_plan(tc.nprocs, tc.tight ? 8 * n : 4096, n);
  const VerifyReport report = verify_plan(plan);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.stats.events, 0);
}

TEST(VerifyReportTest, CleanReportPrintsStats) {
  const VerifyReport report = verify_plan(elementwise_plan(3));
  const std::string text = report.to_string();
  EXPECT_NE(text.find("3 rank(s)"), std::string::npos) << text;
  EXPECT_NE(text.find("OK"), std::string::npos) << text;
}

// ------------------------------------------------- structural mutations

TEST(VerifyMutationTest, V001UndeclaredLoop) {
  NodeProgram plan = elementwise_plan(1);
  require_step(plan, StepKind::kForEachSlab)->loop = "bogus";
  EXPECT_TRUE(fires(plan, "OOCC-V001"));
}

TEST(VerifyMutationTest, V002UnknownArray) {
  NodeProgram plan = elementwise_plan(1);
  require_step(plan, StepKind::kReadSlab)->array = "nosuch";
  EXPECT_TRUE(fires(plan, "OOCC-V002"));
}

TEST(VerifyMutationTest, V003StatementIndexOutOfRange) {
  NodeProgram plan = elementwise_plan(1);
  require_step(plan, StepKind::kComputeElementwise)->stmt = 99;
  EXPECT_TRUE(fires(plan, "OOCC-V003"));
}

TEST(VerifyMutationTest, V003DuplicateLoopDeclaration) {
  NodeProgram plan = elementwise_plan(1);
  plan.loops.push_back(plan.loops.front());
  EXPECT_TRUE(fires(plan, "OOCC-V003"));
}

TEST(VerifyMutationTest, V004SlabStepOutsideItsLoop) {
  NodeProgram plan = elementwise_plan(1);
  // Hoist the ReadSlab to the top level, outside any ForEachSlab.
  Step hoisted = *require_step(plan, StepKind::kReadSlab);
  plan.steps.push_back(hoisted);
  EXPECT_TRUE(fires(plan, "OOCC-V004"));
}

TEST(VerifyMutationTest, V005WriteOfUnstagedSlab) {
  NodeProgram plan = elementwise_plan(1);
  // Drop the compute: the WriteSlab now stores a slab nothing staged.
  ASSERT_TRUE(remove_step(plan.steps, StepKind::kComputeElementwise));
  EXPECT_TRUE(fires(plan, "OOCC-V005"));
}

// ------------------------------------------------------- race mutations

TEST(VerifyMutationTest, V010ReplicatedWriteRace) {
  NodeProgram plan = elementwise_plan(3);
  // Replicate the output: every rank now writes the full array, and the
  // cross-rank overlap is a genuine write-write race.
  PlanArray& y = plan.arrays.at("y");
  y.dist = hpf::ArrayDistribution(kRows, kCols, hpf::DistAxis::kNone,
                                  hpf::DistKind::kCollapsed, plan.nprocs);
  EXPECT_TRUE(fires(plan, "OOCC-V010"));
}

TEST(VerifyMutationTest, V011DroppedBarrierBeforeExchange) {
  NodeProgram plan = stencil_plan(3, 4096);
  // Without the trailing barrier the next sweep's ghost exchange reads
  // edge columns the neighbour is still writing.
  ASSERT_TRUE(remove_step(plan.steps, StepKind::kBarrier));
  EXPECT_TRUE(fires(plan, "OOCC-V011"));
}

TEST(VerifyMutationTest, V012HaloExchangeTooNarrow) {
  NodeProgram plan = stencil_plan(3, 4096);
  require_step(plan, StepKind::kExchangeHalo)->halo = 0;
  EXPECT_TRUE(fires(plan, "OOCC-V012"));
}

TEST(VerifyMutationTest, V012HaloReadTooNarrow) {
  NodeProgram plan = stencil_plan(3, 4096);
  require_step(plan, StepKind::kReadSlab)->halo = 0;
  EXPECT_TRUE(fires(plan, "OOCC-V012"));
}

// --------------------------------------- bounds and coverage mutations

TEST(VerifyMutationTest, V020ReadBeyondLocalExtent) {
  NodeProgram plan = elementwise_plan(3);
  // Shrink the input: the sweep (sized by the output) now reads columns
  // the input does not hold locally.
  plan.arrays.at("x").dist = hpf::column_block(kRows, kCols / 2, 3);
  EXPECT_TRUE(fires(plan, "OOCC-V020"));
}

TEST(VerifyMutationTest, V020ExchangeEdgeBeyondLocalExtent) {
  // P=4 over 24 columns gives 6-column panels; trading 8 edge columns
  // would read past them (the executor throws OutOfRange mid-exchange).
  NodeProgram plan = stencil_plan(4, 960);
  require_step(plan, StepKind::kExchangeHalo)->halo = 8;
  const VerifyReport report = verify_plan(plan);
  const auto edge = std::find_if(
      report.diagnostics.begin(), report.diagnostics.end(),
      [](const VerifyDiagnostic& d) {
        return d.code == "OOCC-V020" &&
               d.message.find("ExchangeHalo edge section [0,24)x[-2,6) of "
                              "'a' exceeds its local 24x6 extent") !=
                   std::string::npos;
      });
  EXPECT_NE(edge, report.diagnostics.end()) << report.to_string();
}

TEST(VerifyMutationTest, V021WriteBeyondLocalExtent) {
  std::vector<NodeProgram> plans = fused_plans(3, 4096);
  ASSERT_FALSE(plans.empty());
  NodeProgram& plan = plans.front();
  ASSERT_GT(plan.statements.size(), 1u) << "chain did not fuse";
  // The sweep is sized by the first output; shrinking the second makes
  // its WriteSlab run off the end.
  plan.arrays.at("z").dist = hpf::column_block(20, 10, 3);
  EXPECT_TRUE(fires(plan, "OOCC-V021"));
}

TEST(VerifyMutationTest, V022DroppedWriteLeavesHole) {
  NodeProgram plan = elementwise_plan(3);
  ASSERT_TRUE(remove_step(plan.steps, StepKind::kWriteSlab));
  EXPECT_TRUE(fires(plan, "OOCC-V022"));
}

TEST(VerifyMutationTest, V023DuplicateWriteOverlaps) {
  NodeProgram plan = elementwise_plan(3);
  std::vector<Step>& body = sweep_body(plan);
  Step* write = find_step(body, StepKind::kWriteSlab);
  ASSERT_NE(write, nullptr);
  body.push_back(*write);
  EXPECT_TRUE(fires(plan, "OOCC-V023"));
}

TEST(VerifyMutationTest, V022ReplicatedReductionOutput) {
  // The executor stores each summed column on its owner only (rank 0 for
  // a replicated C), so ranks 1..P-1 would keep stale copies of C.
  NodeProgram plan = gaxpy_plan(2, 4096, 32);
  plan.arrays.at("c").dist = hpf::ArrayDistribution(
      32, 32, hpf::DistAxis::kNone, hpf::DistKind::kCollapsed, plan.nprocs);
  const VerifyReport report = verify_plan(plan);
  EXPECT_TRUE(std::any_of(
      report.diagnostics.begin(), report.diagnostics.end(),
      [](const VerifyDiagnostic& d) {
        return d.code == "OOCC-V022" && d.rank == 1 &&
               d.message.find("cover 0 of the 1024 locally owned") !=
                   std::string::npos;
      }))
      << report.to_string();
  EXPECT_FALSE(has_code(report, "OOCC-V010")) << report.to_string();
}

TEST(VerifyMutationTest, V023ColumnReducedTwice) {
  // A second ReduceSum of each column does not extend the open output
  // batch, so the owner stores that column twice.
  NodeProgram plan = gaxpy_plan(3, 4096);
  Step* per_column = require_step(plan, StepKind::kForEachColumn);
  ASSERT_NE(per_column, nullptr);
  Step* reduce = find_step(per_column->body, StepKind::kReduceSum);
  ASSERT_NE(reduce, nullptr);
  per_column->body.push_back(*reduce);
  EXPECT_TRUE(fires(plan, "OOCC-V023"));
}

TEST(VerifyReplayTest, GaxpyRecordsTheBatchesTheExecutorStores) {
  // perfbench's GAXPY shape (N=1024, P=4, budget 65,536): each rank
  // stores one full-width C batch per A row slab, 12 slabs x 4 ranks. The
  // overlap check is quadratic in a rank's writes, so this count must not
  // grow to one write per owned column (12,288 here).
  const NodeProgram plan = gaxpy_plan(4, 65536, 1024);
  const VerifyReport report = verify_plan(plan);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.stats.writes, 48);
}

// ---------------------------------------------------- budget mutations

TEST(VerifyMutationTest, V030HaloWiderThanBudget) {
  // Tight budget: one column slab per array fits exactly; widening the
  // read by 8 columns each side blows the pinned working set.
  NodeProgram plan = elementwise_plan(1, 3 * kRows);
  require_step(plan, StepKind::kReadSlab)->halo = 8;
  EXPECT_TRUE(fires(plan, "OOCC-V030"));
}

// -------------------------------------------------- schedule mutations

TEST(VerifyMutationTest, V040CollectiveCountDiverges) {
  // P=3 over 20 columns: locals are 7/7/6, and a budget of 7 full-height
  // columns (2 arrays, share 3) gives ranks 3/3/2 slabs. A barrier inside
  // the per-slab body then runs a different number of times per rank.
  NodeProgram plan = elementwise_plan(3, 7 * kRows);
  Step barrier;
  barrier.kind = StepKind::kBarrier;
  sweep_body(plan).push_back(barrier);
  EXPECT_TRUE(fires(plan, "OOCC-V040"));
}

// ------------------------------------------------ compile/exec plumbing

TEST(VerifyIntegrationTest, CompileStampsVerifiedPlans) {
  EXPECT_TRUE(elementwise_plan(3).verified);
  CompileOptions options;
  options.memory_budget_elements = 4096;
  options.verify = false;
  EXPECT_FALSE(
      compile_source(hpf::elementwise_source(kRows, kCols, 1, 2), options)
          .verified);
}

TEST(VerifyIntegrationTest, VerifyOrThrowQuotesCodes) {
  NodeProgram plan = elementwise_plan(1);
  require_step(plan, StepKind::kReadSlab)->array = "nosuch";
  try {
    verify_or_throw(plan);
    FAIL() << "expected Error(kVerifyError)";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kVerifyError);
    EXPECT_NE(std::string(e.what()).find("OOCC-V002"), std::string::npos)
        << e.what();
  }
}

TEST(VerifyIntegrationTest, ExecutorRejectsUnstampedBrokenPlan) {
  NodeProgram plan = elementwise_plan(2);
  std::vector<Step>& body = sweep_body(plan);
  Step* write = find_step(body, StepKind::kWriteSlab);
  ASSERT_NE(write, nullptr);
  body.push_back(*write);  // duplicate write: safe to run, invalid to keep
  plan.verified = false;

  TempDir dir;
  Machine machine(2, MachineCostModel::zero());
  EXPECT_THROW(machine.run([&](SpmdContext& ctx) {
                 auto arrays = exec::create_plan_arrays(
                     ctx, plan, dir.path(), DiskModel::zero());
                 arrays.at("x")->initialize(
                     ctx, [](std::int64_t, std::int64_t) { return 1.0; },
                     1024);
                 ArrayBindings bindings;
                 for (auto& [name, arr] : arrays) {
                   bindings[name] = arr.get();
                 }
                 exec::execute(ctx, plan, bindings);
               }),
               Error);
}

TEST(VerifyIntegrationTest, NoVerifyOptionSkipsTheCheck) {
  NodeProgram plan = elementwise_plan(2);
  std::vector<Step>& body = sweep_body(plan);
  Step* write = find_step(body, StepKind::kWriteSlab);
  ASSERT_NE(write, nullptr);
  body.push_back(*write);
  plan.verified = false;

  TempDir dir;
  Machine machine(2, MachineCostModel::zero());
  machine.run([&](SpmdContext& ctx) {
    auto arrays =
        exec::create_plan_arrays(ctx, plan, dir.path(), DiskModel::zero());
    arrays.at("x")->initialize(
        ctx, [](std::int64_t, std::int64_t) { return 1.0; }, 1024);
    ArrayBindings bindings;
    for (auto& [name, arr] : arrays) {
      bindings[name] = arr.get();
    }
    ExecOptions options;
    options.verify = false;
    exec::execute(ctx, plan, bindings, options);
  });
}

TEST(VerifyIntegrationTest, NoVerifyUndeclaredLoopIsAnError) {
  // Without the verifier nothing proves the loop names; the executor must
  // still fail with a structured error, never touch an unbound loop.
  NodeProgram plan = elementwise_plan(2);
  require_step(plan, StepKind::kReadSlab)->loop = "bogus";
  plan.verified = false;

  TempDir dir;
  Machine machine(2, MachineCostModel::zero());
  try {
    machine.run([&](SpmdContext& ctx) {
      auto arrays =
          exec::create_plan_arrays(ctx, plan, dir.path(), DiskModel::zero());
      ArrayBindings bindings;
      for (auto& [name, arr] : arrays) {
        bindings[name] = arr.get();
      }
      ExecOptions options;
      options.verify = false;
      exec::execute(ctx, plan, bindings, options);
    });
    FAIL() << "expected Error for the undeclared loop";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("undeclared slab loop 'bogus'"),
              std::string::npos)
        << e.what();
  }
}

TEST(VerifyIntegrationTest, ExecutorRunsCleanUnstampedPlan) {
  NodeProgram plan = elementwise_plan(2);
  plan.verified = false;  // hand-built path: executor verifies, then runs

  TempDir dir;
  Machine machine(2, MachineCostModel::zero());
  machine.run([&](SpmdContext& ctx) {
    auto arrays =
        exec::create_plan_arrays(ctx, plan, dir.path(), DiskModel::zero());
    arrays.at("x")->initialize(
        ctx, [](std::int64_t, std::int64_t) { return 1.0; }, 1024);
    ArrayBindings bindings;
    for (auto& [name, arr] : arrays) {
      bindings[name] = arr.get();
    }
    exec::execute(ctx, plan, bindings);
  });
}

}  // namespace
}  // namespace oocc::compiler
