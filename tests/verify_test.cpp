// Static verifier tests: a mutation harness proving every OOCC-V0xx
// diagnostic fires on a seeded broken program, an exhaustive clean pass
// over all shipped plan shapes (elementwise, fused chains, GAXPY, stencil
// at P = 1/3/4 with tight and roomy budgets), a soundness generator (every
// single-step mutant of six lowered plans either fails with the step
// walk's structural error everywhere or, when it verifies, prices and
// runs), and the executor integration (unstamped plans verify by default,
// --no-verify escapes).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <functional>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "oocc/compiler/lower.hpp"
#include "oocc/compiler/pretty.hpp"
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

TEST(VerifyMutationTest, V003ColumnLoopReentersActiveLoop) {
  // An inner ForEachColumn of the same loop resets the column index when
  // it ends, so a later ReduceSum of the outer one would sum column -1.
  NodeProgram plan = gaxpy_plan(3, 4096);
  Step* per_column = require_step(plan, StepKind::kForEachColumn);
  ASSERT_NE(per_column, nullptr);
  const Step inner = *per_column;
  per_column->body.insert(per_column->body.begin(), inner);
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

// ------------------------------------------------- mutation soundness

/// The index of a step at each level of its step tree.
using StepPath = std::vector<std::size_t>;

void collect_paths(const std::vector<Step>& steps, StepPath& prefix,
                   std::vector<StepPath>& out) {
  for (std::size_t i = 0; i < steps.size(); ++i) {
    prefix.push_back(i);
    out.push_back(prefix);
    collect_paths(steps[i].body, prefix, out);
    prefix.pop_back();
  }
}

/// The list that holds the step at `path`.
template <typename Plan>
auto& siblings(Plan& plan, const StepPath& path) {
  auto* list = &plan.steps;
  for (std::size_t d = 0; d + 1 < path.size(); ++d) {
    list = &(*list)[path[d]].body;
  }
  return *list;
}

template <typename Plan>
auto& step_at(Plan& plan, const StepPath& path) {
  return siblings(plan, path)[path.back()];
}

struct Mutant {
  std::string name;
  NodeProgram plan;
};

/// Every single-step mutant of `base`: each step deleted with its body,
/// duplicated in place, moved one level up and copied one level up (to
/// just after its parent), and its `loop` or `with` pointed at each other
/// declared loop. Mutants carry no verified stamp.
std::vector<Mutant> single_step_mutants(const std::string& label,
                                        const NodeProgram& base) {
  std::vector<StepPath> paths;
  StepPath prefix;
  collect_paths(base.steps, prefix, paths);
  std::vector<Mutant> out;
  for (const StepPath& path : paths) {
    const Step& step = step_at(base, path);
    const std::size_t i = path.back();
    const auto add = [&](const std::string& what,
                         const std::function<void(NodeProgram&)>& edit) {
      Mutant& m = out.emplace_back(
          Mutant{label + ": " + what + " '" + step_text(step) + "'", base});
      m.plan.verified = false;
      edit(m.plan);
    };
    add("delete", [&](NodeProgram& p) {
      std::vector<Step>& list = siblings(p, path);
      list.erase(list.begin() + static_cast<std::ptrdiff_t>(i));
    });
    add("duplicate", [&](NodeProgram& p) {
      std::vector<Step>& list = siblings(p, path);
      list.insert(list.begin() + static_cast<std::ptrdiff_t>(i) + 1, step);
    });
    if (path.size() > 1) {
      const StepPath parent(path.begin(), path.end() - 1);
      for (const bool keep : {false, true}) {
        add(keep ? "copy up" : "move up", [&](NodeProgram& p) {
          if (!keep) {
            std::vector<Step>& list = siblings(p, path);
            list.erase(list.begin() + static_cast<std::ptrdiff_t>(i));
          }
          std::vector<Step>& outer = siblings(p, parent);
          outer.insert(
              outer.begin() + static_cast<std::ptrdiff_t>(parent.back()) + 1,
              step);
        });
      }
    }
    for (const SlabLoop& loop : base.loops) {
      if (!step.loop.empty() && loop.name != step.loop) {
        add("loop -> " + loop.name,
            [&](NodeProgram& p) { step_at(p, path).loop = loop.name; });
      }
      if (!step.with.empty() && loop.name != step.with) {
        add("with -> " + loop.name,
            [&](NodeProgram& p) { step_at(p, path).with = loop.name; });
      }
    }
  }
  return out;
}

/// Runs `plan` on the simulated machine, every array initialized, with
/// verification off; a stencil for three sweeps.
void run_unverified(const NodeProgram& plan) {
  TempDir dir;
  Machine machine(plan.nprocs, MachineCostModel::zero());
  machine.run([&](SpmdContext& ctx) {
    auto arrays =
        exec::create_plan_arrays(ctx, plan, dir.path(), DiskModel::zero());
    ArrayBindings bindings;
    for (auto& [name, arr] : arrays) {
      arr->initialize(
          ctx,
          [](std::int64_t r, std::int64_t c) {
            return 1.0 + 0.25 * static_cast<double>(r) -
                   0.5 * static_cast<double>(c);
          },
          1024);
      bindings[name] = arr.get();
    }
    ExecOptions options;
    options.verify = false;
    options.max_iters = 3;
    exec::execute(ctx, plan, bindings, options);
  });
}

::testing::AssertionResult completes(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return ::testing::AssertionFailure() << "threw: " << e.what();
  }
  return ::testing::AssertionSuccess();
}

/// Whether `fn` throws Error(kVerifyError) quoting `code`.
::testing::AssertionResult rejects(const std::function<void()>& fn,
                                   const std::string& code) {
  try {
    fn();
  } catch (const Error& e) {
    if (e.code() == ErrorCode::kVerifyError &&
        std::string(e.what()).find(code) != std::string::npos) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure() << "threw: " << e.what();
  } catch (const std::exception& e) {
    return ::testing::AssertionFailure() << "threw a non-oocc " << e.what();
  }
  return ::testing::AssertionFailure() << "ran without " << code;
}

TEST(VerifySoundnessTest, EverySingleStepMutantFailsStructurallyOrRuns) {
  CompileOptions columns;
  columns.memory_budget_elements = 4096;
  columns.enable_access_reorganization = false;
  CompileOptions prefetch;
  prefetch.memory_budget_elements = 600;
  prefetch.prefetch = PrefetchMode::kOn;
  std::vector<std::pair<std::string, NodeProgram>> bases;
  bases.emplace_back("elementwise P=2", elementwise_plan(2));
  std::vector<NodeProgram> fused = fused_plans(3, 4096);
  ASSERT_EQ(fused.size(), 1u);
  bases.emplace_back("fused chain P=3", std::move(fused.front()));
  bases.emplace_back("gaxpy rows P=4", gaxpy_plan(4, 4096, 16));
  bases.emplace_back("gaxpy columns P=4",
                     compile_source(hpf::gaxpy_source(16, 4), columns));
  bases.emplace_back("gaxpy rows prefetch P=4",
                     compile_source(hpf::gaxpy_source(16, 4), prefetch));
  bases.emplace_back("stencil P=3", stencil_plan(3, 4096));
  ASSERT_EQ(bases[2].second.a_orientation, runtime::SlabOrientation::kRowSlabs);
  ASSERT_EQ(bases[3].second.a_orientation,
            runtime::SlabOrientation::kColumnSlabs);
  ASSERT_EQ(bases[4].second.a_orientation, runtime::SlabOrientation::kRowSlabs);
  ASSERT_TRUE(bases[4].second.prefetch);

  const std::set<std::string> structural = {"OOCC-V001", "OOCC-V002",
                                            "OOCC-V003", "OOCC-V004",
                                            "OOCC-V005", "OOCC-V012"};
  std::size_t mutants = 0;
  int rejected = 0;
  int passed = 0;
  for (const auto& [label, base] : bases) {
    for (const Mutant& m : single_step_mutants(label, base)) {
      SCOPED_TRACE(m.name);
      ++mutants;
      VerifyReport report;
      ASSERT_TRUE(completes([&] { report = verify_plan(m.plan); }));
      if (report.ok()) {
        ++passed;
        EXPECT_TRUE(completes([&] { (void)price_plan(m.plan); }));
        EXPECT_TRUE(completes([&] { run_unverified(m.plan); }));
        continue;
      }
      const std::string& code = report.diagnostics.front().code;
      if (!structural.contains(code)) {
        continue;  // a dynamic verdict: running it could deadlock
      }
      ++rejected;
      EXPECT_EQ(report.diagnostics.size(), 1u) << report.to_string();
      EXPECT_TRUE(rejects([&] { (void)price_plan(m.plan); }, code));
      EXPECT_TRUE(rejects([&] { run_unverified(m.plan); }, code));
    }
  }
  EXPECT_EQ(mutants, 156u);
  EXPECT_EQ(rejected, 97);
  EXPECT_EQ(passed, 19);
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
