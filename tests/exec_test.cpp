// End-to-end tests: HPF source -> compile -> execute on the simulated
// machine -> verify against serial references, including exact agreement
// between the compiler's predicted I/O costs and the measured counters.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <type_traits>

#include "oocc/compiler/lower.hpp"
#include "oocc/exec/interp.hpp"
#include "oocc/gaxpy/gaxpy.hpp"
#include "oocc/hpf/programs.hpp"
#include "oocc/sim/collectives.hpp"

namespace oocc::exec {
namespace {

using compiler::CompileOptions;
using compiler::NodeProgram;
using io::DiskModel;
using io::TempDir;
using sim::Machine;
using sim::MachineCostModel;
using sim::SpmdContext;

double gen_a(std::int64_t r, std::int64_t c) {
  return std::sin(static_cast<double>(r * 17 + c * 5)) + 1.5;
}

double gen_b(std::int64_t r, std::int64_t c) {
  return std::cos(static_cast<double>(r * 7 + c * 11)) - 0.25;
}

std::vector<double> dense(std::int64_t n, double (*f)(std::int64_t,
                                                      std::int64_t)) {
  std::vector<double> m(static_cast<std::size_t>(n * n));
  for (std::int64_t c = 0; c < n; ++c) {
    for (std::int64_t r = 0; r < n; ++r) {
      m[static_cast<std::size_t>(c * n + r)] = f(r, c);
    }
  }
  return m;
}

// gtest prints a parameter type that has no PrintTo overload as its raw
// bytes, and CTest builds each case name from that dump. The `pad` fields
// occupy what would otherwise be alignment padding, so every printed byte
// is initialised and a case has the same name in every build.
struct EndToEndCase {
  EndToEndCase(int p, std::int64_t size, bool reorg)
      : nprocs(p), n(size), reorganize(reorg) {}
  int nprocs;
  std::int32_t pad = 0;
  std::int64_t n;
  bool reorganize;  ///< enable_access_reorganization
  std::uint8_t tail_pad[7] = {};
};
static_assert(std::has_unique_object_representations_v<EndToEndCase>);

class CompiledGaxpy : public ::testing::TestWithParam<EndToEndCase> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, CompiledGaxpy,
    ::testing::Values(EndToEndCase{1, 8, true}, EndToEndCase{2, 16, true},
                      EndToEndCase{4, 16, true}, EndToEndCase{4, 32, true},
                      EndToEndCase{2, 16, false}, EndToEndCase{4, 32, false}),
    [](const ::testing::TestParamInfo<EndToEndCase>& info) {
      return std::string("p") + std::to_string(info.param.nprocs) + "_n" +
             std::to_string(info.param.n) +
             (info.param.reorganize ? "_opt" : "_naive");
    });

TEST_P(CompiledGaxpy, ComputesCorrectProduct) {
  const EndToEndCase& tc = GetParam();
  CompileOptions options;
  options.memory_budget_elements =
      std::max<std::int64_t>(4096, tc.n * tc.n);  // comfortably OOC-ish
  options.enable_access_reorganization = tc.reorganize;
  const NodeProgram plan =
      compiler::compile_source(hpf::gaxpy_source(tc.n, tc.nprocs), options);

  TempDir dir;
  Machine machine(tc.nprocs, MachineCostModel::unit_test());
  machine.run([&](SpmdContext& ctx) {
    auto arrays = create_plan_arrays(ctx, plan, dir.path(),
                                     DiskModel::unit_test());
    arrays.at("a")->initialize(ctx, gen_a, 4096);
    arrays.at("b")->initialize(ctx, gen_b, 4096);

    ArrayBindings bindings;
    for (auto& [name, arr] : arrays) {
      bindings[name] = arr.get();
    }
    execute(ctx, plan, bindings);

    std::vector<double> got = arrays.at("c")->gather_global(ctx, 4096);
    if (ctx.rank() == 0) {
      const std::vector<double> want = gaxpy::serial_matmul(
          dense(tc.n, gen_a), dense(tc.n, gen_b), tc.n);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_NEAR(got[i], want[i], 1e-9) << "i=" << i;
      }
    }
  });
}

TEST(CompiledGaxpyCost, PredictionMatchesMeasuredCounters) {
  // The compiler's T_fetch/T_data for the chosen plan must equal the
  // LAF counters observed during execution (evenly dividing sizes).
  const std::int64_t n = 32;
  const int p = 4;
  CompileOptions options;
  options.memory_budget_elements = 4096;
  const NodeProgram plan =
      compiler::compile_source(hpf::gaxpy_source(n, p), options);
  ASSERT_EQ(plan.a_orientation, runtime::SlabOrientation::kRowSlabs);

  // Re-estimate with the plan's actual slab sizes.
  compiler::GaxpyCostQuery q;
  q.n = n;
  q.nprocs = p;
  q.slab_a = plan.memory.slab_a;
  q.slab_b = plan.memory.slab_b;
  q.slab_c = plan.memory.slab_c;
  const compiler::CandidateCost predicted =
      compiler::estimate_gaxpy_cost(plan.a_orientation, q);

  TempDir dir;
  Machine machine(p, MachineCostModel::zero());
  machine.run([&](SpmdContext& ctx) {
    auto arrays = create_plan_arrays(ctx, plan, dir.path(),
                                     DiskModel::zero());
    arrays.at("a")->initialize(ctx, gen_a, 4096);
    arrays.at("b")->initialize(ctx, gen_b, 4096);
    arrays.at("a")->laf().reset_stats();
    arrays.at("b")->laf().reset_stats();
    arrays.at("c")->laf().reset_stats();

    ArrayBindings bindings;
    for (auto& [name, arr] : arrays) {
      bindings[name] = arr.get();
    }
    // The schema estimator prices the uncached machine; the slab pool
    // would legitimately drop the B re-reads below its prediction.
    ExecOptions exec_options;
    exec_options.use_cache = false;
    execute(ctx, plan, bindings, exec_options);

    EXPECT_DOUBLE_EQ(
        static_cast<double>(arrays.at("a")->laf().stats().read_requests),
        predicted.cost_of("a").fetch_requests);
    EXPECT_DOUBLE_EQ(
        static_cast<double>(arrays.at("a")->laf().stats().bytes_read) / 8.0,
        predicted.cost_of("a").data_elements);
    EXPECT_DOUBLE_EQ(
        static_cast<double>(arrays.at("b")->laf().stats().read_requests),
        predicted.cost_of("b").fetch_requests);
    EXPECT_DOUBLE_EQ(
        static_cast<double>(arrays.at("c")->laf().stats().write_requests),
        predicted.cost_of("c").fetch_requests);
  });
}

TEST(CompiledGaxpyCost, OptimizedPlanBeatsNaivePlanInSimulatedTime) {
  const std::int64_t n = 64;
  const int p = 4;
  double times[2];
  for (int opt = 0; opt < 2; ++opt) {
    CompileOptions options;
    options.memory_budget_elements = 2048;
    options.enable_access_reorganization = opt == 1;
    options.disk = DiskModel::unit_test();
    const NodeProgram plan =
        compiler::compile_source(hpf::gaxpy_source(n, p), options);
    TempDir dir;
    Machine machine(p, MachineCostModel::unit_test());
    sim::RunReport report = machine.run([&](SpmdContext& ctx) {
      auto arrays = create_plan_arrays(ctx, plan, dir.path(),
                                       DiskModel::unit_test());
      arrays.at("a")->initialize(ctx, gen_a, 4096);
      arrays.at("b")->initialize(ctx, gen_b, 4096);
      sim::barrier(ctx);
      ctx.reset_accounting();
      ArrayBindings bindings;
      for (auto& [name, arr] : arrays) {
        bindings[name] = arr.get();
      }
      // Figure 14's comparison is about access reorganization on the
      // uncached machine; the slab pool would rescue the naive plan's A
      // re-sweeps and flatten the gap.
      ExecOptions exec_options;
      exec_options.use_cache = false;
      execute(ctx, plan, bindings, exec_options);
    });
    times[opt] = report.max_sim_time_s();
  }
  // The paper's headline: the reorganized plan is much faster.
  EXPECT_LT(times[1] * 3, times[0]);
}

TEST(CompiledGaxpyCost, TotalTimePredictionTracksMeasuredMakespan) {
  // The end-to-end predictor (io + compute + comm) must land within a
  // factor of two of the measured simulated makespan and preserve the
  // column/row ordering.
  const std::int64_t n = 128;
  const int p = 4;
  const std::int64_t local = n * (n / p);
  double measured[2];
  double predicted[2];
  int idx = 0;
  for (runtime::SlabOrientation orient :
       {runtime::SlabOrientation::kColumnSlabs,
        runtime::SlabOrientation::kRowSlabs}) {
    compiler::GaxpyCostQuery q;
    q.n = n;
    q.nprocs = p;
    q.slab_a = q.slab_b = q.slab_c = local / 4;
    predicted[idx] = compiler::estimate_gaxpy_total(
                         orient, q, DiskModel::touchstone_delta_cfs(),
                         sim::MachineCostModel::touchstone_delta())
                         .total_s();

    TempDir dir;
    Machine machine(p, sim::MachineCostModel::touchstone_delta());
    sim::RunReport report = machine.run([&](SpmdContext& ctx) {
      const io::StorageOrder a_order =
          orient == runtime::SlabOrientation::kRowSlabs
              ? io::StorageOrder::kRowMajor
              : io::StorageOrder::kColumnMajor;
      runtime::OutOfCoreArray a(ctx, dir.path(), "a",
                                hpf::column_block(n, n, p), a_order,
                                DiskModel::touchstone_delta_cfs());
      runtime::OutOfCoreArray b(ctx, dir.path(), "b",
                                hpf::row_block(n, n, p),
                                io::StorageOrder::kColumnMajor,
                                DiskModel::touchstone_delta_cfs());
      runtime::OutOfCoreArray c(ctx, dir.path(), "c",
                                hpf::column_block(n, n, p), a_order,
                                DiskModel::touchstone_delta_cfs());
      a.initialize(ctx, gen_a, local);
      b.initialize(ctx, gen_b, local);
      sim::barrier(ctx);
      ctx.reset_accounting();
      gaxpy::GaxpyConfig config;
      config.slab_a_elements = local / 4;
      config.slab_b_elements = local / 4;
      config.slab_c_elements = local / 4;
      runtime::MemoryBudget budget(1 << 22);
      if (orient == runtime::SlabOrientation::kColumnSlabs) {
        gaxpy::ooc_gaxpy_column_slabs(ctx, a, b, c, budget, config);
      } else {
        gaxpy::ooc_gaxpy_row_slabs(ctx, a, b, c, budget, config);
      }
    });
    measured[idx] = report.max_sim_time_s();
    ++idx;
  }
  for (int i = 0; i < 2; ++i) {
    EXPECT_GT(predicted[i], measured[i] / 2) << "variant " << i;
    EXPECT_LT(predicted[i], measured[i] * 2) << "variant " << i;
  }
  EXPECT_GT(predicted[0], predicted[1]);
  EXPECT_GT(measured[0], measured[1]);
}

TEST(CompiledElementwise, ComputesExpectedValues) {
  const std::int64_t rows = 24;
  const std::int64_t cols = 16;
  const int p = 4;
  const std::int64_t alpha = 3;
  CompileOptions options;
  options.memory_budget_elements = 4096;
  const NodeProgram plan = compiler::compile_source(
      hpf::elementwise_source(rows, cols, p, alpha), options);

  TempDir dir;
  Machine machine(p, MachineCostModel::unit_test());
  machine.run([&](SpmdContext& ctx) {
    auto arrays = create_plan_arrays(ctx, plan, dir.path(),
                                     DiskModel::unit_test());
    arrays.at("x")->initialize(ctx, gen_a, 4096);
    ArrayBindings bindings;
    for (auto& [name, arr] : arrays) {
      bindings[name] = arr.get();
    }
    execute(ctx, plan, bindings);
    std::vector<double> got = arrays.at("y")->gather_global(ctx, 4096);
    if (ctx.rank() == 0) {
      for (std::int64_t c = 0; c < cols; ++c) {
        for (std::int64_t r = 0; r < rows; ++r) {
          // y = x*alpha + k where k is the 1-based column.
          const double want = gen_a(r, c) * static_cast<double>(alpha) +
                              static_cast<double>(c + 1);
          ASSERT_NEAR(got[static_cast<std::size_t>(c * rows + r)], want,
                      1e-12);
        }
      }
    }
  });
}

TEST(CompiledElementwise, InPlaceUpdateSupported) {
  // x = x*2 + 1: lhs appears on the rhs.
  const std::string src =
      "parameter (n=8, p=2)\n"
      "real x(n,n)\n"
      "!hpf$ processors Pr(p)\n"
      "!hpf$ template d(n)\n"
      "!hpf$ distribute d(block) onto Pr\n"
      "!hpf$ align (*,:) with d :: x\n"
      "forall (k=1:n)\n"
      "  x(1:n,k) = x(1:n,k)*2 + 1\n"
      "end forall\n"
      "end\n";
  CompileOptions options;
  options.memory_budget_elements = 4096;
  const NodeProgram plan = compiler::compile_source(src, options);
  TempDir dir;
  Machine machine(2, MachineCostModel::zero());
  machine.run([&](SpmdContext& ctx) {
    auto arrays = create_plan_arrays(ctx, plan, dir.path(),
                                     DiskModel::zero());
    arrays.at("x")->initialize(
        ctx, [](std::int64_t r, std::int64_t c) {
          return static_cast<double>(r + 10 * c);
        },
        4096);
    ArrayBindings bindings{{"x", arrays.at("x").get()}};
    execute(ctx, plan, bindings);
    std::vector<double> got = arrays.at("x")->gather_global(ctx, 4096);
    if (ctx.rank() == 0) {
      for (std::int64_t c = 0; c < 8; ++c) {
        for (std::int64_t r = 0; r < 8; ++r) {
          ASSERT_DOUBLE_EQ(got[static_cast<std::size_t>(c * 8 + r)],
                           static_cast<double>(r + 10 * c) * 2 + 1);
        }
      }
    }
  });
}

/// Bit-for-bit equality; any NaN matches any NaN.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b) ||
         (std::isnan(a) && std::isnan(b));
}

/// Compiles `lhs(1:n,k) = expr` over 10 rows (not a multiple of the
/// kernel's vector width) on 2 processors, with a budget of a few columns
/// so each rank computes several slabs; runs it with x = gen_a and returns
/// the gathered lhs.
std::vector<double> run_forall(const std::string& lhs,
                               const std::string& expr) {
  const std::string src =
      "parameter (n=10, p=2)\n"
      "real x(n,n), y(n,n)\n"
      "!hpf$ processors Pr(p)\n"
      "!hpf$ template d(n)\n"
      "!hpf$ distribute d(block) onto Pr\n"
      "!hpf$ align (*,:) with d :: x, y\n"
      "forall (k=1:n)\n"
      "  " + lhs + "(1:n,k) = " + expr + "\n"
      "end forall\n"
      "end\n";
  CompileOptions options;
  options.memory_budget_elements = 40;
  const NodeProgram plan = compiler::compile_source(src, options);
  // Each rank owns 5 columns of 10 rows; the budget must split them.
  EXPECT_LT(plan.loops.front().capacity_elements, 5 * 10);
  std::vector<double> got;
  TempDir dir;
  Machine machine(2, MachineCostModel::zero());
  machine.run([&](SpmdContext& ctx) {
    auto arrays = create_plan_arrays(ctx, plan, dir.path(),
                                     DiskModel::zero());
    if (arrays.contains("x")) {  // pure-index expressions reference no input
      arrays.at("x")->initialize(ctx, gen_a, 4096);
    }
    ArrayBindings bindings;
    for (auto& [name, arr] : arrays) {
      bindings[name] = arr.get();
    }
    execute(ctx, plan, bindings);
    std::vector<double> all = arrays.at(lhs)->gather_global(ctx, 4096);
    if (ctx.rank() == 0) {
      got = std::move(all);
    }
  });
  return got;
}

/// Checks every element of `got` (10 x 10, column-major) bit for bit
/// against `want(x, k)` evaluated element at a time.
template <typename Want>
void expect_elementwise(const std::vector<double>& got, const Want& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), 100u) << what;
  for (std::int64_t c = 0; c < 10; ++c) {
    for (std::int64_t r = 0; r < 10; ++r) {
      const double w = want(gen_a(r, c), static_cast<double>(c + 1));
      const double g = got[static_cast<std::size_t>(c * 10 + r)];
      ASSERT_TRUE(same_bits(g, w))
          << what << " at (" << r << "," << c << "): " << g << " vs " << w;
    }
  }
}

class ElementwiseExprTest : public ::testing::TestWithParam<const char*> {};

INSTANTIATE_TEST_SUITE_P(
    Expressions, ElementwiseExprTest,
    ::testing::Values("x(1:n,k)*2 + 1", "x(1:n,k) - x(1:n,k)/2",
                      "(x(1:n,k) + k)*(x(1:n,k) - k)", "k*k - 3",
                      "x(1:n,k)*x(1:n,k)*x(1:n,k)", "0 - x(1:n,k)",
                      "2 - x(1:n,k)", "x(1:n,k)", "x(1:n,k)/k",
                      "x(1:n,k) - (x(1:n,k)*3 - (x(1:n,k)/k - (x(1:n,k) + "
                      "(k - x(1:n,k)))))"));

TEST_P(ElementwiseExprTest, InterpreterMatchesDirectEvaluation) {
  // Compile y = <expr> and check every element bit for bit against a
  // direct C++ evaluation of the same expression. The shapes cover each
  // path of the column kernel: a constant on either side, a leaf rhs, an
  // all-scalar rhs, division by the index and a right-leaning tree that
  // needs a temporary per nesting level.
  using Direct = double (*)(double, double);
  static const std::map<std::string, Direct> kDirect = {
      {"x(1:n,k)*2 + 1", [](double x, double) { return x * 2 + 1; }},
      {"x(1:n,k) - x(1:n,k)/2", [](double x, double) { return x - x / 2; }},
      {"(x(1:n,k) + k)*(x(1:n,k) - k)",
       [](double x, double k) { return (x + k) * (x - k); }},
      {"k*k - 3", [](double, double k) { return k * k - 3; }},
      {"x(1:n,k)*x(1:n,k)*x(1:n,k)",
       [](double x, double) { return x * x * x; }},
      {"0 - x(1:n,k)", [](double x, double) { return 0 - x; }},
      {"2 - x(1:n,k)", [](double x, double) { return 2 - x; }},
      {"x(1:n,k)", [](double x, double) { return x; }},
      {"x(1:n,k)/k", [](double x, double k) { return x / k; }},
      {"x(1:n,k) - (x(1:n,k)*3 - (x(1:n,k)/k - (x(1:n,k) + "
       "(k - x(1:n,k)))))",
       [](double x, double k) {
         return x - (x * 3 - (x / k - (x + (k - x))));
       }},
  };
  const std::string expr = GetParam();
  expect_elementwise(run_forall("y", expr), kDirect.at(expr), expr);
}

TEST(CompiledElementwise, InPlaceColumnKernelIsBitExact) {
  // x = x*2 + x: the root loop writes x's column while its right operand
  // is that same column, and the left one is a temporary computed from it.
  expect_elementwise(run_forall("x", "x(1:n,k)*2 + x(1:n,k)"),
                     [](double x, double) { return x * 2 + x; },
                     "x = x*2 + x");
}

/// A random rhs over x(1:n,k), small integers and the index k: its HPF
/// text, fully parenthesized, and an element-at-a-time evaluator of the
/// same tree (left operand, right operand, op).
struct RandomRhs {
  std::string text;
  std::function<double(double, double)> eval;
};

RandomRhs random_rhs(std::mt19937& rng, int depth) {
  const unsigned pick = static_cast<unsigned>(rng() % (depth == 0 ? 3 : 7));
  if (pick == 0) {
    return {"x(1:n,k)", [](double x, double) { return x; }};
  }
  if (pick == 1) {
    const int v = static_cast<int>(1 + rng() % 9);
    return {std::to_string(v), [v](double, double) { return v; }};
  }
  if (pick == 2) {
    return {"k", [](double, double k) { return k; }};
  }
  const RandomRhs a = random_rhs(rng, depth - 1);
  const RandomRhs b = random_rhs(rng, depth - 1);
  const char op = "+-*/"[pick - 3];
  return {"(" + a.text + ")" + op + "(" + b.text + ")",
          [a, b, op](double x, double k) {
            const double l = a.eval(x, k);
            const double r = b.eval(x, k);
            switch (op) {
              case '+':
                return l + r;
              case '-':
                return l - r;
              case '*':
                return l * r;
              default:
                return l / r;
            }
          }};
}

TEST(CompiledElementwise, SeededRhsTreesMatchElementAtATime) {
  for (unsigned seed = 1; seed <= 24; ++seed) {
    std::mt19937 rng(seed);
    const RandomRhs rhs = random_rhs(rng, 4);
    expect_elementwise(run_forall("y", rhs.text), rhs.eval,
                       "seed " + std::to_string(seed) + ": " + rhs.text);
  }
}

TEST(CompiledSequence, ChainedStatementsFlowThroughDisk) {
  // Three dependent elementwise statements: w must reflect the chain
  // y = x*2 + 1; z = y*y; w = z - x. Fusion is disabled so each statement
  // keeps its own plan and the dependencies flow through the LAFs.
  const std::string src =
      "parameter (n=12, p=3)\n"
      "real x(n,n), y(n,n), z(n,n), w(n,n)\n"
      "!hpf$ processors Pr(p)\n"
      "!hpf$ template d(n)\n"
      "!hpf$ distribute d(block) onto Pr\n"
      "!hpf$ align (*,:) with d :: x, y, z, w\n"
      "forall (k=1:n)\n"
      "  y(1:n,k) = x(1:n,k)*2 + 1\n"
      "end forall\n"
      "forall (k=1:n)\n"
      "  z(1:n,k) = y(1:n,k)*y(1:n,k)\n"
      "end forall\n"
      "w(1:n,1:n) = z(1:n,1:n) - x(1:n,1:n)\n"
      "end\n";
  CompileOptions options;
  options.memory_budget_elements = 4096;
  options.enable_statement_fusion = false;
  const std::vector<NodeProgram> plans =
      compiler::compile_sequence_source(src, options);
  ASSERT_EQ(plans.size(), 3u);

  TempDir dir;
  Machine machine(3, MachineCostModel::zero());
  machine.run([&](SpmdContext& ctx) {
    auto arrays = create_sequence_arrays(
        ctx, std::span<const NodeProgram>(plans.data(), plans.size()),
        dir.path(), DiskModel::zero());
    arrays.at("x")->initialize(ctx, gen_a, 4096);
    ArrayBindings bindings;
    for (auto& [name, arr] : arrays) {
      bindings[name] = arr.get();
    }
    execute_sequence(
        ctx, std::span<const NodeProgram>(plans.data(), plans.size()),
        bindings);
    std::vector<double> got = arrays.at("w")->gather_global(ctx, 4096);
    if (ctx.rank() == 0) {
      for (std::int64_t c = 0; c < 12; ++c) {
        for (std::int64_t r = 0; r < 12; ++r) {
          const double x = gen_a(r, c);
          const double y = x * 2 + 1;
          ASSERT_NEAR(got[static_cast<std::size_t>(c * 12 + r)], y * y - x,
                      1e-12);
        }
      }
    }
  });
}

TEST(CompiledSequence, SingleGaxpyCompilesThroughSequencePath) {
  CompileOptions options;
  options.memory_budget_elements = 1 << 14;
  const std::vector<NodeProgram> plans =
      compiler::compile_sequence_source(hpf::gaxpy_source(32, 2), options);
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans[0].kind, compiler::ProgramKind::kGaxpy);
}

TEST(CompiledSequence, DiagnosticNamesFailingStatement) {
  const std::string src =
      "parameter (n=8, p=2)\n"
      "real x(n,n), y(n,n)\n"
      "!hpf$ processors Pr(p)\n"
      "!hpf$ template d(n)\n"
      "!hpf$ distribute d(block) onto Pr\n"
      "!hpf$ align (*,:) with d :: x, y\n"
      "forall (k=1:n)\n"
      "  y(1:n,k) = x(1:n,k)\n"
      "end forall\n"
      "y(1:n,2:5) = x(1:n,2:5)\n"  // partial section: unsupported
      "end\n";
  CompileOptions options;
  options.memory_budget_elements = 4096;
  try {
    compiler::compile_sequence_source(src, options);
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCompileError);
    EXPECT_NE(std::string(e.what()).find("statement 2"), std::string::npos);
  }
}

TEST(ExecTest, BindingValidation) {
  CompileOptions options;
  options.memory_budget_elements = 4096;
  const NodeProgram plan =
      compiler::compile_source(hpf::gaxpy_source(16, 2), options);
  TempDir dir;
  Machine machine(2, MachineCostModel::zero());

  // Missing binding.
  EXPECT_THROW(machine.run([&](SpmdContext& ctx) {
                 (void)ctx;
                 ArrayBindings empty;
                 execute(ctx, plan, empty);
               }),
               Error);

  // Wrong storage order (plan wants A row-major).
  EXPECT_THROW(
      machine.run([&](SpmdContext& ctx) {
        runtime::OutOfCoreArray a(ctx, dir.path(), "a",
                                  hpf::column_block(16, 16, 2),
                                  io::StorageOrder::kColumnMajor,
                                  DiskModel::zero());
        runtime::OutOfCoreArray b(ctx, dir.path(), "b",
                                  hpf::row_block(16, 16, 2),
                                  io::StorageOrder::kColumnMajor,
                                  DiskModel::zero());
        runtime::OutOfCoreArray c(ctx, dir.path(), "c",
                                  hpf::column_block(16, 16, 2),
                                  io::StorageOrder::kRowMajor,
                                  DiskModel::zero());
        ArrayBindings bindings{{"a", &a}, {"b", &b}, {"c", &c}};
        execute(ctx, plan, bindings);
      }),
      Error);

  // Wrong machine size.
  Machine wrong(4, MachineCostModel::zero());
  EXPECT_THROW(wrong.run([&](SpmdContext& ctx) {
                 ArrayBindings empty;
                 execute(ctx, plan, empty);
               }),
               Error);
}

}  // namespace
}  // namespace oocc::exec
