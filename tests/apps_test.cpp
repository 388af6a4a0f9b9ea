// Tests for the application kernels built on the out-of-core runtime:
// the 2-D Jacobi solver (correctness across processor counts and slab
// sizes, boundary invariants, convergence behaviour) and the left-looking
// out-of-core LU factorization.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <type_traits>

#include "oocc/apps/jacobi.hpp"
#include "oocc/apps/lu.hpp"
#include "oocc/sim/collectives.hpp"

namespace oocc::apps {
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

// gtest prints a parameter type that has no PrintTo overload as its raw
// bytes, and CTest builds each case name from that dump. The `pad` fields
// occupy what would otherwise be alignment padding, so every printed byte
// is initialised and a case has the same name in every build.
struct JacobiCase {
  JacobiCase(int p, std::int64_t size, int iters, int div)
      : nprocs(p), n(size), iterations(iters), slab_div(div) {}
  int nprocs;
  std::int32_t pad = 0;
  std::int64_t n;
  int iterations;
  int slab_div;  // slab = local / slab_div
};
static_assert(std::has_unique_object_representations_v<JacobiCase>);

class JacobiTest : public ::testing::TestWithParam<JacobiCase> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, JacobiTest,
    ::testing::Values(JacobiCase{1, 16, 3, 1}, JacobiCase{2, 16, 5, 2},
                      JacobiCase{4, 16, 5, 4}, JacobiCase{4, 32, 8, 2},
                      JacobiCase{3, 18, 4, 3},  // non-power-of-two procs
                      JacobiCase{4, 32, 1, 8}),
    [](const ::testing::TestParamInfo<JacobiCase>& info) {
      return "p" + std::to_string(info.param.nprocs) + "_n" +
             std::to_string(info.param.n) + "_it" +
             std::to_string(info.param.iterations) + "_d" +
             std::to_string(info.param.slab_div);
    });

TEST_P(JacobiTest, MatchesSerialReference) {
  const JacobiCase tc = GetParam();
  TempDir dir;
  Machine machine(tc.nprocs, MachineCostModel::zero());
  machine.run([&](SpmdContext& ctx) {
    runtime::OutOfCoreArray a(ctx, dir.path(), "a",
                              hpf::column_block(tc.n, tc.n, tc.nprocs),
                              StorageOrder::kColumnMajor, DiskModel::zero());
    runtime::OutOfCoreArray b(ctx, dir.path(), "b",
                              hpf::column_block(tc.n, tc.n, tc.nprocs),
                              StorageOrder::kColumnMajor, DiskModel::zero());
    a.initialize(ctx, hot_edge, tc.n * tc.n);
    const std::int64_t slab = std::max<std::int64_t>(
        tc.n, a.local_elements() / tc.slab_div);
    runtime::OutOfCoreArray& final_state =
        ooc_jacobi(ctx, a, b, tc.iterations, slab);
    std::vector<double> got = final_state.gather_global(ctx, tc.n * tc.n);
    if (ctx.rank() == 0) {
      const std::vector<double> want =
          serial_jacobi(tc.n, tc.iterations, hot_edge);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_NEAR(got[i], want[i], 1e-12) << "i=" << i;
      }
    }
  });
}

TEST(JacobiTest, BoundaryValuesAreInvariant) {
  const std::int64_t n = 16;
  TempDir dir;
  Machine machine(4, MachineCostModel::zero());
  machine.run([&](SpmdContext& ctx) {
    runtime::OutOfCoreArray a(ctx, dir.path(), "a",
                              hpf::column_block(n, n, 4),
                              StorageOrder::kColumnMajor, DiskModel::zero());
    runtime::OutOfCoreArray b(ctx, dir.path(), "b",
                              hpf::column_block(n, n, 4),
                              StorageOrder::kColumnMajor, DiskModel::zero());
    a.initialize(ctx, hot_edge, n * n);
    runtime::OutOfCoreArray& fin = ooc_jacobi(ctx, a, b, 7, n * 2);
    std::vector<double> got = fin.gather_global(ctx, n * n);
    if (ctx.rank() == 0) {
      for (std::int64_t r = 0; r < n; ++r) {
        EXPECT_DOUBLE_EQ(got[static_cast<std::size_t>(r)], hot_edge(r, 0));
        EXPECT_DOUBLE_EQ(got[static_cast<std::size_t>((n - 1) * n + r)],
                         hot_edge(r, n - 1));
      }
      for (std::int64_t c = 0; c < n; ++c) {
        EXPECT_DOUBLE_EQ(got[static_cast<std::size_t>(c * n)],
                         hot_edge(0, c));
        EXPECT_DOUBLE_EQ(got[static_cast<std::size_t>(c * n + n - 1)],
                         hot_edge(n - 1, c));
      }
    }
  });
}

TEST(JacobiTest, ConvergesTowardHarmonicInterior) {
  // With fixed boundaries, repeated sweeps approach the discrete harmonic
  // solution: the max interior update magnitude must shrink.
  const std::int64_t n = 16;
  TempDir dir;
  Machine machine(2, MachineCostModel::zero());
  machine.run([&](SpmdContext& ctx) {
    runtime::OutOfCoreArray a(ctx, dir.path(), "a",
                              hpf::column_block(n, n, 2),
                              StorageOrder::kColumnMajor, DiskModel::zero());
    runtime::OutOfCoreArray b(ctx, dir.path(), "b",
                              hpf::column_block(n, n, 2),
                              StorageOrder::kColumnMajor, DiskModel::zero());
    a.initialize(ctx, hot_edge, n * n);
    runtime::OutOfCoreArray& s10 = ooc_jacobi(ctx, a, b, 10, n * 2);
    std::vector<double> at10 = s10.gather_global(ctx, n * n);
    // 10 more iterations continuing from the current state.
    runtime::OutOfCoreArray& other = &s10 == &a ? b : a;
    runtime::OutOfCoreArray& s20 = ooc_jacobi(ctx, s10, other, 10, n * 2);
    std::vector<double> at20 = s20.gather_global(ctx, n * n);
    if (ctx.rank() == 0) {
      const std::vector<double> exact = serial_jacobi(n, 500, hot_edge);
      double err10 = 0.0;
      double err20 = 0.0;
      for (std::size_t i = 0; i < exact.size(); ++i) {
        err10 = std::max(err10, std::abs(at10[i] - exact[i]));
        err20 = std::max(err20, std::abs(at20[i] - exact[i]));
      }
      EXPECT_LT(err20, err10);
    }
  });
}

TEST(JacobiTest, MismatchedDistributionsRejected) {
  TempDir dir;
  Machine machine(2, MachineCostModel::zero());
  EXPECT_THROW(machine.run([&](SpmdContext& ctx) {
                 runtime::OutOfCoreArray a(
                     ctx, dir.path(), "a", hpf::column_block(8, 8, 2),
                     StorageOrder::kColumnMajor, DiskModel::zero());
                 runtime::OutOfCoreArray b(
                     ctx, dir.path(), "b", hpf::row_block(8, 8, 2),
                     StorageOrder::kColumnMajor, DiskModel::zero());
                 ooc_jacobi_iteration(ctx, a, b, 64);
               }),
               Error);
}

TEST(JacobiTest, SlabSizeDoesNotChangeResults) {
  const std::int64_t n = 16;
  std::vector<double> results[2];
  for (int which = 0; which < 2; ++which) {
    TempDir dir;
    Machine machine(4, MachineCostModel::zero());
    machine.run([&](SpmdContext& ctx) {
      runtime::OutOfCoreArray a(ctx, dir.path(), "a",
                                hpf::column_block(n, n, 4),
                                StorageOrder::kColumnMajor,
                                DiskModel::zero());
      runtime::OutOfCoreArray b(ctx, dir.path(), "b",
                                hpf::column_block(n, n, 4),
                                StorageOrder::kColumnMajor,
                                DiskModel::zero());
      a.initialize(ctx, hot_edge, n * n);
      const std::int64_t slab = which == 0 ? n : n * 4;  // 1 col vs whole
      runtime::OutOfCoreArray& fin = ooc_jacobi(ctx, a, b, 6, slab);
      std::vector<double> got = fin.gather_global(ctx, n * n);
      if (ctx.rank() == 0) {
        results[which] = std::move(got);
      }
    });
  }
  ASSERT_EQ(results[0].size(), results[1].size());
  for (std::size_t i = 0; i < results[0].size(); ++i) {
    EXPECT_DOUBLE_EQ(results[0][i], results[1][i]);
  }
}

// ---------------------------------------------------------------------
// Out-of-core LU factorization

double lu_matrix(std::int64_t r, std::int64_t c) {
  // Diagonally dominant: safe for LU without pivoting.
  const double off = std::sin(static_cast<double>(r * 7 + c * 3)) * 0.5;
  return r == c ? 64.0 + off : off;
}

// `pad` keeps the printed parameter bytes initialised (see JacobiCase).
struct LuCase {
  LuCase(int p, std::int64_t size, std::int64_t width)
      : nprocs(p), n(size), panel_cols(width) {}
  int nprocs;
  std::int32_t pad = 0;
  std::int64_t n;
  std::int64_t panel_cols;
};
static_assert(std::has_unique_object_representations_v<LuCase>);

class LuTest : public ::testing::TestWithParam<LuCase> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, LuTest,
    ::testing::Values(LuCase{1, 16, 4}, LuCase{1, 16, 16}, LuCase{2, 16, 4},
                      LuCase{4, 16, 2}, LuCase{4, 32, 4}, LuCase{2, 24, 5}),
    [](const ::testing::TestParamInfo<LuCase>& info) {
      return "p" + std::to_string(info.param.nprocs) + "_n" +
             std::to_string(info.param.n) + "_w" +
             std::to_string(info.param.panel_cols);
    });

TEST_P(LuTest, MatchesSerialFactorization) {
  const LuCase tc = GetParam();
  TempDir dir;
  Machine machine(tc.nprocs, MachineCostModel::zero());
  machine.run([&](SpmdContext& ctx) {
    runtime::OutOfCoreArray a(ctx, dir.path(), "a",
                              hpf::column_block(tc.n, tc.n, tc.nprocs),
                              StorageOrder::kColumnMajor, DiskModel::zero());
    a.initialize(ctx, lu_matrix, tc.n * tc.n);
    runtime::MemoryBudget budget(4 * tc.n * tc.panel_cols + 16);
    ooc_lu_factor(ctx, a, budget, tc.panel_cols);
    std::vector<double> got = a.gather_global(ctx, tc.n * tc.n);
    if (ctx.rank() == 0) {
      std::vector<double> want(static_cast<std::size_t>(tc.n * tc.n));
      for (std::int64_t c = 0; c < tc.n; ++c) {
        for (std::int64_t r = 0; r < tc.n; ++r) {
          want[static_cast<std::size_t>(c * tc.n + r)] = lu_matrix(r, c);
        }
      }
      serial_lu(want, tc.n);
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_NEAR(got[i], want[i], 1e-9) << "i=" << i;
      }
    }
  });
}

TEST(LuTest, FactorsReconstructTheMatrix) {
  // L (unit lower) times U must reproduce the original matrix.
  const std::int64_t n = 24;
  TempDir dir;
  Machine machine(4, MachineCostModel::zero());
  machine.run([&](SpmdContext& ctx) {
    runtime::OutOfCoreArray a(ctx, dir.path(), "a",
                              hpf::column_block(n, n, 4),
                              StorageOrder::kColumnMajor, DiskModel::zero());
    a.initialize(ctx, lu_matrix, n * n);
    runtime::MemoryBudget budget(1 << 16);
    ooc_lu_factor(ctx, a, budget, 3);
    std::vector<double> lu = a.gather_global(ctx, n * n);
    if (ctx.rank() == 0) {
      auto at = [&](std::int64_t r, std::int64_t c) {
        return lu[static_cast<std::size_t>(c * n + r)];
      };
      for (std::int64_t c = 0; c < n; ++c) {
        for (std::int64_t r = 0; r < n; ++r) {
          double sum = 0.0;
          const std::int64_t kmax = std::min(r, c);
          for (std::int64_t k = 0; k < kmax; ++k) {
            sum += at(r, k) * at(k, c);  // L(r,k) * U(k,c)
          }
          // Diagonal of L is implicit 1.
          sum += r <= c ? at(r, c) : at(r, c) * at(c, c);
          ASSERT_NEAR(sum, lu_matrix(r, c), 1e-8)
              << "(" << r << "," << c << ")";
        }
      }
    }
  });
}

TEST(LuTest, ZeroPivotReported) {
  TempDir dir;
  Machine machine(2, MachineCostModel::zero());
  try {
    machine.run([&](SpmdContext& ctx) {
      runtime::OutOfCoreArray a(ctx, dir.path(), "a",
                                hpf::column_block(8, 8, 2),
                                StorageOrder::kColumnMajor,
                                DiskModel::zero());
      a.initialize(ctx, [](std::int64_t, std::int64_t) { return 0.0; }, 64);
      runtime::MemoryBudget budget(1 << 12);
      ooc_lu_factor(ctx, a, budget, 2);
    });
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kRuntimeError);
    EXPECT_NE(std::string(e.what()).find("pivot"), std::string::npos);
  }
}

TEST(LuTest, RejectsNonColumnBlockLayouts) {
  TempDir dir;
  Machine machine(2, MachineCostModel::zero());
  EXPECT_THROW(machine.run([&](SpmdContext& ctx) {
                 runtime::OutOfCoreArray a(
                     ctx, dir.path(), "a", hpf::row_block(8, 8, 2),
                     StorageOrder::kColumnMajor, DiskModel::zero());
                 runtime::MemoryBudget budget(1 << 12);
                 ooc_lu_factor(ctx, a, budget, 2);
               }),
               Error);
}

TEST(LuTest, PanelWidthDoesNotChangeResult) {
  const std::int64_t n = 16;
  std::vector<double> results[2];
  for (int which = 0; which < 2; ++which) {
    TempDir dir;
    Machine machine(2, MachineCostModel::zero());
    machine.run([&](SpmdContext& ctx) {
      runtime::OutOfCoreArray a(ctx, dir.path(), "a",
                                hpf::column_block(n, n, 2),
                                StorageOrder::kColumnMajor,
                                DiskModel::zero());
      a.initialize(ctx, lu_matrix, n * n);
      runtime::MemoryBudget budget(1 << 16);
      ooc_lu_factor(ctx, a, budget, which == 0 ? 2 : 8);
      std::vector<double> got = a.gather_global(ctx, n * n);
      if (ctx.rank() == 0) {
        results[which] = std::move(got);
      }
    });
  }
  for (std::size_t i = 0; i < results[0].size(); ++i) {
    EXPECT_NEAR(results[0][i], results[1][i], 1e-10);
  }
}

}  // namespace
}  // namespace oocc::apps
