// Integration tests for the GAXPY kernels: numerical correctness against
// the serial reference across processor counts and slab ratios, and exact
// verification of the paper's I/O-cost formulas (Equations 3-6).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <type_traits>

#include "oocc/gaxpy/gaxpy.hpp"
#include "oocc/runtime/redistribute.hpp"
#include "oocc/sim/collectives.hpp"

namespace oocc::gaxpy {
namespace {

using hpf::column_block;
using hpf::row_block;
using io::DiskModel;
using io::StorageOrder;
using io::TempDir;
using runtime::MemoryBudget;
using runtime::OutOfCoreArray;
using sim::Machine;
using sim::MachineCostModel;
using sim::SpmdContext;

double gen_a(std::int64_t r, std::int64_t c) {
  return std::sin(static_cast<double>(r * 31 + c * 7)) + 2.0;
}

double gen_b(std::int64_t r, std::int64_t c) {
  return std::cos(static_cast<double>(r * 13 + c * 3)) - 0.5;
}

std::vector<double> dense_from(
    std::int64_t n, const std::function<double(std::int64_t, std::int64_t)>& f) {
  std::vector<double> m(static_cast<std::size_t>(n * n));
  for (std::int64_t c = 0; c < n; ++c) {
    for (std::int64_t r = 0; r < n; ++r) {
      m[static_cast<std::size_t>(c * n + r)] = f(r, c);
    }
  }
  return m;
}

enum class Kernel { kColumnSlabs, kRowSlabs, kInCore };

// gtest prints a parameter type that has no PrintTo overload as its raw
// bytes, and CTest builds each case name from that dump. The `pad` fields
// occupy what would otherwise be alignment padding, so every printed byte
// is initialised and a case has the same name in every build.
struct Case {
  Case(Kernel k, int p, std::int64_t size, std::int64_t den, StorageOrder o)
      : kernel(k), nprocs(p), n(size), slab_ratio_den(den), a_order(o) {}
  Kernel kernel;
  int nprocs;
  std::int64_t n;
  std::int64_t slab_ratio_den;  // slab = local elements / den
  StorageOrder a_order;
  std::int32_t pad = 0;
};
static_assert(std::has_unique_object_representations_v<Case>);

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  std::string k = c.kernel == Kernel::kColumnSlabs ? "col"
                  : c.kernel == Kernel::kRowSlabs  ? "row"
                                                   : "incore";
  std::string o =
      c.a_order == StorageOrder::kColumnMajor ? "cmaj" : "rmaj";
  return k + "_p" + std::to_string(c.nprocs) + "_n" + std::to_string(c.n) +
         "_d" + std::to_string(c.slab_ratio_den) + "_" + o;
}

class GaxpyCorrectness : public ::testing::TestWithParam<Case> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, GaxpyCorrectness,
    ::testing::Values(
        Case{Kernel::kColumnSlabs, 1, 8, 1, StorageOrder::kColumnMajor},
        Case{Kernel::kColumnSlabs, 2, 8, 2, StorageOrder::kColumnMajor},
        Case{Kernel::kColumnSlabs, 4, 16, 4, StorageOrder::kColumnMajor},
        Case{Kernel::kColumnSlabs, 4, 16, 8, StorageOrder::kColumnMajor},
        Case{Kernel::kColumnSlabs, 4, 20, 4, StorageOrder::kColumnMajor},
        Case{Kernel::kRowSlabs, 1, 8, 1, StorageOrder::kRowMajor},
        Case{Kernel::kRowSlabs, 2, 8, 2, StorageOrder::kRowMajor},
        Case{Kernel::kRowSlabs, 4, 16, 4, StorageOrder::kRowMajor},
        Case{Kernel::kRowSlabs, 4, 16, 8, StorageOrder::kRowMajor},
        Case{Kernel::kRowSlabs, 4, 16, 4, StorageOrder::kColumnMajor},
        Case{Kernel::kRowSlabs, 4, 20, 4, StorageOrder::kRowMajor},
        Case{Kernel::kInCore, 1, 8, 1, StorageOrder::kColumnMajor},
        Case{Kernel::kInCore, 4, 16, 1, StorageOrder::kColumnMajor}),
    case_name);

TEST_P(GaxpyCorrectness, MatchesSerialReference) {
  const Case& tc = GetParam();
  TempDir dir;
  Machine machine(tc.nprocs, MachineCostModel::unit_test());
  machine.run([&](SpmdContext& ctx) {
    const std::int64_t n = tc.n;
    OutOfCoreArray a(ctx, dir.path(), "a", column_block(n, n, tc.nprocs),
                     tc.a_order, DiskModel::unit_test());
    OutOfCoreArray b(ctx, dir.path(), "b", row_block(n, n, tc.nprocs),
                     StorageOrder::kColumnMajor, DiskModel::unit_test());
    OutOfCoreArray c(ctx, dir.path(), "c", column_block(n, n, tc.nprocs),
                     StorageOrder::kColumnMajor, DiskModel::unit_test());
    a.initialize(ctx, gen_a, n * n);
    b.initialize(ctx, gen_b, n * n);

    const std::int64_t local = a.local_elements();
    const std::int64_t slab = std::max<std::int64_t>(
        1, local / tc.slab_ratio_den);
    GaxpyConfig config;
    config.slab_a_elements = slab;
    config.slab_b_elements = slab;
    config.slab_c_elements = slab;

    MemoryBudget budget(8 * local + 4 * n);
    switch (tc.kernel) {
      case Kernel::kColumnSlabs:
        ooc_gaxpy_column_slabs(ctx, a, b, c, budget, config);
        break;
      case Kernel::kRowSlabs:
        ooc_gaxpy_row_slabs(ctx, a, b, c, budget, config);
        break;
      case Kernel::kInCore:
        in_core_gaxpy(ctx, a, b, c);
        break;
    }

    std::vector<double> got = c.gather_global(ctx, n * n);
    if (ctx.rank() == 0) {
      const std::vector<double> want =
          serial_matmul(dense_from(n, gen_a), dense_from(n, gen_b), n);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_NEAR(got[i], want[i], 1e-9) << "element " << i;
      }
    }
  });
}

// ---------------------------------------------------------------------
// Equations 3-6: exact request/byte counts per processor.

TEST(GaxpyCostTest, ColumnSlabVersionMatchesEquations3And4) {
  // N = 16, P = 4, M = 2 columns of A = 32 elements.
  const std::int64_t n = 16;
  const int p = 4;
  const std::int64_t m = 2 * n;  // slab elements
  TempDir dir;
  Machine machine(p, MachineCostModel::zero());
  machine.run([&](SpmdContext& ctx) {
    OutOfCoreArray a(ctx, dir.path(), "a", column_block(n, n, p),
                     StorageOrder::kColumnMajor, DiskModel::zero());
    OutOfCoreArray b(ctx, dir.path(), "b", row_block(n, n, p),
                     StorageOrder::kColumnMajor, DiskModel::zero());
    OutOfCoreArray c(ctx, dir.path(), "c", column_block(n, n, p),
                     StorageOrder::kColumnMajor, DiskModel::zero());
    a.initialize(ctx, gen_a, n * n);
    b.initialize(ctx, gen_b, n * n);
    a.laf().reset_stats();
    b.laf().reset_stats();

    GaxpyConfig config;
    config.slab_a_elements = m;
    config.slab_b_elements = m;
    config.slab_c_elements = m;
    MemoryBudget budget(1 << 20);
    ooc_gaxpy_column_slabs(ctx, a, b, c, budget, config);

    // Equation 3: T_fetch(A) = N^3 / (M * P) requests per processor.
    const auto expected_fetch = static_cast<std::uint64_t>(
        (n * n * n) / (m * p));
    EXPECT_EQ(a.laf().stats().read_requests, expected_fetch);
    // Equation 4: T_data(A) = N^3 / P elements per processor.
    EXPECT_EQ(a.laf().stats().bytes_read,
              static_cast<std::uint64_t>(n * n * n / p) * sizeof(double));
    // B is read exactly once: N^2/P elements in N^2/(M*P) requests.
    EXPECT_EQ(b.laf().stats().read_requests,
              static_cast<std::uint64_t>((n * n) / (m * p)));
    EXPECT_EQ(b.laf().stats().bytes_read,
              static_cast<std::uint64_t>(n * n / p) * sizeof(double));
    // C is written exactly once.
    EXPECT_EQ(c.laf().stats().bytes_written,
              static_cast<std::uint64_t>(n * n / p) * sizeof(double));
  });
}

TEST(GaxpyCostTest, RowSlabVersionMatchesEquations5And6) {
  const std::int64_t n = 16;
  const int p = 4;
  const std::int64_t m = 2 * n;  // same slab size as the column test
  TempDir dir;
  Machine machine(p, MachineCostModel::zero());
  machine.run([&](SpmdContext& ctx) {
    // Row-slab A is paired with row-major storage by the compiler; then
    // each slab is one contiguous request.
    OutOfCoreArray a(ctx, dir.path(), "a", column_block(n, n, p),
                     StorageOrder::kRowMajor, DiskModel::zero());
    OutOfCoreArray b(ctx, dir.path(), "b", row_block(n, n, p),
                     StorageOrder::kColumnMajor, DiskModel::zero());
    OutOfCoreArray c(ctx, dir.path(), "c", column_block(n, n, p),
                     StorageOrder::kRowMajor, DiskModel::zero());
    a.initialize(ctx, gen_a, n * n);
    b.initialize(ctx, gen_b, n * n);
    a.laf().reset_stats();
    b.laf().reset_stats();

    GaxpyConfig config;
    config.slab_a_elements = m;
    config.slab_b_elements = m;
    config.slab_c_elements = m;
    MemoryBudget budget(1 << 20);
    ooc_gaxpy_row_slabs(ctx, a, b, c, budget, config);

    // Equation 5: T_fetch(A) = N^2 / (M * P) requests per processor.
    EXPECT_EQ(a.laf().stats().read_requests,
              static_cast<std::uint64_t>((n * n) / (m * p)));
    // Equation 6: T_data(A) = N^2 / P elements per processor.
    EXPECT_EQ(a.laf().stats().bytes_read,
              static_cast<std::uint64_t>(n * n / p) * sizeof(double));
    // B is re-read once per A slab (Figure 12's loop nest).
    const std::uint64_t a_slabs =
        static_cast<std::uint64_t>((n * n) / (m * p));
    EXPECT_EQ(b.laf().stats().bytes_read,
              a_slabs * static_cast<std::uint64_t>(n * n / p) *
                  sizeof(double));
  });
}

TEST(GaxpyCostTest, RowSlabOrderOfMagnitudeCheaperThanColumnSlab) {
  // The paper's headline: same slab size, same machine — the reorganized
  // access pattern does ~N/(slabs...) less A I/O. Verify the ratio is
  // exactly N (requests and bytes) for square blocks.
  const std::int64_t n = 32;
  const int p = 4;
  const std::int64_t m = 2 * n;
  TempDir dir;
  Machine machine(p, MachineCostModel::zero());
  machine.run([&](SpmdContext& ctx) {
    OutOfCoreArray a1(ctx, dir.path(), "a1", column_block(n, n, p),
                      StorageOrder::kColumnMajor, DiskModel::zero());
    OutOfCoreArray a2(ctx, dir.path(), "a2", column_block(n, n, p),
                      StorageOrder::kRowMajor, DiskModel::zero());
    OutOfCoreArray b(ctx, dir.path(), "b", row_block(n, n, p),
                     StorageOrder::kColumnMajor, DiskModel::zero());
    OutOfCoreArray c(ctx, dir.path(), "c", column_block(n, n, p),
                     StorageOrder::kColumnMajor, DiskModel::zero());
    a1.initialize(ctx, gen_a, n * n);
    a2.initialize(ctx, gen_a, n * n);
    b.initialize(ctx, gen_b, n * n);
    a1.laf().reset_stats();
    a2.laf().reset_stats();

    GaxpyConfig config;
    config.slab_a_elements = m;
    config.slab_b_elements = m;
    config.slab_c_elements = m;
    MemoryBudget budget(1 << 22);
    ooc_gaxpy_column_slabs(ctx, a1, b, c, budget, config);
    ooc_gaxpy_row_slabs(ctx, a2, b, c, budget, config);

    EXPECT_EQ(a1.laf().stats().read_requests,
              a2.laf().stats().read_requests * static_cast<std::uint64_t>(n));
    EXPECT_EQ(a1.laf().stats().bytes_read,
              a2.laf().stats().bytes_read * static_cast<std::uint64_t>(n));
  });
}

TEST(GaxpyTest, LayoutValidationRejectsWrongDistributions) {
  TempDir dir;
  Machine machine(2, MachineCostModel::zero());
  EXPECT_THROW(machine.run([&](SpmdContext& ctx) {
                 OutOfCoreArray a(ctx, dir.path(), "a", row_block(8, 8, 2),
                                  StorageOrder::kColumnMajor,
                                  DiskModel::zero());
                 OutOfCoreArray b(ctx, dir.path(), "b", row_block(8, 8, 2),
                                  StorageOrder::kColumnMajor,
                                  DiskModel::zero());
                 OutOfCoreArray c(ctx, dir.path(), "c",
                                  column_block(8, 8, 2),
                                  StorageOrder::kColumnMajor,
                                  DiskModel::zero());
                 MemoryBudget budget(1 << 20);
                 GaxpyConfig config;
                 config.slab_a_elements = 8;
                 config.slab_b_elements = 8;
                 config.slab_c_elements = 8;
                 ooc_gaxpy_column_slabs(ctx, a, b, c, budget, config);
               }),
               Error);
}

TEST(GaxpyTest, PrefetchProducesSameResultFasterOrEqual) {
  const std::int64_t n = 16;
  const int p = 2;
  TempDir dir;
  double times[2];
  std::vector<double> results[2];
  for (int pf = 0; pf < 2; ++pf) {
    Machine machine(p, MachineCostModel::unit_test());
    sim::RunReport report = machine.run([&](SpmdContext& ctx) {
      OutOfCoreArray a(ctx, dir.path(), "a" + std::to_string(pf),
                       column_block(n, n, p), StorageOrder::kRowMajor,
                       DiskModel::unit_test());
      OutOfCoreArray b(ctx, dir.path(), "b" + std::to_string(pf),
                       row_block(n, n, p), StorageOrder::kColumnMajor,
                       DiskModel::unit_test());
      OutOfCoreArray c(ctx, dir.path(), "c" + std::to_string(pf),
                       column_block(n, n, p), StorageOrder::kColumnMajor,
                       DiskModel::unit_test());
      a.initialize(ctx, gen_a, n * n);
      b.initialize(ctx, gen_b, n * n);
      sim::barrier(ctx);
      ctx.reset_accounting();
      GaxpyConfig config;
      config.slab_a_elements = n * n / p / 4;
      config.slab_b_elements = n * n / p / 4;
      config.slab_c_elements = n * n / p / 4;
      config.prefetch = pf == 1;
      MemoryBudget budget(1 << 20);
      ooc_gaxpy_row_slabs(ctx, a, b, c, budget, config);
      std::vector<double> got = c.gather_global(ctx, n * n);
      if (ctx.rank() == 0) {
        results[pf] = std::move(got);
      }
    });
    times[pf] = report.max_sim_time_s();
  }
  EXPECT_LE(times[1], times[0]);
  ASSERT_EQ(results[0].size(), results[1].size());
  for (std::size_t i = 0; i < results[0].size(); ++i) {
    EXPECT_DOUBLE_EQ(results[0][i], results[1][i]);
  }
}

TEST(GaxpyTest, CyclicDistributionsComputeCorrectProduct) {
  // The kernels' local-index correspondence holds for CYCLIC too: local
  // column k of A and local row k of B both map to global index k*P + r.
  const std::int64_t n = 16;
  const int p = 4;
  TempDir dir;
  Machine machine(p, MachineCostModel::zero());
  machine.run([&](SpmdContext& ctx) {
    const hpf::ArrayDistribution col_cyc(n, n, hpf::DistAxis::kCols,
                                         hpf::DistKind::kCyclic, p);
    const hpf::ArrayDistribution row_cyc(n, n, hpf::DistAxis::kRows,
                                         hpf::DistKind::kCyclic, p);
    OutOfCoreArray a(ctx, dir.path(), "a", col_cyc,
                     StorageOrder::kColumnMajor, DiskModel::zero());
    OutOfCoreArray b(ctx, dir.path(), "b", row_cyc,
                     StorageOrder::kColumnMajor, DiskModel::zero());
    OutOfCoreArray c(ctx, dir.path(), "c", col_cyc,
                     StorageOrder::kColumnMajor, DiskModel::zero());
    OutOfCoreArray c2(ctx, dir.path(), "c2", col_cyc,
                      StorageOrder::kRowMajor, DiskModel::zero());
    OutOfCoreArray a2(ctx, dir.path(), "a2", col_cyc,
                      StorageOrder::kRowMajor, DiskModel::zero());
    a.initialize(ctx, gen_a, n * n);
    a2.initialize(ctx, gen_a, n * n);
    b.initialize(ctx, gen_b, n * n);

    GaxpyConfig config;
    config.slab_a_elements = 2 * n;
    config.slab_b_elements = 2 * n;
    config.slab_c_elements = 2 * n;
    MemoryBudget budget(1 << 20);
    ooc_gaxpy_column_slabs(ctx, a, b, c, budget, config);
    ooc_gaxpy_row_slabs(ctx, a2, b, c2, budget, config);

    const std::vector<double> want =
        serial_matmul(dense_from(n, gen_a), dense_from(n, gen_b), n);
    for (OutOfCoreArray* result : {&c, &c2}) {
      std::vector<double> got = result->gather_global(ctx, n * n);
      if (ctx.rank() == 0) {
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_NEAR(got[i], want[i], 1e-9)
              << result->name() << " element " << i;
        }
      }
    }
  });
}

TEST(GaxpyTest, BlockCyclicDistributionsComputeCorrectProduct) {
  // BLOCK-CYCLIC(2): global_to_local is monotonic on each owned set, so
  // the kernels' correspondence and the C writer's consecutive-column
  // invariant both hold.
  const std::int64_t n = 16;
  const int p = 2;
  TempDir dir;
  Machine machine(p, MachineCostModel::zero());
  machine.run([&](SpmdContext& ctx) {
    const hpf::ArrayDistribution col_bc(n, n, hpf::DistAxis::kCols,
                                        hpf::DistKind::kBlockCyclic, p, 2);
    const hpf::ArrayDistribution row_bc(n, n, hpf::DistAxis::kRows,
                                        hpf::DistKind::kBlockCyclic, p, 2);
    OutOfCoreArray a(ctx, dir.path(), "a", col_bc,
                     StorageOrder::kColumnMajor, DiskModel::zero());
    OutOfCoreArray b(ctx, dir.path(), "b", row_bc,
                     StorageOrder::kColumnMajor, DiskModel::zero());
    OutOfCoreArray c(ctx, dir.path(), "c", col_bc,
                     StorageOrder::kColumnMajor, DiskModel::zero());
    a.initialize(ctx, gen_a, n * n);
    b.initialize(ctx, gen_b, n * n);
    GaxpyConfig config;
    config.slab_a_elements = 2 * n;
    config.slab_b_elements = 2 * n;
    config.slab_c_elements = 2 * n;
    MemoryBudget budget(1 << 20);
    ooc_gaxpy_column_slabs(ctx, a, b, c, budget, config);
    std::vector<double> got = c.gather_global(ctx, n * n);
    if (ctx.rank() == 0) {
      const std::vector<double> want =
          serial_matmul(dense_from(n, gen_a), dense_from(n, gen_b), n);
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_NEAR(got[i], want[i], 1e-9) << "element " << i;
      }
    }
  });
}

TEST(SerialMatmulTest, KnownProduct) {
  // 2x2: A = [1 3; 2 4] (column-major [1 2 3 4]), B = [5 7; 6 8].
  const std::vector<double> a{1, 2, 3, 4};
  const std::vector<double> b{5, 6, 7, 8};
  const std::vector<double> c = serial_matmul(a, b, 2);
  // C = A*B = [1*5+3*6, 1*7+3*8; 2*5+4*6, 2*7+4*8] = [23 31; 34 46].
  EXPECT_DOUBLE_EQ(c[0], 23.0);
  EXPECT_DOUBLE_EQ(c[1], 34.0);
  EXPECT_DOUBLE_EQ(c[2], 31.0);
  EXPECT_DOUBLE_EQ(c[3], 46.0);
}

TEST(SerialMatmulTest, SizeValidation) {
  EXPECT_THROW(serial_matmul({1.0}, {1.0}, 2), Error);
}

}  // namespace
}  // namespace oocc::gaxpy
