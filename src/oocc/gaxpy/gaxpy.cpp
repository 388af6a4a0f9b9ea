#include "oocc/gaxpy/gaxpy.hpp"

#include <algorithm>

#include "oocc/runtime/prefetch.hpp"
#include "oocc/runtime/slab_iter.hpp"
#include "oocc/runtime/slab_writer.hpp"
#include "oocc/sim/collectives.hpp"
#include "oocc/util/error.hpp"

namespace oocc::gaxpy {

using runtime::OwnedColumnWriter;

namespace {

/// Validates the Figure 6 layout: A, C column-block; B row-block; square.
void check_gaxpy_layout(const runtime::OutOfCoreArray& a,
                        const runtime::OutOfCoreArray& b,
                        const runtime::OutOfCoreArray& c) {
  const std::int64_t n = a.dist().global_rows();
  OOCC_REQUIRE(a.dist().global_cols() == n && b.dist().global_rows() == n &&
                   b.dist().global_cols() == n &&
                   c.dist().global_rows() == n && c.dist().global_cols() == n,
               "GAXPY kernels require square N x N arrays");
  OOCC_REQUIRE(a.dist().axis() == hpf::DistAxis::kCols,
               "A must be column-block distributed, got "
                   << a.dist().to_string());
  OOCC_REQUIRE(c.dist().axis() == hpf::DistAxis::kCols,
               "C must be column-block distributed, got "
                   << c.dist().to_string());
  OOCC_REQUIRE(b.dist().axis() == hpf::DistAxis::kRows,
               "B must be row-block distributed, got "
                   << b.dist().to_string());
}

}  // namespace

void ooc_gaxpy_column_slabs(sim::SpmdContext& ctx,
                            runtime::OutOfCoreArray& a,
                            runtime::OutOfCoreArray& b,
                            runtime::OutOfCoreArray& c,
                            runtime::MemoryBudget& budget,
                            const GaxpyConfig& config) {
  check_gaxpy_layout(a, b, c);
  const std::int64_t n = a.dist().global_rows();
  const std::int64_t nlc = a.local_cols();  // local columns of A (= rows of B)

  // Stripmined index spaces (§3.3): column slabs for A and B.
  runtime::SlabIterator a_slabs(n, nlc, runtime::SlabOrientation::kColumnSlabs,
                                config.slab_a_elements);
  runtime::SlabIterator b_slabs(nlc, n, runtime::SlabOrientation::kColumnSlabs,
                                config.slab_b_elements);

  runtime::IclaBuffer a_icla(budget, a_slabs.slab_elements(), "icla_a");
  runtime::IclaBuffer b_icla(budget, b_slabs.slab_elements(), "icla_b");
  // C's ICLA buffers whole output columns; it needs room for at least one.
  runtime::IclaBuffer c_icla(
      budget, std::max<std::int64_t>(config.slab_c_elements, n), "icla_c");
  // The temporary vector of Figure 9 holds one full column of C.
  std::vector<double> temp(static_cast<std::size_t>(n));
  budget.reserve(n, "temp column");

  OwnedColumnWriter c_writer(c, c_icla, 0, n);

  // Figure 9's loop nest. The outer loop walks column slabs of B; each
  // local B column m corresponds to global output column `gj` because B's
  // column dimension is collapsed (every processor sees all columns).
  std::int64_t gj = 0;
  for (std::int64_t l = 0; l < b_slabs.count(); ++l) {
    b_icla.load(ctx, b.laf(), b_slabs.section(l));
    for (std::int64_t m = 0; m < b_icla.section().cols(); ++m, ++gj) {
      std::fill(temp.begin(), temp.end(), 0.0);
      for (std::int64_t sa = 0; sa < a_slabs.count(); ++sa) {
        a_icla.load(ctx, a.laf(), a_slabs.section(sa));
        const io::Section asec = a_icla.section();
        for (std::int64_t i = 0; i < asec.cols(); ++i) {
          // Local column asec.col0+i of A pairs with local row of B at the
          // same local index (both derive from the same BLOCK template).
          const double bval = b_icla.at(asec.col0 + i, m);
          const double* acol = &a_icla.at(0, i);
          for (std::int64_t r = 0; r < n; ++r) {
            temp[static_cast<std::size_t>(r)] += acol[r] * bval;
          }
        }
        ctx.charge_flops(2.0 * static_cast<double>(n) *
                         static_cast<double>(asec.cols()));
      }
      // Global sum of the partial columns; the owner stores column gj.
      const int owner = c.dist().owner_of_col(gj);
      std::vector<double> summed = sim::reduce_sum<double>(
          ctx, owner, std::span<const double>(temp.data(), temp.size()));
      if (ctx.rank() == owner) {
        c_writer.append(ctx, c.dist().global_to_local_col(gj),
                        std::span<const double>(summed.data(), summed.size()));
      }
    }
  }
  c_writer.flush(ctx);
  budget.release(n);
}

void ooc_gaxpy_row_slabs(sim::SpmdContext& ctx, runtime::OutOfCoreArray& a,
                         runtime::OutOfCoreArray& b,
                         runtime::OutOfCoreArray& c,
                         runtime::MemoryBudget& budget,
                         const GaxpyConfig& config) {
  check_gaxpy_layout(a, b, c);
  const std::int64_t n = a.dist().global_rows();
  const std::int64_t nlc = a.local_cols();

  // Every rank's A row slabs have processor 0's height, so the subcolumn
  // sums below add vectors of one length under an uneven distribution too.
  runtime::SlabIterator a_slabs(n, nlc, runtime::SlabOrientation::kRowSlabs,
                                config.slab_a_elements,
                                a.dist().local_cols(0));
  runtime::SlabIterator b_slabs(nlc, n, runtime::SlabOrientation::kColumnSlabs,
                                config.slab_b_elements);

  // A's slabs are optionally double-buffered (prefetch ablation). The
  // reader owns A's ICLA buffers.
  runtime::IclaBuffer b_icla(budget, b_slabs.slab_elements(), "icla_b");
  // C's ICLA buffers subcolumns of slab height; room for at least one.
  runtime::IclaBuffer c_icla(
      budget,
      std::max<std::int64_t>(config.slab_c_elements, a_slabs.slab_span()),
      "icla_c");
  std::vector<double> temp(
      static_cast<std::size_t>(a_slabs.slab_span()));
  budget.reserve(a_slabs.slab_span(), "temp subcolumn");

  // Figure 12's loop nest: A's row slabs outermost, fetched exactly once.
  runtime::PrefetchingSlabReader a_reader(ctx, a.laf(), a_slabs, budget,
                                          "icla_a", config.prefetch);
  for (std::int64_t l = 0; l < a_slabs.count(); ++l) {
    const runtime::IclaBuffer& a_icla = a_reader.acquire(ctx, l);
    const io::Section asec = a_icla.section();
    const std::int64_t hr = asec.rows();
    OwnedColumnWriter c_writer(c, c_icla, asec.row0, asec.row1);

    std::int64_t gj = 0;
    for (std::int64_t nb = 0; nb < b_slabs.count(); ++nb) {
      b_icla.load(ctx, b.laf(), b_slabs.section(nb));
      for (std::int64_t m = 0; m < b_icla.section().cols(); ++m, ++gj) {
        std::fill(temp.begin(),
                  temp.begin() + static_cast<std::ptrdiff_t>(hr), 0.0);
        for (std::int64_t i = 0; i < nlc; ++i) {
          const double bval = b_icla.at(i, m);
          const double* acol = &a_icla.at(0, i);
          for (std::int64_t r = 0; r < hr; ++r) {
            temp[static_cast<std::size_t>(r)] += acol[r] * bval;
          }
        }
        ctx.charge_flops(2.0 * static_cast<double>(hr) *
                         static_cast<double>(nlc));
        // Global sum of the subcolumn [row0, row1) of output column gj.
        const int owner = c.dist().owner_of_col(gj);
        std::vector<double> summed = sim::reduce_sum<double>(
            ctx, owner, std::span<const double>(temp.data(),
                                                static_cast<std::size_t>(hr)));
        if (ctx.rank() == owner) {
          c_writer.append(
              ctx, c.dist().global_to_local_col(gj),
              std::span<const double>(summed.data(), summed.size()));
        }
      }
    }
    c_writer.flush(ctx);
  }
  budget.release(a_slabs.slab_span());
}

void in_core_gaxpy(sim::SpmdContext& ctx, runtime::OutOfCoreArray& a,
                   runtime::OutOfCoreArray& b, runtime::OutOfCoreArray& c) {
  check_gaxpy_layout(a, b, c);
  const std::int64_t n = a.dist().global_rows();
  const std::int64_t nlc = a.local_cols();

  // One initial read of the full local arrays (the in-core baseline's only
  // I/O besides the final write of C).
  std::vector<double> la(static_cast<std::size_t>(n * nlc));
  std::vector<double> lb(static_cast<std::size_t>(nlc * n));
  std::vector<double> lc(static_cast<std::size_t>(n * nlc), 0.0);
  a.laf().read_full(ctx, std::span<double>(la.data(), la.size()));
  b.laf().read_full(ctx, std::span<double>(lb.data(), lb.size()));

  std::vector<double> temp(static_cast<std::size_t>(n));
  for (std::int64_t gj = 0; gj < n; ++gj) {
    std::fill(temp.begin(), temp.end(), 0.0);
    for (std::int64_t i = 0; i < nlc; ++i) {
      const double bval = lb[static_cast<std::size_t>(gj * nlc + i)];
      const double* acol = &la[static_cast<std::size_t>(i * n)];
      for (std::int64_t r = 0; r < n; ++r) {
        temp[static_cast<std::size_t>(r)] += acol[r] * bval;
      }
    }
    ctx.charge_flops(2.0 * static_cast<double>(n) * static_cast<double>(nlc));
    const int owner = c.dist().owner_of_col(gj);
    std::vector<double> summed = sim::reduce_sum<double>(
        ctx, owner, std::span<const double>(temp.data(), temp.size()));
    if (ctx.rank() == owner) {
      const std::int64_t jl = c.dist().global_to_local_col(gj);
      std::copy(summed.begin(), summed.end(),
                lc.begin() + static_cast<std::ptrdiff_t>(jl * n));
    }
  }
  c.laf().write_full(ctx, std::span<const double>(lc.data(), lc.size()));
}

std::vector<double> serial_matmul(const std::vector<double>& a,
                                  const std::vector<double>& b,
                                  std::int64_t n) {
  OOCC_REQUIRE(a.size() == static_cast<std::size_t>(n * n) &&
                   b.size() == static_cast<std::size_t>(n * n),
               "serial_matmul expects " << n << "x" << n << " inputs");
  std::vector<double> c(static_cast<std::size_t>(n * n), 0.0);
  for (std::int64_t j = 0; j < n; ++j) {
    for (std::int64_t k = 0; k < n; ++k) {
      const double bkj = b[static_cast<std::size_t>(j * n + k)];
      const double* acol = &a[static_cast<std::size_t>(k * n)];
      double* ccol = &c[static_cast<std::size_t>(j * n)];
      for (std::int64_t r = 0; r < n; ++r) {
        ccol[r] += acol[r] * bkj;
      }
    }
  }
  return c;
}

}  // namespace oocc::gaxpy
