// HPF data-distribution algebra (§2.1 of the paper).
//
// The machine model is the paper's: a one-dimensional arrangement of P
// processors (`PROCESSORS Pr(P)`). A 2-D global array distributes exactly
// one of its dimensions across the processors — BLOCK, CYCLIC or
// BLOCK-CYCLIC(b) — while the other dimension is collapsed ('*', every
// processor holds its full extent). This covers the paper's programs
// (A and C column-block, B row-block) and the standard HPF kinds.
//
// This header is the single source of truth for global<->local index
// mapping, ownership and local extents; the compiler, runtime and tests
// all derive their layout knowledge from it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace oocc::hpf {

/// Distribution kind along one dimension.
enum class DistKind {
  kBlock,        ///< contiguous chunks of ceil(N/P)
  kCyclic,       ///< element i on processor i mod P
  kBlockCyclic,  ///< blocks of `block` elements dealt round-robin
  kCollapsed     ///< '*': not distributed, replicated extent on every proc
};

std::string_view dist_kind_name(DistKind kind) noexcept;

/// A maximal interval [g0, g1) of global indices held by one owner. Within
/// a run, global_to_local maps consecutive global indices to consecutive
/// local indices, so a run is addressable as one contiguous local segment
/// on its owner — the invariant the block routing layer
/// (runtime/redistribute.hpp) is built on.
struct OwnerRun {
  std::int64_t g0 = 0;
  std::int64_t g1 = 0;
  int owner = 0;
};

/// Distribution of a single dimension of extent `extent` over `nprocs`
/// processors. For kCollapsed, every processor locally holds the full
/// extent and "ownership" is universal.
class DimDistribution {
 public:
  DimDistribution() = default;
  DimDistribution(DistKind kind, std::int64_t extent, int nprocs,
                  std::int64_t block = 0);

  DistKind kind() const noexcept { return kind_; }
  std::int64_t extent() const noexcept { return extent_; }
  int nprocs() const noexcept { return nprocs_; }
  /// Block size: ceil(N/P) for kBlock, 1 for kCyclic, `block` for
  /// kBlockCyclic, N for kCollapsed.
  std::int64_t block() const noexcept { return block_; }

  bool distributed() const noexcept { return kind_ != DistKind::kCollapsed; }

  /// Number of elements of this dimension held locally by `proc`.
  std::int64_t local_extent(int proc) const;

  /// Owning processor of global index `g` (0 for kCollapsed — every
  /// processor holds collapsed dims; use `owns()` for membership).
  int owner(std::int64_t g) const;

  /// True if `proc` holds global index `g` locally.
  bool owns(int proc, std::int64_t g) const;

  /// Local index of global index `g` on its owner (for kCollapsed, the
  /// local index equals the global index on every processor).
  std::int64_t global_to_local(std::int64_t g) const;

  /// Global index of local index `l` on processor `proc`.
  std::int64_t local_to_global(int proc, std::int64_t l) const;

  /// End (exclusive, clamped to the extent) of the maximal constant-owner
  /// run containing `g`. Within [g, owner_run_end(g)) the owner is fixed
  /// and global_to_local yields consecutive local indices.
  std::int64_t owner_run_end(std::int64_t g) const;

  /// Piecewise-constant ownership decomposition of [begin, end): BLOCK
  /// yields at most P runs, CYCLIC length-1 runs (P > 1), BLOCK-CYCLIC one
  /// run per dealt block, collapsed a single run with owner 0.
  std::vector<OwnerRun> owner_runs(std::int64_t begin, std::int64_t end) const;

  /// Calls f(g0, g1, owner) for every ownership run of [begin, end)
  /// without materializing a vector (the block router's hot path).
  template <typename F>
  void for_each_owner_run(std::int64_t begin, std::int64_t end, F&& f) const {
    for (std::int64_t g = begin; g < end;) {
      const std::int64_t e = std::min(end, owner_run_end(g));
      f(g, e, owner(g));
      g = e;
    }
  }

  /// End (exclusive, clamped to local_extent(proc)) of the maximal run of
  /// local indices starting at `l` on `proc` whose global images are
  /// consecutive — i.e. the largest segment a slab sweep may treat as one
  /// contiguous global interval.
  std::int64_t local_run_end(int proc, std::int64_t l) const;

  /// Typical ownership-run length (1 for CYCLIC when P > 1, the dealt
  /// block for BLOCK-CYCLIC, the whole extent when a single processor owns
  /// everything). The routing layer uses this to decide between block
  /// descriptors and the per-element fallback.
  std::int64_t run_length_hint() const noexcept;

 private:
  void validate_global(std::int64_t g) const;
  void validate_proc(int proc) const;

  DistKind kind_ = DistKind::kCollapsed;
  std::int64_t extent_ = 0;
  int nprocs_ = 1;
  std::int64_t block_ = 0;
};

/// Which dimension of a 2-D array is distributed.
enum class DistAxis { kNone, kRows, kCols };

std::string_view dist_axis_name(DistAxis axis) noexcept;

/// Distribution of a 2-D global array over the 1-D processor arrangement.
/// Exactly one axis is distributed (or none: fully replicated).
class ArrayDistribution {
 public:
  ArrayDistribution() = default;

  /// `axis` selects the distributed dimension; `kind`/`block` configure it.
  ArrayDistribution(std::int64_t rows, std::int64_t cols, DistAxis axis,
                    DistKind kind, int nprocs, std::int64_t block = 0);

  std::int64_t global_rows() const noexcept { return rows_; }
  std::int64_t global_cols() const noexcept { return cols_; }
  DistAxis axis() const noexcept { return axis_; }
  int nprocs() const noexcept { return nprocs_; }

  const DimDistribution& row_dist() const noexcept { return row_dist_; }
  const DimDistribution& col_dist() const noexcept { return col_dist_; }

  std::int64_t local_rows(int proc) const { return row_dist_.local_extent(proc); }
  std::int64_t local_cols(int proc) const { return col_dist_.local_extent(proc); }
  std::int64_t local_elements(int proc) const {
    return local_rows(proc) * local_cols(proc);
  }

  /// Owner of global element (gr, gc). For kNone the element is replicated
  /// and this returns 0 by convention.
  int owner(std::int64_t gr, std::int64_t gc) const;

  /// Owner of a whole global column / row (only meaningful when the
  /// corresponding axis is the distributed one or none is).
  int owner_of_col(std::int64_t gc) const { return col_dist_.owner(gc); }
  int owner_of_row(std::int64_t gr) const { return row_dist_.owner(gr); }

  bool owns(int proc, std::int64_t gr, std::int64_t gc) const {
    return row_dist_.owns(proc, gr) && col_dist_.owns(proc, gc);
  }

  std::int64_t global_to_local_row(std::int64_t gr) const {
    return row_dist_.global_to_local(gr);
  }
  std::int64_t global_to_local_col(std::int64_t gc) const {
    return col_dist_.global_to_local(gc);
  }
  std::int64_t local_to_global_row(int proc, std::int64_t lr) const {
    return row_dist_.local_to_global(proc, lr);
  }
  std::int64_t local_to_global_col(int proc, std::int64_t lc) const {
    return col_dist_.local_to_global(proc, lc);
  }

  bool operator==(const ArrayDistribution& other) const noexcept;

  /// Shape, axis, kind (with a BLOCK-CYCLIC block) and P, e.g.
  /// "64x64 dist(cols,BLOCK-CYCLIC(2)) over 4 procs": two distributions
  /// are equal exactly when their strings are.
  std::string to_string() const;

 private:
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  DistAxis axis_ = DistAxis::kNone;
  int nprocs_ = 1;
  DimDistribution row_dist_;
  DimDistribution col_dist_;
};

/// Convenience factories matching the paper's usage.
ArrayDistribution column_block(std::int64_t rows, std::int64_t cols,
                               int nprocs);
ArrayDistribution row_block(std::int64_t rows, std::int64_t cols, int nprocs);

}  // namespace oocc::hpf
