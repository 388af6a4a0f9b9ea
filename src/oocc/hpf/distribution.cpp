#include "oocc/hpf/distribution.hpp"

#include <algorithm>
#include <sstream>

#include "oocc/util/error.hpp"

namespace oocc::hpf {

std::string_view dist_kind_name(DistKind kind) noexcept {
  switch (kind) {
    case DistKind::kBlock:
      return "BLOCK";
    case DistKind::kCyclic:
      return "CYCLIC";
    case DistKind::kBlockCyclic:
      return "BLOCK-CYCLIC";
    case DistKind::kCollapsed:
      return "*";
  }
  return "?";
}

std::string_view dist_axis_name(DistAxis axis) noexcept {
  switch (axis) {
    case DistAxis::kNone:
      return "none";
    case DistAxis::kRows:
      return "rows";
    case DistAxis::kCols:
      return "cols";
  }
  return "?";
}

DimDistribution::DimDistribution(DistKind kind, std::int64_t extent,
                                 int nprocs, std::int64_t block)
    : kind_(kind), extent_(extent), nprocs_(nprocs) {
  OOCC_REQUIRE(extent >= 1, "dimension extent must be >= 1, got " << extent);
  OOCC_REQUIRE(nprocs >= 1, "processor count must be >= 1, got " << nprocs);
  switch (kind) {
    case DistKind::kBlock:
      block_ = (extent + nprocs - 1) / nprocs;  // ceil(N/P), HPF BLOCK
      break;
    case DistKind::kCyclic:
      block_ = 1;
      break;
    case DistKind::kBlockCyclic:
      OOCC_REQUIRE(block >= 1,
                   "BLOCK-CYCLIC needs a block size >= 1, got " << block);
      block_ = block;
      break;
    case DistKind::kCollapsed:
      block_ = extent;
      nprocs_ = nprocs;  // still recorded; every proc holds the full extent
      break;
  }
}

void DimDistribution::validate_global(std::int64_t g) const {
  OOCC_CHECK(g >= 0 && g < extent_, ErrorCode::kOutOfRange,
             "global index " << g << " outside [0, " << extent_ << ")");
}

void DimDistribution::validate_proc(int proc) const {
  OOCC_CHECK(proc >= 0 && proc < nprocs_, ErrorCode::kOutOfRange,
             "processor " << proc << " outside [0, " << nprocs_ << ")");
}

std::int64_t DimDistribution::local_extent(int proc) const {
  validate_proc(proc);
  switch (kind_) {
    case DistKind::kCollapsed:
      return extent_;
    case DistKind::kBlock: {
      const std::int64_t lo = static_cast<std::int64_t>(proc) * block_;
      if (lo >= extent_) {
        return 0;
      }
      return std::min(block_, extent_ - lo);
    }
    case DistKind::kCyclic: {
      // Elements proc, proc+P, proc+2P, ...
      if (proc >= extent_) {
        return 0;
      }
      return (extent_ - proc - 1) / nprocs_ + 1;
    }
    case DistKind::kBlockCyclic: {
      const std::int64_t full_cycles = extent_ / (block_ * nprocs_);
      const std::int64_t rem = extent_ - full_cycles * block_ * nprocs_;
      const std::int64_t rem_start =
          static_cast<std::int64_t>(proc) * block_;
      std::int64_t extra = 0;
      if (rem > rem_start) {
        extra = std::min(block_, rem - rem_start);
      }
      return full_cycles * block_ + extra;
    }
  }
  return 0;
}

int DimDistribution::owner(std::int64_t g) const {
  validate_global(g);
  switch (kind_) {
    case DistKind::kCollapsed:
      return 0;
    case DistKind::kBlock:
      return static_cast<int>(g / block_);
    case DistKind::kCyclic:
      return static_cast<int>(g % nprocs_);
    case DistKind::kBlockCyclic:
      return static_cast<int>((g / block_) % nprocs_);
  }
  return 0;
}

bool DimDistribution::owns(int proc, std::int64_t g) const {
  validate_proc(proc);
  if (kind_ == DistKind::kCollapsed) {
    return true;
  }
  return owner(g) == proc;
}

std::int64_t DimDistribution::global_to_local(std::int64_t g) const {
  validate_global(g);
  switch (kind_) {
    case DistKind::kCollapsed:
      return g;
    case DistKind::kBlock:
      return g - static_cast<std::int64_t>(owner(g)) * block_;
    case DistKind::kCyclic:
      return g / nprocs_;
    case DistKind::kBlockCyclic: {
      const std::int64_t cycle = g / (block_ * nprocs_);
      return cycle * block_ + g % block_;
    }
  }
  return 0;
}

std::int64_t DimDistribution::local_to_global(int proc,
                                              std::int64_t l) const {
  validate_proc(proc);
  OOCC_CHECK(l >= 0 && l < local_extent(proc), ErrorCode::kOutOfRange,
             "local index " << l << " outside [0, " << local_extent(proc)
                            << ") on proc " << proc);
  switch (kind_) {
    case DistKind::kCollapsed:
      return l;
    case DistKind::kBlock:
      return static_cast<std::int64_t>(proc) * block_ + l;
    case DistKind::kCyclic:
      return l * nprocs_ + proc;
    case DistKind::kBlockCyclic: {
      const std::int64_t cycle = l / block_;
      return cycle * block_ * nprocs_ +
             static_cast<std::int64_t>(proc) * block_ + l % block_;
    }
  }
  return 0;
}

std::int64_t DimDistribution::owner_run_end(std::int64_t g) const {
  validate_global(g);
  switch (kind_) {
    case DistKind::kCollapsed:
      return extent_;
    case DistKind::kBlock:
      return std::min(extent_, (g / block_ + 1) * block_);
    case DistKind::kCyclic:
      return nprocs_ == 1 ? extent_ : g + 1;
    case DistKind::kBlockCyclic:
      // With one processor every index is both owned by 0 and mapped
      // identically, so the whole extent is one run.
      if (nprocs_ == 1) {
        return extent_;
      }
      return std::min(extent_, (g / block_ + 1) * block_);
  }
  return extent_;
}

std::vector<OwnerRun> DimDistribution::owner_runs(std::int64_t begin,
                                                  std::int64_t end) const {
  OOCC_REQUIRE(begin >= 0 && begin <= end && end <= extent_,
               "owner_runs range [" << begin << ", " << end
                                    << ") outside [0, " << extent_ << "]");
  std::vector<OwnerRun> runs;
  for_each_owner_run(begin, end,
                     [&runs](std::int64_t g0, std::int64_t g1, int owner) {
                       runs.push_back(OwnerRun{g0, g1, owner});
                     });
  return runs;
}

std::int64_t DimDistribution::local_run_end(int proc, std::int64_t l) const {
  const std::int64_t n = local_extent(proc);
  OOCC_CHECK(l >= 0 && l < n, ErrorCode::kOutOfRange,
             "local index " << l << " outside [0, " << n << ") on proc "
                            << proc);
  switch (kind_) {
    case DistKind::kCollapsed:
    case DistKind::kBlock:
      return n;
    case DistKind::kCyclic:
      return nprocs_ == 1 ? n : l + 1;
    case DistKind::kBlockCyclic:
      if (nprocs_ == 1) {
        return n;
      }
      return std::min(n, (l / block_ + 1) * block_);
  }
  return n;
}

std::int64_t DimDistribution::run_length_hint() const noexcept {
  switch (kind_) {
    case DistKind::kCollapsed:
      return extent_;
    case DistKind::kBlock:
      return block_;
    case DistKind::kCyclic:
      return nprocs_ == 1 ? extent_ : 1;
    case DistKind::kBlockCyclic:
      return nprocs_ == 1 ? extent_ : block_;
  }
  return 1;
}

ArrayDistribution::ArrayDistribution(std::int64_t rows, std::int64_t cols,
                                     DistAxis axis, DistKind kind, int nprocs,
                                     std::int64_t block)
    : rows_(rows), cols_(cols), axis_(axis), nprocs_(nprocs) {
  OOCC_REQUIRE(rows >= 1 && cols >= 1,
               "array must be non-empty, got " << rows << "x" << cols);
  OOCC_REQUIRE(nprocs >= 1, "processor count must be >= 1, got " << nprocs);
  OOCC_REQUIRE(axis != DistAxis::kNone || kind == DistKind::kCollapsed ||
                   nprocs == 1,
               "a replicated array cannot name a distribution kind");
  if (axis == DistAxis::kRows) {
    row_dist_ = DimDistribution(kind, rows, nprocs, block);
    col_dist_ = DimDistribution(DistKind::kCollapsed, cols, nprocs);
  } else if (axis == DistAxis::kCols) {
    row_dist_ = DimDistribution(DistKind::kCollapsed, rows, nprocs);
    col_dist_ = DimDistribution(kind, cols, nprocs, block);
  } else {
    row_dist_ = DimDistribution(DistKind::kCollapsed, rows, nprocs);
    col_dist_ = DimDistribution(DistKind::kCollapsed, cols, nprocs);
  }
}

int ArrayDistribution::owner(std::int64_t gr, std::int64_t gc) const {
  if (axis_ == DistAxis::kRows) {
    return row_dist_.owner(gr);
  }
  if (axis_ == DistAxis::kCols) {
    return col_dist_.owner(gc);
  }
  (void)gr;
  (void)gc;
  return 0;
}

bool ArrayDistribution::operator==(const ArrayDistribution& other)
    const noexcept {
  return rows_ == other.rows_ && cols_ == other.cols_ &&
         axis_ == other.axis_ && nprocs_ == other.nprocs_ &&
         row_dist_.kind() == other.row_dist_.kind() &&
         col_dist_.kind() == other.col_dist_.kind() &&
         row_dist_.block() == other.row_dist_.block() &&
         col_dist_.block() == other.col_dist_.block();
}

std::string ArrayDistribution::to_string() const {
  std::ostringstream oss;
  oss << rows_ << "x" << cols_ << " dist(" << dist_axis_name(axis_);
  if (axis_ != DistAxis::kNone) {
    const DimDistribution& d =
        axis_ == DistAxis::kRows ? row_dist_ : col_dist_;
    oss << "," << dist_kind_name(d.kind());
    // BLOCK's and CYCLIC's block follows from the extent and P; only a
    // BLOCK-CYCLIC block is a choice, and operator== compares it.
    if (d.kind() == DistKind::kBlockCyclic) {
      oss << "(" << d.block() << ")";
    }
  }
  oss << ") over " << nprocs_ << " procs";
  return oss.str();
}

ArrayDistribution column_block(std::int64_t rows, std::int64_t cols,
                               int nprocs) {
  return ArrayDistribution(rows, cols, DistAxis::kCols, DistKind::kBlock,
                           nprocs);
}

ArrayDistribution row_block(std::int64_t rows, std::int64_t cols,
                            int nprocs) {
  return ArrayDistribution(rows, cols, DistAxis::kRows, DistKind::kBlock,
                           nprocs);
}

}  // namespace oocc::hpf
