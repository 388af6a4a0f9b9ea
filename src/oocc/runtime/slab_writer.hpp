// Buffered writer for owned output columns — the "if ICLA is full then
// write" logic of the paper's Figures 9/12. ColumnBatch is its shape-only
// core; compiler::StepWalk drives it for the executor, the pricer and the
// verifier, and OwnedColumnWriter serves only the hand-coded GAXPY
// kernels (gaxpy/gaxpy.cpp), the reference the executor is checked
// against.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "oocc/runtime/icla.hpp"
#include "oocc/runtime/ooc_array.hpp"

namespace oocc::runtime {

/// Shape-only batching arithmetic for staged output columns: given the
/// staging capacity, the row range, and the owner's local column count,
/// decides which consecutive appended columns share one flushed section.
/// OwnedColumnWriter wraps it with the data copy and the I/O; the step
/// walk (compiler/walk.hpp) drives it once for all of its clients, so
/// priced and verified writes are the executor's writes.
class ColumnBatch {
 public:
  ColumnBatch(std::int64_t capacity, std::int64_t r0, std::int64_t r1,
              std::int64_t local_cols)
      : r0_(r0),
        r1_(r1),
        width_(std::max<std::int64_t>(1, capacity / (r1 - r0))),
        local_cols_(local_cols) {}

  std::int64_t row0() const noexcept { return r0_; }
  std::int64_t row1() const noexcept { return r1_; }
  std::int64_t lc0() const noexcept { return lc0_; }
  std::int64_t pending() const noexcept { return pending_; }
  /// Columns the current batch will hold when full (valid once pending>0).
  std::int64_t span() const noexcept { return span_; }
  /// The pending columns over the row range: the section a flush writes.
  io::Section section() const noexcept {
    return io::Section{r0_, r1_, lc0_, lc0_ + pending_};
  }

  /// Records one appended column (`lc` starts a new batch when none is
  /// pending); returns true when the batch just became full and must
  /// flush.
  bool push(std::int64_t lc) noexcept {
    if (pending_ == 0) {
      lc0_ = lc;
      span_ = std::min(width_, local_cols_ - lc0_);
    }
    ++pending_;
    return pending_ == span_;
  }

  void clear() noexcept { pending_ = 0; }

 private:
  std::int64_t r0_;
  std::int64_t r1_;
  std::int64_t width_;
  std::int64_t local_cols_;
  std::int64_t lc0_ = 0;
  std::int64_t span_ = 0;
  std::int64_t pending_ = 0;
};

/// Accumulates owned output columns into a column-slab ICLA for `c` and
/// flushes full (or final partial) slabs. Generalized to a row range
/// [r0, r1) so the row-slab translation can stage subcolumns.
class OwnedColumnWriter {
 public:
  OwnedColumnWriter(OutOfCoreArray& c, IclaBuffer& icla, std::int64_t r0,
                    std::int64_t r1);

  /// Appends the owner's local column `lc` (values for rows [r0, r1)).
  /// Columns must arrive consecutively within one writer's lifetime.
  void append(sim::SpmdContext& ctx, std::int64_t lc,
              std::span<const double> values);

  /// Writes any pending columns back to the LAF.
  void flush(sim::SpmdContext& ctx);

 private:
  OutOfCoreArray& c_;
  IclaBuffer& icla_;
  ColumnBatch batch_;
};

}  // namespace oocc::runtime
