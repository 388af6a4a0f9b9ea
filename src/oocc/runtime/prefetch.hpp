// Double-buffered slab prefetching (§3.3 mentions prefetching/caching
// strategies as a compiler concern; PASSION provided asynchronous slab
// reads).
//
// This reader is a thin window over a private no-retain SlabBufferPool:
// acquire(i) demand-reads slab i (pinned), drops slab i-1 at its unpin, and
// issues the read-ahead of slab i+1 when prefetching, so the working set
// never exceeds the classic one/two buffers. The asynchronous overlap model
// (immediate host read, clock rewound to the issue point, completion
// timestamp honoured at acquire) lives in the pool; this class only adds
// the sequential-sweep discipline. The hand-coded GAXPY kernels
// (gaxpy/gaxpy.hpp) stream A through it; the compiled executor drives its
// pool directly.
#pragma once

#include <cstdint>

#include "oocc/io/laf.hpp"
#include "oocc/runtime/bufferpool.hpp"
#include "oocc/runtime/icla.hpp"
#include "oocc/runtime/slab_iter.hpp"
#include "oocc/sim/machine.hpp"

namespace oocc::runtime {

/// Reads the slabs of one LAF sequentially with optional double-buffered
/// prefetch. With prefetching disabled it degrades to plain synchronous
/// slab reads (the ablation baseline).
class PrefetchingSlabReader {
 public:
  /// Buffers come from a private pool charged against `budget`: at most one
  /// slab (no prefetch) or two slabs (prefetch) are ever resident. The
  /// reader belongs to `ctx`'s processor.
  PrefetchingSlabReader(sim::SpmdContext& ctx, io::LocalArrayFile& laf,
                        const SlabIterator& slabs, MemoryBudget& budget,
                        const std::string& name, bool enable_prefetch);
  ~PrefetchingSlabReader();

  std::int64_t slab_count() const noexcept { return slabs_.count(); }

  /// Returns the buffer holding slab `i`, issuing the prefetch of slab
  /// i+1. Slabs must be acquired in ascending order (0, 1, 2, ...).
  const IclaBuffer& acquire(sim::SpmdContext& ctx, std::int64_t i);

  /// Restarts the sweep: the next acquire must be slab 0 again, and any
  /// held slabs are invalidated so they are re-read from disk (re-sweeps
  /// must pay their I/O — the cost model counts every pass).
  void reset() noexcept;

 private:
  /// Single stream: every pool entry belongs to this pseudo-array.
  static constexpr const char* kStream = "slab";

  sim::SpmdContext& ctx_;
  io::LocalArrayFile& laf_;
  SlabIterator slabs_;
  bool prefetch_;
  SlabBufferPool pool_;
  std::int64_t next_expected_ = 0;
  bool holding_ = false;
  io::Section held_{};
};

}  // namespace oocc::runtime
