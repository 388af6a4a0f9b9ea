#include "oocc/runtime/prefetch.hpp"

namespace oocc::runtime {

PrefetchingSlabReader::PrefetchingSlabReader(sim::SpmdContext& ctx,
                                             io::LocalArrayFile& laf,
                                             const SlabIterator& slabs,
                                             MemoryBudget& budget,
                                             const std::string& name,
                                             bool enable_prefetch)
    : ctx_(ctx),
      laf_(laf),
      slabs_(slabs),
      prefetch_(enable_prefetch),
      // The private window is not a reuse cache: it keeps nothing past its
      // unpin and reports no cache activity on the LAFs it streams.
      pool_(budget, name, /*retain=*/false) {}

PrefetchingSlabReader::~PrefetchingSlabReader() { reset(); }

void PrefetchingSlabReader::reset() noexcept {
  // Neither call can throw here: held_ is exactly the section we pinned,
  // and the private pool has no async engine whose reads could fail.
  if (holding_) {
    pool_.unpin(ctx_, kStream, held_);
    holding_ = false;
  }
  pool_.drop(ctx_, kStream, /*dead=*/false);  // unconsumed read-aheads
  next_expected_ = 0;
}

const IclaBuffer& PrefetchingSlabReader::acquire(sim::SpmdContext& ctx,
                                                 std::int64_t i) {
  OOCC_REQUIRE(i == next_expected_,
               "slabs must be acquired in order; expected "
                   << next_expected_ << ", got " << i);
  OOCC_CHECK(i < slabs_.count(), ErrorCode::kOutOfRange,
             "slab " << i << " outside [0, " << slabs_.count() << ")");
  ++next_expected_;

  if (holding_) {
    // The classic window: the buffer behind the sweep is recycled.
    pool_.unpin(ctx, kStream, held_);
    holding_ = false;
  }
  // No reuse hint: within a sweep each slab is visited once, and re-sweeps
  // go through reset() which re-reads by design.
  const IclaBuffer& buf =
      pool_.acquire_read(ctx, laf_, kStream, slabs_.section(i), -1.0);
  held_ = slabs_.section(i);
  holding_ = true;

  if (prefetch_ && i + 1 < slabs_.count()) {
    pool_.read_ahead(ctx, laf_, kStream, slabs_.section(i + 1), -1.0);
  }
  return buf;
}

}  // namespace oocc::runtime
