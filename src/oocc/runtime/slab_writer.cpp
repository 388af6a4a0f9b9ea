#include "oocc/runtime/slab_writer.hpp"

#include "oocc/util/error.hpp"

namespace oocc::runtime {

OwnedColumnWriter::OwnedColumnWriter(OutOfCoreArray& c, IclaBuffer& icla,
                                     std::int64_t r0, std::int64_t r1)
    : c_(c), icla_(icla), batch_(icla.capacity(), r0, r1, c.local_cols()) {}

void OwnedColumnWriter::append(sim::SpmdContext& ctx, std::int64_t lc,
                               std::span<const double> values) {
  const bool starting = batch_.pending() == 0;
  OOCC_ASSERT(starting || lc == batch_.lc0() + batch_.pending(),
              "owned columns must arrive consecutively: expected "
                  << batch_.lc0() + batch_.pending() << ", got " << lc);
  const bool full = batch_.push(lc);
  if (starting) {
    icla_.reset_section(io::Section{batch_.row0(), batch_.row1(), batch_.lc0(),
                                    batch_.lc0() + batch_.span()});
  }
  std::ranges::copy(values, icla_.data().begin() + (batch_.pending() - 1) *
                                                      std::ssize(values));
  if (full) {
    flush(ctx);
  }
}

void OwnedColumnWriter::flush(sim::SpmdContext& ctx) {
  if (batch_.pending() == 0) {
    return;
  }
  icla_.store_as(ctx, c_.laf(), batch_.section());
  batch_.clear();
}

}  // namespace oocc::runtime
