#include "oocc/runtime/slab_iter.hpp"

#include <algorithm>

#include "oocc/util/error.hpp"

namespace oocc::runtime {

std::string_view slab_orientation_name(SlabOrientation o) noexcept {
  switch (o) {
    case SlabOrientation::kColumnSlabs:
      return "column-slabs";
    case SlabOrientation::kRowSlabs:
      return "row-slabs";
  }
  return "?";
}

io::StorageOrder contiguous_order_for(SlabOrientation o) noexcept {
  return o == SlabOrientation::kColumnSlabs ? io::StorageOrder::kColumnMajor
                                            : io::StorageOrder::kRowMajor;
}

SlabIterator::SlabIterator(std::int64_t rows, std::int64_t cols,
                           SlabOrientation o, std::int64_t capacity_elements,
                           std::int64_t sizing_cross)
    : rows_(rows), cols_(cols), orientation_(o) {
  OOCC_REQUIRE(rows >= 1 && cols >= 1,
               "local array must be non-empty, got " << rows << "x" << cols);
  OOCC_REQUIRE(capacity_elements >= 1,
               "slab capacity must be >= 1 element, got "
                   << capacity_elements);
  const std::int64_t cross = std::max(
      sizing_cross, o == SlabOrientation::kColumnSlabs ? rows : cols);
  const std::int64_t extent =
      o == SlabOrientation::kColumnSlabs ? cols : rows;
  span_ = std::clamp<std::int64_t>(capacity_elements / cross, 1, extent);
  count_ = (extent + span_ - 1) / span_;
}

io::Section SlabIterator::section(std::int64_t i) const {
  OOCC_CHECK(i >= 0 && i < count_, ErrorCode::kOutOfRange,
             "slab index " << i << " outside [0, " << count_ << ")");
  if (orientation_ == SlabOrientation::kColumnSlabs) {
    const std::int64_t c0 = i * span_;
    return io::Section{0, rows_, c0, std::min(cols_, c0 + span_)};
  }
  const std::int64_t r0 = i * span_;
  return io::Section{r0, std::min(rows_, r0 + span_), 0, cols_};
}

}  // namespace oocc::runtime
