// Slab iteration over an out-of-core local array (§3.3 of the paper).
//
// Stripmining sections the OCLA into *slabs*, each sized to fit the in-core
// local array (ICLA). A slab is a full-height run of columns (column slabs,
// Figure 11-I) or a full-width run of rows (row slabs, Figure 11-II). The
// compiler picks the orientation (data access reorganization, §4); the
// runtime iterates the resulting sections.
#pragma once

#include <cstdint>
#include <string_view>

#include "oocc/io/laf.hpp"

namespace oocc::runtime {

enum class SlabOrientation { kColumnSlabs, kRowSlabs };

std::string_view slab_orientation_name(SlabOrientation o) noexcept;

/// The storage order in which slabs of this orientation are contiguous
/// (one I/O request per slab).
io::StorageOrder contiguous_order_for(SlabOrientation o) noexcept;

/// Enumerates the slab sections of a rows x cols local array for a given
/// orientation and memory capacity (in elements). The slab width/height is
/// floor(capacity / cross_extent), clamped to [1, extent]; the final slab
/// may be smaller. A larger `sizing_cross` replaces the array's own cross
/// extent: processors whose local arrays differ in cross extent all pass
/// the largest one and so stripmine with one span.
class SlabIterator {
 public:
  SlabIterator(std::int64_t rows, std::int64_t cols, SlabOrientation o,
               std::int64_t capacity_elements, std::int64_t sizing_cross = 0);

  SlabOrientation orientation() const noexcept { return orientation_; }
  std::int64_t count() const noexcept { return count_; }

  /// Columns per slab (column orientation) or rows per slab (row
  /// orientation) for all but possibly the last slab.
  std::int64_t slab_span() const noexcept { return span_; }

  /// Elements in a full (non-final) slab.
  std::int64_t slab_elements() const noexcept {
    return orientation_ == SlabOrientation::kColumnSlabs ? span_ * rows_
                                                         : span_ * cols_;
  }

  /// Section of the i-th slab (0-based).
  io::Section section(std::int64_t i) const;

 private:
  std::int64_t rows_;
  std::int64_t cols_;
  SlabOrientation orientation_;
  std::int64_t span_;
  std::int64_t count_;
};

}  // namespace oocc::runtime
