// In-Core Local Array (ICLA) buffers and the per-processor memory budget.
//
// The ICLA is the slab-sized in-memory window over an OCLA (§3.3). Its
// size is fixed at compile time from the amount of node memory the
// compiler was given; the MemoryBudget type enforces that the slabs of all
// competing arrays fit (§4.2.1's slab-size selection is about dividing
// this budget between arrays).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "oocc/io/laf.hpp"
#include "oocc/util/error.hpp"

namespace oocc::runtime {

/// Tracks in-core memory (in array elements) available to ICLAs on one
/// simulated processor. Over-subscription throws kResourceExhausted — the
/// out-of-core compiler must never generate a plan whose working set
/// exceeds node memory.
class MemoryBudget {
 public:
  explicit MemoryBudget(std::int64_t total_elements);

  std::int64_t total() const noexcept { return total_; }
  std::int64_t used() const noexcept { return used_; }
  std::int64_t remaining() const noexcept { return total_ - used_; }

  /// Reserves `elements`; `what` names the buffer for diagnostics.
  void reserve(std::int64_t elements, const std::string& what);

  /// Releases a previous reservation. Releasing more than is currently
  /// reserved is a caller bug (usually a double-release); the budget
  /// clamps at zero, logs a warning, and counts the event so tests can
  /// assert it never happens in healthy code paths.
  void release(std::int64_t elements) noexcept;

  /// Number of release() calls that exceeded the outstanding reservation.
  std::int64_t over_releases() const noexcept { return over_releases_; }

 private:
  std::int64_t total_;
  std::int64_t used_ = 0;
  std::int64_t over_releases_ = 0;
};

/// A slab buffer holding one section of a local array in column-major
/// section order. RAII-registered against a MemoryBudget.
class IclaBuffer {
 public:
  IclaBuffer(MemoryBudget& budget, std::int64_t capacity_elements,
             std::string name);
  ~IclaBuffer();

  IclaBuffer(const IclaBuffer&) = delete;
  IclaBuffer& operator=(const IclaBuffer&) = delete;

  const std::string& name() const noexcept { return name_; }
  std::int64_t capacity() const noexcept { return capacity_; }

  /// Section currently held (empty until the first load).
  const io::Section& section() const noexcept { return section_; }

  /// Loads `s` from `laf` into this buffer. The section must fit.
  void load(sim::SpmdContext& ctx, io::LocalArrayFile& laf,
            const io::Section& s);

  /// Writes the held section back to `laf`.
  void store(sim::SpmdContext& ctx, io::LocalArrayFile& laf) const;

  /// Stores an explicit section (the buffer must hold exactly it).
  void store_as(sim::SpmdContext& ctx, io::LocalArrayFile& laf,
                const io::Section& s) const;

  /// Raw element access for compute kernels: element (r, c) *relative to
  /// the held section*, column-major.
  double& at(std::int64_t r, std::int64_t c) noexcept {
    return data_[static_cast<std::size_t>(c * section_.rows() + r)];
  }
  const double& at(std::int64_t r, std::int64_t c) const noexcept {
    return data_[static_cast<std::size_t>(c * section_.rows() + r)];
  }

  std::span<double> data() noexcept {
    return {data_.data(), static_cast<std::size_t>(section_.elements())};
  }
  std::span<const double> data() const noexcept {
    return {data_.data(), static_cast<std::size_t>(section_.elements())};
  }

  /// Re-targets the buffer at a section without I/O (for building output
  /// slabs in memory before a store).
  void reset_section(const io::Section& s);

  /// Fills the current section with a value.
  void fill(double value) noexcept;

  /// Hands the storage to a transfer still reading it (the slab pool's
  /// orphaned write-back). Moving a vector keeps its heap block, so spans
  /// into it stay valid. The buffer is left empty; its budget is released
  /// when it is destroyed, as usual.
  std::vector<double> release_storage() noexcept {
    section_ = io::Section{};
    return std::move(data_);
  }

 private:
  MemoryBudget& budget_;
  std::int64_t capacity_;
  std::string name_;
  io::Section section_{};
  std::vector<double> data_;
};

}  // namespace oocc::runtime
