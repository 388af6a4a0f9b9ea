// Out-of-core distributed array — the user-facing runtime object.
//
// One OutOfCoreArray instance exists per simulated processor (constructed
// inside the SPMD region); together they represent one global array
// distributed per an hpf::ArrayDistribution with each local piece in a
// Local Array File (§2.3, Figure 2). The class offers budgeted slab-wise
// initialization and gathering so even "setup" honours the out-of-core
// discipline: no processor ever materializes more than its memory budget.
#pragma once

#include <filesystem>
#include <functional>
#include <vector>

#include "oocc/hpf/distribution.hpp"
#include "oocc/io/disk_model.hpp"
#include "oocc/io/laf.hpp"
#include "oocc/runtime/icla.hpp"
#include "oocc/runtime/ocla.hpp"
#include "oocc/runtime/slab_iter.hpp"
#include "oocc/sim/machine.hpp"

namespace oocc::runtime {

class OutOfCoreArray {
 public:
  /// Opens/creates this processor's LAF under `dir`. `order` is the
  /// on-disk storage order (the compiler chooses it to make the selected
  /// slab orientation contiguous).
  OutOfCoreArray(sim::SpmdContext& ctx, const std::filesystem::path& dir,
                 std::string name, const hpf::ArrayDistribution& dist,
                 io::StorageOrder order, const io::DiskModel& disk);

  const OclaDescriptor& ocla() const noexcept { return ocla_; }
  const hpf::ArrayDistribution& dist() const noexcept { return ocla_.dist; }
  const std::string& name() const noexcept { return ocla_.array_name; }
  std::int64_t local_rows() const noexcept { return ocla_.local_rows; }
  std::int64_t local_cols() const noexcept { return ocla_.local_cols; }
  std::int64_t local_elements() const noexcept {
    return ocla_.local_elements();
  }
  io::LocalArrayFile& laf() noexcept { return laf_; }
  const io::LocalArrayFile& laf() const noexcept { return laf_; }

  /// Fills the local piece from a global-index generator f(grow, gcol),
  /// processed in slabs of at most `budget_elements` (each processor only
  /// writes data it owns; no communication).
  void initialize(sim::SpmdContext& ctx,
                  const std::function<double(std::int64_t, std::int64_t)>& f,
                  std::int64_t budget_elements);

  /// Gathers the full global array to rank 0 (slab-wise, for verification
  /// and examples; other ranks return an empty vector). Column-major
  /// global layout: out[gc * global_rows + gr].
  std::vector<double> gather_global(sim::SpmdContext& ctx,
                                    std::int64_t budget_elements);

 private:
  OclaDescriptor ocla_;
  io::LocalArrayFile laf_;
};

}  // namespace oocc::runtime
