#include "oocc/compiler/plan.hpp"

#include "oocc/util/error.hpp"

namespace oocc::compiler {

std::string_view program_kind_name(ProgramKind k) noexcept {
  switch (k) {
    case ProgramKind::kGaxpy:
      return "gaxpy-reduction";
    case ProgramKind::kElementwise:
      return "elementwise-forall";
    case ProgramKind::kStencil:
      return "stencil-forall";
  }
  return "?";
}

std::string_view step_kind_name(StepKind k) noexcept {
  switch (k) {
    case StepKind::kForEachSlab:
      return "for-each-slab";
    case StepKind::kForEachColumn:
      return "for-each-column";
    case StepKind::kReadSlab:
      return "read-slab";
    case StepKind::kWriteSlab:
      return "write-slab";
    case StepKind::kComputeElementwise:
      return "compute-elementwise";
    case StepKind::kComputeGaxpyPartial:
      return "compute-gaxpy-partial";
    case StepKind::kReduceSum:
      return "reduce-sum";
    case StepKind::kExchangeHalo:
      return "exchange-halo";
    case StepKind::kComputeStencil:
      return "compute-stencil";
    case StepKind::kBarrier:
      return "barrier";
  }
  return "?";
}

double compute_flops(const SlabStmt& stmt, const hpf::ArrayDistribution& dist,
                     int proc, const io::Section& section) {
  if (stmt.source.empty()) {
    return static_cast<double>(section.elements());
  }
  std::int64_t interior_cols = 0;
  for (std::int64_t lc = section.col0; lc < section.col1; ++lc) {
    const std::int64_t gc = dist.local_to_global_col(proc, lc);
    if (gc >= stmt.halo && gc < dist.global_cols() - stmt.halo) {
      ++interior_cols;
    }
  }
  return static_cast<double>(hpf::count_binary_ops(*stmt.rhs)) *
         static_cast<double>(interior_cols) *
         static_cast<double>(section.rows() - 2 * stmt.row_halo);
}

const PlanArray& NodeProgram::array(const std::string& name) const {
  const auto it = arrays.find(name);
  OOCC_CHECK(it != arrays.end(), ErrorCode::kInvalidArgument,
             "plan has no array named '" << name << "'");
  return it->second;
}

}  // namespace oocc::compiler
