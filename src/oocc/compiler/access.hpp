// Access-pattern analysis (§4.1: "analyzing the storage and access
// patterns along each dimension of the distributed out-of-core array").
//
// For every array reference in a loop nest, each subscript is classified
// relative to the enclosing loops. The classification drives both the
// communication analysis of the in-core phase and the I/O cost estimator:
// a reference whose subscripts do not involve the outer sequential loop is
// *outer-invariant* — the straightforward translation re-fetches it every
// outer iteration (column-slab GAXPY), which is exactly the waste the
// reorganization removes.
#pragma once

#include <string>
#include <vector>

#include "oocc/hpf/ast.hpp"
#include "oocc/hpf/sema.hpp"

namespace oocc::compiler {

enum class SubscriptClass {
  kFullRange,      ///< ':' or 1:N covering the whole dimension
  kForallIndex,    ///< the FORALL (parallel/streamed) index
  kForallOffset,   ///< forall index +/- a nonzero constant (stencil shape)
  kOuterIndex,     ///< an enclosing sequential DO index
  kConstant,       ///< loop-invariant scalar expression
  kConstantRange,  ///< lo:hi with constant partial bounds
  kOther           ///< anything else (affine of several vars, etc.)
};

std::string_view subscript_class_name(SubscriptClass c) noexcept;

/// Classification of one 2-D array reference inside a loop nest.
struct RefAccess {
  std::string array;
  SubscriptClass row_class = SubscriptClass::kOther;
  SubscriptClass col_class = SubscriptClass::kOther;
  bool is_lhs = false;

  /// Signed constant added to the forall index; nonzero exactly when
  /// col_class (resp. row_class) is kForallOffset. The stencil matcher's
  /// dependence distances are the max |offset| over a statement's refs.
  std::int64_t row_offset = 0;
  std::int64_t col_offset = 0;

  /// 1-based inclusive Fortran bounds of a kConstantRange subscript.
  std::int64_t row_lo = 0, row_hi = 0;
  std::int64_t col_lo = 0, col_hi = 0;

  /// True if no subscript depends on the outer sequential loop — the whole
  /// referenced region is needed again every outer iteration.
  bool outer_invariant() const noexcept {
    return row_class != SubscriptClass::kOuterIndex &&
           col_class != SubscriptClass::kOuterIndex;
  }
};

/// Loop-nest context for classification.
struct LoopContext {
  std::string outer_var;   ///< sequential DO variable ("" if none)
  std::string forall_var;  ///< FORALL variable ("" if none)
};

/// Classifies one subscript of array `info` along dimension `dim`
/// (0 = rows, 1 = cols).
SubscriptClass classify_subscript(const hpf::Subscript& sub,
                                  const hpf::ArrayInfo& info, int dim,
                                  const LoopContext& loops);

/// Classifies a full array reference expression (kind == kArrayRef).
RefAccess classify_reference(const hpf::Expr& ref, const hpf::ArrayInfo& info,
                             const LoopContext& loops, bool is_lhs);

/// Collects and classifies every array reference in `expr` (recursing
/// through binary operations).
void collect_references(const hpf::Expr& expr, const hpf::BoundProgram& program,
                        const LoopContext& loops, bool is_lhs,
                        std::vector<RefAccess>& out);

}  // namespace oocc::compiler
