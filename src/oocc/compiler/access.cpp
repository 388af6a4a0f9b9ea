#include "oocc/compiler/access.hpp"

#include <optional>

#include "oocc/util/error.hpp"

namespace oocc::compiler {

std::string_view subscript_class_name(SubscriptClass c) noexcept {
  switch (c) {
    case SubscriptClass::kFullRange:
      return "full-range";
    case SubscriptClass::kForallIndex:
      return "forall-index";
    case SubscriptClass::kForallOffset:
      return "forall-offset";
    case SubscriptClass::kOuterIndex:
      return "outer-index";
    case SubscriptClass::kConstant:
      return "constant";
    case SubscriptClass::kConstantRange:
      return "constant-range";
    case SubscriptClass::kOther:
      return "other";
  }
  return "?";
}

namespace {

/// True if `e` is exactly a reference to variable `name`.
bool is_var(const hpf::Expr& e, const std::string& name) {
  return e.kind == hpf::ExprKind::kVarRef && e.name == name;
}

/// True if `e` is an integer constant: sema bound every parameter, so
/// any remaining name is a loop variable.
bool is_constant(const hpf::Expr& e) {
  switch (e.kind) {
    case hpf::ExprKind::kIntConst:
      return true;
    case hpf::ExprKind::kBinary:
      return is_constant(*e.lhs) && is_constant(*e.rhs);
    default:
      return false;
  }
}

/// Recognizes `forall_var +/- c` (either operand order for +) and returns
/// the signed offset; nullopt when `e` is not of that shape. The bare
/// forall variable yields offset 0.
std::optional<std::int64_t> forall_offset_of(const hpf::Expr& e,
                                             const std::string& forall_var) {
  if (forall_var.empty()) {
    return std::nullopt;
  }
  if (is_var(e, forall_var)) {
    return 0;
  }
  if (e.kind != hpf::ExprKind::kBinary ||
      (e.op != hpf::BinOp::kAdd && e.op != hpf::BinOp::kSub)) {
    return std::nullopt;
  }
  const hpf::Expr& l = *e.lhs;
  const hpf::Expr& r = *e.rhs;
  if (is_var(l, forall_var) && is_constant(r)) {
    const std::int64_t c = hpf::evaluate_scalar(r, {});
    return e.op == hpf::BinOp::kAdd ? c : -c;
  }
  if (e.op == hpf::BinOp::kAdd && is_var(r, forall_var) && is_constant(l)) {
    return hpf::evaluate_scalar(l, {});
  }
  return std::nullopt;
}

}  // namespace

SubscriptClass classify_subscript(const hpf::Subscript& sub,
                                  const hpf::ArrayInfo& info, int dim,
                                  const LoopContext& loops) {
  const std::int64_t extent = dim == 0 ? info.rows : info.cols;
  switch (sub.kind) {
    case hpf::SubscriptKind::kFull:
      return SubscriptClass::kFullRange;
    case hpf::SubscriptKind::kRange: {
      // 1:N over the whole dimension is a full range; other constant
      // bounds are a partial section (the stencil matcher reads its bounds
      // off the RefAccess).
      if (is_constant(*sub.lo) && is_constant(*sub.hi)) {
        const std::int64_t lo = hpf::evaluate_scalar(*sub.lo, {});
        const std::int64_t hi = hpf::evaluate_scalar(*sub.hi, {});
        if (lo == 1 && hi == extent) {
          return SubscriptClass::kFullRange;
        }
        return SubscriptClass::kConstantRange;
      }
      return SubscriptClass::kOther;
    }
    case hpf::SubscriptKind::kScalar: {
      if (const auto off = forall_offset_of(*sub.scalar, loops.forall_var)) {
        return *off == 0 ? SubscriptClass::kForallIndex
                         : SubscriptClass::kForallOffset;
      }
      if (!loops.outer_var.empty() && is_var(*sub.scalar, loops.outer_var)) {
        return SubscriptClass::kOuterIndex;
      }
      if (is_constant(*sub.scalar)) {
        return SubscriptClass::kConstant;
      }
      return SubscriptClass::kOther;
    }
  }
  return SubscriptClass::kOther;
}

namespace {

/// Fills one dimension's class plus the detail fields the class implies.
void classify_dim(const hpf::Subscript& sub, const hpf::ArrayInfo& info,
                  int dim, const LoopContext& loops, SubscriptClass& cls,
                  std::int64_t& offset, std::int64_t& lo, std::int64_t& hi) {
  cls = classify_subscript(sub, info, dim, loops);
  if (cls == SubscriptClass::kForallIndex ||
      cls == SubscriptClass::kForallOffset) {
    offset = *forall_offset_of(*sub.scalar, loops.forall_var);
  } else if (cls == SubscriptClass::kConstantRange ||
             cls == SubscriptClass::kFullRange) {
    if (sub.kind == hpf::SubscriptKind::kRange) {
      lo = hpf::evaluate_scalar(*sub.lo, {});
      hi = hpf::evaluate_scalar(*sub.hi, {});
    } else {
      lo = 1;
      hi = dim == 0 ? info.rows : info.cols;
    }
  }
}

}  // namespace

RefAccess classify_reference(const hpf::Expr& ref, const hpf::ArrayInfo& info,
                             const LoopContext& loops, bool is_lhs) {
  OOCC_REQUIRE(ref.kind == hpf::ExprKind::kArrayRef,
               "classify_reference expects an array reference");
  RefAccess out;
  out.array = ref.name;
  out.is_lhs = is_lhs;
  classify_dim(ref.subscripts[0], info, 0, loops, out.row_class,
               out.row_offset, out.row_lo, out.row_hi);
  if (ref.subscripts.size() > 1) {
    classify_dim(ref.subscripts[1], info, 1, loops, out.col_class,
                 out.col_offset, out.col_lo, out.col_hi);
  } else {
    out.col_class = SubscriptClass::kConstant;  // rank-1: single column
  }
  return out;
}

void collect_references(const hpf::Expr& expr,
                        const hpf::BoundProgram& program,
                        const LoopContext& loops, bool is_lhs,
                        std::vector<RefAccess>& out) {
  switch (expr.kind) {
    case hpf::ExprKind::kArrayRef:
      out.push_back(
          classify_reference(expr, program.array(expr.name), loops, is_lhs));
      return;
    case hpf::ExprKind::kBinary:
      collect_references(*expr.lhs, program, loops, is_lhs, out);
      collect_references(*expr.rhs, program, loops, is_lhs, out);
      return;
    case hpf::ExprKind::kSumIntrinsic: {
      RefAccess ref;
      ref.array = expr.name;
      ref.row_class = SubscriptClass::kFullRange;
      ref.col_class = SubscriptClass::kFullRange;
      ref.is_lhs = is_lhs;
      out.push_back(ref);
      return;
    }
    default:
      return;
  }
}

}  // namespace oocc::compiler
