// Abstract syntax tree for the HPF subset (Figure 3 of the paper and the
// surrounding class of data-parallel programs).
//
// Supported program shape:
//   parameter (name=int, ...)
//   real a(n,n), b(n,m), v(n)
//   !hpf$ processors Pr(p)
//   !hpf$ template d(n)
//   !hpf$ distribute d(block) onto Pr        (block | cyclic | cyclic(k))
//   !hpf$ align (*,:) with d :: a, c
//   do j=1, n ... end do                     (sequential loop)
//   forall (k=1:n) stmt... end forall        (parallel loop)
//   lhs-section = expr                        (array assignment)
//   x(1:n,j) = SUM(temp, 2)                   (sum-reduction intrinsic)
//   end
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace oocc::hpf {

// ---------------------------------------------------------------- exprs --

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

enum class ExprKind {
  kIntConst,     ///< integer literal (or a parameter sema bound)
  kVarRef,       ///< loop index, or a parameter until sema binds it
  kArrayRef,     ///< array element or section reference
  kBinary,       ///< arithmetic on scalars or elementwise on sections
  kSumIntrinsic  ///< SUM(array, dim)
};

enum class BinOp { kAdd, kSub, kMul, kDiv };

/// One subscript of an array reference.
enum class SubscriptKind {
  kScalar,  ///< a(expr, ...)
  kRange,   ///< a(lo:hi, ...) — inclusive Fortran bounds
  kFull     ///< a(:, ...)
};

struct Subscript {
  SubscriptKind kind = SubscriptKind::kFull;
  ExprPtr scalar;  ///< kScalar
  ExprPtr lo;      ///< kRange
  ExprPtr hi;      ///< kRange
};

struct Expr {
  ExprKind kind = ExprKind::kIntConst;
  int line = 0;

  std::int64_t int_value = 0;         ///< kIntConst; dim for kSumIntrinsic
  std::string name;                   ///< kVarRef / kArrayRef / kSumIntrinsic
  std::vector<Subscript> subscripts;  ///< kArrayRef
  BinOp op = BinOp::kAdd;             ///< kBinary
  ExprPtr lhs;                        ///< kBinary
  ExprPtr rhs;                        ///< kBinary
};

ExprPtr make_int(std::int64_t value, int line = 0);
ExprPtr make_var(std::string name, int line = 0);
ExprPtr make_binary(BinOp op, ExprPtr lhs, ExprPtr rhs, int line = 0);
ExprPtr clone_expr(const Expr& e);

/// Number of binary operations one evaluation of `e` performs. The one
/// flop rule, compiler::compute_flops, charges it per interior element of
/// a stencil; the executor charges that rule and the pricer prices it.
std::int64_t count_binary_ops(const Expr& e);

/// Renders an expression back to (lower-case) source-like text.
std::string to_string(const Expr& e);
std::string to_string(const Subscript& s);

/// Evaluates a scalar expression given variable bindings (parameters and
/// loop indices). Throws Error(kSemanticError) on unbound names, array
/// references, or division by zero.
std::int64_t evaluate_scalar(const Expr& e,
                             const std::map<std::string, std::int64_t>& env);

// ---------------------------------------------------------------- stmts --

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

enum class StmtKind {
  kDo,      ///< sequential DO loop
  kForall,  ///< parallel FORALL construct
  kAssign   ///< (array) assignment statement
};

struct Stmt {
  StmtKind kind = StmtKind::kAssign;
  int line = 0;

  // kDo / kForall
  std::string loop_var;
  ExprPtr lo;
  ExprPtr hi;
  std::vector<StmtPtr> body;

  // kAssign
  ExprPtr lhs;  ///< must be an ArrayRef (scalar assignment unsupported)
  ExprPtr rhs;
};

std::string to_string(const Stmt& s, int indent = 0);

/// Deep copy of a statement tree.
StmtPtr clone_stmt(const Stmt& s);

// --------------------------------------------------------- declarations --

struct ArrayDecl {
  std::string name;
  std::vector<ExprPtr> extents;  ///< 1 or 2 dimensions
  int line = 0;
};

struct ProcessorsDirective {
  std::string name;
  ExprPtr count;
  int line = 0;
};

struct TemplateDirective {
  std::string name;
  ExprPtr extent;  ///< templates in the subset are 1-D
  int line = 0;
};

enum class DistSpecKind { kBlock, kCyclic, kBlockCyclic };

struct DistributeDirective {
  std::string template_name;
  DistSpecKind kind = DistSpecKind::kBlock;
  ExprPtr block;  ///< kBlockCyclic block size
  std::string processors_name;
  int line = 0;
};

/// One position of an align source spec: '*' collapses the array dimension,
/// ':' aligns it with the (1-D) template.
enum class AlignDim { kStar, kColon };

struct AlignDirective {
  std::vector<AlignDim> dims;  ///< one entry per array dimension
  std::string template_name;
  std::vector<std::string> arrays;
  int line = 0;
};

// -------------------------------------------------------------- program --

struct Program {
  std::map<std::string, std::int64_t> parameters;
  std::vector<ArrayDecl> arrays;
  std::optional<ProcessorsDirective> processors;
  std::vector<TemplateDirective> templates;
  std::vector<DistributeDirective> distributes;
  std::vector<AlignDirective> aligns;
  std::vector<StmtPtr> stmts;
};

std::string to_string(const Program& p);

}  // namespace oocc::hpf
