#include "oocc/hpf/sema.hpp"

#include <set>

#include "oocc/hpf/align.hpp"
#include "oocc/util/error.hpp"

namespace oocc::hpf {

namespace {

/// Validates statements: referenced arrays are declared with matching rank,
/// loop variables are unique along a nest path, and scalar subscripts only
/// reference loop variables / parameters.
class StmtChecker {
 public:
  StmtChecker(const std::map<std::string, ArrayInfo>& arrays,
              const std::map<std::string, std::int64_t>& parameters)
      : arrays_(arrays), parameters_(parameters) {}

  void check_all(const std::vector<StmtPtr>& stmts) {
    for (const auto& s : stmts) {
      check_stmt(*s);
    }
  }

 private:
  void check_stmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::kDo:
      case StmtKind::kForall: {
        OOCC_CHECK(!scope_.contains(s.loop_var), ErrorCode::kSemanticError,
                   "loop variable '" << s.loop_var
                                     << "' shadows an enclosing loop at line "
                                     << s.line);
        OOCC_CHECK(!parameters_.contains(s.loop_var),
                   ErrorCode::kSemanticError,
                   "loop variable '" << s.loop_var
                                     << "' shadows a parameter at line "
                                     << s.line);
        check_scalar_expr(*s.lo);
        check_scalar_expr(*s.hi);
        scope_.insert(s.loop_var);
        for (const auto& b : s.body) {
          check_stmt(*b);
        }
        scope_.erase(s.loop_var);
        return;
      }
      case StmtKind::kAssign: {
        check_expr(*s.lhs);
        check_expr(*s.rhs);
        return;
      }
    }
  }

  void check_expr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kIntConst:
        return;
      case ExprKind::kVarRef:
        OOCC_CHECK(scope_.contains(e.name) || parameters_.contains(e.name),
                   ErrorCode::kSemanticError,
                   "reference to unknown scalar '" << e.name << "' at line "
                                                   << e.line);
        return;
      case ExprKind::kBinary:
        check_expr(*e.lhs);
        check_expr(*e.rhs);
        return;
      case ExprKind::kSumIntrinsic: {
        const auto it = arrays_.find(e.name);
        OOCC_CHECK(it != arrays_.end(), ErrorCode::kSemanticError,
                   "SUM of undeclared array '" << e.name << "' at line "
                                               << e.line);
        OOCC_CHECK(it->second.rank == 2, ErrorCode::kSemanticError,
                   "SUM(array, dim) requires a rank-2 array; '"
                       << e.name << "' has rank " << it->second.rank
                       << " at line " << e.line);
        return;
      }
      case ExprKind::kArrayRef: {
        const auto it = arrays_.find(e.name);
        OOCC_CHECK(it != arrays_.end(), ErrorCode::kSemanticError,
                   "reference to undeclared array '" << e.name << "' at line "
                                                     << e.line);
        OOCC_CHECK(
            e.subscripts.size() == static_cast<std::size_t>(it->second.rank),
            ErrorCode::kSemanticError,
            "'" << e.name << "' has rank " << it->second.rank << " but is "
                << "referenced with " << e.subscripts.size()
                << " subscripts at line " << e.line);
        for (const auto& sub : e.subscripts) {
          if (sub.kind == SubscriptKind::kScalar) {
            check_scalar_expr(*sub.scalar);
          } else if (sub.kind == SubscriptKind::kRange) {
            check_scalar_expr(*sub.lo);
            check_scalar_expr(*sub.hi);
          }
        }
        return;
      }
    }
  }

  void check_scalar_expr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kIntConst:
        return;
      case ExprKind::kVarRef:
        OOCC_CHECK(scope_.contains(e.name) || parameters_.contains(e.name),
                   ErrorCode::kSemanticError,
                   "reference to unknown scalar '" << e.name << "' at line "
                                                   << e.line);
        return;
      case ExprKind::kBinary:
        check_scalar_expr(*e.lhs);
        check_scalar_expr(*e.rhs);
        return;
      default:
        OOCC_THROW(ErrorCode::kSemanticError,
                   "subscript expressions must be scalar at line " << e.line);
    }
  }

  const std::map<std::string, ArrayInfo>& arrays_;
  const std::map<std::string, std::int64_t>& parameters_;
  std::set<std::string> scope_;
};

}  // namespace

const ArrayInfo& BoundProgram::array(const std::string& name) const {
  const auto it = arrays.find(name);
  OOCC_CHECK(it != arrays.end(), ErrorCode::kSemanticError,
             "unknown array '" << name << "'");
  return it->second;
}

BoundProgram analyze(Program program) {
  BoundProgram bound;
  bound.parameters = program.parameters;

  // Processor arrangement. A program with no PROCESSORS directive is a
  // single-processor program.
  std::string procs_name;
  if (program.processors.has_value()) {
    procs_name = program.processors->name;
    const std::int64_t p =
        evaluate_scalar(*program.processors->count, bound.parameters);
    OOCC_CHECK(p >= 1 && p <= kMaxProcessors, ErrorCode::kSemanticError,
               "PROCESSORS count must be in 1.." << kMaxProcessors << ", got "
                                                 << p);
    bound.nprocs = static_cast<int>(p);
  }

  // Templates, then their DISTRIBUTE directives.
  std::map<std::string, TemplateInfo> templates;
  for (const auto& t : program.templates) {
    OOCC_CHECK(!templates.contains(t.name), ErrorCode::kSemanticError,
               "duplicate template '" << t.name << "' at line " << t.line);
    TemplateInfo info;
    info.name = t.name;
    info.extent = evaluate_scalar(*t.extent, bound.parameters);
    info.nprocs = 1;  // undistributed until a DISTRIBUTE names it
    templates[t.name] = info;
  }
  for (const auto& d : program.distributes) {
    const auto it = templates.find(d.template_name);
    OOCC_CHECK(it != templates.end(), ErrorCode::kSemanticError,
               "DISTRIBUTE names unknown template '" << d.template_name
                                                     << "' at line " << d.line);
    OOCC_CHECK(d.processors_name.empty() || d.processors_name == procs_name,
               ErrorCode::kSemanticError,
               "DISTRIBUTE onto unknown arrangement '" << d.processors_name
                                                       << "' at line "
                                                       << d.line);
    TemplateInfo& info = it->second;
    info.nprocs = bound.nprocs;
    switch (d.kind) {
      case DistSpecKind::kBlock:
        info.kind = DistKind::kBlock;
        break;
      case DistSpecKind::kCyclic:
        info.kind = DistKind::kCyclic;
        break;
      case DistSpecKind::kBlockCyclic:
        info.kind = DistKind::kBlockCyclic;
        info.block = evaluate_scalar(*d.block, bound.parameters);
        break;
    }
  }

  // Array declarations (distribution defaults to fully replicated).
  for (const auto& decl : program.arrays) {
    OOCC_CHECK(!bound.arrays.contains(decl.name), ErrorCode::kSemanticError,
               "duplicate array '" << decl.name << "' at line " << decl.line);
    ArrayInfo info;
    info.name = decl.name;
    info.rank = static_cast<int>(decl.extents.size());
    info.rows = evaluate_scalar(*decl.extents[0], bound.parameters);
    info.cols = info.rank == 2
                    ? evaluate_scalar(*decl.extents[1], bound.parameters)
                    : 1;
    OOCC_CHECK(info.rows >= 1 && info.cols >= 1, ErrorCode::kSemanticError,
               "array '" << decl.name << "' has non-positive extents "
                         << info.rows << "x" << info.cols);
    info.dist = ArrayDistribution(info.rows, info.cols, DistAxis::kNone,
                                  DistKind::kCollapsed, bound.nprocs);
    bound.arrays[decl.name] = std::move(info);
  }

  // ALIGN directives map array dimensions onto templates.
  for (const auto& al : program.aligns) {
    const auto t_it = templates.find(al.template_name);
    OOCC_CHECK(t_it != templates.end(), ErrorCode::kSemanticError,
               "ALIGN names unknown template '" << al.template_name
                                                << "' at line " << al.line);
    for (const auto& array_name : al.arrays) {
      const auto a_it = bound.arrays.find(array_name);
      OOCC_CHECK(a_it != bound.arrays.end(), ErrorCode::kSemanticError,
                 "ALIGN names undeclared array '" << array_name
                                                  << "' at line " << al.line);
      ArrayInfo& info = a_it->second;
      info.dist = resolve_alignment(al.dims, t_it->second, info.rows,
                                    info.cols, array_name);
    }
  }

  // Statement checks.
  StmtChecker checker(bound.arrays, bound.parameters);
  checker.check_all(program.stmts);

  bound.stmts = std::move(program.stmts);
  return bound;
}

}  // namespace oocc::hpf
