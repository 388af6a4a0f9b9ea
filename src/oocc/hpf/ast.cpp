#include "oocc/hpf/ast.hpp"

#include <sstream>

#include "oocc/util/error.hpp"

namespace oocc::hpf {

ExprPtr make_int(std::int64_t value, int line) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kIntConst;
  e->int_value = value;
  e->line = line;
  return e;
}

ExprPtr make_var(std::string name, int line) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kVarRef;
  e->name = std::move(name);
  e->line = line;
  return e;
}

ExprPtr make_binary(BinOp op, ExprPtr lhs, ExprPtr rhs, int line) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->op = op;
  e->lhs = std::move(lhs);
  e->rhs = std::move(rhs);
  e->line = line;
  return e;
}

ExprPtr clone_expr(const Expr& e) {
  auto out = std::make_unique<Expr>();
  out->kind = e.kind;
  out->line = e.line;
  out->int_value = e.int_value;
  out->name = e.name;
  out->op = e.op;
  if (e.lhs) out->lhs = clone_expr(*e.lhs);
  if (e.rhs) out->rhs = clone_expr(*e.rhs);
  out->subscripts.reserve(e.subscripts.size());
  for (const Subscript& s : e.subscripts) {
    Subscript c;
    c.kind = s.kind;
    if (s.scalar) c.scalar = clone_expr(*s.scalar);
    if (s.lo) c.lo = clone_expr(*s.lo);
    if (s.hi) c.hi = clone_expr(*s.hi);
    out->subscripts.push_back(std::move(c));
  }
  return out;
}

std::int64_t count_binary_ops(const Expr& e) {
  std::int64_t ops = e.kind == ExprKind::kBinary ? 1 : 0;
  if (e.lhs) ops += count_binary_ops(*e.lhs);
  if (e.rhs) ops += count_binary_ops(*e.rhs);
  return ops;
}

namespace {

char op_char(BinOp op) noexcept {
  switch (op) {
    case BinOp::kAdd:
      return '+';
    case BinOp::kSub:
      return '-';
    case BinOp::kMul:
      return '*';
    case BinOp::kDiv:
      return '/';
  }
  return '?';
}

}  // namespace

std::string to_string(const Subscript& s) {
  switch (s.kind) {
    case SubscriptKind::kFull:
      return ":";
    case SubscriptKind::kScalar:
      return to_string(*s.scalar);
    case SubscriptKind::kRange:
      return to_string(*s.lo) + ":" + to_string(*s.hi);
  }
  return "?";
}

std::string to_string(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kIntConst:
      return std::to_string(e.int_value);
    case ExprKind::kVarRef:
      return e.name;
    case ExprKind::kArrayRef: {
      std::string out = e.name + "(";
      for (std::size_t i = 0; i < e.subscripts.size(); ++i) {
        if (i != 0) out += ",";
        out += to_string(e.subscripts[i]);
      }
      return out + ")";
    }
    case ExprKind::kBinary: {
      std::string out = "(";
      out += to_string(*e.lhs);
      out += op_char(e.op);
      out += to_string(*e.rhs);
      return out + ")";
    }
    case ExprKind::kSumIntrinsic:
      return "sum(" + e.name + "," + std::to_string(e.int_value) + ")";
  }
  return "?";
}

std::int64_t evaluate_scalar(const Expr& e,
                             const std::map<std::string, std::int64_t>& env) {
  switch (e.kind) {
    case ExprKind::kIntConst:
      return e.int_value;
    case ExprKind::kVarRef: {
      const auto it = env.find(e.name);
      OOCC_CHECK(it != env.end(), ErrorCode::kSemanticError,
                 "unbound scalar '" << e.name << "' at line " << e.line);
      return it->second;
    }
    case ExprKind::kBinary: {
      const std::int64_t a = evaluate_scalar(*e.lhs, env);
      const std::int64_t b = evaluate_scalar(*e.rhs, env);
      switch (e.op) {
        case BinOp::kAdd:
          return a + b;
        case BinOp::kSub:
          return a - b;
        case BinOp::kMul:
          return a * b;
        case BinOp::kDiv:
          OOCC_CHECK(b != 0, ErrorCode::kSemanticError,
                     "division by zero at line " << e.line);
          return a / b;
      }
      return 0;
    }
    case ExprKind::kArrayRef:
      OOCC_THROW(ErrorCode::kSemanticError,
                 "array reference '" << e.name
                                     << "' used where a scalar is required "
                                        "at line "
                                     << e.line);
    case ExprKind::kSumIntrinsic:
      OOCC_THROW(ErrorCode::kSemanticError,
                 "SUM intrinsic used where a scalar is required at line "
                     << e.line);
  }
  return 0;
}

StmtPtr clone_stmt(const Stmt& s) {
  auto out = std::make_unique<Stmt>();
  out->kind = s.kind;
  out->line = s.line;
  out->loop_var = s.loop_var;
  if (s.lo) out->lo = clone_expr(*s.lo);
  if (s.hi) out->hi = clone_expr(*s.hi);
  if (s.lhs) out->lhs = clone_expr(*s.lhs);
  if (s.rhs) out->rhs = clone_expr(*s.rhs);
  out->body.reserve(s.body.size());
  for (const auto& b : s.body) {
    out->body.push_back(clone_stmt(*b));
  }
  return out;
}

std::string to_string(const Stmt& s, int indent) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  std::ostringstream oss;
  switch (s.kind) {
    case StmtKind::kDo:
      oss << pad << "do " << s.loop_var << "=" << to_string(*s.lo) << ", "
          << to_string(*s.hi) << "\n";
      for (const auto& b : s.body) {
        oss << to_string(*b, indent + 1);
      }
      oss << pad << "end do\n";
      break;
    case StmtKind::kForall:
      oss << pad << "forall (" << s.loop_var << "=" << to_string(*s.lo) << ":"
          << to_string(*s.hi) << ")\n";
      for (const auto& b : s.body) {
        oss << to_string(*b, indent + 1);
      }
      oss << pad << "end forall\n";
      break;
    case StmtKind::kAssign:
      oss << pad << to_string(*s.lhs) << " = " << to_string(*s.rhs) << "\n";
      break;
  }
  return oss.str();
}

std::string to_string(const Program& p) {
  std::ostringstream oss;
  if (!p.parameters.empty()) {
    oss << "parameter (";
    bool first = true;
    for (const auto& [name, value] : p.parameters) {
      if (!first) oss << ", ";
      oss << name << "=" << value;
      first = false;
    }
    oss << ")\n";
  }
  for (const auto& a : p.arrays) {
    oss << "real " << a.name << "(";
    for (std::size_t i = 0; i < a.extents.size(); ++i) {
      if (i != 0) oss << ",";
      oss << to_string(*a.extents[i]);
    }
    oss << ")\n";
  }
  if (p.processors.has_value()) {
    oss << "!hpf$ processors " << p.processors->name << "("
        << to_string(*p.processors->count) << ")\n";
  }
  for (const auto& t : p.templates) {
    oss << "!hpf$ template " << t.name << "(" << to_string(*t.extent) << ")\n";
  }
  for (const auto& d : p.distributes) {
    oss << "!hpf$ distribute " << d.template_name << "(";
    switch (d.kind) {
      case DistSpecKind::kBlock:
        oss << "block";
        break;
      case DistSpecKind::kCyclic:
        oss << "cyclic";
        break;
      case DistSpecKind::kBlockCyclic:
        oss << "cyclic(" << to_string(*d.block) << ")";
        break;
    }
    oss << ") onto " << d.processors_name << "\n";
  }
  for (const auto& al : p.aligns) {
    oss << "!hpf$ align (";
    for (std::size_t i = 0; i < al.dims.size(); ++i) {
      if (i != 0) oss << ",";
      oss << (al.dims[i] == AlignDim::kStar ? "*" : ":");
    }
    oss << ") with " << al.template_name << " ::";
    for (std::size_t i = 0; i < al.arrays.size(); ++i) {
      oss << (i == 0 ? " " : ", ") << al.arrays[i];
    }
    oss << "\n";
  }
  for (const auto& s : p.stmts) {
    oss << to_string(*s, 0);
  }
  oss << "end\n";
  return oss.str();
}

}  // namespace oocc::hpf
