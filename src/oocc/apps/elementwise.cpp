#include "oocc/apps/elementwise.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "oocc/util/error.hpp"

namespace oocc::apps {

namespace {

class SerialEvaluator {
 public:
  SerialEvaluator(const hpf::BoundProgram& program, DenseArrays& arrays)
      : program_(program), arrays_(arrays) {}

  void run(const hpf::Stmt& s) {
    if (s.kind == hpf::StmtKind::kAssign) {
      assign(*s.lhs, *s.rhs);
      return;
    }
    const std::int64_t lo = hpf::evaluate_scalar(*s.lo, env_);
    const std::int64_t hi = hpf::evaluate_scalar(*s.hi, env_);
    for (std::int64_t k = lo; k <= hi; ++k) {
      env_[s.loop_var] = k;
      for (const hpf::StmtPtr& body : s.body) {
        run(*body);
      }
    }
    env_.erase(s.loop_var);
  }

 private:
  /// Fortran bounds of `ref`'s section subscript `d`.
  std::pair<std::int64_t, std::int64_t> bounds(const hpf::Expr& ref,
                                               std::size_t d) const {
    const hpf::Subscript& sub = ref.subscripts[d];
    if (sub.kind == hpf::SubscriptKind::kRange) {
      return {hpf::evaluate_scalar(*sub.lo, env_),
              hpf::evaluate_scalar(*sub.hi, env_)};
    }
    const hpf::ArrayInfo& info = program_.array(ref.name);
    return {1, d == 0 ? info.rows : info.cols};
  }

  /// Element of `ref` at offsets `pos` into its section subscripts.
  double& element(const hpf::Expr& ref, const std::vector<std::int64_t>& pos) {
    const hpf::ArrayInfo& info = program_.array(ref.name);
    std::int64_t index[2] = {1, 1};
    std::size_t t = 0;
    for (std::size_t d = 0; d < ref.subscripts.size() && d < 2; ++d) {
      const hpf::Subscript& sub = ref.subscripts[d];
      index[d] = sub.kind == hpf::SubscriptKind::kScalar
                     ? hpf::evaluate_scalar(*sub.scalar, env_)
                     : bounds(ref, d).first + pos.at(t++);
    }
    OOCC_CHECK(index[0] >= 1 && index[0] <= info.rows && index[1] >= 1 &&
                   index[1] <= info.cols,
               ErrorCode::kOutOfRange,
               "serial reference: " << ref.name << "(" << index[0] << ","
                                    << index[1] << ") is outside the array");
    return arrays_.at(ref.name)[static_cast<std::size_t>(
        (index[1] - 1) * info.rows + index[0] - 1)];
  }

  double value(const hpf::Expr& e, const std::vector<std::int64_t>& pos) {
    switch (e.kind) {
      case hpf::ExprKind::kIntConst:
      case hpf::ExprKind::kVarRef:
        return static_cast<double>(hpf::evaluate_scalar(e, env_));
      case hpf::ExprKind::kArrayRef:
        return element(e, pos);
      case hpf::ExprKind::kBinary: {
        const double a = value(*e.lhs, pos);
        const double b = value(*e.rhs, pos);
        switch (e.op) {
          case hpf::BinOp::kAdd:
            return a + b;
          case hpf::BinOp::kSub:
            return a - b;
          case hpf::BinOp::kMul:
            return a * b;
          case hpf::BinOp::kDiv:
            return a / b;
        }
        break;
      }
      case hpf::ExprKind::kSumIntrinsic:
        break;
    }
    OOCC_THROW(ErrorCode::kInvalidArgument,
               "serial reference: '" << hpf::to_string(e)
                                     << "' is not an elementwise expression");
  }

  /// Runs `lhs = rhs` over every element of the lhs section, first section
  /// subscript fastest.
  void assign(const hpf::Expr& lhs, const hpf::Expr& rhs) {
    std::vector<std::int64_t> extent;
    for (std::size_t d = 0; d < lhs.subscripts.size(); ++d) {
      if (lhs.subscripts[d].kind != hpf::SubscriptKind::kScalar) {
        const auto [lo, hi] = bounds(lhs, d);
        extent.push_back(std::max<std::int64_t>(0, hi - lo + 1));
      }
    }
    std::int64_t total = 1;
    for (const std::int64_t e : extent) {
      total *= e;
    }
    std::vector<std::int64_t> pos(extent.size());
    for (std::int64_t i = 0; i < total; ++i) {
      std::int64_t rest = i;
      for (std::size_t t = 0; t < extent.size(); ++t) {
        pos[t] = rest % extent[t];
        rest /= extent[t];
      }
      const double v = value(rhs, pos);
      element(lhs, pos) = v;
    }
  }

  const hpf::BoundProgram& program_;
  DenseArrays& arrays_;
  std::map<std::string, std::int64_t> env_;  ///< loop indices
};

}  // namespace

void serial_elementwise(const hpf::BoundProgram& program,
                        DenseArrays& arrays) {
  for (const auto& [name, info] : program.arrays) {
    const auto it = arrays.find(name);
    OOCC_REQUIRE(it != arrays.end() && std::ssize(it->second) ==
                                           info.rows * info.cols,
                 "serial reference: array '" << name << "' needs "
                                             << info.rows * info.cols
                                             << " elements");
  }
  SerialEvaluator eval(program, arrays);
  for (const hpf::StmtPtr& s : program.stmts) {
    eval.run(*s);
  }
}

}  // namespace oocc::apps
