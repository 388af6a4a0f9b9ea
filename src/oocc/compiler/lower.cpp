#include "oocc/compiler/lower.hpp"

#include <algorithm>
#include <functional>
#include <optional>
#include <span>
#include <sstream>

#include "oocc/compiler/access.hpp"
#include "oocc/compiler/lower_internal.hpp"
#include "oocc/compiler/pretty.hpp"
#include "oocc/compiler/search.hpp"
#include "oocc/compiler/verify.hpp"
#include "oocc/hpf/parser.hpp"
#include "oocc/util/error.hpp"

namespace oocc::compiler {

namespace {

using hpf::ArrayInfo;
using hpf::BoundProgram;
using hpf::Expr;
using hpf::ExprKind;
using hpf::Stmt;
using hpf::StmtKind;

/// Result of recognizing the Figure 3 GAXPY pattern.
struct GaxpyMatch {
  std::string a;
  std::string b;
  std::string c;
  std::string temp;  ///< reduction temporary (elided from the plan)
  std::string outer_var;
  std::string forall_var;
  std::int64_t n = 0;
};

/// Result of recognizing a communication-free elementwise FORALL.
struct ElementwiseMatch {
  std::string lhs;
  const Expr* rhs = nullptr;
  std::string forall_var;
  std::int64_t rows = 0;
  std::int64_t cols = 0;
};

/// Result of recognizing a halo-stencil FORALL: a single-source update of
/// the interior whose rhs reads forall-index +/- constant columns and
/// constant-shifted row ranges (the compiled Jacobi shape).
struct StencilMatch {
  std::string lhs;
  std::string source;
  const Expr* rhs = nullptr;
  std::string forall_var;
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t halo = 0;      ///< column dependence distance d
  std::int64_t row_halo = 0;  ///< row shift magnitude (boundary rows)
};

std::optional<std::int64_t> const_bound(
    const Expr& e, const std::map<std::string, std::int64_t>& params) {
  try {
    return hpf::evaluate_scalar(e, params);
  } catch (const Error&) {
    return std::nullopt;
  }
}

// ------------------------------------------------------- step emission

Step for_each_slab(std::string loop, std::vector<Step> body) {
  Step s;
  s.kind = StepKind::kForEachSlab;
  s.loop = std::move(loop);
  s.body = std::move(body);
  return s;
}

Step for_each_column(std::string loop, std::vector<Step> body) {
  Step s;
  s.kind = StepKind::kForEachColumn;
  s.loop = std::move(loop);
  s.body = std::move(body);
  return s;
}

Step read_slab(std::string loop, std::string array) {
  Step s;
  s.kind = StepKind::kReadSlab;
  s.loop = std::move(loop);
  s.array = std::move(array);
  return s;
}

Step write_slab(std::string loop, std::string array) {
  Step s;
  s.kind = StepKind::kWriteSlab;
  s.loop = std::move(loop);
  s.array = std::move(array);
  return s;
}

Step gaxpy_partial(std::string a_loop, std::string column_loop) {
  Step s;
  s.kind = StepKind::kComputeGaxpyPartial;
  s.loop = std::move(a_loop);
  s.with = std::move(column_loop);
  return s;
}

Step reduce_sum_step(std::string output, std::string column_loop) {
  Step s;
  s.kind = StepKind::kReduceSum;
  s.array = std::move(output);
  s.with = std::move(column_loop);
  return s;
}

Step elementwise_step(std::string loop, int stmt) {
  Step s;
  s.kind = StepKind::kComputeElementwise;
  s.loop = std::move(loop);
  s.stmt = stmt;
  return s;
}

Step halo_read_slab(std::string loop, std::string array, std::int64_t halo) {
  Step s = read_slab(std::move(loop), std::move(array));
  s.halo = halo;
  return s;
}

Step exchange_halo_step(std::string loop, std::string array,
                        std::int64_t halo) {
  Step s;
  s.kind = StepKind::kExchangeHalo;
  s.loop = std::move(loop);
  s.array = std::move(array);
  s.halo = halo;
  return s;
}

Step stencil_step(std::string loop, int stmt) {
  Step s;
  s.kind = StepKind::kComputeStencil;
  s.loop = std::move(loop);
  s.stmt = stmt;
  return s;
}

Step barrier_step() {
  Step s;
  s.kind = StepKind::kBarrier;
  return s;
}

}  // namespace

// Emission hooks shared with the global plan search (lower_internal.hpp):
// the searcher's candidates are re-emitted by the exact routines the
// heuristic pipeline uses, so every searched plan is a plan this file
// could have produced.
namespace detail {

/// Builds the GAXPY step program for the plan's chosen orientation: the
/// exact loop nests of Figure 9 (column slabs, A re-swept per output
/// column) and Figure 12 (row slabs, A fetched exactly once).
void emit_gaxpy_steps(NodeProgram& plan) {
  plan.loops.clear();
  plan.steps.clear();
  plan.loops.push_back(SlabLoop{"A", plan.a, plan.a_orientation,
                                plan.memory.slab_a, plan.prefetch});
  plan.loops.push_back(SlabLoop{"B", plan.b,
                                runtime::SlabOrientation::kColumnSlabs,
                                plan.memory.slab_b, false});
  if (plan.a_orientation == runtime::SlabOrientation::kColumnSlabs) {
    // Figure 9: do slabs(B) { read B; do m { do slabs(A) { read A;
    // partial }; global-sum } }.
    std::vector<Step> per_column;
    per_column.push_back(
        for_each_slab("A", {read_slab("A", plan.a), gaxpy_partial("A", "B")}));
    per_column.push_back(reduce_sum_step(plan.c, "B"));
    plan.steps.push_back(for_each_slab(
        "B",
        {read_slab("B", plan.b), for_each_column("B", std::move(per_column))}));
  } else {
    // Figure 12: do slabs(A) { read A; do slabs(B) { read B; do m {
    // partial; global-sum } } }.
    std::vector<Step> per_column;
    per_column.push_back(gaxpy_partial("A", "B"));
    per_column.push_back(reduce_sum_step(plan.c, "B"));
    Step b_sweep = for_each_slab(
        "B",
        {read_slab("B", plan.b), for_each_column("B", std::move(per_column))});
    plan.steps.push_back(
        for_each_slab("A", {read_slab("A", plan.a), std::move(b_sweep)}));
  }
}

void collect_ref_names(const Expr& e, std::vector<std::string>& out) {
  if (e.kind == ExprKind::kArrayRef &&
      std::find(out.begin(), out.end(), e.name) == out.end()) {
    out.push_back(e.name);
  }
  if (e.lhs) collect_ref_names(*e.lhs, out);
  if (e.rhs) collect_ref_names(*e.rhs, out);
}

/// Divides the budget among the sweep's buffers and emits the elementwise
/// step program for plan.statements (one or a fused group): one column-slab
/// sweep over the first lhs; per slab, read every array consumed before the
/// group produces it, evaluate the statements in order (later statements
/// read earlier results from memory), then write every produced array.
/// `enable_prefetch` double-buffers the pure-input streams (re-runnable:
/// the --prefetch=auto pass builds both layouts and keeps one).
void finish_elementwise_plan(NodeProgram& plan, const CompileOptions& options,
                             bool enable_prefetch) {
  OOCC_ASSERT(!plan.statements.empty(), "no elementwise statements");

  // Which arrays does the group produce, and which must be fetched because
  // they are consumed before (or without) being produced?
  std::vector<std::string> written;
  std::vector<std::string> read_first;
  for (const ElementwiseStmt& st : plan.statements) {
    std::vector<std::string> refs;
    collect_ref_names(*st.rhs, refs);
    for (const std::string& r : refs) {
      if (std::find(written.begin(), written.end(), r) == written.end() &&
          std::find(read_first.begin(), read_first.end(), r) ==
              read_first.end()) {
        read_first.push_back(r);
      }
    }
    if (std::find(written.begin(), written.end(), st.lhs) == written.end()) {
      written.push_back(st.lhs);
    }
  }
  for (auto& [name, pa] : plan.arrays) {
    pa.is_output =
        std::find(written.begin(), written.end(), name) != written.end();
  }
  // Pure inputs stream through double-bufferable readers; arrays the group
  // also produces are staged in writable buffers, so their initial read
  // (the in-place case) cannot be double-buffered.
  std::vector<std::string> pure_reads;
  std::vector<std::string> staged_reads;
  for (const std::string& r : read_first) {
    (plan.array(r).is_output ? staged_reads : pure_reads).push_back(r);
  }
  std::sort(pure_reads.begin(), pure_reads.end());
  std::sort(staged_reads.begin(), staged_reads.end());

  const bool prefetch = enable_prefetch && !pure_reads.empty();
  const std::int64_t buffers =
      static_cast<std::int64_t>(plan.arrays.size()) +
      (prefetch ? static_cast<std::int64_t>(pure_reads.size()) : 0);
  const std::string& sweep_lhs = plan.statements.front().lhs;
  const std::int64_t local_rows = plan.array(sweep_lhs).dist.local_rows(0);
  const std::int64_t share = options.memory_budget_elements / buffers;
  OOCC_CHECK(share >= local_rows, ErrorCode::kResourceExhausted,
             "memory budget of " << options.memory_budget_elements
                                 << " elements cannot hold one column ("
                                 << local_rows << " elements) per array for "
                                 << plan.arrays.size() << " arrays");
  for (auto& [name, pa] : plan.arrays) {
    pa.slab_elements = share;
  }
  plan.memory.strategy = options.memory_strategy;
  plan.memory.slab_a = share;
  plan.memory.slab_b = share;
  plan.memory.slab_c = share;
  plan.memory.temp_elements = 0;
  plan.memory_budget_elements = options.memory_budget_elements;

  plan.loops.clear();
  plan.steps.clear();
  plan.loops.push_back(SlabLoop{"S", sweep_lhs,
                                runtime::SlabOrientation::kColumnSlabs, share,
                                prefetch});
  std::vector<Step> body;
  for (const std::string& r : pure_reads) {
    body.push_back(read_slab("S", r));
  }
  for (const std::string& r : staged_reads) {
    body.push_back(read_slab("S", r));
  }
  for (std::size_t i = 0; i < plan.statements.size(); ++i) {
    body.push_back(elementwise_step("S", static_cast<int>(i)));
  }
  for (const std::string& w : written) {
    body.push_back(write_slab("S", w));
  }
  plan.steps.push_back(for_each_slab("S", std::move(body)));
}

/// Whether `next` can join a fused group whose sweep geometry is `head`'s:
/// both are communication-free elementwise plans whose sweeps cover
/// identically distributed sections, and the union of arrays still fits
/// the memory budget at one column per buffer.
bool can_fuse(const NodeProgram& head, const NodeProgram& next,
              const CompileOptions& options,
              std::size_t union_array_count) {
  if (head.kind != ProgramKind::kElementwise ||
      next.kind != ProgramKind::kElementwise) {
    return false;
  }
  const PlanArray& a = head.array(head.statements.front().lhs);
  const PlanArray& b = next.array(next.statements.front().lhs);
  if (!(a.dist == b.dist) || a.storage != b.storage ||
      a.orientation != b.orientation) {
    return false;
  }
  // Conservative capacity check: every buffer (plus a second one per array
  // when prefetching — assumed for kAuto too) must still hold one column.
  const std::int64_t buffers =
      static_cast<std::int64_t>(union_array_count) *
      (options.prefetch != PrefetchMode::kOff ? 2 : 1);
  return options.memory_budget_elements / buffers >= a.dist.local_rows(0);
}

}  // namespace detail

namespace {

using detail::can_fuse;
using detail::emit_gaxpy_steps;
using detail::finish_elementwise_plan;

/// Matches `do j=1,n { forall(k=1:n) temp(:,k)=b(k,j)*a(:,k); c(:,j)=SUM(temp,2) }`.
std::optional<GaxpyMatch> match_gaxpy(const BoundProgram& program) {
  if (program.stmts.size() != 1 ||
      program.stmts[0]->kind != StmtKind::kDo) {
    return std::nullopt;
  }
  const Stmt& outer = *program.stmts[0];
  const auto lo = const_bound(*outer.lo, program.parameters);
  const auto hi = const_bound(*outer.hi, program.parameters);
  if (!lo || *lo != 1 || !hi || outer.body.size() != 2) {
    return std::nullopt;
  }
  const Stmt& forall = *outer.body[0];
  const Stmt& sum_assign = *outer.body[1];
  if (forall.kind != StmtKind::kForall || forall.body.size() != 1 ||
      sum_assign.kind != StmtKind::kAssign) {
    return std::nullopt;
  }
  const auto flo = const_bound(*forall.lo, program.parameters);
  const auto fhi = const_bound(*forall.hi, program.parameters);
  if (!flo || *flo != 1 || !fhi || *fhi != *hi) {
    return std::nullopt;
  }

  GaxpyMatch match;
  match.outer_var = outer.loop_var;
  match.forall_var = forall.loop_var;
  match.n = *hi;
  const LoopContext loops{match.outer_var, match.forall_var};

  // Inner statement: temp(1:n, k) = <scalar B ref> * <column A ref>.
  const Stmt& inner = *forall.body[0];
  if (inner.kind != StmtKind::kAssign ||
      inner.lhs->kind != ExprKind::kArrayRef ||
      inner.rhs->kind != ExprKind::kBinary ||
      inner.rhs->op != hpf::BinOp::kMul) {
    return std::nullopt;
  }
  match.temp = inner.lhs->name;
  const RefAccess temp_ref =
      classify_reference(*inner.lhs, program.array(match.temp), loops,
                         program.parameters, /*is_lhs=*/true);
  if (temp_ref.row_class != SubscriptClass::kFullRange ||
      temp_ref.col_class != SubscriptClass::kForallIndex) {
    return std::nullopt;
  }

  // The multiplication's operands: one b(k,j)-shaped, one a(1:n,k)-shaped,
  // in either order.
  const Expr* operands[2] = {inner.rhs->lhs.get(), inner.rhs->rhs.get()};
  for (const Expr* op : operands) {
    if (op->kind != ExprKind::kArrayRef) {
      return std::nullopt;
    }
    const RefAccess ref = classify_reference(
        *op, program.array(op->name), loops, program.parameters, false);
    if (ref.row_class == SubscriptClass::kForallIndex &&
        ref.col_class == SubscriptClass::kOuterIndex) {
      match.b = op->name;
    } else if (ref.row_class == SubscriptClass::kFullRange &&
               ref.col_class == SubscriptClass::kForallIndex) {
      match.a = op->name;
    } else {
      return std::nullopt;
    }
  }
  if (match.a.empty() || match.b.empty()) {
    return std::nullopt;
  }

  // Reduction statement: c(1:n, j) = SUM(temp, 2).
  if (sum_assign.lhs->kind != ExprKind::kArrayRef ||
      sum_assign.rhs->kind != ExprKind::kSumIntrinsic ||
      sum_assign.rhs->name != match.temp || sum_assign.rhs->int_value != 2) {
    return std::nullopt;
  }
  match.c = sum_assign.lhs->name;
  const RefAccess c_ref =
      classify_reference(*sum_assign.lhs, program.array(match.c), loops,
                         program.parameters, /*is_lhs=*/true);
  if (c_ref.row_class != SubscriptClass::kFullRange ||
      c_ref.col_class != SubscriptClass::kOuterIndex) {
    return std::nullopt;
  }
  return match;
}

/// Validates the GAXPY match's shapes and distributions; throws
/// kCompileError with a specific diagnostic on violation.
void check_gaxpy_layout(const BoundProgram& program, const GaxpyMatch& m) {
  const ArrayInfo& a = program.array(m.a);
  const ArrayInfo& b = program.array(m.b);
  const ArrayInfo& c = program.array(m.c);
  for (const ArrayInfo* info : {&a, &b, &c}) {
    OOCC_CHECK(info->rows == m.n && info->cols == m.n,
               ErrorCode::kCompileError,
               "GAXPY pattern requires " << m.n << "x" << m.n << " arrays; '"
                                         << info->name << "' is "
                                         << info->rows << "x" << info->cols);
  }
  OOCC_CHECK(a.dist.axis() == hpf::DistAxis::kCols &&
                 c.dist.axis() == hpf::DistAxis::kCols,
             ErrorCode::kCompileError,
             "GAXPY pattern requires '" << m.a << "' and '" << m.c
                                        << "' column-distributed");
  OOCC_CHECK(b.dist.axis() == hpf::DistAxis::kRows, ErrorCode::kCompileError,
             "GAXPY pattern requires '" << m.b << "' row-distributed");
  // The kernels' index correspondence (local column k of A pairs with
  // local row k of B) holds whenever A's columns, B's rows and C's columns
  // share one distribution — BLOCK (the paper's case), CYCLIC and
  // BLOCK-CYCLIC all qualify, because global_to_local is monotonic on each
  // processor's owned set for every kind.
  const hpf::DistKind kind = a.dist.col_dist().kind();
  OOCC_CHECK(b.dist.row_dist().kind() == kind &&
                 c.dist.col_dist().kind() == kind &&
                 b.dist.row_dist().block() == a.dist.col_dist().block(),
             ErrorCode::kCompileError,
             "GAXPY lowering requires A's columns, B's rows and C's columns "
             "to share one distribution; got "
                 << a.dist.to_string() << ", " << b.dist.to_string() << ", "
                 << c.dist.to_string());
  // Every processor must own at least one column/row.
  for (int proc = 0; proc < program.nprocs; ++proc) {
    OOCC_CHECK(a.dist.local_cols(proc) >= 1, ErrorCode::kCompileError,
               "N=" << m.n << " over P=" << program.nprocs
                    << " leaves processor " << proc << " without data");
  }
}

/// HPF array-assignment statements are equivalent to FORALLs (the paper's
/// §3.2 footnote). `lhs(1:m,1:n) = expr` over full sections normalizes to
/// `forall (k=1:n) lhs(1:m,k) = expr[second subscript := k]`, letting one
/// lowering path serve both spellings.
hpf::StmtPtr normalize_assignment_to_forall(const Stmt& assign,
                                       const BoundProgram& program) {
  OOCC_ASSERT(assign.kind == StmtKind::kAssign, "expected assignment");
  const hpf::ArrayInfo& lhs_info = program.array(assign.lhs->name);

  // Rewrites every array reference's column subscript (which must be a
  // full range) into the synthesized FORALL index.
  constexpr const char* kVar = "forall_col__";
  std::function<void(hpf::Expr&)> rewrite = [&](hpf::Expr& e) {
    if (e.kind == ExprKind::kArrayRef) {
      OOCC_CHECK(e.subscripts.size() == 2, ErrorCode::kCompileError,
                 "array assignment normalization requires rank-2 "
                 "references; '"
                     << e.name << "' at line " << e.line << " has rank "
                     << e.subscripts.size());
      hpf::Subscript& col = e.subscripts[1];
      const bool full =
          col.kind == hpf::SubscriptKind::kFull ||
          (col.kind == hpf::SubscriptKind::kRange &&
           hpf::evaluate_scalar(*col.lo, program.parameters) == 1 &&
           hpf::evaluate_scalar(*col.hi, program.parameters) ==
               program.array(e.name).cols);
      OOCC_CHECK(full, ErrorCode::kCompileError,
                 "array assignment normalization requires full column "
                 "sections; '"
                     << e.name << "' at line " << e.line
                     << " uses a partial section");
      col.kind = hpf::SubscriptKind::kScalar;
      col.scalar = hpf::make_var(kVar, e.line);
      col.lo.reset();
      col.hi.reset();
      return;
    }
    if (e.lhs) rewrite(*e.lhs);
    if (e.rhs) rewrite(*e.rhs);
  };

  auto forall = std::make_unique<Stmt>();
  forall->kind = StmtKind::kForall;
  forall->line = assign.line;
  forall->loop_var = kVar;
  forall->lo = hpf::make_int(1, assign.line);
  forall->hi = hpf::make_int(lhs_info.cols, assign.line);

  auto body = std::make_unique<Stmt>();
  body->kind = StmtKind::kAssign;
  body->line = assign.line;
  body->lhs = hpf::clone_expr(*assign.lhs);
  body->rhs = hpf::clone_expr(*assign.rhs);
  rewrite(*body->lhs);
  rewrite(*body->rhs);
  forall->body.push_back(std::move(body));
  return forall;
}

/// Matches `forall (k=1:cols) lhs(1:rows,k) = expr` where every array
/// reference in expr has the (full-range, forall-index) shape. A bare
/// array assignment over full sections is normalized to that form first.
std::optional<ElementwiseMatch> match_elementwise(
    const BoundProgram& program, hpf::StmtPtr& normalized_storage) {
  if (program.stmts.size() != 1) {
    return std::nullopt;
  }
  const Stmt* top = program.stmts[0].get();
  if (top->kind == StmtKind::kAssign &&
      top->lhs->kind == ExprKind::kArrayRef &&
      top->rhs->kind != ExprKind::kSumIntrinsic) {
    try {
      normalized_storage = normalize_assignment_to_forall(*top, program);
    } catch (const Error&) {
      return std::nullopt;  // not normalizable: fall through to diagnostics
    }
    top = normalized_storage.get();
  }
  if (top->kind != StmtKind::kForall || top->body.size() != 1) {
    return std::nullopt;
  }
  const Stmt& forall = *top;
  const Stmt& assign = *forall.body[0];
  if (assign.kind != StmtKind::kAssign ||
      assign.lhs->kind != ExprKind::kArrayRef) {
    return std::nullopt;
  }
  const auto flo = const_bound(*forall.lo, program.parameters);
  const auto fhi = const_bound(*forall.hi, program.parameters);
  if (!flo || *flo != 1 || !fhi) {
    return std::nullopt;
  }

  ElementwiseMatch match;
  match.forall_var = forall.loop_var;
  match.lhs = assign.lhs->name;
  match.rhs = assign.rhs.get();
  const ArrayInfo& lhs_info = program.array(match.lhs);
  match.rows = lhs_info.rows;
  match.cols = lhs_info.cols;
  if (*fhi != match.cols) {
    return std::nullopt;
  }

  const LoopContext loops{"", match.forall_var};
  std::vector<RefAccess> refs;
  refs.push_back(classify_reference(*assign.lhs, lhs_info, loops,
                                    program.parameters, true));
  collect_references(*assign.rhs, program, loops, false, refs);
  for (const RefAccess& ref : refs) {
    if (ref.row_class != SubscriptClass::kFullRange ||
        ref.col_class != SubscriptClass::kForallIndex) {
      return std::nullopt;
    }
  }
  return match;
}

void check_elementwise_layout(const BoundProgram& program,
                              const ElementwiseMatch& m) {
  const ArrayInfo& lhs = program.array(m.lhs);
  std::vector<RefAccess> refs;
  const LoopContext loops{"", m.forall_var};
  collect_references(*m.rhs, program, loops, false, refs);
  for (const RefAccess& ref : refs) {
    const ArrayInfo& info = program.array(ref.array);
    OOCC_CHECK(info.dist == lhs.dist, ErrorCode::kCompileError,
               "elementwise lowering requires identically distributed "
               "operands; '"
                   << ref.array << "' (" << info.dist.to_string()
                   << ") differs from '" << m.lhs << "' ("
                   << lhs.dist.to_string() << ")");
  }
}

// ------------------------------------------------------- stencil lowering

/// Collects every array reference expression in `e` (pre-order).
void collect_ref_exprs(const Expr& e, std::vector<const Expr*>& out) {
  if (e.kind == ExprKind::kArrayRef) {
    out.push_back(&e);
  }
  if (e.lhs) collect_ref_exprs(*e.lhs, out);
  if (e.rhs) collect_ref_exprs(*e.rhs, out);
}

/// True when any column subscript in `e` is forall-index +/- nonzero
/// constant — the trigger that makes a FORALL "stencil-shaped". Once this
/// holds, every further violation is a structured kCompileError rather than
/// a silent fall-through to the generic diagnostic.
bool looks_stencil_shaped(const BoundProgram& program, const Expr& rhs,
                          const LoopContext& loops) {
  std::vector<const Expr*> refs;
  collect_ref_exprs(rhs, refs);
  for (const Expr* ref : refs) {
    if (ref->subscripts.size() != 2) {
      continue;
    }
    const RefAccess acc = classify_reference(
        *ref, program.array(ref->name), loops, program.parameters, false);
    if (acc.col_class == SubscriptClass::kForallOffset) {
      return true;
    }
  }
  return false;
}

#define OOCC_STENCIL_CHECK(cond, msg) \
  OOCC_CHECK(cond, ErrorCode::kCompileError, "stencil lowering: " << msg)

/// Matches `forall (k=1+d : cols-d) lhs(1+r : rows-r, k) = f(source)` where
/// every rhs reference names one source array with column subscripts
/// `k +/- c` (c <= d) and row subscripts that are the lhs row range shifted
/// by a constant. Returns nullopt when the statement is not stencil-shaped
/// at all; throws a structured "stencil lowering: ..." kCompileError when
/// it is stencil-shaped but uses an unsupported shape — lowering must fail
/// loudly, never silently mis-lower.
std::optional<StencilMatch> match_stencil(const BoundProgram& program) {
  if (program.stmts.size() != 1 ||
      program.stmts[0]->kind != StmtKind::kForall ||
      program.stmts[0]->body.size() != 1) {
    return std::nullopt;
  }
  const Stmt& forall = *program.stmts[0];
  const Stmt& assign = *forall.body[0];
  if (assign.kind != StmtKind::kAssign ||
      assign.lhs->kind != ExprKind::kArrayRef) {
    return std::nullopt;
  }
  const LoopContext loops{"", forall.loop_var};
  if (!looks_stencil_shaped(program, *assign.rhs, loops)) {
    return std::nullopt;
  }

  StencilMatch m;
  m.forall_var = forall.loop_var;
  m.lhs = assign.lhs->name;
  m.rhs = assign.rhs.get();
  const ArrayInfo& lhs_info = program.array(m.lhs);
  m.rows = lhs_info.rows;
  m.cols = lhs_info.cols;

  // The lhs: rows are a (possibly interior) constant range, columns the
  // bare forall index.
  const RefAccess lhs_acc = classify_reference(*assign.lhs, lhs_info, loops,
                                               program.parameters, true);
  OOCC_STENCIL_CHECK(lhs_acc.col_class == SubscriptClass::kForallIndex,
                     "the assignment target's column subscript must be the "
                     "bare FORALL index; '"
                         << m.lhs << "' uses a "
                         << subscript_class_name(lhs_acc.col_class)
                         << " subscript");
  OOCC_STENCIL_CHECK(lhs_acc.row_class == SubscriptClass::kFullRange ||
                         lhs_acc.row_class == SubscriptClass::kConstantRange,
                     "the assignment target's row subscript must be a "
                     "constant range; '"
                         << m.lhs << "' uses a "
                         << subscript_class_name(lhs_acc.row_class)
                         << " subscript (row-subscript stencils are "
                            "unsupported: only forall-index column stencils "
                            "lower)");

  // The rhs: one source array, column offsets k +/- c, row ranges shifted
  // from the lhs range by a constant.
  std::vector<const Expr*> refs;
  collect_ref_exprs(*m.rhs, refs);
  std::int64_t dpos = 0;
  std::int64_t dneg = 0;
  std::int64_t row_shift_max = 0;
  for (const Expr* ref : refs) {
    OOCC_STENCIL_CHECK(ref->subscripts.size() == 2,
                       "reference to '" << ref->name
                                        << "' must be rank-2 in a stencil "
                                           "statement");
    if (m.source.empty()) {
      m.source = ref->name;
    }
    OOCC_STENCIL_CHECK(ref->name == m.source,
                       "stencil statements read exactly one source array; "
                       "found both '"
                           << m.source << "' and '" << ref->name << "'");
    const RefAccess acc = classify_reference(
        *ref, program.array(ref->name), loops, program.parameters, false);
    OOCC_STENCIL_CHECK(acc.col_class == SubscriptClass::kForallIndex ||
                           acc.col_class == SubscriptClass::kForallOffset,
                       "column subscript of '"
                           << ref->name << "' must be the FORALL index +/- a "
                           << "constant; got "
                           << subscript_class_name(acc.col_class));
    dpos = std::max(dpos, acc.col_offset);
    dneg = std::max(dneg, -acc.col_offset);
    OOCC_STENCIL_CHECK(
        acc.row_class == SubscriptClass::kFullRange ||
            acc.row_class == SubscriptClass::kConstantRange,
        "row subscript of '"
            << ref->name << "' must be a constant range; got "
            << subscript_class_name(acc.row_class)
            << " (row-subscript stencils are unsupported: only forall-index "
               "column stencils lower)");
    OOCC_STENCIL_CHECK(acc.row_hi - acc.row_lo == lhs_acc.row_hi - lhs_acc.row_lo,
                       "row range of '" << ref->name << "' ("
                                        << acc.row_lo << ":" << acc.row_hi
                                        << ") must have the same length as "
                                           "the target's ("
                                        << lhs_acc.row_lo << ":"
                                        << lhs_acc.row_hi << ")");
    row_shift_max =
        std::max(row_shift_max, std::abs(acc.row_lo - lhs_acc.row_lo));
  }
  OOCC_STENCIL_CHECK(!m.source.empty(),
                     "the right-hand side references no array");
  // Free scalars: only the FORALL index and parameters (folded to
  // constants during normalization) may appear outside subscripts — the
  // executor's stencil evaluator binds nothing else.
  std::function<void(const Expr&)> check_scalars = [&](const Expr& e) {
    if (e.kind == ExprKind::kVarRef) {
      OOCC_STENCIL_CHECK(e.name == m.forall_var ||
                             program.parameters.contains(e.name),
                         "free scalar '" << e.name
                                         << "' is neither the FORALL index "
                                            "nor a parameter");
    }
    if (e.kind == ExprKind::kArrayRef) {
      return;  // subscripts were classified above
    }
    if (e.lhs) check_scalars(*e.lhs);
    if (e.rhs) check_scalars(*e.rhs);
  };
  check_scalars(*m.rhs);
  OOCC_STENCIL_CHECK(m.source != m.lhs,
                     "in-place stencils (the target '"
                         << m.lhs << "' appearing on the right-hand side) "
                         << "are unsupported; use a ping-pong array pair");
  OOCC_STENCIL_CHECK(dpos == dneg,
                     "mixed stencil distances (-" << dneg << "/+" << dpos
                                                  << ") are unsupported; the "
                                                     "halo must be symmetric");
  m.halo = dpos;
  OOCC_STENCIL_CHECK(m.halo >= 1, "no nonzero column offset found");
  m.row_halo = row_shift_max;

  // FORALL bounds and the lhs row range must exclude exactly the halo.
  const auto flo = const_bound(*forall.lo, program.parameters);
  const auto fhi = const_bound(*forall.hi, program.parameters);
  OOCC_STENCIL_CHECK(flo && fhi && *flo == 1 + m.halo &&
                         *fhi == m.cols - m.halo,
                     "the FORALL range must exclude the halo: expected ("
                         << m.forall_var << "=" << 1 + m.halo << ":"
                         << m.cols - m.halo << ")");
  OOCC_STENCIL_CHECK(lhs_acc.row_lo == 1 + m.row_halo &&
                         lhs_acc.row_hi == m.rows - m.row_halo,
                     "the target's row range must exclude the row shift: "
                     "expected ("
                         << 1 + m.row_halo << ":" << m.rows - m.row_halo
                         << ")");
  // Every rhs row range stays inside the array.
  for (const Expr* ref : refs) {
    const RefAccess acc = classify_reference(
        *ref, program.array(ref->name), loops, program.parameters, false);
    OOCC_STENCIL_CHECK(acc.row_lo >= 1 && acc.row_hi <= m.rows,
                       "row range of '" << ref->name << "' (" << acc.row_lo
                                        << ":" << acc.row_hi
                                        << ") leaves the array bounds");
  }
  return m;
}

/// Distribution/shape requirements of the ghost exchange: both arrays share
/// one column-BLOCK distribution (or run on a single processor) and every
/// processor's panel is at least `halo` columns wide, so ghost columns come
/// from the immediate neighbours only.
void check_stencil_layout(const BoundProgram& program,
                          const StencilMatch& m) {
  const ArrayInfo& lhs = program.array(m.lhs);
  const ArrayInfo& src = program.array(m.source);
  OOCC_STENCIL_CHECK(lhs.rows == src.rows && lhs.cols == src.cols,
                     "'" << m.lhs << "' and '" << m.source
                         << "' must have identical shapes");
  OOCC_STENCIL_CHECK(lhs.dist == src.dist,
                     "'" << m.lhs << "' (" << lhs.dist.to_string()
                         << ") and '" << m.source << "' ("
                         << src.dist.to_string()
                         << ") must share one distribution");
  if (program.nprocs > 1) {
    OOCC_STENCIL_CHECK(
        lhs.dist.axis() == hpf::DistAxis::kCols &&
            lhs.dist.col_dist().kind() == hpf::DistKind::kBlock,
        "the ghost exchange requires a column-BLOCK distribution; got "
            << lhs.dist.to_string());
    for (int proc = 0; proc < program.nprocs; ++proc) {
      OOCC_STENCIL_CHECK(lhs.dist.local_cols(proc) >= m.halo,
                         "halo distance " << m.halo
                                          << " exceeds processor " << proc
                                          << "'s panel of "
                                          << lhs.dist.local_cols(proc)
                                          << " columns");
    }
  }
}

/// Rewrites the cloned rhs into stencil-normalized form: every array
/// reference's subscripts become two integer constants (row shift, column
/// offset) relative to the element being computed, and parameter scalars
/// fold to integer constants (the executor's stencil evaluator binds only
/// the FORALL index).
void normalize_stencil_refs(Expr& e, const BoundProgram& program,
                            const LoopContext& loops,
                            std::int64_t lhs_row_lo) {
  if (e.kind == ExprKind::kVarRef &&
      program.parameters.contains(e.name)) {
    e.int_value = program.parameters.at(e.name);
    e.kind = ExprKind::kIntConst;
    e.name.clear();
    return;
  }
  if (e.kind == ExprKind::kArrayRef) {
    const RefAccess acc = classify_reference(
        e, program.array(e.name), loops, program.parameters, false);
    const std::int64_t row_shift = acc.row_lo - lhs_row_lo;
    e.subscripts.clear();
    hpf::Subscript row;
    row.kind = hpf::SubscriptKind::kScalar;
    row.scalar = hpf::make_int(row_shift, e.line);
    e.subscripts.push_back(std::move(row));
    hpf::Subscript col;
    col.kind = hpf::SubscriptKind::kScalar;
    col.scalar = hpf::make_int(acc.col_offset, e.line);
    e.subscripts.push_back(std::move(col));
    return;
  }
  if (e.lhs) normalize_stencil_refs(*e.lhs, program, loops, lhs_row_lo);
  if (e.rhs) normalize_stencil_refs(*e.rhs, program, loops, lhs_row_lo);
}

NodeProgram lower_stencil(const BoundProgram& program,
                          const StencilMatch& match,
                          const CompileOptions& options) {
  check_stencil_layout(program, match);
  NodeProgram plan;
  plan.kind = ProgramKind::kStencil;
  plan.nprocs = program.nprocs;
  plan.n = match.rows;
  plan.elementwise_cols = match.cols;
  plan.memory_budget_elements = options.memory_budget_elements;

  StencilStmt stmt;
  stmt.lhs = match.lhs;
  stmt.source = match.source;
  stmt.forall_var = match.forall_var;
  stmt.halo = match.halo;
  stmt.row_halo = match.row_halo;
  hpf::ExprPtr rhs = hpf::clone_expr(*match.rhs);
  const LoopContext loops{"", match.forall_var};
  normalize_stencil_refs(*rhs, program, loops, 1 + match.row_halo);
  stmt.rhs = std::move(rhs);
  plan.stencils.push_back(std::move(stmt));

  // Memory plan: the source's halo-widened slab plus the output slab must
  // fit, and the slab pool needs transient headroom to assemble a widened
  // section while the entries covering it stay pinned (worst case: the
  // covering slabs of one sweep plus the new assembled copy). Sizing the
  // width as w = budget / (4 rows) - d bounds that peak by the budget.
  const ArrayInfo& lhs_info = program.array(match.lhs);
  const std::int64_t local_rows = lhs_info.dist.local_rows(0);
  const std::int64_t d = match.halo;
  const std::int64_t w =
      options.memory_budget_elements / (4 * local_rows) - d;
  OOCC_STENCIL_CHECK(w >= 1,
                     "memory budget of "
                         << options.memory_budget_elements
                         << " elements cannot hold the sweep's working set "
                            "(two "
                         << local_rows << "-row buffers plus " << 2 * d
                         << " halo columns and their in-memory assembly)");
  OOCC_STENCIL_CHECK(d <= w,
                     "halo distance " << d << " exceeds the slab width " << w
                                      << " this memory budget allows; raise "
                                         "--memory");
  plan.memory.strategy = options.memory_strategy;
  plan.memory.slab_a = (w + 2 * d) * local_rows;  // source (halo-widened)
  plan.memory.slab_b = w * local_rows;            // output
  plan.memory.slab_c = 0;
  plan.memory.temp_elements = 0;

  plan.arrays[match.source] =
      PlanArray{match.source, program.array(match.source).dist,
                io::StorageOrder::kColumnMajor,
                runtime::SlabOrientation::kColumnSlabs, plan.memory.slab_a,
                false, false};
  plan.arrays[match.lhs] =
      PlanArray{match.lhs, lhs_info.dist, io::StorageOrder::kColumnMajor,
                runtime::SlabOrientation::kColumnSlabs, plan.memory.slab_b,
                true, false};

  plan.loops.push_back(SlabLoop{"S", match.lhs,
                                runtime::SlabOrientation::kColumnSlabs,
                                w * local_rows, false});
  plan.steps.push_back(exchange_halo_step("S", match.source, d));
  plan.steps.push_back(for_each_slab(
      "S", {halo_read_slab("S", match.source, d), stencil_step("S", 0),
            write_slab("S", match.lhs)}));
  plan.steps.push_back(barrier_step());

  std::ostringstream why;
  why << "stencil FORALL: halo distance " << d << " (rows shifted by "
      << match.row_halo << "); owner slabs of " << w
      << " column(s) widened to " << w + 2 * d
      << ", ghost columns exchanged with the neighbouring processors; "
      << "boundary rows/columns copy through from '" << match.source << "'";
  plan.cost.rationale = why.str();
  return plan;
}

NodeProgram lower_gaxpy(const BoundProgram& program, const GaxpyMatch& match,
                        const CompileOptions& options) {
  check_gaxpy_layout(program, match);
  NodeProgram plan;
  plan.kind = ProgramKind::kGaxpy;
  plan.nprocs = program.nprocs;
  plan.n = match.n;
  plan.a = match.a;
  plan.b = match.b;
  plan.c = match.c;
  plan.memory_budget_elements = options.memory_budget_elements;

  // Out-of-core phase step 2 (Figure 14): estimate each candidate with a
  // memory plan computed for that orientation, then decide.
  auto query_for = [&](runtime::SlabOrientation orient) {
    const MemoryPlan mem = plan_memory(options.memory_strategy,
                                       options.memory_budget_elements,
                                       match.n, program.nprocs, orient);
    GaxpyCostQuery q;
    q.n = match.n;
    q.nprocs = program.nprocs;
    q.slab_a = mem.slab_a;
    q.slab_b = mem.slab_b;
    q.slab_c = mem.slab_c;
    q.storage_reorganized = options.enable_storage_reorganization;
    return std::pair<GaxpyCostQuery, MemoryPlan>(q, mem);
  };

  const auto [col_query, col_mem] =
      query_for(runtime::SlabOrientation::kColumnSlabs);
  const auto [row_query, row_mem] =
      query_for(runtime::SlabOrientation::kRowSlabs);

  if (options.enable_access_reorganization) {
    // The decision uses the column-orientation memory plan for the column
    // candidate and the row plan for the row candidate.
    CostDecision decision;
    decision.candidates.push_back(estimate_gaxpy_cost(
        runtime::SlabOrientation::kColumnSlabs, col_query));
    decision.candidates.push_back(
        estimate_gaxpy_cost(runtime::SlabOrientation::kRowSlabs, row_query));
    // Reuse the Figure 14 logic for the pick.
    CostDecision canonical =
        choose_access_reorganization(col_query, options.disk);
    // Recompute the pick against the per-orientation plans' candidates.
    const std::string dominant = canonical.dominant_array;
    const CandidateCost* best = nullptr;
    for (const CandidateCost& cand : decision.candidates) {
      if (best == nullptr ||
          cand.cost_of(dominant).data_elements <
              best->cost_of(dominant).data_elements ||
          (cand.cost_of(dominant).data_elements ==
               best->cost_of(dominant).data_elements &&
           cand.estimated_io_time_s(options.disk, program.nprocs) <
               best->estimated_io_time_s(options.disk, program.nprocs))) {
        best = &cand;
      }
    }
    decision.chosen = *best;
    decision.dominant_array = dominant;
    decision.rationale = canonical.rationale;
    decision.candidate_total_s.push_back(
        estimate_gaxpy_total(runtime::SlabOrientation::kColumnSlabs,
                             col_query, options.disk, options.machine)
            .total_s());
    decision.candidate_total_s.push_back(
        estimate_gaxpy_total(runtime::SlabOrientation::kRowSlabs, row_query,
                             options.disk, options.machine)
            .total_s());
    plan.cost = std::move(decision);
    plan.a_orientation = plan.cost.chosen.a_orientation;
  } else {
    // Ablation: behave like the straightforward in-core extension.
    CostDecision decision;
    decision.candidates.push_back(estimate_gaxpy_cost(
        runtime::SlabOrientation::kColumnSlabs, col_query));
    decision.chosen = decision.candidates.front();
    decision.dominant_array = match.a;
    decision.rationale =
        "access reorganization disabled: column slabs forced";
    plan.cost = std::move(decision);
    plan.a_orientation = runtime::SlabOrientation::kColumnSlabs;
  }

  plan.memory = plan.a_orientation == runtime::SlabOrientation::kColumnSlabs
                    ? col_mem
                    : row_mem;

  // Prefetch double-buffers A: halve its slab so two buffers fit. (kAuto
  // is decided after lowering, when the plan can be priced.)
  plan.prefetch = options.prefetch == PrefetchMode::kOn &&
                  plan.a_orientation == runtime::SlabOrientation::kRowSlabs;
  if (plan.prefetch) {
    const std::int64_t nlc = (match.n + program.nprocs - 1) / program.nprocs;
    plan.memory.slab_a = std::max<std::int64_t>(nlc, plan.memory.slab_a / 2);
  }

  // Out-of-core phase step 3: storage orders. A and C follow the chosen
  // orientation when storage reorganization is enabled; B's column slabs
  // are always contiguous in column-major order.
  const io::StorageOrder ac_order =
      options.enable_storage_reorganization
          ? runtime::contiguous_order_for(plan.a_orientation)
          : io::StorageOrder::kColumnMajor;

  const ArrayInfo& a_info = program.array(match.a);
  const ArrayInfo& b_info = program.array(match.b);
  const ArrayInfo& c_info = program.array(match.c);
  plan.arrays[match.a] =
      PlanArray{match.a, a_info.dist, ac_order, plan.a_orientation,
                plan.memory.slab_a, false,
                ac_order != io::StorageOrder::kColumnMajor};
  plan.arrays[match.b] =
      PlanArray{match.b, b_info.dist, io::StorageOrder::kColumnMajor,
                runtime::SlabOrientation::kColumnSlabs, plan.memory.slab_b,
                false, false};
  plan.arrays[match.c] =
      PlanArray{match.c, c_info.dist, ac_order, plan.a_orientation,
                plan.memory.slab_c, true,
                ac_order != io::StorageOrder::kColumnMajor};
  emit_gaxpy_steps(plan);
  return plan;
}

NodeProgram lower_elementwise(const BoundProgram& program,
                              const ElementwiseMatch& match,
                              const CompileOptions& options) {
  check_elementwise_layout(program, match);
  NodeProgram plan;
  plan.kind = ProgramKind::kElementwise;
  plan.nprocs = program.nprocs;
  plan.n = match.rows;
  plan.elementwise_cols = match.cols;
  ElementwiseStmt stmt;
  stmt.lhs = match.lhs;
  stmt.rhs = hpf::clone_expr(*match.rhs);
  stmt.forall_var = match.forall_var;
  plan.statements.push_back(std::move(stmt));

  // Collect distinct arrays (lhs + rhs references).
  std::vector<RefAccess> refs;
  const LoopContext loops{"", match.forall_var};
  collect_references(*match.rhs, program, loops, false, refs);
  std::map<std::string, PlanArray> arrays;
  const ArrayInfo& lhs_info = program.array(match.lhs);
  arrays[match.lhs] = PlanArray{match.lhs, lhs_info.dist,
                                io::StorageOrder::kColumnMajor,
                                runtime::SlabOrientation::kColumnSlabs,
                                0, true, false};
  for (const RefAccess& ref : refs) {
    if (!arrays.contains(ref.array)) {
      const ArrayInfo& info = program.array(ref.array);
      arrays[ref.array] = PlanArray{ref.array, info.dist,
                                    io::StorageOrder::kColumnMajor,
                                    runtime::SlabOrientation::kColumnSlabs,
                                    0, false, false};
    }
  }
  plan.arrays = std::move(arrays);
  finish_elementwise_plan(plan, options,
                          options.prefetch == PrefetchMode::kOn);
  return plan;
}

// ----------------------------------------------------------- slab fusion

/// Merges consecutive fusable elementwise plans into single sweeps.
std::vector<NodeProgram> fuse_statement_plans(std::vector<NodeProgram> plans,
                                              const CompileOptions& options) {
  std::vector<NodeProgram> out;
  for (NodeProgram& plan : plans) {
    if (!out.empty() &&
        can_fuse(out.back(), plan, options,
                 [&] {
                   std::size_t n = out.back().arrays.size();
                   for (const auto& [name, pa] : plan.arrays) {
                     if (!out.back().arrays.contains(name)) ++n;
                   }
                   return n;
                 }())) {
      NodeProgram& head = out.back();
      for (auto& [name, pa] : plan.arrays) {
        if (!head.arrays.contains(name)) {
          head.arrays.emplace(name, std::move(pa));
        }
      }
      for (ElementwiseStmt& st : plan.statements) {
        head.statements.push_back(std::move(st));
      }
      head.cost.rationale =
          "fused " + std::to_string(head.statements.size()) +
          " communication-free elementwise statements into one slab sweep";
      finish_elementwise_plan(head, options,
                              options.prefetch == PrefetchMode::kOn);
      continue;
    }
    out.push_back(std::move(plan));
  }
  return out;
}

// ------------------------------------------------------ prefetch=auto

std::string prefetch_rationale(bool enabled, double t_on, double t_off) {
  std::ostringstream oss;
  oss << "auto: prefetch " << (enabled ? "enabled" : "disabled")
      << " (predicted " << t_on << "s double-buffered vs " << t_off
      << "s synchronous)";
  return oss.str();
}

/// Prices one freshly (re-)emitted candidate layout. The steps must carry
/// their reuse annotations first — the modelled cache evicts by them, and
/// pricing an unannotated plan would assume a different retention policy
/// than the one the executor runs. Empty when the layout cannot run: the
/// pricer throws exactly where the executor's pool would.
std::optional<double> price_candidate(NodeProgram& plan,
                                      const CompileOptions& options) {
  annotate_reuse_distances(std::span<NodeProgram>(&plan, 1));
  try {
    return estimate_plan_time_s(plan, options.disk, options.machine);
  } catch (const Error&) {
    return std::nullopt;
  }
}

constexpr const char* kDoubleBuffersDoNotFit =
    "auto: prefetch disabled (double buffers exceed the memory budget)";

/// The auto decision from the two layouts' priced makespans (empty = the
/// layout cannot run): prefetch when only the double-buffered layout runs
/// or it is predicted faster. Fills `why` with the rationale.
bool choose_prefetch(std::optional<double> t_on, std::optional<double> t_off,
                     std::string& why) {
  if (!t_on) {
    why = kDoubleBuffersDoNotFit;
    return false;
  }
  if (!t_off) {
    why = "auto: prefetch enabled (the synchronous layout exceeds the "
          "memory budget)";
    return true;
  }
  const bool enable = *t_on < *t_off;
  why = prefetch_rationale(enable, *t_on, *t_off);
  return enable;
}

/// --prefetch=auto for an elementwise plan: build the synchronous and the
/// double-buffered layouts, price both under the executor's defaults (slab
/// cache on), and keep whichever the model predicts faster.
void auto_prefetch_elementwise(NodeProgram& plan,
                               const CompileOptions& options) {
  finish_elementwise_plan(plan, options, /*enable_prefetch=*/false);
  const std::optional<double> t_off = price_candidate(plan, options);
  try {
    finish_elementwise_plan(plan, options, /*enable_prefetch=*/true);
  } catch (const Error&) {
    // The doubled buffers do not fit the budget: stay synchronous.
    finish_elementwise_plan(plan, options, /*enable_prefetch=*/false);
    plan.cost.prefetch_rationale = kDoubleBuffersDoNotFit;
    return;
  }
  if (!plan.loops.front().prefetch) {
    // No pure-input stream to double-buffer (e.g. a purely in-place sweep).
    plan.cost.prefetch_rationale =
        "auto: prefetch disabled (no pure-input slab stream)";
    return;
  }
  std::string why;
  if (!choose_prefetch(price_candidate(plan, options), t_off, why)) {
    finish_elementwise_plan(plan, options, /*enable_prefetch=*/false);
  }
  plan.cost.prefetch_rationale = why;
}

/// --prefetch=auto for a GAXPY plan: only the row-slab translation streams
/// A through a prefetchable loop; compare it with the halved-slab
/// double-buffered variant.
void auto_prefetch_gaxpy(NodeProgram& plan, const BoundProgram& program,
                         const CompileOptions& options) {
  if (plan.a_orientation != runtime::SlabOrientation::kRowSlabs) {
    plan.cost.prefetch_rationale =
        "auto: prefetch disabled (column-slab translation re-sweeps A; only "
        "the row-slab stream double-buffers)";
    return;
  }
  const std::optional<double> t_off = price_candidate(plan, options);
  const std::int64_t saved_slab_a = plan.memory.slab_a;
  const std::int64_t nlc =
      (plan.n + program.nprocs - 1) / program.nprocs;
  plan.prefetch = true;
  plan.memory.slab_a = std::max<std::int64_t>(nlc, saved_slab_a / 2);
  plan.arrays.at(plan.a).slab_elements = plan.memory.slab_a;
  emit_gaxpy_steps(plan);
  std::string why;
  if (!choose_prefetch(price_candidate(plan, options), t_off, why)) {
    plan.prefetch = false;
    plan.memory.slab_a = saved_slab_a;
    plan.arrays.at(plan.a).slab_elements = saved_slab_a;
    emit_gaxpy_steps(plan);
  }
  plan.cost.prefetch_rationale = why;
}

}  // namespace

std::string_view prefetch_mode_name(PrefetchMode m) noexcept {
  switch (m) {
    case PrefetchMode::kOff:
      return "off";
    case PrefetchMode::kOn:
      return "on";
    case PrefetchMode::kAuto:
      return "auto";
  }
  return "?";
}

std::string_view opt_mode_name(OptMode m) noexcept {
  switch (m) {
    case OptMode::kHeuristic:
      return "heuristic";
    case OptMode::kSearch:
      return "search";
  }
  return "?";
}

NodeProgram compile(const BoundProgram& program,
                    const CompileOptions& options) {
  OOCC_REQUIRE(options.memory_budget_elements >= 1,
               "memory budget must be positive");
  NodeProgram plan = [&]() -> NodeProgram {
    if (auto gaxpy = match_gaxpy(program)) {
      NodeProgram p = lower_gaxpy(program, *gaxpy, options);
      if (options.prefetch == PrefetchMode::kAuto) {
        auto_prefetch_gaxpy(p, program, options);
      }
      return p;
    }
    hpf::StmtPtr normalized;  // keeps a synthesized FORALL alive
    if (auto elementwise = match_elementwise(program, normalized)) {
      NodeProgram p = lower_elementwise(program, *elementwise, options);
      if (options.prefetch == PrefetchMode::kAuto) {
        auto_prefetch_elementwise(p, options);
      }
      return p;
    }
    // Stencil-shaped FORALLs either lower or throw a structured
    // "stencil lowering: ..." diagnostic from inside the matcher.
    if (auto stencil = match_stencil(program)) {
      return lower_stencil(program, *stencil, options);
    }
    OOCC_THROW(ErrorCode::kCompileError,
               "no supported statement pattern: expected the GAXPY reduction "
               "nest (do/forall/SUM), a single elementwise FORALL over "
               "aligned sections, or a halo-stencil FORALL");
  }();
  annotate_reuse_distances(std::span<NodeProgram>(&plan, 1));
  if (options.verify) {
    verify_or_throw(plan);
    plan.verified = true;
  }
  return plan;
}

NodeProgram compile_source(std::string_view source,
                           const CompileOptions& options) {
  return compile(hpf::analyze(hpf::parse(source)), options);
}

std::vector<NodeProgram> compile_sequence(const BoundProgram& program,
                                          const CompileOptions& options) {
  if (options.opt == OptMode::kSearch) {
    // Global plan search: the searcher compiles the heuristic baseline
    // (with a kHeuristic copy of these options), enumerates the joint knob
    // space, and returns the min-priced verified candidate sequence.
    return search_sequence(program, options).plans;
  }
  // A single statement (including the GAXPY nest) goes through compile();
  // statement dependencies in longer sequences flow through the arrays'
  // Local Array Files, so every statement lowers independently.
  std::vector<NodeProgram> plans;
  if (program.stmts.size() <= 1) {
    plans.push_back(compile(program, options));
    return plans;
  }
  for (std::size_t i = 0; i < program.stmts.size(); ++i) {
    BoundProgram view;
    view.nprocs = program.nprocs;
    view.parameters = program.parameters;
    view.arrays = program.arrays;
    view.stmts.push_back(hpf::clone_stmt(*program.stmts[i]));
    try {
      plans.push_back(compile(view, options));
    } catch (const Error& e) {
      OOCC_THROW(ErrorCode::kCompileError,
                 "statement " << i + 1 << " of the sequence: " << e.what());
    }
  }
  if (options.enable_statement_fusion) {
    plans = fuse_statement_plans(std::move(plans), options);
    // Fusion re-emits the fused sweeps with the static prefetch setting;
    // re-run the auto decision on the merged plans.
    if (options.prefetch == PrefetchMode::kAuto) {
      for (NodeProgram& plan : plans) {
        if (plan.kind == ProgramKind::kElementwise &&
            plan.statements.size() > 1) {
          auto_prefetch_elementwise(plan, options);
        }
      }
    }
  }
  // Reuse distances span statement boundaries: annotate the whole sequence
  // so the runtime pool knows which slabs a *later* statement will read.
  annotate_reuse_distances(std::span<NodeProgram>(plans.data(), plans.size()));
  if (options.verify) {
    // Fusion and the sequence-wide reuse annotation may have reshaped the
    // per-statement plans since compile() stamped them; re-verify the
    // sequence as the executor will actually see it.
    verify_sequence_or_throw(
        std::span<const NodeProgram>(plans.data(), plans.size()));
    for (NodeProgram& plan : plans) {
      plan.verified = true;
    }
  }
  return plans;
}

std::vector<NodeProgram> compile_sequence_source(
    std::string_view source, const CompileOptions& options) {
  return compile_sequence(hpf::analyze(hpf::parse(source)), options);
}

}  // namespace oocc::compiler
