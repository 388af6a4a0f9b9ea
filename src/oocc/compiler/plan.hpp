// The node-program plan — output of the out-of-core compiler.
//
// The paper's compiler emits "Node + MP + I/O code" (Figures 9/12): an
// explicit program of I/O, compute, and communication steps over slabs.
// Our equivalent is a NodeProgram carrying a *slab-program IR*: a set of
// named stripmined loops (SlabLoop) and a tree of typed steps (Step) —
// ReadSlab / WriteSlab / ComputeElementwise / ComputeStencil /
// ComputeGaxpyPartial / ReduceSum / ExchangeHalo / Barrier nested under
// ForEachSlab / ForEachColumn structural steps. The pattern matchers in
// compiler/lower recognize the source statement (GAXPY reduction,
// elementwise FORALL or halo-stencil FORALL) and emit the step program;
// exec::execute interprets the steps generically — there is no per-schema
// executor. compiler::StepWalk (compiler/walk.hpp) checks the rules a step
// tree must meet as it binds one (docs/slab-ir.md lists them). The plan
// also records the placement decisions that justify the steps: per-array
// storage orders and slab sizes, the cost decision, and the memory plan.
// compiler/pretty renders both the Figure 9/12-style pseudo-code and the
// raw step IR.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "oocc/compiler/cost.hpp"
#include "oocc/compiler/memplan.hpp"
#include "oocc/hpf/ast.hpp"
#include "oocc/hpf/distribution.hpp"
#include "oocc/io/laf.hpp"
#include "oocc/runtime/slab_iter.hpp"

namespace oocc::compiler {

enum class ProgramKind {
  kGaxpy,       ///< DO/FORALL/SUM reduction (Figure 3's pattern)
  kElementwise, ///< communication-free FORALL(s) over aligned sections
  kStencil      ///< halo FORALL: rhs uses forall-index +/- constant columns
};

std::string_view program_kind_name(ProgramKind k) noexcept;

/// Per-array placement decisions.
struct PlanArray {
  std::string name;
  hpf::ArrayDistribution dist;
  io::StorageOrder storage = io::StorageOrder::kColumnMajor;
  runtime::SlabOrientation orientation =
      runtime::SlabOrientation::kColumnSlabs;
  std::int64_t slab_elements = 0;
  bool is_output = false;
  /// True when `storage` differs from the canonical column-major layout
  /// data arrives in, so the runtime must reorganize the LAF first (§4.1).
  bool needs_storage_reorganization = false;
};

// --------------------------------------------------------------- step IR

/// A named stripmined loop: the slabs of one plan array's local section,
/// enumerated in order. `space` names the array whose local extents define
/// the iteration space; ReadSlab steps may stream *other* arrays through
/// the same loop when their sections are aligned (the elementwise sweep).
struct SlabLoop {
  std::string name;  ///< unique within the program; steps refer to it
  std::string space;
  runtime::SlabOrientation orientation =
      runtime::SlabOrientation::kColumnSlabs;
  std::int64_t capacity_elements = 0;  ///< ICLA capacity per streamed array
  /// Double-buffer this loop's slab reads (two ICLAs per streamed array).
  bool prefetch = false;
};

enum class StepKind {
  kForEachSlab,    ///< structural: run `body` once per slab of `loop`
  kForEachColumn,  ///< structural: run `body` once per column of `loop`'s
                   ///< current slab (drives the output-column index)
  kReadSlab,       ///< load `array`'s section for `loop`'s current slab
                   ///< (widened by `halo` columns each side when halo > 0)
  kWriteSlab,      ///< store `array`'s staged slab back to its LAF
  kComputeElementwise,   ///< evaluate statements[stmt] over the current slab
  kComputeGaxpyPartial,  ///< temp(:) += A(:,i) * B(i, m) over the A slab
  kReduceSum,      ///< global sum of temp; the owner places the column in
                   ///< its output batch and stores the batch when full
  kExchangeHalo,   ///< trade `halo` edge columns of `array` with the
                   ///< neighbouring processors (ghost columns for a sweep)
  kComputeStencil, ///< evaluate statements[stmt] over the current slab,
                   ///< with halo/ghost columns bound and boundary copy-through
  kBarrier         ///< synchronize all processors
};

std::string_view step_kind_name(StepKind k) noexcept;

/// One node of the step tree. Field use by kind:
///  * kForEachSlab / kForEachColumn: `loop`, `body`
///  * kReadSlab:                     `loop` (section source), `array`, `halo`
///  * kWriteSlab:                    `loop` (section source), `array`
///  * kComputeElementwise /
///    kComputeStencil:               `loop` (sweep), `stmt`
///  * kComputeGaxpyPartial:          `loop` (A slabs), `with` (column loop)
///  * kReduceSum:                    `array` (output), `with` (column loop)
///  * kExchangeHalo:                 `loop` (the sweep), `array`, `halo`
///  * kBarrier:                      nothing
struct Step {
  StepKind kind = StepKind::kBarrier;
  std::string loop;
  std::string array;
  std::string with;
  int stmt = -1;
  /// Halo width in columns. On kReadSlab: widen the loop's current slab by
  /// this many columns on each side, clipped at the local array bounds. On
  /// kExchangeHalo: the number of edge columns traded with each neighbour.
  std::int64_t halo = 0;
  std::vector<Step> body;
};

/// One lowered FORALL statement `lhs(section) = rhs`, elementwise or
/// stencil. The rhs is *position-normalized*: every array reference's two
/// subscripts are integer constants (row shift, column offset) relative to
/// the element being computed, parameters are constants (sema bound them),
/// and the FORALL index (its 1-based global column number) is the only free
/// scalar.
/// An elementwise statement reads every operand at (0, 0); a fused plan
/// carries several, and each slab of the sweep evaluates them in order, so a
/// later statement reads the in-memory result of an earlier one. A stencil
/// reads its one `source` at shifted positions, and the elements outside its
/// interior (the first/last `halo` global columns and the first/last
/// `row_halo` rows) copy through from `source`: the canonical Jacobi fixed
/// boundary.
struct SlabStmt {
  std::string lhs;
  std::shared_ptr<const hpf::Expr> rhs;  ///< immutable after lowering
  std::string source;         ///< the stencil's input; empty if elementwise
  std::int64_t halo = 0;      ///< max |column offset| (dependence distance)
  std::int64_t row_halo = 0;  ///< max |row shift| (boundary rows copied)
};

struct NodeProgram {
  ProgramKind kind = ProgramKind::kGaxpy;
  int nprocs = 1;
  std::int64_t n = 0;  ///< global N for GAXPY; rows for elementwise

  // GAXPY statement roles (empty for elementwise plans); kept for cost
  // reporting and the Figure 9/12 pseudo-code renderer.
  std::string a;
  std::string b;
  std::string c;
  runtime::SlabOrientation a_orientation =
      runtime::SlabOrientation::kColumnSlabs;
  bool prefetch = false;

  // The lowered statements: an elementwise group (one entry per fused
  // source statement) or one stencil, whose lhs/source the executor's
  // convergence driver ping-pongs between sweeps.
  std::vector<SlabStmt> statements;

  // The slab-program IR interpreted by exec::execute.
  std::vector<SlabLoop> loops;
  std::vector<Step> steps;

  // Shared decisions.
  std::map<std::string, PlanArray> arrays;
  CostDecision cost;
  MemoryPlan memory;
  std::int64_t memory_budget_elements = 0;

  /// Stamped by compile()/compile_sequence() after the static verifier
  /// (compiler/verify.hpp) passed; the executor re-verifies plans that
  /// arrive without the stamp (hand-built or mutated programs).
  bool verified = false;

  const PlanArray& array(const std::string& name) const;
};

/// Flops of one ComputeElementwise / ComputeStencil step of `stmt` over the
/// slab `section` on `proc`: one per element for an elementwise statement
/// (the historical rule), and the rhs's binary operations per interior
/// element for a stencil, whose boundary copy-through is free. The executor
/// charges exactly this and the pricer prices it.
double compute_flops(const SlabStmt& stmt, const hpf::ArrayDistribution& dist,
                     int proc, const io::Section& section);

}  // namespace oocc::compiler
