// The node-program plan — output of the out-of-core compiler.
//
// The paper's compiler emits "Node + MP + I/O code" (Figures 9/12): an
// explicit program of I/O, compute, and communication steps over slabs.
// Our equivalent is a NodeProgram carrying a *slab-program IR*: a set of
// named stripmined loops (SlabLoop) and a tree of typed steps (Step) —
// ReadSlab / WriteSlab / ComputeElementwise / ComputeGaxpyPartial /
// ReduceSum / Barrier nested under ForEachSlab / ForEachColumn structural
// steps. The pattern matchers in compiler/lower recognize the source
// statement (GAXPY reduction or elementwise FORALL) and emit the step
// program; exec::execute interprets the steps generically — there is no
// per-schema executor. The plan also records the placement decisions that
// justify the steps: per-array storage orders and slab sizes, the cost
// decision, and the memory plan. compiler/pretty renders both the
// Figure 9/12-style pseudo-code and the raw step IR.
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
  kReduceSum,      ///< global sum of temp; owner stages its output column
  kExchangeHalo,   ///< trade `halo` edge columns of `array` with the
                   ///< neighbouring processors (ghost columns for a sweep)
  kComputeStencil, ///< evaluate stencils[stmt] over the current slab, with
                   ///< halo/ghost columns bound and boundary copy-through
  kBarrier         ///< synchronize all processors
};

std::string_view step_kind_name(StepKind k) noexcept;

/// One node of the step tree. Field use by kind:
///  * kForEachSlab / kForEachColumn: `loop`, `body`
///  * kReadSlab / kWriteSlab:        `loop` (section source), `array`
///  * kComputeElementwise:           `loop` (sweep), `stmt`
///  * kComputeGaxpyPartial:          `loop` (A slabs), `with` (column loop)
///  * kReduceSum:                    `array` (output), `with` (column loop)
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
  /// Forward reuse distance, annotated by annotate_reuse_distances (cost.hpp)
  /// on kReadSlab / kWriteSlab / kComputeElementwise steps: the minimum
  /// number of slab I/O events between an execution of this step and the
  /// next read of the data it touches, anywhere in the compiled sequence;
  /// -1 when the data is never read again. The runtime slab pool uses it as
  /// an eviction hint (farthest-next-use goes first).
  double reuse_distance = -1.0;
  std::vector<Step> body;
};

/// One lowered elementwise assignment `lhs(1:rows,k) = rhs`. A fused plan
/// carries several; each slab of the sweep evaluates them in order, so a
/// later statement reads the in-memory result of an earlier one.
struct ElementwiseStmt {
  std::string lhs;
  std::shared_ptr<const hpf::Expr> rhs;  ///< immutable after lowering
  std::string forall_var;
};

/// One lowered halo-stencil FORALL `lhs(interior) = f(source shifted)`.
/// The rhs is *stencil-normalized*: every array reference's subscripts are
/// rewritten to two integer constants (row shift, column offset) relative
/// to the element being computed, so the executor reads them positionally
/// instead of re-deriving the subscript algebra per element. Elements
/// outside the FORALL's interior (the first/last `halo` global columns and
/// the first/last `row_halo` rows) copy through from `source` — the
/// canonical Jacobi fixed boundary.
struct StencilStmt {
  std::string lhs;     ///< output array of one sweep
  std::string source;  ///< the single stenciled input array
  std::shared_ptr<const hpf::Expr> rhs;  ///< stencil-normalized tree
  std::string forall_var;
  std::int64_t halo = 1;      ///< max |column offset| (dependence distance)
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

  // Elementwise statement group (one entry per fused source statement).
  std::vector<ElementwiseStmt> statements;
  std::int64_t elementwise_cols = 0;

  // Stencil statement (one per plan; the executor's convergence driver
  // ping-pongs lhs/source between sweeps).
  std::vector<StencilStmt> stencils;

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

/// The budget a GAXPY plan reserves on `proc` beside its slab pool: the
/// reduction temporary (one full-height A column) and the staged output
/// buffer, which holds at least one full-height (sub)column per flush.
/// Zero for other plan kinds. The executor reserves exactly these, the
/// pricer reserves them at the same steps, and the verifier's budget check
/// adds their total to the peak pinned working set.
struct SideReservation {
  std::int64_t temp = 0;
  std::int64_t output = 0;
  std::int64_t total() const noexcept { return temp + output; }
};
SideReservation gaxpy_side_reservation(const NodeProgram& plan, int proc);

}  // namespace oocc::compiler
