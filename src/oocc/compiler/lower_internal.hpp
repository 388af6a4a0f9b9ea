// The plan builder lowering shares with the global plan search.
//
// Every layout a plan can take is built here, by lowering's own routines:
// the heuristic pipeline calls them with its knobs, --prefetch=auto calls
// them once per prefetch setting, and the search (compiler/search.cpp)
// calls them once per candidate. The heuristic's layout is therefore one
// of the search's candidates by construction, and a searched plan has the
// same step shapes, invariants and verifier coverage as a lowered one.
// These routines are an implementation detail of the compiler, not public
// API; only lower.cpp and search.cpp include this header.
#pragma once

#include <span>

#include "oocc/compiler/lower.hpp"

namespace oocc::compiler::detail {

/// The GAXPY knobs chosen after (or instead of) Figure 14's orientation
/// pick.
struct GaxpyLayout {
  runtime::SlabOrientation orientation = runtime::SlabOrientation::kRowSlabs;
  MemoryStrategy split = MemoryStrategy::kAccessWeighted;
  bool halve_a = false;   ///< give A half its planned slab
  bool prefetch = false;  ///< double-buffer A (halves its slab again)
};

/// Lays out a GAXPY plan whose arrays are already recorded: divides the
/// budget (plan_memory under options.disk), sizes A's slab, sets the
/// prefetch flag, the storage orders of A and C, every array's slab size,
/// and emits the Figure 9 (column slabs) or Figure 12 (row slabs) steps.
/// Throws Error(kResourceExhausted) when the budget cannot cover the
/// memory planner's floors.
void layout_gaxpy(NodeProgram& plan, const GaxpyLayout& layout,
                  const CompileOptions& options);

/// Lays out a stencil plan with owner slabs of `w` columns: slab sizes
/// (the source's widened by the halo on each side) and the exchange /
/// halo-read / compute / write / barrier steps.
void layout_stencil(NodeProgram& plan, std::int64_t w);

/// Whether two plans sweep the same geometry: both elementwise, with
/// identically distributed, stored and oriented target sections.
bool same_sweep(const NodeProgram& a, const NodeProgram& b);

/// Merges elementwise plans (in order) into one sweep whose buffers divide
/// `frac` of the budget, while the plan, and so the runtime slab pool,
/// keeps the full budget: a fraction below 1 shrinks the slabs to leave
/// the pool room to retain other statements' data. Throws
/// Error(kCompileError) when the members' sweeps differ and
/// Error(kResourceExhausted) when one column per buffer does not fit.
NodeProgram fuse(const std::vector<const NodeProgram*>& members,
                 const CompileOptions& options, bool prefetch, double frac);

/// Matches and lowers each statement of the program (the whole program
/// when it has at most one), including the --prefetch=auto decision.
/// Does not verify.
std::vector<NodeProgram> lower_statements(const hpf::BoundProgram& program,
                                          const CompileOptions& options);

/// When options.verify is set, verifies the plans as one sequence and
/// stamps them verified.
void verify_and_stamp(std::span<NodeProgram> plans,
                      const CompileOptions& options);

}  // namespace oocc::compiler::detail
