// Lowering: the two-phase out-of-core compilation pipeline (Figure 7).
//
// In-core phase (done by hpf::analyze + the pattern matchers here):
//   1. partition computation via the distribution directives,
//   2. determine communication (the GAXPY pattern needs a global sum; the
//      elementwise pattern is communication-free),
//   3. local bounds come from ArrayDistribution.
// Out-of-core phase (done here):
//   1. stripmine the local iteration space by the ICLA sizes,
//   2. estimate I/O costs per candidate orientation and *reorganize data
//      accesses* (§4.1, Figure 14) — unless disabled for ablation,
//   3. pick storage orders so the chosen slabs are contiguous on disk,
//   4. divide node memory among the competing arrays (§4.2.1),
//   5. emit the NodeProgram with I/O, compute and communication structure.
#pragma once

#include "oocc/compiler/plan.hpp"
#include "oocc/hpf/sema.hpp"
#include "oocc/io/disk_model.hpp"

namespace oocc::compiler {

/// Prefetch (double-buffering) policy for slab streams.
enum class PrefetchMode {
  kOff,  ///< synchronous slab reads (the pre-prefetch baseline)
  kOn,   ///< force double-buffering of the eligible streams
  kAuto  ///< per-plan decision: price_plan + the disk model compare the
         ///< sweep with and without the double-buffered layout and keep
         ///< whichever the cost model predicts faster
};

std::string_view prefetch_mode_name(PrefetchMode m) noexcept;

/// Plan optimizer mode.
enum class OptMode {
  kHeuristic,  ///< per-statement local decisions (the historical pipeline)
  kSearch      ///< global plan search: enumerate slab sizes, memory shares,
               ///< prefetch and fusion groupings, minimize the priced
               ///< makespan of the whole sequence (compiler/search.hpp)
};

std::string_view opt_mode_name(OptMode m) noexcept;

struct CompileOptions {
  /// Per-processor node memory available for ICLAs, in elements.
  std::int64_t memory_budget_elements = 1 << 20;

  MemoryStrategy memory_strategy = MemoryStrategy::kAccessWeighted;

  /// §4.1 optimization switches (ablation study knobs):
  /// when false, the compiler behaves like the straightforward extension
  /// of the in-core compiler — column slabs, no storage reorganization.
  bool enable_access_reorganization = true;
  bool enable_storage_reorganization = true;

  /// Double-buffer the dominant array's slabs (halves its slab size). For
  /// elementwise sweeps this double-buffers the pure-input slab streams
  /// (shrinking every array's share so the extra buffers fit). kAuto lets
  /// the cost model decide per plan.
  PrefetchMode prefetch = PrefetchMode::kOff;

  /// Inter-statement slab fusion: consecutive communication-free
  /// elementwise statements with aligned distributions merge into one
  /// sweep, so intermediate arrays flow buffer-to-buffer in memory
  /// instead of round-tripping through their Local Array Files. Off
  /// reproduces the statement-at-a-time translation (ablation knob).
  bool enable_statement_fusion = true;

  /// Disk model used for cost estimation (should match the machine the
  /// plan will run on).
  io::DiskModel disk = io::DiskModel::touchstone_delta_cfs();

  /// Machine model for the end-to-end (compute + communication) time
  /// predictions recorded in the decision report.
  sim::MachineCostModel machine = sim::MachineCostModel::touchstone_delta();

  /// Plan optimizer: kHeuristic keeps the per-statement local decisions
  /// above; kSearch runs the global plan search (compiler/search.hpp),
  /// which enumerates the joint knob space and returns the min-priced
  /// verified candidate. Only compile_sequence consults this; the search
  /// itself compiles its candidates with a kHeuristic copy.
  OptMode opt = OptMode::kHeuristic;

  /// kSearch only: coordinate-descent passes over the sequence segments.
  /// Pass 1 explores each segment against the heuristic rest; later passes
  /// re-visit segments against the improved context. More passes cost more
  /// candidate pricings and can only improve the priced makespan.
  int search_passes = 2;

  /// Run the static verifier (compiler/verify.hpp) on every emitted plan
  /// and throw Error(kVerifyError) on a violation. On by default: a plan
  /// the compiler cannot prove race-free, covering and within budget is a
  /// compiler bug, not a runtime surprise. oocc_compile --no-verify and
  /// the mutation tests turn it off.
  bool verify = true;
};

/// Compiles the analyzed program to a node-program plan. Throws
/// Error(kCompileError) when the statement list matches no supported
/// pattern, with a diagnostic naming the obstacle.
NodeProgram compile(const hpf::BoundProgram& program,
                    const CompileOptions& options);

/// Convenience: parse + analyze + compile HPF source text.
NodeProgram compile_source(std::string_view source,
                           const CompileOptions& options);

/// Compiles a program whose top level is a *sequence* of supported
/// statements (each an elementwise FORALL / array assignment, or the
/// whole program being one GAXPY nest), executed in order by
/// exec::execute_sequence. Each statement lowers independently; when
/// enable_statement_fusion is set, consecutive compatible elementwise
/// plans are then merged into single fused sweeps, so the returned vector
/// may be shorter than the statement list. Dependencies between the
/// remaining plans flow through the out-of-core arrays on disk: plan i+1
/// simply reads what plan i wrote.
std::vector<NodeProgram> compile_sequence(const hpf::BoundProgram& program,
                                          const CompileOptions& options);

/// Convenience: parse + analyze + compile_sequence.
std::vector<NodeProgram> compile_sequence_source(
    std::string_view source, const CompileOptions& options);

}  // namespace oocc::compiler
