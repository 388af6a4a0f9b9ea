// Plan interpreter: runs a compiled NodeProgram on the simulated machine.
//
// This closes the loop the paper describes: HPF source -> two-phase
// compilation -> node program with explicit I/O and message passing ->
// execution on the distributed-memory machine. There is one generic
// executor: a client of compiler::StepWalk, the traversal of the plan's
// slab-program IR (ForEachSlab / ForEachColumn structure with ReadSlab,
// WriteSlab, ComputeElementwise, ComputeGaxpyPartial, ReduceSum,
// ExchangeHalo, ComputeStencil, Barrier leaves) that the pricer and the
// verifier run too. It adds the kernels and the messages, and has one I/O
// path: every ReadSlab/WriteSlab goes through a runtime::SlabBufferPool,
// and the walk pumps each prefetching loop's IoScheduler read-ahead queue
// over it. The pool moves its bytes on the machine's async I/O engine
// whenever the machine has one (sim::MachineOptions::async). It has two
// modes over one policy. Retaining (the default) shares the pool across
// the statements of a sequence, so slabs a statement staged (or a
// re-sweep already fetched) are served from memory, evicted by the
// reuse hints each call derives for processor 0 from the whole sequence
// (compiler::annotate_reuse_distances), as the pricer does. No-retain
// (ExecOptions::use_cache = false, --no-cache, OOCC_NO_CACHE) writes
// staged slabs through at once and drops every slab after its use, so
// each sweep re-reads what it needs. The GAXPY, elementwise and stencil
// translations are just different step programs.
#pragma once

#include <filesystem>
#include <map>
#include <memory>
#include <span>

#include "oocc/compiler/plan.hpp"
#include "oocc/runtime/bufferpool.hpp"
#include "oocc/runtime/ooc_array.hpp"

namespace oocc::exec {

/// Per-processor set of arrays bound to a plan.
using ArrayBindings = std::map<std::string, runtime::OutOfCoreArray*>;

/// Outcome of a stencil plan's iterate-to-convergence driver.
struct StencilRunInfo {
  int iterations = 0;        ///< sweeps actually run
  double final_residual = 0.0;  ///< global max |update| of the last sweep
  /// Name of the array holding the final state (the ping-pong pair swaps
  /// roles every sweep, so this is lhs after an odd count, source after an
  /// even one).
  std::string result;
};

/// Per-run executor knobs.
struct ExecOptions {
  /// Retain slabs in the SlabBufferPool (shared across a sequence's
  /// statements). Off runs the pool in no-retain mode: every sweep
  /// re-reads, writes go straight through, and each statement of a
  /// sequence gets its own pool.
  bool use_cache = true;
  /// Memory requested for the executor's pool in elements. The pool gets
  /// at least the plan's own memory_budget_elements (for a sequence: the
  /// max across its plans), so only values above it count: headroom to
  /// retain slabs (compiler::pool_budget, the pricer's rule too).
  std::int64_t budget_elements = 0;
  /// When non-null, the pool's counters are merged into it after the run.
  runtime::SlabCacheStats* cache_stats = nullptr;

  /// Stencil plans only: number of Jacobi-style sweeps to run, ping-ponging
  /// the lhs/source pair between sweeps. Ignored by other plan kinds.
  int max_iters = 1;
  /// Stencil plans only: when > 0, stop as soon as the global max |update|
  /// of a sweep drops to (or below) this threshold.
  double residual_tol = 0.0;
  /// When non-null, filled with the stencil driver's outcome.
  StencilRunInfo* stencil_info = nullptr;

  /// Crash-consistent write-back: route every bound array's LAF writes
  /// through the shadow journal (laf.hpp). Off by default — it adds one
  /// disk request per write, which would skew fault-free cost accounting.
  /// default_exec_options turns it on when OOCC_JOURNAL is set or a fault
  /// plan is active.
  bool journal = false;

  /// Stencil plans only: checkpoint the live half of the ping-pong pair
  /// every k completed sweeps to checkpoint_dir (0 = off). See
  /// exec/checkpoint.hpp for the commit protocol.
  int checkpoint_every = 0;
  std::filesystem::path checkpoint_dir;
  /// Stencil plans only: first sweep index. The restart driver sets this
  /// to the restored checkpoint's sweep count so ping-pong parity and the
  /// remaining iteration count line up with the uninterrupted run.
  int start_iteration = 0;

  /// Statically verify plans that arrive without the compiler's
  /// NodeProgram::verified stamp (hand-built or mutated programs) before
  /// running them, throwing Error(kVerifyError) on a violation. Stamped
  /// plans are never re-verified — execution stays zero-overhead for the
  /// compile() path.
  bool verify = true;
};

/// ExecOptions honouring the environment: OOCC_NO_CACHE selects the
/// no-retain pool, OOCC_NO_VERIFY skips verification of unstamped plans.
ExecOptions default_exec_options();

/// Creates one OutOfCoreArray per plan array (with the plan's storage
/// orders) under `dir`. Call inside the SPMD region.
std::map<std::string, std::unique_ptr<runtime::OutOfCoreArray>>
create_plan_arrays(sim::SpmdContext& ctx, const compiler::NodeProgram& plan,
                   const std::filesystem::path& dir,
                   const io::DiskModel& disk);

/// Executes the plan. `arrays` must contain every plan array, created with
/// the plan's storage orders (create_plan_arrays does this); a memory
/// budget of plan.memory_budget_elements is enforced. Collective: every
/// rank calls it. Throws Error(kRuntimeError) on binding mismatches.
void execute(sim::SpmdContext& ctx, const compiler::NodeProgram& plan,
             const ArrayBindings& arrays);
void execute(sim::SpmdContext& ctx, const compiler::NodeProgram& plan,
             const ArrayBindings& arrays, const ExecOptions& options);

/// Creates the union of arrays across a compiled statement sequence.
/// Throws Error(kCompileError) if two plans disagree about an array's
/// storage order or distribution.
std::map<std::string, std::unique_ptr<runtime::OutOfCoreArray>>
create_sequence_arrays(sim::SpmdContext& ctx,
                       std::span<const compiler::NodeProgram> plans,
                       const std::filesystem::path& dir,
                       const io::DiskModel& disk);

/// Executes every plan of a compiled sequence in order; dependencies flow
/// through the arrays' Local Array Files. Every plan is checked against
/// its bindings (and verified when unstamped) before the first one runs.
/// Collective.
void execute_sequence(sim::SpmdContext& ctx,
                      std::span<const compiler::NodeProgram> plans,
                      const ArrayBindings& arrays);
void execute_sequence(sim::SpmdContext& ctx,
                      std::span<const compiler::NodeProgram> plans,
                      const ArrayBindings& arrays,
                      const ExecOptions& options);

}  // namespace oocc::exec
