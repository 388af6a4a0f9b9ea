// I/O cost estimation and access-reorganization selection (§4.1 of the
// paper, Figure 14's algorithm, Equations 3-6 generalized to arbitrary
// slab sizes).
//
// The estimator predicts, per processor, the paper's two metrics — number
// of I/O requests (T_fetch) and data volume (T_data) — for each candidate
// stripmining orientation of the GAXPY statement, by walking the exact
// loop structures of Figures 9 and 12 symbolically (using the same
// SlabIterator arithmetic the runtime kernels use, so predictions match
// measured counters *exactly*; the tests assert this). Following
// Figure 14, the array with the largest I/O requirement dominates the
// decision and the orientation minimizing its cost is selected.
//
// Once a plan exists, the step pricer (price_plan, price_sequence) and the
// reuse-hint annotator (annotate_reuse_distances) walk its step tree as
// compiler::StepWalk clients. Hints live nowhere in the plan: the pricer
// derives them per call, as the executor does, so its modelled slab pool
// evicts exactly as the real one.
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "oocc/io/disk_model.hpp"
#include "oocc/runtime/slab_iter.hpp"
#include "oocc/sim/cost_model.hpp"

namespace oocc::compiler {

struct NodeProgram;

/// Predicted per-processor I/O cost of one array under one candidate.
struct ArrayCost {
  std::string array;
  double fetch_requests = 0.0;  ///< T_fetch: I/O requests per processor
  double data_elements = 0.0;   ///< T_data: elements moved per processor
};

/// Full cost picture of one candidate orientation for the GAXPY statement.
struct CandidateCost {
  runtime::SlabOrientation a_orientation =
      runtime::SlabOrientation::kColumnSlabs;
  bool storage_reorganized = false;  ///< A/C stored contiguous for the slabs
  std::vector<ArrayCost> arrays;     ///< a, b, c

  double total_requests() const noexcept;
  double total_elements() const noexcept;

  /// Simulated seconds of disk service implied by the counts.
  double estimated_io_time_s(const io::DiskModel& disk, int nprocs) const;

  const ArrayCost& cost_of(const std::string& name) const;
};

/// Inputs to the GAXPY estimator.
struct GaxpyCostQuery {
  std::int64_t n = 0;           ///< global N (square arrays)
  int nprocs = 1;
  std::int64_t slab_a = 0;      ///< ICLA capacities in elements
  std::int64_t slab_b = 0;
  std::int64_t slab_c = 0;
  bool storage_reorganized = true;  ///< slabs contiguous on disk
};

/// Predicts the cost of the Figure 9 (column-slab) or Figure 12 (row-slab)
/// translation.
CandidateCost estimate_gaxpy_cost(runtime::SlabOrientation orientation,
                                  const GaxpyCostQuery& query);

struct TotalCostEstimate;

/// The outcome of Figure 14's algorithm.
struct CostDecision {
  CandidateCost chosen;
  std::vector<CandidateCost> candidates;
  /// End-to-end (io + compute + comm) predictions, parallel to
  /// `candidates` when filled by the compiler (may be empty).
  std::vector<double> candidate_total_s;
  std::string dominant_array;  ///< array with the largest I/O requirement
  std::string rationale;       ///< human-readable derivation
  /// --prefetch=auto derivation (empty unless the auto decision ran).
  std::string prefetch_rationale;
};

/// Runs Figure 14: estimate each orientation under its own query (the
/// slab sizes of that orientation's memory plan), find the dominant array
/// on the column-slab candidate, pick the orientation with the lowest cost
/// for it (ties: total estimated time under `disk`) and explain the pick
/// from those same candidates.
CostDecision choose_access_reorganization(const GaxpyCostQuery& column_query,
                                          const GaxpyCostQuery& row_query,
                                          const io::DiskModel& disk);

/// End-to-end time prediction for a GAXPY candidate: disk service (from
/// the request/byte counts), computation (2N^3/P flops) and the global-sum
/// communication (one tree reduction per output (sub)column). The paper
/// decides orientation on I/O alone because disk costs dominate by an
/// order of magnitude; this predictor lets the decision report show the
/// whole picture and lets tests check the model's ordering against
/// measured makespans.
struct TotalCostEstimate {
  double io_s = 0.0;
  double compute_s = 0.0;
  double comm_s = 0.0;
  double total_s() const noexcept { return io_s + compute_s + comm_s; }
};

TotalCostEstimate estimate_gaxpy_total(runtime::SlabOrientation orientation,
                                       const GaxpyCostQuery& query,
                                       const io::DiskModel& disk,
                                       const sim::MachineCostModel& machine);

/// Predicted per-processor LAF traffic of one array, derived by walking a
/// plan's slab-program IR rather than from a closed-form schema formula.
struct StepIoCost {
  double read_requests = 0.0;
  double elements_read = 0.0;
  double write_requests = 0.0;
  double elements_written = 0.0;
};

/// Options for price_plan / price_sequence.
struct PriceOptions {
  /// Price the executor's retaining slab pool: demand reads it serves from
  /// memory are not charged (they show up as cache_hits / elements_avoided
  /// instead) and staged writes are charged at write-back time. Off prices
  /// the no-retain (--no-cache) pool. Either way the walk drives the pool's
  /// own runtime::SlabDirectory.
  bool model_cache = false;
  /// Cache/working-set budget requested in elements, as
  /// ExecOptions::budget_elements: the pool gets at least the plans' own
  /// budgets (pool_budget).
  std::int64_t cache_budget_elements = 0;
  /// Sweeps of each stencil plan, over one slab pool, the ping-pong pair
  /// trading places on odd sweeps: the executor's convergence driver with
  /// this many iterations (a run's StencilRunInfo::iterations). 1 (or
  /// less) is the compile-time view the plan search and --dump-plan take.
  int sweeps = 1;
};

/// Full price of one plan on one processor: per-array LAF traffic plus the
/// compute the executor will charge and, with model_cache, the traffic the
/// slab pool saves.
struct PlanPrice {
  std::map<std::string, StepIoCost> arrays;
  double flops = 0.0;
  double cache_hits = 0.0;        ///< demand reads served from the cache
  double elements_avoided = 0.0;  ///< LAF elements those hits saved
  /// Reads issued by the read-ahead queues of prefetching slab loops: the
  /// read I/O that overlaps with compute.
  double overlappable_read_requests = 0.0;
  double overlappable_read_elements = 0.0;

  double total_requests() const noexcept;
  double total_elements() const noexcept;
  /// Disk service time implied by the *charged* counts.
  double io_time_s(const io::DiskModel& disk, int nprocs) const noexcept;
  /// Predicted makespan: charged disk service + compute, minus the
  /// overlappable read I/O the compute hides.
  double makespan_s(const io::DiskModel& disk,
                    const sim::MachineCostModel& machine,
                    int nprocs) const noexcept;
};

/// Prices a compiled plan by symbolically executing its step tree with
/// processor `proc`'s local extents: every ReadSlab/WriteSlab contributes
/// its section's contiguous-extent count and element volume, and so does
/// every GAXPY output batch the walk stores. The pricer is a client of the
/// executor's own step walk (compiler/walk.hpp), and it derives the same
/// reuse hints the executor does, so the predictions match measured LAF
/// counters request-for-request (the tests assert this); the closed-form
/// estimate_gaxpy_cost is only still needed *before* a plan exists: to
/// rank candidate orientations and to score the memory planner's
/// access-weighted grid. Throws StructureError (compiler/walk.hpp) on a
/// step tree no client can run.
PlanPrice price_plan(const NodeProgram& plan, int proc = 0,
                     const PriceOptions& options = {});

/// The budget of the slab pool that runs `plans`: the largest of their
/// memory budgets and `requested`. The retaining pool spans a whole
/// sequence; a no-retain one runs each plan alone, over that plan's. The
/// executor sizes its pool by this rule and the pricer its directory.
std::int64_t pool_budget(std::span<const NodeProgram> plans,
                         std::int64_t requested);

/// Prices a statement sequence with one modelled cache persisting across
/// plans (the executor shares one pool across execute_sequence, so a slab
/// statement i staged can satisfy statement j's demand read). The modelled
/// pool evicts by the sequence's reuse hints, annotated once per call for
/// processor 0 (whatever `proc` is priced), as exec::execute_sequence
/// does.
std::vector<PlanPrice> price_sequence(std::span<const NodeProgram> plans,
                                      int proc = 0,
                                      const PriceOptions& options = {});

/// The sequence's reuse hints: one vector per plan, indexed by step id
/// (StepWalk::Node::id). Each ReadSlab, WriteSlab, compute and ExchangeHalo
/// step gets its forward reuse distance: the minimum number of slab I/O
/// events between an execution of the step and the next read of the data
/// it touches, anywhere in the sequence; -1 where no later read exists.
/// Derived by replaying the sequence's dynamic slab schedule for processor
/// `proc`, a stencil plan for two ping-pong sweeps. The slab pool evicts by
/// them (farthest next use first); a schedule over 2^20 events gets -1
/// everywhere, and the pool degrades to LRU.
std::vector<std::vector<double>> annotate_reuse_distances(
    std::span<const NodeProgram> plans, int proc = 0);

/// Predicted makespan of one plan under the executor's defaults (slab
/// cache on): charged disk service + compute, minus the read I/O the
/// plan's prefetching loops can overlap with compute. The --prefetch=auto
/// decision compares this with and without the double-buffered layout.
double estimate_plan_time_s(const NodeProgram& plan, const io::DiskModel& disk,
                            const sim::MachineCostModel& machine);

}  // namespace oocc::compiler
