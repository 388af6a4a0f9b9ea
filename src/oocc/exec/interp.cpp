#include "oocc/exec/interp.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "oocc/compiler/verify.hpp"
#include "oocc/exec/checkpoint.hpp"
#include "oocc/exec/eval.hpp"
#include "oocc/runtime/bufferpool.hpp"
#include "oocc/runtime/slab_iter.hpp"
#include "oocc/runtime/slab_writer.hpp"
#include "oocc/sim/collectives.hpp"
#include "oocc/util/env.hpp"
#include "oocc/util/error.hpp"
#include "oocc/util/faults.hpp"

namespace oocc::exec {

namespace {

// Ghost-column exchange tags (user tags are >= 0; the hand-coded Jacobi
// oracle uses 101/102, kept distinct so both can run in one simulation).
constexpr int kTagStencilLeft = 151;   ///< carries a rank's leftmost columns
constexpr int kTagStencilRight = 152;  ///< carries a rank's rightmost columns

runtime::OutOfCoreArray& bound(const ArrayBindings& arrays,
                               const std::string& name) {
  const auto it = arrays.find(name);
  OOCC_CHECK(it != arrays.end() && it->second != nullptr,
             ErrorCode::kRuntimeError,
             "plan array '" << name << "' is not bound");
  return *it->second;
}

void check_binding(const compiler::NodeProgram& plan,
                   const runtime::OutOfCoreArray& array) {
  const compiler::PlanArray& pa = plan.array(array.name());
  OOCC_CHECK(array.laf().order() == pa.storage, ErrorCode::kRuntimeError,
             "array '" << array.name() << "' is stored "
                       << io::storage_order_name(array.laf().order())
                       << " but the plan requires "
                       << io::storage_order_name(pa.storage)
                       << " (create it with create_plan_arrays, or "
                          "reorganize the LAF first)");
  OOCC_CHECK(array.dist() == pa.dist, ErrorCode::kRuntimeError,
             "array '" << array.name() << "' distribution "
                       << array.dist().to_string()
                       << " does not match the plan's "
                       << pa.dist.to_string());
}

/// Interprets a plan's slab-program IR on one simulated processor. The
/// executor is schema-free: every behavior (which arrays stream through
/// which loops, where partial products accumulate, when the global sum
/// runs) is read off the step tree, so new kernels are new step programs,
/// not new executors. All slab I/O routes through the SlabBufferPool, pinned
/// per slab iteration; whether staged outputs write back lazily or at once
/// is the pool's mode.
class StepExecutor {
 public:
  /// `stencil_swapped` runs a stencil plan's sweep with the lhs/source
  /// roles exchanged (the convergence driver's odd sweeps): every array
  /// name in the step program resolves to its ping-pong partner at the
  /// LAF/pool boundary.
  StepExecutor(sim::SpmdContext& ctx, const compiler::NodeProgram& plan,
               const ArrayBindings& arrays, runtime::SlabBufferPool& pool,
               bool stencil_swapped = false)
      : ctx_(ctx), plan_(plan), arrays_(arrays), pool_(pool),
        swap_(stencil_swapped && !plan.stencils.empty()) {
    for (const compiler::SlabLoop& loop : plan_.loops) {
      const runtime::OutOfCoreArray& space =
          bound(arrays_, resolve(loop.space));
      states_.emplace(
          loop.name,
          LoopState(&loop, runtime::SlabIterator(space.local_rows(),
                                                 space.local_cols(),
                                                 loop.orientation,
                                                 loop.capacity_elements)));
    }
  }

  /// Local max |update| of the sweep's interior elements (stencil plans).
  double residual() const noexcept { return residual_; }

  void run() {
    if (plan_.kind == compiler::ProgramKind::kGaxpy) {
      // The reduction output is written through the OwnedColumnWriter,
      // which bypasses the pool: cached slabs of it would go stale.
      pool_.invalidate(ctx_, plan_.c);
    }
    run_steps(plan_.steps);
    if (writer_) {
      writer_->flush(ctx_);
      writer_.reset();
    }
    if (temp_reserved_ > 0) {
      pool_.budget().release(temp_reserved_);
      temp_reserved_ = 0;
    }
    // Pin-count leak detection: every slab iteration must have unpinned
    // what it acquired.
    OOCC_CHECK(pool_.pinned_count() == 0, ErrorCode::kRuntimeError,
               "slab pool pin leak: " << pool_.pinned_count()
                                      << " entries still pinned after the "
                                         "sweep");
  }

 private:
  struct LoopState {
    LoopState(const compiler::SlabLoop* d, runtime::SlabIterator it)
        : decl(d), iter(it) {}

    const compiler::SlabLoop* decl;
    runtime::SlabIterator iter;
    io::Section section{};         ///< current slab's section
    std::int64_t column = -1;      ///< ForEachColumn position
    /// Buffers holding the current slab of each streamed array.
    std::map<std::string, const runtime::IclaBuffer*> loaded;
    /// Pool entries pinned during the current slab iteration.
    std::vector<std::pair<std::string, io::Section>> pinned;
    /// Read-ahead queue for this loop's upcoming ReadSlab schedule.
    runtime::IoScheduler scheduler;
    int lookahead = 0;  ///< reads to keep in flight (streamed array count)
  };

  LoopState& state(const std::string& name) {
    const auto it = states_.find(name);
    OOCC_CHECK(it != states_.end(), ErrorCode::kRuntimeError,
               "step references undeclared slab loop '" << name << "'");
    return it->second;
  }

  /// Plan array name -> the array actually touched this sweep. Identity
  /// except for a swapped stencil sweep, where the ping-pong pair trade
  /// places. Only LAF/pool accesses resolve; the in-executor `loaded` maps
  /// stay keyed by plan name.
  const std::string& resolve(const std::string& name) const {
    return compiler::stencil_resolve(plan_, swap_, name);
  }

  void run_steps(const std::vector<compiler::Step>& steps) {
    for (const compiler::Step& step : steps) {
      run_step(step);
    }
  }

  void run_step(const compiler::Step& step) {
    using compiler::StepKind;
    switch (step.kind) {
      case StepKind::kForEachSlab: {
        LoopState& loop = state(step.loop);
        // Hand the loop's upcoming read-ahead schedule to its queue.
        std::vector<runtime::IoScheduler::Request> streams;
        for (const compiler::Step* s :
             compiler::read_ahead_streams(plan_, step)) {
          const std::string& name = resolve(s->array);
          streams.push_back(runtime::IoScheduler::Request{
              &bound(arrays_, name).laf(), name, {}, s->reuse_distance});
        }
        loop.lookahead = static_cast<int>(streams.size());
        loop.scheduler.schedule(loop.iter, std::move(streams));
        for (std::int64_t i = 0; i < loop.iter.count(); ++i) {
          loop.section = loop.iter.section(i);
          run_steps(step.body);
          for (auto it = loop.pinned.rbegin(); it != loop.pinned.rend();
               ++it) {
            pool_.unpin(ctx_, it->first, it->second);
          }
          loop.pinned.clear();
        }
        return;
      }
      case StepKind::kForEachColumn: {
        LoopState& loop = state(step.loop);
        for (std::int64_t m = 0; m < loop.section.cols(); ++m) {
          loop.column = m;
          fresh_column_ = true;
          run_steps(step.body);
        }
        loop.column = -1;
        return;
      }
      case StepKind::kReadSlab:
        read_slab(step);
        return;
      case StepKind::kWriteSlab:
        // A retaining pool defers the write-back: the dirty slab reaches
        // the LAF on eviction or at the end-of-sequence flush, and a later
        // statement's read of it meanwhile is a hit.
        pool_.mark_dirty(ctx_, resolve(step.array), state(step.loop).section,
                         step.reuse_distance);
        return;
      case StepKind::kComputeElementwise:
        compute_elementwise(step);
        return;
      case StepKind::kComputeGaxpyPartial:
        compute_gaxpy_partial(step);
        return;
      case StepKind::kReduceSum:
        reduce_sum(step);
        return;
      case StepKind::kExchangeHalo:
        exchange_halo(step);
        return;
      case StepKind::kComputeStencil:
        compute_stencil(step);
        return;
      case StepKind::kBarrier:
        // Settle in-flight async write-backs first: a rank must not report
        // "done" to its peers while a worker error is still pending, and
        // post-barrier reads by other statements expect the bytes on disk.
        pool_.drain_writes(ctx_);
        sim::barrier(ctx_);
        return;
    }
    OOCC_THROW(ErrorCode::kRuntimeError, "unknown step kind");
  }

  void read_slab(const compiler::Step& step) {
    LoopState& loop = state(step.loop);
    const std::string& name = resolve(step.array);
    runtime::OutOfCoreArray& array = bound(arrays_, name);
    // Halo reads widen the owner slab by the dependence distance, clipped
    // at the local array bounds (columns beyond them arrive as ghosts).
    const io::Section sec =
        step.halo > 0
            ? compiler::widen_columns(loop.section, step.halo,
                                      array.local_cols())
            : loop.section;
    runtime::IclaBuffer& buf = pool_.acquire_read(
        ctx_, array.laf(), name, sec, step.reuse_distance, step.halo > 0);
    loop.pinned.emplace_back(name, sec);
    loop.loaded[step.array] = &buf;
    loop.scheduler.pump(ctx_, pool_, loop.lookahead);
  }

  void compute_elementwise(const compiler::Step& step) {
    const compiler::ElementwiseStmt& st =
        plan_.statements.at(static_cast<std::size_t>(step.stmt));
    LoopState& loop = state(step.loop);
    const io::Section sec = loop.section;
    runtime::OutOfCoreArray& lhs = bound(arrays_, st.lhs);
    // Stage into a pool entry: an in-place load or an earlier statement of
    // the fused group may already have created it (data preserved).
    runtime::IclaBuffer& out =
        pool_.acquire_write(ctx_, lhs.laf(), st.lhs, sec, step.reuse_distance);
    loop.pinned.emplace_back(st.lhs, sec);
    // Safe to install before evaluating: each element is written only from
    // values of the same (row, column), read before the write. Later
    // statements of a fused group read this result from memory.
    loop.loaded[st.lhs] = &out;

    EvalEnv env;
    env.forall_var = st.forall_var;
    env.buffers = &loop.loaded;
    for (std::int64_t c = 0; c < sec.cols(); ++c) {
      // FORALL index is the 1-based global column number.
      env.forall_value =
          lhs.dist().local_to_global_col(ctx_.rank(), sec.col0 + c) + 1;
      env.col_rel = c;
      for (std::int64_t r = 0; r < sec.rows(); ++r) {
        env.row = r;
        out.at(r, c) = eval_element(*st.rhs, env);
      }
    }
    ctx_.charge_flops(static_cast<double>(sec.elements()));
  }

  void compute_gaxpy_partial(const compiler::Step& step) {
    LoopState& a_loop = state(step.loop);
    LoopState& col_loop = state(step.with);
    const runtime::IclaBuffer* a_buf = a_loop.loaded.at(a_loop.decl->space);
    const runtime::IclaBuffer* b_buf =
        col_loop.loaded.at(col_loop.decl->space);
    const io::Section asec = a_buf->section();
    if (fresh_column_) {
      if (temp_reserved_ == 0) {
        const std::int64_t temp =
            compiler::gaxpy_side_reservation(plan_, ctx_.rank()).temp;
        pool_.ensure_available(ctx_, temp);
        pool_.budget().reserve(temp, "temp column");
        temp_reserved_ = temp;
      }
      temp_.assign(static_cast<std::size_t>(asec.rows()), 0.0);
      temp_row0_ = asec.row0;
      temp_row1_ = asec.row1;
      fresh_column_ = false;
    }
    const std::int64_t m = col_loop.column;
    for (std::int64_t i = 0; i < asec.cols(); ++i) {
      // Local column asec.col0+i of A pairs with the same local row of B
      // (both derive from the same distribution template).
      const double bval = b_buf->at(asec.col0 + i, m);
      const double* acol = &a_buf->at(0, i);
      for (std::int64_t r = 0; r < asec.rows(); ++r) {
        temp_[static_cast<std::size_t>(r)] += acol[r] * bval;
      }
    }
    ctx_.charge_flops(2.0 * static_cast<double>(asec.rows()) *
                      static_cast<double>(asec.cols()));
  }

  void reduce_sum(const compiler::Step& step) {
    LoopState& col_loop = state(step.with);
    runtime::OutOfCoreArray& c = bound(arrays_, step.array);
    // Global output column = the column loop's position in its sweep.
    const std::int64_t gj = col_loop.section.col0 + col_loop.column;
    const int owner = c.dist().owner_of_col(gj);
    std::vector<double> summed = sim::reduce_sum<double>(
        ctx_, owner, std::span<const double>(temp_.data(), temp_.size()));
    // A new row range (the next A row slab) starts a new output pass;
    // flush what the previous pass staged.
    if (writer_ &&
        (writer_->row0() != temp_row0_ || writer_->row1() != temp_row1_)) {
      writer_->flush(ctx_);
      writer_.reset();
    }
    if (ctx_.rank() != owner) {
      return;
    }
    if (!writer_) {
      if (!c_buf_) {
        const std::int64_t capacity =
            compiler::gaxpy_side_reservation(plan_, ctx_.rank()).output;
        pool_.ensure_available(ctx_, capacity);
        c_buf_ = std::make_unique<runtime::IclaBuffer>(
            pool_.budget(), capacity, "icla_" + step.array);
      }
      writer_ = std::make_unique<runtime::OwnedColumnWriter>(
          c, *c_buf_, temp_row0_, temp_row1_);
    }
    writer_->append(
        ctx_, c.dist().global_to_local_col(gj),
        std::span<const double>(summed.data(), summed.size()));
  }

  /// Ghost-column exchange before a stencil sweep: every rank ships its
  /// `halo` edge columns to the neighbouring ranks and keeps the columns it
  /// receives for the sweep's out-of-panel reads. Reads go through the pool,
  /// so columns a previous sweep staged (and never wrote back) are seen
  /// current.
  void exchange_halo(const compiler::Step& step) {
    left_ghost_.clear();
    right_ghost_.clear();
    const int p = ctx_.nprocs();
    if (p == 1) {
      return;
    }
    const std::int64_t d = step.halo;
    const std::string& name = resolve(step.array);
    runtime::OutOfCoreArray& arr = bound(arrays_, name);
    const std::int64_t rows = arr.local_rows();
    const std::int64_t nlc = arr.local_cols();
    const int rank = ctx_.rank();

    std::vector<double> edge;
    const auto read_edge = [&](const io::Section& sec) {
      const std::span<const double> data =
          pool_.acquire_read(ctx_, arr.laf(), name, sec, step.reuse_distance)
              .data();
      edge.assign(data.begin(), data.end());
      pool_.unpin(ctx_, name, sec);
    };
    if (rank > 0) {
      read_edge(io::Section{0, rows, 0, d});
      ctx_.send<double>(rank - 1, kTagStencilLeft,
                        std::span<const double>(edge.data(), edge.size()));
    }
    if (rank < p - 1) {
      read_edge(io::Section{0, rows, nlc - d, nlc});
      ctx_.send<double>(rank + 1, kTagStencilRight,
                        std::span<const double>(edge.data(), edge.size()));
    }
    if (rank < p - 1) {
      left_ghost_ = ctx_.recv<double>(rank + 1, kTagStencilLeft);
    }
    if (rank > 0) {
      right_ghost_ = ctx_.recv<double>(rank - 1, kTagStencilRight);
    }
  }

  /// Evaluates one element of a stencil-normalized expression: array
  /// references carry (row shift, column offset) integer subscripts.
  template <typename ColAt>
  double eval_stencil(const hpf::Expr& e, std::int64_t r, std::int64_t lc,
                      std::int64_t forall_value, const ColAt& col_at) const {
    switch (e.kind) {
      case hpf::ExprKind::kIntConst:
        return static_cast<double>(e.int_value);
      case hpf::ExprKind::kVarRef:
        // Lowering only admits the FORALL index as a free scalar.
        return static_cast<double>(forall_value);
      case hpf::ExprKind::kBinary: {
        const double a = eval_stencil(*e.lhs, r, lc, forall_value, col_at);
        const double b = eval_stencil(*e.rhs, r, lc, forall_value, col_at);
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
        return 0.0;
      }
      case hpf::ExprKind::kArrayRef: {
        const std::int64_t sr = e.subscripts[0].scalar->int_value;
        const std::int64_t co = e.subscripts[1].scalar->int_value;
        return col_at(lc + co)[r + sr];
      }
      case hpf::ExprKind::kSumIntrinsic:
        break;
    }
    OOCC_THROW(ErrorCode::kRuntimeError,
               "unsupported node in a stencil-normalized expression");
  }

  /// One slab of the stencil sweep. Interior elements evaluate the
  /// normalized rhs over the halo-widened source slab (ghost columns for
  /// out-of-panel offsets); boundary rows and the first/last `halo` global
  /// columns copy through from the source — the hand-coded Jacobi oracle's
  /// exact arithmetic and boundary policy, element for element.
  void compute_stencil(const compiler::Step& step) {
    const compiler::StencilStmt& st =
        plan_.stencils.at(static_cast<std::size_t>(step.stmt));
    LoopState& loop = state(step.loop);
    const io::Section sec = loop.section;
    const std::string& lhs_name = resolve(st.lhs);
    runtime::OutOfCoreArray& lhs = bound(arrays_, lhs_name);
    const runtime::IclaBuffer* src = loop.loaded.at(st.source);
    const io::Section hs = src->section();
    const std::int64_t rows = sec.rows();
    const std::int64_t nlc = lhs.local_cols();
    const std::int64_t gcols = lhs.dist().global_cols();
    const std::int64_t d = st.halo;
    const std::int64_t rh = st.row_halo;

    runtime::IclaBuffer& out = pool_.acquire_write(ctx_, lhs.laf(), lhs_name,
                                                   sec, step.reuse_distance);
    loop.pinned.emplace_back(lhs_name, sec);

    const auto col_at = [&](std::int64_t lc) -> const double* {
      if (lc < 0) {
        return right_ghost_.data() +
               static_cast<std::size_t>((lc + d) * rows);
      }
      if (lc >= nlc) {
        return left_ghost_.data() +
               static_cast<std::size_t>((lc - nlc) * rows);
      }
      return &src->at(0, lc - hs.col0);
    };
    const double ops = static_cast<double>(hpf::count_binary_ops(*st.rhs));
    for (std::int64_t lc = sec.col0; lc < sec.col1; ++lc) {
      const std::int64_t gc = lhs.dist().local_to_global_col(ctx_.rank(), lc);
      const double* center = col_at(lc);
      double* res = &out.at(0, lc - sec.col0);
      if (gc < d || gc >= gcols - d) {
        std::copy(center, center + rows, res);  // fixed boundary column
        continue;
      }
      for (std::int64_t r = 0; r < rh; ++r) {
        res[r] = center[r];  // fixed boundary rows
      }
      for (std::int64_t r = rows - rh; r < rows; ++r) {
        res[r] = center[r];
      }
      const std::int64_t forall_value = gc + 1;  // 1-based Fortran index
      for (std::int64_t r = rh; r < rows - rh; ++r) {
        const double v = eval_stencil(*st.rhs, r, lc, forall_value, col_at);
        res[r] = v;
        residual_ = std::max(residual_, std::abs(v - center[r]));
      }
      ctx_.charge_flops(ops * static_cast<double>(rows - 2 * rh));
    }
    loop.loaded[st.lhs] = &out;
  }

  sim::SpmdContext& ctx_;
  const compiler::NodeProgram& plan_;
  const ArrayBindings& arrays_;
  runtime::SlabBufferPool& pool_;
  bool swap_ = false;  ///< stencil ping-pong: lhs/source roles exchanged
  std::map<std::string, LoopState> states_;

  // Stencil sweep state: ghost columns from the neighbouring ranks and the
  // running max |update| of the interior.
  std::vector<double> left_ghost_;   ///< right neighbour's first d columns
  std::vector<double> right_ghost_;  ///< left neighbour's last d columns
  double residual_ = 0.0;

  // GAXPY reduction state: the in-memory partial column of Figures 9/12.
  std::vector<double> temp_;
  std::int64_t temp_reserved_ = 0;
  std::int64_t temp_row0_ = 0;
  std::int64_t temp_row1_ = 0;
  bool fresh_column_ = false;
  std::unique_ptr<runtime::IclaBuffer> c_buf_;
  std::unique_ptr<runtime::OwnedColumnWriter> writer_;
};

}  // namespace

std::map<std::string, std::unique_ptr<runtime::OutOfCoreArray>>
create_plan_arrays(sim::SpmdContext& ctx, const compiler::NodeProgram& plan,
                   const std::filesystem::path& dir,
                   const io::DiskModel& disk) {
  std::map<std::string, std::unique_ptr<runtime::OutOfCoreArray>> out;
  for (const auto& [name, pa] : plan.arrays) {
    out[name] = std::make_unique<runtime::OutOfCoreArray>(
        ctx, dir, name, pa.dist, pa.storage, disk);
  }
  return out;
}

namespace {

void check_plan(sim::SpmdContext& ctx, const compiler::NodeProgram& plan,
                const ArrayBindings& arrays) {
  OOCC_CHECK(ctx.nprocs() == plan.nprocs, ErrorCode::kRuntimeError,
             "plan was compiled for " << plan.nprocs
                                      << " processors but the machine has "
                                      << ctx.nprocs());
  OOCC_CHECK(!plan.steps.empty(), ErrorCode::kRuntimeError,
             "plan carries no step program (was it built by compile()?)");
  for (const auto& [name, pa] : plan.arrays) {
    check_binding(plan, bound(arrays, name));
  }
}

/// Iterate-to-convergence driver for a stencil plan: up to `max_iters`
/// sweeps, ping-ponging the lhs/source pair, stopping early when the global
/// max |update| drops to `residual_tol`. Every rank takes the same branch
/// because the residual is allreduced. Collective.
void run_stencil(sim::SpmdContext& ctx, const compiler::NodeProgram& plan,
                 const ArrayBindings& arrays, const ExecOptions& options,
                 runtime::SlabBufferPool& pool) {
  const compiler::StencilStmt& st = plan.stencils.front();
  const int max_iters = std::max(1, options.max_iters);
  const bool want_residual =
      options.residual_tol > 0 || options.stencil_info != nullptr;
  const bool checkpointing =
      options.checkpoint_every > 0 && !options.checkpoint_dir.empty();
  int iters = options.start_iteration;
  double residual = 0.0;
  for (int it = options.start_iteration; it < max_iters; ++it) {
    StepExecutor sweep(ctx, plan, arrays, pool,
                       /*stencil_swapped=*/(it % 2) != 0);
    sweep.run();
    ++iters;
    bool stop = false;
    if (want_residual) {
      residual = sim::allreduce_max<double>(ctx, sweep.residual());
      stop = options.residual_tol > 0 && residual <= options.residual_tol;
    }
    // Checkpoint the live half of the ping-pong pair every k sweeps. The
    // final sweep is not checkpointed: a failure after it would replay
    // from the last checkpoint and reach the same bits anyway.
    if (checkpointing && !stop && iters < max_iters &&
        iters % options.checkpoint_every == 0) {
      pool.flush(ctx);  // checkpoint from disk state, not stale files
      const std::string& state = iters % 2 == 1 ? st.lhs : st.source;
      CheckpointStore store(options.checkpoint_dir);
      store.save(ctx, iters, state, bound(arrays, state));
    }
    if (stop) {
      break;
    }
  }
  if (options.stencil_info != nullptr) {
    options.stencil_info->iterations = iters;
    options.stencil_info->final_residual = residual;
    options.stencil_info->result = iters % 2 == 1 ? st.lhs : st.source;
  }
}

/// Runs one plan through `pool`: stencil plans go through the convergence
/// driver, everything else is a single sweep.
void run_plan(sim::SpmdContext& ctx, const compiler::NodeProgram& plan,
              const ArrayBindings& arrays, const ExecOptions& options,
              runtime::SlabBufferPool& pool) {
  if (plan.kind == compiler::ProgramKind::kStencil) {
    run_stencil(ctx, plan, arrays, options, pool);
    return;
  }
  StepExecutor(ctx, plan, arrays, pool).run();
}

/// Verifies a plan the compiler did not stamp (hand-built or mutated).
/// The reuse check is off: a lone replay cannot reconstruct sequence-wide
/// reuse distances, and stale annotations are a performance hint, not a
/// safety hazard.
void verify_if_unstamped(const compiler::NodeProgram& plan,
                         const ExecOptions& options) {
  if (!options.verify || plan.verified) {
    return;
  }
  compiler::VerifyOptions vopts;
  vopts.check_reuse = false;
  compiler::verify_or_throw(plan, vopts);
}

}  // namespace

ExecOptions default_exec_options() {
  ExecOptions options;
  if (env_flag("OOCC_NO_CACHE")) {
    options.use_cache = false;
  }
  if (env_flag("OOCC_NO_VERIFY")) {
    options.verify = false;
  }
  options.async = env_flag_or("OOCC_ASYNC", true);
  // Under an active fault plan a write can be interrupted at any point, so
  // crash consistency is on unless the caller overrides it afterwards.
  if (env_flag("OOCC_JOURNAL") || faults::FaultInjector::instance().active()) {
    options.journal = true;
  }
  return options;
}

namespace {

/// Applies the journaling option to every bound array's LAF. Idempotent.
void apply_journaling(const ArrayBindings& arrays, const ExecOptions& options) {
  if (!options.journal) {
    return;
  }
  for (const auto& [name, array] : arrays) {
    if (array != nullptr) {
      array->laf().set_journaling(true);
    }
  }
}

/// Runs `plans` in order through one pool over `budget_elements`, then
/// flushes it. `arrays` binds at least every array of every plan.
void run_pooled(sim::SpmdContext& ctx,
                std::span<const compiler::NodeProgram> plans,
                const ArrayBindings& arrays, const ExecOptions& options,
                std::int64_t budget_elements) {
  apply_journaling(arrays, options);
  runtime::MemoryBudget budget(budget_elements);
  runtime::SlabBufferPool pool(budget, "pool", options.use_cache);
  if (options.async) {
    pool.set_async_engine(ctx.async_engine());
  }
  for (const compiler::NodeProgram& plan : plans) {
    ArrayBindings subset;
    for (const auto& [name, pa] : plan.arrays) {
      const auto it = arrays.find(name);
      OOCC_CHECK(it != arrays.end(), ErrorCode::kRuntimeError,
                 "sequence binding is missing array '" << name << "'");
      subset[name] = it->second;
    }
    check_plan(ctx, plan, subset);
    verify_if_unstamped(plan, options);
    run_plan(ctx, plan, subset, options, pool);
  }
  pool.flush(ctx);
  if (options.cache_stats != nullptr) {
    options.cache_stats->merge(pool.stats());
  }
}

}  // namespace

void execute(sim::SpmdContext& ctx, const compiler::NodeProgram& plan,
             const ArrayBindings& arrays) {
  execute(ctx, plan, arrays, default_exec_options());
}

void execute(sim::SpmdContext& ctx, const compiler::NodeProgram& plan,
             const ArrayBindings& arrays, const ExecOptions& options) {
  run_pooled(ctx, std::span<const compiler::NodeProgram>(&plan, 1), arrays,
             options,
             std::max(plan.memory_budget_elements, options.budget_elements));
}

std::map<std::string, std::unique_ptr<runtime::OutOfCoreArray>>
create_sequence_arrays(sim::SpmdContext& ctx,
                       std::span<const compiler::NodeProgram> plans,
                       const std::filesystem::path& dir,
                       const io::DiskModel& disk) {
  std::map<std::string, const compiler::PlanArray*> merged;
  for (const compiler::NodeProgram& plan : plans) {
    for (const auto& [name, pa] : plan.arrays) {
      const auto it = merged.find(name);
      if (it == merged.end()) {
        merged[name] = &pa;
        continue;
      }
      OOCC_CHECK(it->second->storage == pa.storage, ErrorCode::kCompileError,
                 "array '" << name
                           << "' is placed differently by two plans of the "
                              "sequence: storage "
                           << io::storage_order_name(it->second->storage)
                           << " vs " << io::storage_order_name(pa.storage));
      OOCC_CHECK(it->second->dist == pa.dist, ErrorCode::kCompileError,
                 "array '" << name
                           << "' is distributed differently by two plans of "
                              "the sequence: "
                           << it->second->dist.to_string() << " vs "
                           << pa.dist.to_string());
    }
  }
  std::map<std::string, std::unique_ptr<runtime::OutOfCoreArray>> out;
  for (const auto& [name, pa] : merged) {
    out[name] = std::make_unique<runtime::OutOfCoreArray>(
        ctx, dir, name, pa->dist, pa->storage, disk);
  }
  return out;
}

void execute_sequence(sim::SpmdContext& ctx,
                      std::span<const compiler::NodeProgram> plans,
                      const ArrayBindings& arrays) {
  execute_sequence(ctx, plans, arrays, default_exec_options());
}

void execute_sequence(sim::SpmdContext& ctx,
                      std::span<const compiler::NodeProgram> plans,
                      const ArrayBindings& arrays,
                      const ExecOptions& options) {
  if (!options.use_cache) {
    // Nothing outlives a statement in no-retain mode, so each plan runs
    // with its own budget, exactly as if executed alone.
    for (const compiler::NodeProgram& plan : plans) {
      run_pooled(ctx, std::span<const compiler::NodeProgram>(&plan, 1),
                 arrays, options,
                 std::max(plan.memory_budget_elements, options.budget_elements));
    }
    return;
  }
  // One pool spans the whole sequence: slabs one statement read or staged
  // satisfy later statements' demand reads, which is where multi-statement
  // chains recover their shared traffic.
  std::int64_t budget_elements = options.budget_elements;
  for (const compiler::NodeProgram& plan : plans) {
    budget_elements = std::max(budget_elements, plan.memory_budget_elements);
  }
  if (!plans.empty()) {
    run_pooled(ctx, plans, arrays, options, budget_elements);
  }
}

}  // namespace oocc::exec
