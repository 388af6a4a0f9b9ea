#include "oocc/exec/interp.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "oocc/compiler/cost.hpp"
#include "oocc/compiler/verify.hpp"
#include "oocc/compiler/walk.hpp"
#include "oocc/exec/checkpoint.hpp"
#include "oocc/runtime/bufferpool.hpp"
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

/// A statement's position-normalized rhs as a flat postfix program, run one
/// column at a time. Each binary op is one loop over the column into a
/// reused column-length temporary (the root's straight into the output
/// column); an op on two scalars folds once per column. Every element
/// still sees its operations in the tree's order (left operand, right
/// operand, op), so results are bit-identical to an element-at-a-time
/// walk, in-place statements included: only the root loop writes the
/// output column, and at row r it reads only row r.
class ColumnKernel {
 public:
  /// One array reference: its array's slab, read at row r + row_shift of
  /// local column c + col_offset.
  struct Ref {
    std::string array;
    std::int64_t row_shift;
    std::int64_t col_offset;
  };

  explicit ColumnKernel(const hpf::Expr& rhs) {
    emit(rhs, 0);
    stack_.resize(depth_);
  }

  /// The references, in the order run() takes their columns.
  const std::vector<Ref>& refs() const noexcept { return refs_; }

  /// Computes `n` rows into `out`; `columns[i]` points at ref i's first
  /// row, `index` is the FORALL index of the column.
  void run(const std::vector<const double*>& columns, double index,
           double* out, std::int64_t n, std::vector<double>& temps) {
    const auto len = static_cast<std::size_t>(std::max<std::int64_t>(0, n));
    if (temps.size() < depth_ * len) {
      temps.resize(depth_ * len);
    }
    std::size_t top = 0;  // stack_[0, top) is live
    for (std::size_t pc = 0; pc < code_.size(); ++pc) {
      const Instr& in = code_[pc];
      switch (in.kind) {
        case Kind::kRef:
          stack_[top++] = Value{columns[in.ref], 0.0};
          continue;
        case Kind::kConst:
          stack_[top++] = Value{nullptr, in.value};
          continue;
        case Kind::kIndex:
          stack_[top++] = Value{nullptr, index};
          continue;
        case Kind::kBinary:
          break;
      }
      const Value b = stack_[--top];
      Value& a = stack_[top - 1];
      double* d =
          pc + 1 == code_.size() ? out : temps.data() + (top - 1) * len;
      // d[r] = a[r] op b[r] over the column, a scalar side held fixed; two
      // scalars fold once.
      const auto apply = [&](auto op) {
        const double* x = a.col;
        const double* y = b.col;
        if (x == nullptr && y == nullptr) {
          a.scalar = op(a.scalar, b.scalar);
          return;
        }
        const double s = x != nullptr ? b.scalar : a.scalar;
        if (x != nullptr && y != nullptr) {
          for (std::int64_t r = 0; r < n; ++r) d[r] = op(x[r], y[r]);
        } else if (x != nullptr) {
          for (std::int64_t r = 0; r < n; ++r) d[r] = op(x[r], s);
        } else {
          for (std::int64_t r = 0; r < n; ++r) d[r] = op(s, y[r]);
        }
        a.col = d;
      };
      switch (in.op) {
        case hpf::BinOp::kAdd:
          apply(std::plus<double>());
          break;
        case hpf::BinOp::kSub:
          apply(std::minus<double>());
          break;
        case hpf::BinOp::kMul:
          apply(std::multiplies<double>());
          break;
        case hpf::BinOp::kDiv:
          apply(std::divides<double>());
          break;
      }
    }
    // A leaf or all-scalar rhs never reached the output column.
    const Value& v = stack_[0];
    if (v.col == nullptr) {
      std::fill_n(out, n, v.scalar);
    } else if (v.col != out) {
      std::copy_n(v.col, n, out);
    }
  }

 private:
  enum class Kind : std::uint8_t { kRef, kConst, kIndex, kBinary };
  struct Instr {
    Kind kind;
    hpf::BinOp op = hpf::BinOp::kAdd;
    std::size_t ref = 0;
    double value = 0.0;
  };
  /// A stack slot: a column (first row) or, when `col` is null, a scalar.
  struct Value {
    const double* col;
    double scalar;
  };

  /// Appends `e` in postfix; `depth` is the stack slot its value lands in.
  void emit(const hpf::Expr& e, std::size_t depth) {
    depth_ = std::max(depth_, depth + 1);
    switch (e.kind) {
      case hpf::ExprKind::kIntConst:
        code_.push_back(
            {Kind::kConst, {}, 0, static_cast<double>(e.int_value)});
        return;
      case hpf::ExprKind::kVarRef:
        // Lowering only admits the FORALL index as a free scalar.
        code_.push_back({Kind::kIndex});
        return;
      case hpf::ExprKind::kArrayRef:
        code_.push_back({Kind::kRef, {}, refs_.size()});
        refs_.push_back(Ref{e.name, e.subscripts[0].scalar->int_value,
                            e.subscripts[1].scalar->int_value});
        return;
      case hpf::ExprKind::kBinary:
        emit(*e.lhs, depth);
        emit(*e.rhs, depth + 1);
        code_.push_back({Kind::kBinary, e.op});
        return;
      case hpf::ExprKind::kSumIntrinsic:
        break;
    }
    OOCC_THROW(ErrorCode::kRuntimeError,
               "unsupported node in a position-normalized expression");
  }

  std::vector<Instr> code_;
  std::vector<Ref> refs_;
  std::size_t depth_ = 0;  ///< stack slots, one temporary column each
  std::vector<Value> stack_;
};

/// Runs a plan's slab-program IR on one simulated processor: the StepWalk
/// client that does the work. The executor is schema-free: every behavior
/// (which arrays stream through which loops, where partial products
/// accumulate, when the global sum runs) is read off the step tree, so new
/// kernels are new step programs, not new executors. All slab I/O routes
/// through the SlabBufferPool, pinned per slab iteration; whether staged
/// outputs write back lazily or at once is the pool's mode.
class StepExecutor final : public compiler::StepWalk {
 public:
  /// `hints` are the plan's reuse hints, the pool's eviction ranking.
  /// `stencil_swapped` runs a stencil plan's sweep with the lhs/source
  /// roles exchanged (the convergence driver's odd sweeps): every array
  /// name in the step program resolves to its ping-pong partner at the
  /// LAF/pool boundary.
  StepExecutor(sim::SpmdContext& ctx, const compiler::NodeProgram& plan,
               const ArrayBindings& arrays, std::span<const double> hints,
               runtime::SlabBufferPool& pool, bool stencil_swapped = false)
      : StepWalk(plan, ctx.rank(), stencil_swapped, hints), ctx_(ctx),
        arrays_(arrays), pool_(pool), loaded_(plan.loops.size()),
        kernels_(plan.statements.size()) {}

  /// Local max |update| of the sweep's interior elements (stencil plans).
  double residual() const noexcept { return residual_; }

  void run() {
    sweep();
    // Pin-count leak detection: every slab iteration must have unpinned
    // what it acquired.
    OOCC_CHECK(pool_.pinned_count() == 0, ErrorCode::kRuntimeError,
               "slab pool pin leak: " << pool_.pinned_count()
                                      << " entries still pinned after the "
                                         "sweep");
  }

 private:
  /// Buffers holding the current slab of each array a loop streams, keyed
  /// by plan name (the swapped sweep resolves names only at the pool).
  using Loaded = std::map<std::string, const runtime::IclaBuffer*>;

  Loaded& loaded(const Cursor& c) { return loaded_[c.index]; }

  void read(const Node& n, const io::Section& s) override {
    runtime::OutOfCoreArray& array = bound(arrays_, *n.array);
    runtime::IclaBuffer& buf =
        pool_.acquire_read(ctx_, array.laf(), *n.array, s, n.hint,
                           n.step->halo > 0);
    loaded(*n.loop)[n.step->array] = &buf;
  }

  bool resident(const Request& r) const override {
    return pool_.resident(r.array, r.section);
  }

  bool read_ahead(const Request& r) override {
    return pool_.read_ahead(ctx_, bound(arrays_, r.array).laf(), r.array,
                            r.section, r.reuse_hint);
  }

  // A retaining pool defers the write-back: the dirty slab reaches the LAF
  // on eviction or at the end-of-sequence flush, and a later statement's
  // read of it meanwhile is a hit.
  void write(const Node& n) override {
    pool_.mark_dirty(ctx_, *n.array, n.loop->section, n.hint);
  }

  // Settle in-flight async write-backs first: a rank must not report "done"
  // to its peers while a worker error is still pending, and post-barrier
  // reads by other statements expect the bytes on disk.
  void barrier() override {
    pool_.drain_writes(ctx_);
    sim::barrier(ctx_);
  }

  void release(const std::string& array, const io::Section& s) override {
    pool_.unpin(ctx_, array, s);
  }

  // A dead array's cached slabs go unwritten: the sweep overwrites all of
  // it before reading it. The GAXPY output's are written back first: the
  // owner stores it straight to its LAF, around the pool.
  void drop(const std::string& array, bool dead) override {
    pool_.drop(ctx_, array, dead);
  }

  /// Stages the statement's output slab into a pool entry (an in-place
  /// load or an earlier statement of the fused group may already have
  /// created it, data preserved) and computes it.
  void stage(const Node& n) override {
    runtime::IclaBuffer& out =
        pool_.acquire_write(ctx_, bound(arrays_, *n.array).laf(), *n.array,
                            n.loop->section, n.hint);
    compute(plan_.statements[static_cast<std::size_t>(n.step->stmt)], n, out);
  }

  /// A GAXPY side buffer is an IclaBuffer, so its budget is released on
  /// every exit path, faults included.
  void reserve(const Node& n, std::int64_t elements) override {
    const bool output = n.step->kind == compiler::StepKind::kReduceSum;
    pool_.ensure_available(ctx_, elements);
    (output ? out_ : temp_) = std::make_unique<runtime::IclaBuffer>(
        pool_.budget(), elements, output ? "icla_" + *n.array : "temp column");
  }

  void partial(const Node& n, bool fresh) override {
    const runtime::IclaBuffer* a_buf = loaded(*n.loop).at(n.loop->decl->space);
    const runtime::IclaBuffer* b_buf = loaded(*n.with).at(n.with->decl->space);
    const io::Section asec = a_buf->section();
    const std::int64_t rows = asec.rows();
    double* temp = temp_->data().data();
    if (fresh) {
      std::fill_n(temp, rows, 0.0);
    }
    const std::int64_t m = n.with->column;
    // Local column asec.col0+i of A pairs with the same local row of B
    // (both derive from the same distribution template). A's columns go
    // in blocks of kBlock, so temp[r] is loaded and stored once per block;
    // its products are still added one at a time in increasing i, each
    // rounded, so every element matches the hand-coded kernels bit for bit.
    constexpr std::int64_t kBlock = 8;
    std::int64_t i = 0;
    for (; i + kBlock <= asec.cols(); i += kBlock) {
      const double* a = &a_buf->at(0, i);
      const double* b = &b_buf->at(asec.col0 + i, m);
      for (std::int64_t r = 0; r < rows; ++r) {
        double v = temp[r];
        for (std::int64_t k = 0; k < kBlock; ++k) {
          v += a[k * rows + r] * b[k];
        }
        temp[r] = v;
      }
    }
    for (; i < asec.cols(); ++i) {
      const double bval = b_buf->at(asec.col0 + i, m);
      const double* acol = &a_buf->at(0, i);
      for (std::int64_t r = 0; r < rows; ++r) {
        temp[r] += acol[r] * bval;
      }
    }
    ctx_.charge_flops(2.0 * static_cast<double>(rows) *
                      static_cast<double>(asec.cols()));
  }

  void reduce(const Node& n, std::int64_t column, std::int64_t row0,
              std::int64_t row1) override {
    summed_ = sim::reduce_sum<double>(
        ctx_, n.info->dist.owner_of_col(column),
        temp_->data().first(static_cast<std::size_t>(row1 - row0)));
  }

  void place(const Node& /*n*/, std::int64_t slot) override {
    std::ranges::copy(summed_,
                      out_->data().begin() + slot * std::ssize(summed_));
  }

  void store(const Node& n, const io::Section& s) override {
    bound(arrays_, *n.array).laf().write_section(
        ctx_, s, out_->data().first(static_cast<std::size_t>(s.elements())));
  }

  /// Ghost-column exchange before a stencil sweep: every rank ships its
  /// edge columns to the neighbouring ranks and keeps the columns it
  /// receives for the sweep's out-of-panel reads. Reads go through the pool,
  /// so columns a previous sweep staged (and never wrote back) are seen
  /// current.
  void exchange(const Node& n, const Exchange& ex) override {
    low_ghost_.clear();
    high_ghost_.clear();
    runtime::OutOfCoreArray& arr = bound(arrays_, *n.array);
    std::vector<double> edge;
    const auto send = [&](const Edge& e, int tag) {
      const std::span<const double> data =
          pool_.acquire_read(ctx_, arr.laf(), *n.array, e.sent, n.hint)
              .data();
      edge.assign(data.begin(), data.end());
      pool_.unpin(ctx_, *n.array, e.sent);
      ctx_.send<double>(e.peer, tag,
                        std::span<const double>(edge.data(), edge.size()));
    };
    if (ex.left) {
      send(*ex.left, kTagStencilLeft);
    }
    if (ex.right) {
      send(*ex.right, kTagStencilRight);
    }
    if (ex.right) {
      high_ghost_ = ctx_.recv<double>(ex.right->peer, kTagStencilLeft);
    }
    if (ex.left) {
      low_ghost_ = ctx_.recv<double>(ex.left->peer, kTagStencilRight);
      low_ghost_cols_ = ex.left->received.cols();
    }
  }

  /// Computes one slab of a statement with its column kernel, built once
  /// per sweep. The operands are the slab buffers of its array references;
  /// a stencil's are the halo-widened source slab and, for out-of-panel
  /// offsets, the ghost columns. A stencil's boundary rows and its
  /// first/last `halo` global columns copy through from the source
  /// instead: the hand-coded Jacobi oracle's exact arithmetic and boundary
  /// policy, element for element.
  void compute(const compiler::SlabStmt& st, const Node& n,
               runtime::IclaBuffer& out) {
    const io::Section sec = n.loop->section;
    const hpf::ArrayDistribution& dist = n.info->dist;
    const std::int64_t rows = sec.rows();
    const std::int64_t nlc = dist.local_cols(rank_);
    const std::int64_t gcols = dist.global_cols();
    const std::int64_t d = st.halo;
    const std::int64_t rh = st.row_halo;
    auto& kernel = kernels_[static_cast<std::size_t>(n.step->stmt)];
    if (!kernel) {
      kernel.emplace(*st.rhs);
    }
    // Safe to install before computing: only the kernel's root loop writes
    // the output column, and a stencil never reads its lhs. Later
    // statements of a fused group read this result from memory.
    Loaded& buffers = loaded(*n.loop);
    buffers[st.lhs] = &out;
    operands_.clear();
    for (const ColumnKernel::Ref& ref : kernel->refs()) {
      const auto it = buffers.find(ref.array);
      OOCC_CHECK(it != buffers.end(), ErrorCode::kRuntimeError,
                 "array '" << ref.array << "' has no bound slab");
      operands_.push_back(it->second);
    }
    columns_.resize(operands_.size());
    const runtime::IclaBuffer* src =
        st.source.empty() ? nullptr : buffers.at(st.source);

    // Local column lc < 0 is ghost column lc of the left neighbour's edge,
    // however wide the exchange made it; lc >= nlc is the right one's.
    const auto col_at = [&](const runtime::IclaBuffer& buf,
                            std::int64_t lc) -> const double* {
      if (lc < 0) {
        return low_ghost_.data() +
               static_cast<std::size_t>((lc + low_ghost_cols_) * rows);
      }
      if (lc >= nlc) {
        return high_ghost_.data() +
               static_cast<std::size_t>((lc - nlc) * rows);
      }
      return &buf.at(0, lc - buf.section().col0);
    };
    for (std::int64_t lc = sec.col0; lc < sec.col1; ++lc) {
      const std::int64_t gc = dist.local_to_global_col(rank_, lc);
      double* res = &out.at(0, lc - sec.col0);
      const double* center = src != nullptr ? col_at(*src, lc) : nullptr;
      if (center != nullptr) {
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
      }
      for (std::size_t i = 0; i < operands_.size(); ++i) {
        const ColumnKernel::Ref& ref = kernel->refs()[i];
        columns_[i] =
            col_at(*operands_[i], lc + ref.col_offset) + rh + ref.row_shift;
      }
      const double index = static_cast<double>(gc + 1);  // 1-based Fortran
      kernel->run(columns_, index, res + rh, rows - 2 * rh, temps_);
      if (center != nullptr) {
        for (std::int64_t r = rh; r < rows - rh; ++r) {
          residual_ = std::max(residual_, std::abs(res[r] - center[r]));
        }
        // The simulated clock is charged in the units it always was: a
        // stencil column by column, like the hand-coded Jacobi kernel, and
        // an elementwise slab at once, so clocks round identically.
        ctx_.charge_flops(compiler::compute_flops(
            st, dist, rank_, io::Section{sec.row0, sec.row1, lc, lc + 1}));
      }
    }
    if (src == nullptr) {
      ctx_.charge_flops(compiler::compute_flops(st, dist, rank_, sec));
    }
  }

  sim::SpmdContext& ctx_;
  const ArrayBindings& arrays_;
  runtime::SlabBufferPool& pool_;
  std::vector<Loaded> loaded_;  ///< per slab loop, by Cursor::index
  /// Per statement, built at its first slab of the sweep.
  std::vector<std::optional<ColumnKernel>> kernels_;
  // The kernel's operands for the slab and column being computed, and its
  // column-length temporaries.
  std::vector<const runtime::IclaBuffer*> operands_;
  std::vector<const double*> columns_;
  std::vector<double> temps_;

  // Stencil sweep state: ghost columns from the neighbouring ranks and the
  // running max |update| of the interior.
  std::vector<double> low_ghost_;   ///< the left neighbour's last columns
  std::int64_t low_ghost_cols_ = 0;
  std::vector<double> high_ghost_;  ///< the right neighbour's first columns
  double residual_ = 0.0;

  // GAXPY reduction state (Figures 9/12): the partial-sum column, the last
  // global sum (on its owner), and the output batch buffer.
  std::unique_ptr<runtime::IclaBuffer> temp_;
  std::vector<double> summed_;
  std::unique_ptr<runtime::IclaBuffer> out_;
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
                 const ArrayBindings& arrays, std::span<const double> hints,
                 const ExecOptions& options, runtime::SlabBufferPool& pool) {
  const compiler::SlabStmt& st = plan.statements.front();
  const int max_iters = std::max(1, options.max_iters);
  const bool want_residual =
      options.residual_tol > 0 || options.stencil_info != nullptr;
  const bool checkpointing =
      options.checkpoint_every > 0 && !options.checkpoint_dir.empty();
  int iters = options.start_iteration;
  double residual = 0.0;
  for (int it = options.start_iteration; it < max_iters; ++it) {
    StepExecutor sweep(ctx, plan, arrays, hints, pool,
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
      const std::string& state = iters % 2 == 1 ? st.lhs : st.source;
      // Checkpoint from disk state, not stale files. Only the live half
      // goes to disk: the other stays cached until the next sweep, which
      // overwrites it, drops it unwritten.
      pool.flush(ctx, &state);
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
              const ArrayBindings& arrays, std::span<const double> hints,
              const ExecOptions& options, runtime::SlabBufferPool& pool) {
  if (plan.kind == compiler::ProgramKind::kStencil) {
    run_stencil(ctx, plan, arrays, hints, options, pool);
    return;
  }
  StepExecutor(ctx, plan, arrays, hints, pool).run();
}

/// Verifies a plan the compiler did not stamp (hand-built or mutated).
void verify_if_unstamped(const compiler::NodeProgram& plan,
                         const ExecOptions& options) {
  if (options.verify && !plan.verified) {
    compiler::verify_or_throw(plan);
  }
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
/// flushes it: plan i with `bindings[i]` and reuse hints `hints[i]`.
void run_pooled(sim::SpmdContext& ctx,
                std::span<const compiler::NodeProgram> plans,
                std::span<const ArrayBindings> bindings,
                std::span<const std::vector<double>> hints,
                const ExecOptions& options, std::int64_t budget_elements) {
  runtime::MemoryBudget budget(budget_elements);
  runtime::SlabBufferPool pool(budget, "pool", options.use_cache);
  pool.set_async_engine(ctx.async_engine());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    run_plan(ctx, plans[i], bindings[i], hints[i], options, pool);
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
  execute_sequence(ctx, std::span<const compiler::NodeProgram>(&plan, 1),
                   arrays, options);
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
  // Every plan is bound, checked and verified before the first one runs.
  std::vector<ArrayBindings> bindings;
  for (const compiler::NodeProgram& plan : plans) {
    ArrayBindings& subset = bindings.emplace_back();
    for (const auto& [name, pa] : plan.arrays) {
      const auto it = arrays.find(name);
      OOCC_CHECK(it != arrays.end(), ErrorCode::kRuntimeError,
                 "sequence binding is missing array '" << name << "'");
      subset[name] = it->second;
    }
    check_plan(ctx, plan, subset);
    verify_if_unstamped(plan, options);
  }
  // Every rank derives processor 0's hints for the whole sequence, as the
  // pricer does; in no-retain mode too, though each plan gets its own pool.
  const std::vector<std::vector<double>> hints =
      compiler::annotate_reuse_distances(plans);
  apply_journaling(arrays, options);
  if (!options.use_cache) {
    // Nothing outlives a statement in no-retain mode, so each plan runs
    // with its own budget, exactly as if executed alone.
    for (std::size_t i = 0; i < plans.size(); ++i) {
      run_pooled(ctx, plans.subspan(i, 1),
                 std::span<const ArrayBindings>(bindings).subspan(i, 1),
                 std::span<const std::vector<double>>(hints).subspan(i, 1),
                 options,
                 compiler::pool_budget(plans.subspan(i, 1),
                                       options.budget_elements));
    }
    return;
  }
  // One pool spans the whole sequence: slabs one statement read or staged
  // satisfy later statements' demand reads, which is where multi-statement
  // chains recover their shared traffic.
  if (!plans.empty()) {
    run_pooled(ctx, plans, bindings, hints, options,
               compiler::pool_budget(plans, options.budget_elements));
  }
}

}  // namespace oocc::exec
