#include "oocc/compiler/walk.hpp"

#include <algorithm>
#include <utility>

#include "oocc/util/error.hpp"

namespace oocc::compiler {

namespace {

/// Widens a full-height column section by `halo` columns on each side,
/// clipped to [0, local_cols): the shape of every halo ReadSlab.
io::Section widen_columns(const io::Section& s, std::int64_t halo,
                          std::int64_t local_cols) noexcept {
  io::Section out = s;
  out.col0 = std::max<std::int64_t>(0, s.col0 - halo);
  out.col1 = std::min<std::int64_t>(local_cols, s.col1 + halo);
  return out;
}

/// With `swapped` set, the stencil pair's lhs and source trade places;
/// every other name resolves to itself. Returns a reference into `plan` or
/// `name` itself.
const std::string& stencil_resolve(const NodeProgram& plan, bool swapped,
                                   const std::string& name) {
  if (swapped) {
    const SlabStmt& st = plan.statements.front();
    if (name == st.source) {
      return st.lhs;
    }
    if (name == st.lhs) {
      return st.source;
    }
  }
  return name;
}

}  // namespace

StepWalk::StepWalk(const NodeProgram& plan, int rank, bool swapped,
                   std::span<const double> hints)
    : plan_(plan), rank_(rank),
      swapped_(swapped && plan.kind == ProgramKind::kStencil &&
               !plan.statements.empty()) {
  cursors_.reserve(plan.loops.size());
  for (const SlabLoop& loop : plan.loops) {
    const hpf::ArrayDistribution& space =
        plan.array(stencil_resolve(plan, swapped_, loop.space)).dist;
    // Every rank sizes its slabs for processor 0's cross extent, the
    // largest under BLOCK, CYCLIC and BLOCK-CYCLIC, as the memory plan and
    // the Figure 14 estimator do: one span on every rank, so Figure 12's
    // subcolumn sums add vectors of one length.
    const bool columns =
        loop.orientation == runtime::SlabOrientation::kColumnSlabs;
    cursors_.push_back(Cursor{
        &loop, cursors_.size(),
        runtime::SlabIterator(
            space.local_rows(rank), space.local_cols(rank), loop.orientation,
            loop.capacity_elements,
            columns ? space.local_rows(0) : space.local_cols(0))});
  }
  bind(plan.steps, hints);
  OOCC_CHECK(hints.empty() || hints.size() == nodes_.size(),
             ErrorCode::kInvalidArgument,
             "reuse hints for " << hints.size() << " steps given to a plan of "
                                << nodes_.size());
  find_drops();
}

void StepWalk::bind(const std::vector<Step>& steps,
                    std::span<const double> hints) {
  const auto cursor = [&](const std::string& name) {
    const auto it =
        std::find_if(cursors_.begin(), cursors_.end(),
                     [&](const Cursor& c) { return c.decl->name == name; });
    OOCC_CHECK(it != cursors_.end(), ErrorCode::kRuntimeError,
               "step references undeclared slab loop '" << name << "'");
    return &*it;
  };
  const auto statement_lhs = [&](const Step& step) -> const std::string& {
    const std::vector<SlabStmt>& stmts = plan_.statements;
    OOCC_CHECK(step.stmt >= 0 &&
                   static_cast<std::size_t>(step.stmt) < stmts.size(),
               ErrorCode::kRuntimeError,
               step_kind_name(step.kind) << " names statement #" << step.stmt
                                         << " of " << stmts.size());
    return stmts[static_cast<std::size_t>(step.stmt)].lhs;
  };
  for (const Step& step : steps) {
    const std::size_t i = nodes_.size();
    Node& n = nodes_.emplace_back(Node{&step, i});  // valid until bind(body)
    if (i < hints.size()) {
      n.hint = hints[i];
    }
    const std::string* array = nullptr;
    switch (step.kind) {
      case StepKind::kForEachSlab:
      case StepKind::kForEachColumn:
        n.loop = cursor(step.loop);
        break;
      case StepKind::kReadSlab:
      case StepKind::kWriteSlab:
        n.loop = cursor(step.loop);
        array = &step.array;
        break;
      case StepKind::kComputeElementwise:
      case StepKind::kComputeStencil:
        n.loop = cursor(step.loop);
        array = &statement_lhs(step);
        break;
      case StepKind::kComputeGaxpyPartial:
        n.loop = cursor(step.loop);
        n.with = cursor(step.with);
        break;
      case StepKind::kReduceSum:
        n.with = cursor(step.with);
        array = &step.array;
        break;
      case StepKind::kExchangeHalo:
        array = &step.array;
        break;
      case StepKind::kBarrier:
        break;
    }
    if (array != nullptr) {
      n.array = &stencil_resolve(plan_, swapped_, *array);
      n.info = &plan_.array(*n.array);
    }
    bind(step.body, hints);
    Node& bound = nodes_[i];
    bound.end = nodes_.size();
    if (step.kind == StepKind::kForEachSlab && bound.loop->decl->prefetch) {
      for (std::size_t j = i + 1; j < bound.end; j = nodes_[j].end) {
        const Node& read = nodes_[j];
        if (read.step->kind == StepKind::kReadSlab &&
            !plan_.array(read.step->array).is_output) {
          bound.streams.push_back(Request{*read.array, {}, read.hint});
        }
      }
    }
  }
}

void StepWalk::find_drops() {
  // The GAXPY owner stores its output batches straight to the LAF.
  for (const Node& n : nodes_) {
    if (n.step->kind == StepKind::kReduceSum) {
      drops_.emplace_back(n.array, false);
    }
  }
  // A staged slab is overwritten element by element: an elementwise
  // statement has no row halo, and a stencil copies its boundary rows and
  // columns through from its source. So an array is dead on entry when a
  // compute step directly under a ForEachSlab stages it over every slab of
  // its panel, a WriteSlab makes that its new contents, and no step reads
  // it from the LAF. Names are ping-pong resolved; an in-place or
  // self-reading plan reads its output, so it never qualifies.
  const auto any = [&](const PlanArray* array, const auto& pred) {
    return std::ranges::any_of(
        nodes_, [&](const Node& m) { return m.info == array && pred(m); });
  };
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].step->kind != StepKind::kForEachSlab) {
      continue;
    }
    const Cursor* loop = nodes_[i].loop;
    const hpf::ArrayDistribution& space =
        plan_.array(stencil_resolve(plan_, swapped_, loop->decl->space)).dist;
    for (std::size_t j = i + 1; j < nodes_[i].end; j = nodes_[j].end) {
      const Node& n = nodes_[j];
      if ((n.step->kind != StepKind::kComputeElementwise &&
           n.step->kind != StepKind::kComputeStencil) ||
          n.loop != loop) {
        continue;
      }
      const bool tiles =
          space.local_rows(rank_) == n.info->dist.local_rows(rank_) &&
          space.local_cols(rank_) == n.info->dist.local_cols(rank_);
      const bool written = any(n.info, [&](const Node& m) {
        return m.step->kind == StepKind::kWriteSlab && m.loop == loop;
      });
      const bool read = any(n.info, [](const Node& m) {
        return m.step->kind == StepKind::kReadSlab ||
               m.step->kind == StepKind::kExchangeHalo;
      });
      if (tiles && written && !read) {
        drops_.emplace_back(n.array, true);  // twice if two statements stage it
      }
    }
  }
}

bool StepWalk::sweep() {
  for (const auto& [array, dead] : drops_) {
    drop(*array, dead);
  }
  visit(0, nodes_.size());
  if (batch_ && !stopped_) {
    close_batch();
  }
  return !stopped_;
}

void StepWalk::visit(std::size_t first, std::size_t last) {
  for (std::size_t i = first; i < last && !stopped_; i = nodes_[i].end) {
    visit(i);
  }
}

void StepWalk::visit(std::size_t i) {
  const Node& n = nodes_[i];
  const Step& step = *n.step;
  switch (step.kind) {
    case StepKind::kForEachSlab: {
      Cursor& c = *n.loop;
      c.lookahead = static_cast<int>(n.streams.size());
      c.scheduler.schedule(c.iter, n.streams);
      for (std::int64_t k = 0; k < c.iter.count(); ++k) {
        c.section = c.iter.section(k);
        visit(i + 1, n.end);
        for (auto it = c.held.rbegin(); it != c.held.rend(); ++it) {
          release(*it->array, it->section);
        }
        c.held.clear();
        if (stopped_) {
          return;
        }
      }
      return;
    }
    case StepKind::kForEachColumn: {
      Cursor& c = *n.loop;
      for (std::int64_t m = 0; m < c.section.cols() && !stopped_; ++m) {
        c.column = m;
        fresh_column_ = true;
        visit(i + 1, n.end);
      }
      c.column = -1;
      return;
    }
    case StepKind::kReadSlab: {
      // Halo reads widen the owner slab by the dependence distance, clipped
      // at the local array bounds (columns beyond them arrive as ghosts).
      const io::Section s =
          step.halo > 0 ? widen_columns(n.loop->section, step.halo,
                                        n.info->dist.local_cols(rank_))
                        : n.loop->section;
      read(n, s);
      n.loop->held.push_back(Held{n.array, s});
      pump(*n.loop);
      return;
    }
    case StepKind::kWriteSlab:
      write(n);
      return;
    case StepKind::kComputeElementwise:
    case StepKind::kComputeStencil:
      stage(n);
      n.loop->held.push_back(Held{n.array, n.loop->section});
      return;
    case StepKind::kComputeGaxpyPartial: {
      const bool fresh = std::exchange(fresh_column_, false);
      if (fresh) {
        row0_ = n.loop->section.row0;
        row1_ = n.loop->section.row1;
        if (temp_rows_ == 0) {
          temp_rows_ = n.loop->iter.section(0).rows();
          reserve(n, temp_rows_);
        }
      }
      partial(n, fresh);
      return;
    }
    case StepKind::kReduceSum:
      visit_reduce(n);
      return;
    case StepKind::kExchangeHalo: {
      // Every rank ships its `halo` edge columns to each neighbour and
      // receives the neighbour's facing edge as ghost columns.
      Exchange ex;
      if (plan_.nprocs > 1) {
        const hpf::ArrayDistribution& dist = n.info->dist;
        const std::int64_t d = step.halo;
        const auto low = [&](int p) {
          return io::Section{0, dist.local_rows(p), 0, d};
        };
        const auto high = [&](int p) {
          const std::int64_t cols = dist.local_cols(p);
          return io::Section{0, dist.local_rows(p), cols - d, cols};
        };
        if (rank_ > 0) {
          ex.left = Edge{rank_ - 1, low(rank_), high(rank_ - 1)};
        }
        if (rank_ < plan_.nprocs - 1) {
          ex.right = Edge{rank_ + 1, high(rank_), low(rank_ + 1)};
        }
      }
      exchange(n, ex);
      return;
    }
    case StepKind::kBarrier:
      barrier();
      return;
  }
}

void StepWalk::pump(Cursor& c) {
  c.scheduler.pump(
      c.lookahead, [&](const Request& r) { return resident(r); },
      [&](const Request& r) { return read_ahead(r); });
}

void StepWalk::visit_reduce(const Node& n) {
  const std::int64_t column = n.with->section.col0 + n.with->column;
  reduce(n, column, row0_, row1_);
  const hpf::ArrayDistribution& dist = n.info->dist;
  const bool owned = dist.owner_of_col(column) == rank_;
  const std::int64_t lc = owned ? dist.global_to_local_col(column) : -1;
  // A new row range (the next A row slab) closes the open batch, and so
  // does an owned column that does not extend it, which a valid plan never
  // produces.
  if (batch_ && (row0_ != batch_->row0() || row1_ != batch_->row1() ||
                 (owned && lc != batch_->lc0() + batch_->pending()))) {
    close_batch();
  }
  if (!owned) {
    return;
  }
  if (!batch_) {
    const std::int64_t capacity = std::max(plan_.memory.slab_c, temp_rows_);
    if (batch_node_ == nullptr) {
      reserve(n, capacity);  // this rank's first owned column
    }
    batch_.emplace(capacity, row0_, row1_, dist.local_cols(rank_));
    batch_node_ = &n;
  }
  const std::int64_t slot = batch_->pending();
  const bool full = batch_->push(lc);
  place(n, slot);
  if (full) {
    close_batch();
  }
}

void StepWalk::close_batch() {
  store(*batch_node_, batch_->section());
  batch_.reset();
}

}  // namespace oocc::compiler
