#include "oocc/compiler/walk.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "oocc/compiler/pretty.hpp"

namespace oocc::compiler {

/// Throws StructureError(rule, step) unless `cond` holds; `stream_expr`
/// builds the message only then.
#define OOCC_STRUCTURE_CHECK(cond, rule, step, stream_expr)           \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::ostringstream oocc_structure_oss_;                         \
      oocc_structure_oss_ << stream_expr;                             \
      throw StructureError(rule, step, oocc_structure_oss_.str());    \
    }                                                                 \
  } while (false)

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

/// Calls `fn` with the name of every array `e` references, in order.
void for_each_ref(const hpf::Expr& e, const auto& fn) {
  if (e.kind == hpf::ExprKind::kArrayRef) {
    fn(e.name);
  } else if (e.kind == hpf::ExprKind::kBinary) {
    for_each_ref(*e.lhs, fn);
    for_each_ref(*e.rhs, fn);
  }
}

}  // namespace

StructureError::StructureError(const char* rule, const Step* step,
                               const std::string& detail)
    : Error(ErrorCode::kVerifyError,
            std::string(rule) + " " + detail +
                (step != nullptr ? "\n  step: " + step_text(*step) : "")),
      rule_(rule), step_(step), detail_(detail) {}

/// What bind knows at one point of the step tree, all of it lexical: the
/// loops whose ForEachSlab or ForEachColumn encloses the point, and what
/// the enclosing bodies made available before it. What a body makes
/// available lasts until that body ends, so a step counts only on what
/// runs before it in every iteration of its loops.
struct StepWalk::Scope {
  struct Column {
    const Cursor* loop;
    bool opened = false;  ///< a ComputeGaxpyPartial opened the column
  };
  /// A slab a ReadSlab (widened by `halo`) or a compute step (`halo` 0)
  /// staged in `loop`'s current iteration; with `loop` null, the ghost
  /// columns an ExchangeHalo traded.
  struct Staged {
    const Cursor* loop;
    const std::string* array;  ///< the plan's name, not ping-pong resolved
    std::int64_t halo;
  };

  bool in_slab(const Cursor* loop) const {
    return std::ranges::find(slabs, loop) != slabs.end();
  }
  Column* column(const Cursor* loop) {
    const auto it = std::ranges::find(columns.rbegin(), columns.rend(), loop,
                                      &Column::loop);
    return it == columns.rend() ? nullptr : &*it;
  }
  /// Whether `array` is staged for `loop`; `exact` asks for the loop's
  /// own slab, not a widened one.
  bool has(const Cursor* loop, const std::string& array, bool exact) const {
    return std::ranges::any_of(staged, [&](const Staged& s) {
      return s.loop == loop && *s.array == array && (!exact || s.halo == 0);
    });
  }

  const SlabStmt* stencil;  ///< a stencil plan's statement, or null
  std::vector<const Cursor*> slabs{};
  std::vector<Column> columns{};
  std::vector<Staged> staged{};
};

StepWalk::StepWalk(const NodeProgram& plan, int rank, bool swapped,
                   std::span<const double> hints)
    : plan_(plan), rank_(rank),
      swapped_(swapped && plan.kind == ProgramKind::kStencil &&
               !plan.statements.empty()) {
  for (std::size_t i = 0; i < plan.statements.size(); ++i) {
    const SlabStmt& st = plan.statements[i];
    // A stencil statement reads one source; an elementwise one has none.
    for (const std::string* name : {&st.lhs, &st.source}) {
      OOCC_STRUCTURE_CHECK(
          plan.arrays.contains(*name) || (name == &st.source && name->empty()),
          "OOCC-V002", nullptr,
          "statement #" << i << " names unknown array '" << *name << "'");
    }
  }
  cursors_.reserve(plan.loops.size());
  for (const SlabLoop& loop : plan.loops) {
    OOCC_STRUCTURE_CHECK(
        std::ranges::count(plan.loops, loop.name, &SlabLoop::name) == 1,
        "OOCC-V003", nullptr, "duplicate slab loop '" << loop.name << "'");
    OOCC_STRUCTURE_CHECK(plan.arrays.contains(loop.space), "OOCC-V002",
                         nullptr,
                         "loop '" << loop.name << "' iterates unknown array '"
                                  << loop.space << "'");
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
  Scope scope{plan.kind == ProgramKind::kStencil && !plan.statements.empty()
                  ? &plan.statements.front()
                  : nullptr};
  bind(plan.steps, hints, scope);
  OOCC_CHECK(hints.empty() || hints.size() == nodes_.size(),
             ErrorCode::kInvalidArgument,
             "reuse hints for " << hints.size() << " steps given to a plan of "
                                << nodes_.size());
  find_drops();
}

void StepWalk::bind(const std::vector<Step>& steps,
                    std::span<const double> hints, Scope& scope) {
  const auto cursor = [&](const Step& step, const std::string& name) {
    const auto it = std::ranges::find(
        cursors_, name,
        [](const Cursor& c) -> const std::string& { return c.decl->name; });
    OOCC_STRUCTURE_CHECK(it != cursors_.end(), "OOCC-V001", &step,
                         "step references undeclared slab loop '" << name
                                                                  << "'");
    return &*it;
  };
  const auto known = [&](const Step& step) -> const std::string& {
    OOCC_STRUCTURE_CHECK(plan_.arrays.contains(step.array), "OOCC-V002", &step,
                         "step references unknown array '" << step.array
                                                           << "'");
    return step.array;
  };
  // The loop's section is defined, and the pins taken against it released,
  // only inside its ForEachSlab.
  const auto in_slab = [&](const Step& step, const Cursor* loop) {
    OOCC_STRUCTURE_CHECK(scope.in_slab(loop), "OOCC-V004", &step,
                         "slab step for loop '"
                             << loop->decl->name
                             << "' is not nested inside ForEachSlab "
                             << loop->decl->name
                             << " (undefined slab section, unbalanced pins)");
  };
  // The GAXPY output column comes from the enclosing per-column iteration.
  const auto in_column = [&](const Step& step,
                             const Cursor* loop) -> Scope::Column& {
    Scope::Column* column = scope.column(loop);
    OOCC_STRUCTURE_CHECK(column != nullptr, "OOCC-V004", &step,
                         step_kind_name(step.kind)
                             << " is not nested inside ForEachColumn "
                             << loop->decl->name
                             << " (no output column index)");
    return *column;
  };
  const auto staged = [&](const Step& step, const Cursor* loop,
                          const std::string& array) {
    OOCC_STRUCTURE_CHECK(scope.has(loop, array, false), "OOCC-V005", &step,
                         step_kind_name(step.kind)
                             << " reads '" << array
                             << "', which no ReadSlab or compute step of loop '"
                             << loop->decl->name
                             << "''s current iteration staged");
  };
  // A stencil of dependence distance d needs every read of its source
  // widened by d, and ghost columns d wide when it has neighbours.
  const auto short_of_reach = [&](const Step& step) {
    return scope.stencil != nullptr && step.array == scope.stencil->source &&
           step.halo < scope.stencil->halo;
  };
  for (const Step& step : steps) {
    const std::size_t i = nodes_.size();
    Node& n = nodes_.emplace_back(Node{&step, i});  // valid until bind(body)
    if (i < hints.size()) {
      n.hint = hints[i];
    }
    OOCC_STRUCTURE_CHECK(step.halo >= 0, "OOCC-V003", &step,
                         "negative halo width");
    const std::string* array = nullptr;
    switch (step.kind) {
      case StepKind::kForEachSlab:
        n.loop = cursor(step, step.loop);
        OOCC_STRUCTURE_CHECK(!scope.in_slab(n.loop), "OOCC-V003", &step,
                             "ForEachSlab re-enters already-active loop '"
                                 << step.loop << "'");
        scope.slabs.push_back(n.loop);
        break;
      case StepKind::kForEachColumn:
        n.loop = cursor(step, step.loop);
        in_slab(step, n.loop);
        OOCC_STRUCTURE_CHECK(scope.column(n.loop) == nullptr, "OOCC-V003",
                             &step,
                             "ForEachColumn re-enters already-active loop '"
                                 << step.loop << "'");
        scope.columns.push_back(Scope::Column{n.loop});
        break;
      case StepKind::kReadSlab:
        n.loop = cursor(step, step.loop);
        array = &known(step);
        in_slab(step, n.loop);
        OOCC_STRUCTURE_CHECK(!short_of_reach(step), "OOCC-V012", &step,
                             "the sweep reads '"
                                 << step.array << "' widened by " << step.halo
                                 << " column(s) but the stencil reaches "
                                 << scope.stencil->halo);
        scope.staged.push_back(Scope::Staged{n.loop, array, step.halo});
        break;
      case StepKind::kWriteSlab:
        n.loop = cursor(step, step.loop);
        array = &known(step);
        in_slab(step, n.loop);
        // Storing a slab nothing in this iteration staged writes
        // uninitialized buffer contents: the dropped-compute mutation.
        OOCC_STRUCTURE_CHECK(scope.has(n.loop, *array, true), "OOCC-V005",
                             &step,
                             "WriteSlab of '" << *array
                                              << "' stores a slab no ReadSlab "
                                                 "or compute step of the "
                                                 "current iteration staged");
        break;
      case StepKind::kComputeElementwise:
      case StepKind::kComputeStencil: {
        n.loop = cursor(step, step.loop);
        in_slab(step, n.loop);
        const std::vector<SlabStmt>& stmts = plan_.statements;
        const auto k = static_cast<std::size_t>(step.stmt);
        OOCC_STRUCTURE_CHECK(step.stmt >= 0 && k < stmts.size(), "OOCC-V003",
                             &step,
                             step_kind_name(step.kind)
                                 << " names statement #" << step.stmt << " of "
                                 << stmts.size());
        const SlabStmt& st = stmts[k];
        if (!st.source.empty()) {
          staged(step, n.loop, st.source);
        }
        for_each_ref(*st.rhs,
                     [&](const std::string& a) { staged(step, n.loop, a); });
        if (!st.source.empty() && plan_.nprocs > 1) {
          OOCC_STRUCTURE_CHECK(scope.has(nullptr, st.source, false),
                               "OOCC-V012", &step,
                               "stencil of distance "
                                   << st.halo << " has no ExchangeHalo of '"
                                   << st.source
                                   << "' before it (ghost columns never "
                                      "arrive)");
        }
        array = &st.lhs;
        scope.staged.push_back(Scope::Staged{n.loop, array, 0});
        break;
      }
      case StepKind::kComputeGaxpyPartial: {
        n.loop = cursor(step, step.loop);
        n.with = cursor(step, step.with);
        in_slab(step, n.loop);
        Scope::Column& column = in_column(step, n.with);
        staged(step, n.loop, n.loop->decl->space);
        staged(step, n.with, n.with->decl->space);
        column.opened = true;
        break;
      }
      case StepKind::kReduceSum:
        n.with = cursor(step, step.with);
        array = &known(step);
        OOCC_STRUCTURE_CHECK(in_column(step, n.with).opened, "OOCC-V004",
                             &step,
                             "ReduceSum of ForEachColumn "
                                 << step.with
                                 << " follows no ComputeGaxpyPartial of that "
                                    "column (no partial sum to reduce)");
        break;
      case StepKind::kExchangeHalo:
        n.loop = cursor(step, step.loop);
        array = &known(step);
        OOCC_STRUCTURE_CHECK(plan_.nprocs == 1 || !short_of_reach(step),
                             "OOCC-V012", &step,
                             "ExchangeHalo trades "
                                 << step.halo
                                 << " edge column(s) but the stencil reaches "
                                 << scope.stencil->halo);
        scope.staged.push_back(Scope::Staged{nullptr, array, step.halo});
        break;
      case StepKind::kBarrier:
        break;
    }
    if (array != nullptr) {
      n.array = &stencil_resolve(plan_, swapped_, *array);
      n.info = &plan_.array(*n.array);
    }
    const std::size_t staged_before = scope.staged.size();
    bind(step.body, hints, scope);
    scope.staged.erase(scope.staged.begin() + staged_before,
                       scope.staged.end());
    Node& bound = nodes_[i];
    bound.end = nodes_.size();
    if (step.kind == StepKind::kForEachSlab) {
      scope.slabs.pop_back();
    } else if (step.kind == StepKind::kForEachColumn) {
      scope.columns.pop_back();
    }
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
