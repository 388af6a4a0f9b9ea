// One traversal of a plan's slab-program IR.
//
// The paper's compiler emits one node program of I/O, compute and message
// steps (Figures 9 and 12), and its T_fetch/T_data model prices that same
// program. StepWalk runs one sweep of one plan on one rank and calls a
// client hook at every event; the executor (exec/interp.cpp), the pricer
// and the reuse annotator (cost.cpp) and the verifier's replay
// (verify.cpp) are its clients. The walk owns everything they share: the
// per-loop SlabIterator cursors (one span on every rank), ForEachSlab /
// ForEachColumn iteration, halo widening of reads, the ExchangeHalo edge
// sections, stencil ping-pong names, the read-ahead schedule and its pump,
// holding read and staged sections until their slab iteration ends, the
// GAXPY reduction's output (the ReduceSum column and row range, each side
// buffer's size and when it is taken from the budget, and which owned
// columns the owner stores as one LAF write: "if ICLA is full then
// write"), which cached arrays to drop at sweep start (the output a
// ReduceSum stores around the pool, and the dead arrays the sweep
// overwrites in full before reading any of them), and each step's id and
// reuse hint. So priced == measured and verified == executed hold because
// all four see the same event stream, not because they mirror one another.
//
// The walk also owns the rules a step tree must meet (docs/slab-ir.md): it
// checks them as it binds the tree, before any event, and throws a
// StructureError on the first one broken. So no client can be handed a
// tree it cannot run, with or without the verifier.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "oocc/compiler/plan.hpp"
#include "oocc/runtime/bufferpool.hpp"
#include "oocc/runtime/slab_writer.hpp"
#include "oocc/util/error.hpp"

namespace oocc::compiler {

/// A step tree no StepWalk client can run: Error(kVerifyError) carrying
/// the broken rule's OOCC-V0xx code (V001-V005, V012) and the offending
/// step. The rules are lexical, so every rank and ping-pong parity throws
/// the same one.
class StructureError : public Error {
 public:
  StructureError(const char* rule, const Step* step, const std::string& detail);

  const char* rule() const noexcept { return rule_; }
  /// The offending step; null for a loop declaration or a statement.
  const Step* step() const noexcept { return step_; }
  /// The message without the code and the step.
  const std::string& detail() const noexcept { return detail_; }

 private:
  const char* rule_;
  const Step* step_;
  std::string detail_;
};

class StepWalk {
 public:
  using Request = runtime::IoScheduler::Request;

  /// A section held until its slab iteration ends.
  struct Held {
    const std::string* array;
    io::Section section;
  };

  /// One slab loop's position.
  struct Cursor {
    const SlabLoop* decl;
    std::size_t index;  ///< position in NodeProgram::loops
    runtime::SlabIterator iter;  ///< this rank's slabs; one span on all ranks
    io::Section section{};      ///< the current slab
    std::int64_t column = -1;   ///< ForEachColumn offset into `section`
    std::vector<Held> held{};   ///< released in reverse at iteration end
    /// The loop's read-ahead queue (prefetching loops; see Node::streams),
    /// pumped after each of its demand reads.
    runtime::IoScheduler scheduler{};
    int lookahead = 0;
  };

  /// One step with its names bound.
  struct Node {
    const Step* step;
    /// The step's preorder index in the plan's step tree: its id, the same
    /// in every walk of the plan, whatever the rank or ping-pong parity.
    std::size_t id = 0;
    /// The step's forward reuse distance (annotate_reuse_distances), the
    /// slab pool's eviction hint; -1 when none is known.
    double hint = -1.0;
    Cursor* loop = nullptr;  ///< `step.loop`
    Cursor* with = nullptr;  ///< `step.with`
    /// The array the step touches, ping-pong resolved: `step.array`, or the
    /// statement's lhs for a compute step. Null for loops, GAXPY partials
    /// and barriers.
    const std::string* array = nullptr;
    const PlanArray* info = nullptr;  ///< placement of `*array`
    /// ForEachSlab: the body's pure-input reads, streamed ahead once per
    /// slab when the loop prefetches, each with its ReadSlab's hint.
    std::vector<Request> streams{};
    std::size_t end = 0;  ///< one past this step's subtree in preorder
  };

  /// One side of a ghost exchange: the edge this rank sends to `peer`,
  /// and the peer's edge it receives, in the peer's local coordinates.
  struct Edge {
    int peer;
    io::Section sent;
    io::Section received;
  };
  struct Exchange {
    std::optional<Edge> left;   ///< rank - 1: our low edge, its high edge
    std::optional<Edge> right;  ///< rank + 1: our high edge, its low edge
  };

  /// Binds `plan` for `rank`; `swapped` runs a stencil plan's odd sweep,
  /// where the ping-pong pair trade places. `hints`, indexed by step id,
  /// gives each node its reuse hint; empty gives none. Throws
  /// StructureError on a tree that breaks a structure rule, and Error on
  /// hints for a different number of steps.
  StepWalk(const NodeProgram& plan, int rank, bool swapped,
           std::span<const double> hints = {});

  // Nodes point at the walk's own cursors.
  StepWalk(const StepWalk&) = delete;
  StepWalk& operator=(const StepWalk&) = delete;

 protected:
  ~StepWalk() = default;

  /// Runs the sweep, calling the hooks below in program order; false when
  /// a client stopped it early.
  bool sweep();

  /// Opens the sweep, once per array whose cached slabs must go first:
  /// `dead` for one the sweep overwrites in full before reading any of it,
  /// so its slabs need no write-back; not `dead` for the output a ReduceSum
  /// stores around the pool, where cached slabs would go stale.
  virtual void drop(const std::string& /*array*/, bool /*dead*/) {}
  /// ReadSlab of section `s` (halo-widened); held after the hook. A
  /// prefetching loop's read-ahead queue is pumped right after it.
  virtual void read(const Node& /*n*/, const io::Section& /*s*/) {}
  /// The read-ahead pump's view of memory: whether request `r` is resident
  /// or in flight, and issuing it (false when there is no spare room; the
  /// pump then waits for the next demand read). The defaults find every
  /// request resident, so the pump issues nothing.
  virtual bool resident(const Request& /*r*/) const { return true; }
  virtual bool read_ahead(const Request& /*r*/) { return false; }
  /// ComputeElementwise / ComputeStencil staging `*n.array` over the
  /// current slab; held after the hook.
  virtual void stage(const Node& /*n*/) {}
  /// WriteSlab of the current slab.
  virtual void write(const Node& /*n*/) {}
  /// ExchangeHalo: trade edge columns of `*n.array` with the neighbours.
  virtual void exchange(const Node& /*n*/, const Exchange& /*ex*/) {}
  /// ComputeGaxpyPartial; `fresh` when it opens a new output column.
  virtual void partial(const Node& /*n*/, bool /*fresh*/) {}
  /// ReduceSum's collective (every rank) for global output column
  /// `column`, over the rows of the A slab whose partial opened it.
  virtual void reduce(const Node& /*n*/, std::int64_t /*column*/,
                      std::int64_t /*row0*/, std::int64_t /*row1*/) {}
  /// Takes a GAXPY side buffer of `elements` from the budget, held until
  /// the sweep ends: the partial-sum column (one full A slab's rows) before
  /// this rank's first fresh partial `n`, the output batch buffer (the
  /// plan's C slab, and at least one such column) at its first owned
  /// ReduceSum `n`.
  virtual void reserve(const Node& /*n*/, std::int64_t /*elements*/) {}
  /// Places this rank's owned column, just reduced by `n`, at slot `slot`
  /// of the open output batch.
  virtual void place(const Node& /*n*/, std::int64_t /*slot*/) {}
  /// Stores the output batch as local section `s` of `*n.array` (one LAF
  /// write); `n` is the ReduceSum that opened the batch.
  virtual void store(const Node& /*n*/, const io::Section& /*s*/) {}
  virtual void barrier() {}
  /// Drops a held section, at the end of its slab iteration.
  virtual void release(const std::string& /*array*/,
                       const io::Section& /*s*/) {}

  /// Ends the sweep after the current event (the replay and annotation
  /// event caps); held sections are still released.
  void stop() noexcept { stopped_ = true; }

  /// Steps in the plan: one past the largest step id.
  std::size_t step_count() const noexcept { return nodes_.size(); }

  const NodeProgram& plan_;
  const int rank_;

 private:
  struct Scope;
  void bind(const std::vector<Step>& steps, std::span<const double> hints,
            Scope& scope);
  void find_drops();
  void visit(std::size_t first, std::size_t last);
  void visit(std::size_t i);
  void pump(Cursor& c);
  void visit_reduce(const Node& n);
  void close_batch();

  bool swapped_;
  bool stopped_ = false;
  std::vector<Cursor> cursors_;
  std::vector<Node> nodes_;  ///< the step tree in preorder
  /// Arrays to drop at sweep start, with their `dead` flag (see drop()).
  std::vector<std::pair<const std::string*, bool>> drops_;
  bool fresh_column_ = false;
  std::int64_t row0_ = 0;  ///< rows of the current output column
  std::int64_t row1_ = 0;

  // The GAXPY reduction's output (Figures 9 and 12): the owner places each
  // summed column in a batch of consecutive owned columns over one row
  // range, and stores the batch when it is full.
  /// Rows of the partial-sum column; 0 until it is reserved.
  std::int64_t temp_rows_ = 0;
  std::optional<runtime::ColumnBatch> batch_;  ///< the open batch
  /// The ReduceSum that opened the latest batch; null until this rank's
  /// first owned column.
  const Node* batch_node_ = nullptr;
};

}  // namespace oocc::compiler
