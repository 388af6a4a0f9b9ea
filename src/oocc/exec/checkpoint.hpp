// Checkpoint/restart for iterative out-of-core programs.
//
// The stencil driver (interp.cpp) iterates a ping-pong pair of out-of-core
// arrays to convergence. A fault anywhere in a sweep — disk, message,
// memory budget, or an injected crash — aborts the whole SPMD region, and
// without help the work of every completed sweep is lost. This module adds
// the classic two-piece remedy:
//
//  * CheckpointStore — saves the current state array (the live half of the
//    ping-pong pair) plus the sweep counter to a sidecar directory every k
//    sweeps, with a commit protocol that tolerates a crash at any point:
//    per-rank data files are written under an iteration-versioned name
//    (`<state>.<iter>.r<rank>`), all ranks barrier, and only then does rank
//    0 publish the checkpoint by atomically renaming a fresh `meta` file.
//    A crash before the rename leaves the previous checkpoint intact; a
//    crash after it leaves the new one complete.
//
//  * run_stencil_with_restart — wraps Machine::run around the stencil
//    executor: on a restartable failure it re-enters the region, restores
//    the latest committed checkpoint (or re-runs the deterministic
//    initializer when none exists) and resumes from the recorded sweep.
//    Because sweeps are deterministic and checkpoints store exact doubles,
//    the recovered run is bit-identical to a fault-free one.
//
// Checkpoint I/O is charged to the simulated clock as streaming requests
// against the owning array's disk model, so fault-tolerant runs report
// honestly higher I/O time. See docs/fault-tolerance.md.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>

#include "oocc/exec/interp.hpp"
#include "oocc/io/disk_model.hpp"
#include "oocc/runtime/ooc_array.hpp"
#include "oocc/sim/machine.hpp"

namespace oocc::exec {

/// Sidecar checkpoint directory for one iterative run.
class CheckpointStore {
 public:
  /// Identity of the latest committed checkpoint.
  struct Meta {
    int iterations = 0;    ///< sweeps completed when it was taken
    std::string state;     ///< plan array holding the state at that point
  };

  /// Opens (creating if needed) the checkpoint directory.
  explicit CheckpointStore(std::filesystem::path dir);

  const std::filesystem::path& dir() const noexcept { return dir_; }

  /// Collective: saves `state`'s local pieces as checkpoint `iterations`
  /// and commits it (rank 0 renames the meta file after a barrier), then
  /// garbage-collects superseded checkpoints. Charged as streaming
  /// requests against the array's disk model.
  void save(sim::SpmdContext& ctx, int iterations, const std::string& state,
            runtime::OutOfCoreArray& array);

  /// Collective: loads checkpoint `meta` into `array` (each rank its own
  /// piece). Throws Error(kIoError) on a missing/corrupt data file.
  void restore(sim::SpmdContext& ctx, const Meta& meta,
               runtime::OutOfCoreArray& array);

  /// Host-side query (uncharged): the latest committed checkpoint under
  /// `dir`, or nullopt when none was ever committed.
  static std::optional<Meta> latest(const std::filesystem::path& dir);

 private:
  std::filesystem::path data_path(const Meta& meta, int rank) const;

  std::filesystem::path dir_;
};

/// Everything run_stencil_with_restart needs beyond the plan itself.
struct RestartOptions {
  /// Executor knobs for each attempt. exec.checkpoint_every (>= 1) and
  /// exec.checkpoint_dir set the checkpoint cadence and location;
  /// start_iteration and stencil_info are set per attempt.
  ExecOptions exec;
  /// Directory holding the plan arrays' LAFs. Reused across attempts so
  /// surviving data (and write-back journals) carry over.
  std::filesystem::path array_dir;
  io::DiskModel disk;
  /// Attempts after the first before the last error is rethrown.
  int max_restarts = 8;
  /// Deterministically creates the initial contents of the plan arrays
  /// (called inside the SPMD region on a cold start — i.e. when no
  /// committed checkpoint exists yet).
  std::function<void(sim::SpmdContext&, const ArrayBindings&)> initialize;
};

/// Outcome of a restartable stencil run.
struct RestartRunInfo {
  StencilRunInfo stencil;
  int restarts = 0;       ///< recoveries performed (0 = fault-free)
  sim::RunReport report;  ///< report of the successful attempt
};

/// True when a failure with this code is worth a restart: faults injected
/// or escalated by the fault framework, budget exhaustion, and the
/// secondary "aborted by another rank" errors the abort protocol spreads.
bool restartable_error(ErrorCode code) noexcept;

/// Runs the stencil plan to completion, recovering from restartable
/// failures via checkpoint/restart (see file comment). Accounting is reset
/// after initialization/restore, so the report covers the sweeps of the
/// final (successful) attempt only.
RestartRunInfo run_stencil_with_restart(sim::Machine& machine,
                                        const compiler::NodeProgram& plan,
                                        const RestartOptions& options);

}  // namespace oocc::exec
