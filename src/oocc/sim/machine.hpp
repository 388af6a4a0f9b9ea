// The simulated distributed-memory machine (§2.2 of the paper).
//
// A Machine models P compute processors connected by an interconnect with a
// Hockney-style cost model. `Machine::run(body)` executes `body` once per
// simulated processor, each on its own host thread, in SPMD fashion — the
// direct analogue of the message-passing node programs the paper's compiler
// emits. All inter-processor data motion goes through SpmdContext::send /
// recv (and the collectives built on them in collectives.hpp), which both
// move real bytes and advance the per-processor simulated clocks.
//
// Error handling: if any rank throws, the machine aborts the region — every
// blocked recv() is released with an abort message and rethrows — so a
// failing rank cannot deadlock the host process.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <memory>
#include <span>
#include <vector>

#include "oocc/sim/clock.hpp"
#include "oocc/sim/cost_model.hpp"
#include "oocc/sim/mailbox.hpp"
#include "oocc/util/error.hpp"

namespace oocc::io {
class AsyncEngine;
}  // namespace oocc::io

namespace oocc::sim {

/// Tag reserved for the abort protocol. User tags must be >= 0; the
/// collectives use negative tags above this sentinel.
inline constexpr int kAbortTag = std::numeric_limits<int>::min();

/// Per-processor activity counters, filled during an SPMD region.
struct ProcStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  double flops = 0.0;

  // Simulated-time breakdown (seconds). io_time_s is charged by the I/O
  // layer (oocc/io); the three parts need not sum exactly to sim_time_s
  // because waiting at a recv counts as comm time.
  double compute_time_s = 0.0;
  double comm_time_s = 0.0;
  double io_time_s = 0.0;

  // I/O counters, charged by oocc::io::LocalArrayFile.
  std::uint64_t io_requests = 0;
  std::uint64_t io_bytes_read = 0;
  std::uint64_t io_bytes_written = 0;

  /// Transient faults masked by a bounded-retry loop on this processor
  /// (disk retries charged by the I/O layer, message retries by
  /// send_bytes). Zero in fault-free runs.
  std::uint64_t retries = 0;

  double sim_time_s = 0.0;  ///< final simulated clock of this processor
};

/// Wall-clock activity of the real async I/O engine during one SPMD region
/// (all zero when the engine is disabled via OOCC_ASYNC=0). busy/blocked/
/// overlap are host seconds, not simulated seconds — the simulated pricing
/// of asynchrony is the clock-rewind model and is unaffected by the engine.
struct AsyncIoReport {
  bool enabled = false;
  int threads = 0;
  std::uint64_t jobs = 0;
  std::uint64_t max_queue_depth = 0;  ///< peak in-flight jobs (engine lifetime)
  double busy_s = 0.0;     ///< worker time spent in physical I/O
  double blocked_s = 0.0;  ///< compute-thread time spent waiting on tickets
  double overlap_s = 0.0;  ///< I/O genuinely hidden behind compute
};

/// Aggregate result of one SPMD region.
struct RunReport {
  std::vector<ProcStats> procs;
  double wall_time_s = 0.0;
  AsyncIoReport async;

  /// Simulated makespan: the latest final clock across processors. This is
  /// the quantity reported as "Time (s)" in the reproduced tables.
  double max_sim_time_s() const noexcept;
  std::uint64_t total_io_requests() const noexcept;
  std::uint64_t total_io_bytes() const noexcept;
  std::uint64_t total_messages() const noexcept;
  std::uint64_t total_bytes_sent() const noexcept;
  std::uint64_t total_retries() const noexcept;
};

/// Renders a per-processor breakdown table (simulated time split into
/// compute / communication / I/O, plus counters) for reports and bench
/// logs.
std::string format_report(const RunReport& report);

class Machine;

/// Handle given to the SPMD body on each simulated processor. Provides the
/// processor's identity, its simulated clock, typed message passing, and
/// cost-charging entry points used by the compute kernels and the I/O layer.
class SpmdContext {
 public:
  int rank() const noexcept { return rank_; }
  int nprocs() const noexcept;

  Clock& clock() noexcept { return clock_; }
  const Clock& clock() const noexcept { return clock_; }
  ProcStats& stats() noexcept { return stats_; }
  const MachineCostModel& cost() const noexcept;

  /// Charges `flops` floating point operations to the simulated clock.
  void charge_flops(double flops) noexcept {
    stats_.flops += flops;
    const double t = cost().compute.flops_time(flops);
    stats_.compute_time_s += t;
    clock_.advance(t);
  }

  /// Charges `seconds` of I/O service time (called by the I/O layer).
  void charge_io_time(double seconds) noexcept {
    stats_.io_time_s += seconds;
    clock_.advance(seconds);
  }

  /// Zeroes the simulated clock and counters. Benches call this (after a
  /// barrier, so no pre-reset message timestamps are still in flight) to
  /// exclude data-staging from the measured phase.
  void reset_accounting() noexcept {
    clock_.reset();
    stats_ = ProcStats{};
  }

  /// Sends `bytes` of raw payload to `dest` with tag `tag` (>= 0 for user
  /// messages). Returns immediately in simulated terms: the sender is only
  /// charged the CPU send overhead; the transfer time determines the
  /// message's arrival timestamp at the destination.
  void send_bytes(int dest, int tag, const void* data, std::size_t bytes);

  /// Blocks until a message matching (source, tag) arrives; pulls the
  /// simulated clock to the arrival time. Wildcards kAnySource / kAnyTag.
  Message recv_message(int source, int tag);

  /// Typed convenience wrappers.
  template <typename T>
  void send(int dest, int tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dest, tag, data.data(), data.size_bytes());
  }

  template <typename T>
  void send_value(int dest, int tag, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dest, tag, &value, sizeof(T));
  }

  template <typename T>
  std::vector<T> recv(int source, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    Message m = recv_message(source, tag);
    OOCC_CHECK(m.payload.size() % sizeof(T) == 0, ErrorCode::kRuntimeError,
               "received payload of " << m.payload.size()
                                      << " bytes is not a multiple of element "
                                         "size "
                                      << sizeof(T));
    std::vector<T> out(m.payload.size() / sizeof(T));
    // An empty payload may carry null pointers, and memcpy with a null
    // pointer is undefined even for zero bytes.
    if (!m.payload.empty()) {
      std::memcpy(out.data(), m.payload.data(), m.payload.size());
    }
    return out;
  }

  template <typename T>
  T recv_value(int source, int tag) {
    std::vector<T> v = recv<T>(source, tag);
    OOCC_CHECK(v.size() == 1, ErrorCode::kRuntimeError,
               "expected single-value message, got " << v.size()
                                                     << " elements");
    return v[0];
  }

  /// Receives into a caller-provided buffer (avoids an allocation on hot
  /// paths like slab-sized reductions). The buffer must be exactly the
  /// message size.
  template <typename T>
  void recv_into(int source, int tag, std::span<T> out) {
    Message m = recv_message(source, tag);
    OOCC_CHECK(m.payload.size() == out.size_bytes(), ErrorCode::kRuntimeError,
               "message size " << m.payload.size()
                               << " != expected buffer size "
                               << out.size_bytes());
    if (!m.payload.empty()) {
      std::memcpy(out.data(), m.payload.data(), m.payload.size());
    }
  }

  /// True if a matching message is already queued (no time charge).
  bool probe(int source, int tag);

  /// The machine's real async I/O engine, or nullptr when disabled
  /// (OOCC_ASYNC=0). Shared by all ranks; the LAF layer keys its
  /// submissions by file, so each local array file gets its own FIFO
  /// stream and distinct files overlap like independent devices.
  io::AsyncEngine* async_engine() noexcept;

 private:
  friend class Machine;
  SpmdContext(Machine* machine, int rank) : machine_(machine), rank_(rank) {}

  Machine* machine_;
  int rank_;
  Clock clock_;
  ProcStats stats_;
};

/// Process-global knobs a Machine snapshots at construction. Long-lived
/// hosts (the compile server) capture these once per request via
/// `from_env()` — a job must see the knob values of the process state it
/// was admitted under, not whatever the globals happen to say when a worker
/// thread finally calls run().
struct MachineOptions {
  /// Bring up the real async I/O engine (kill switch: OOCC_ASYNC=0 falls
  /// back to fully synchronous host I/O bit-identically).
  bool async = true;
  /// Engine worker threads; 0 = the built-in default min(nprocs, 4).
  int io_threads = 0;

  /// Snapshot of OOCC_ASYNC / OOCC_IO_THREADS.
  static MachineOptions from_env();
};

/// The simulated machine. Construct once with a processor count and cost
/// model; `run()` may be invoked repeatedly (each run starts from clock 0).
class Machine {
 public:
  /// Captures MachineOptions::from_env() — the environment is read here,
  /// once, never again during run().
  Machine(int nprocs, MachineCostModel cost_model);
  Machine(int nprocs, MachineCostModel cost_model, MachineOptions options);
  ~Machine();

  int nprocs() const noexcept { return nprocs_; }
  const MachineCostModel& cost() const noexcept { return cost_; }
  const MachineOptions& options() const noexcept { return options_; }

  /// Runs `body(ctx)` on every simulated processor, one host thread each.
  /// If any rank fails, rethrows the exception of the rank whose failure
  /// started the abort (the others mostly fail with "aborted by another
  /// rank").
  ///
  /// Unless options().async is off, the machine lazily creates its async
  /// I/O engine on the first run (options().io_threads workers, default
  /// min(nprocs, 4)); RunReport::async carries the engine activity of this
  /// region.
  RunReport run(const std::function<void(SpmdContext&)>& body);

 private:
  friend class SpmdContext;

  void abort_all();

  int nprocs_;
  MachineCostModel cost_;
  MachineOptions options_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::unique_ptr<io::AsyncEngine> engine_;
};

}  // namespace oocc::sim
