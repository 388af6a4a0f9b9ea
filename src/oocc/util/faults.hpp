// Deterministic fault injection for the fault-tolerance layer.
//
// A FaultPlan is a seeded schedule of failures parsed from the OOCC_FAULTS
// environment variable or the tool's --faults= flag. The runtime's fault
// *sites* — LAF/FileBackend reads and writes, message sends (and so every
// collective and halo exchange built on them), memory-budget reservation,
// and the crash points of the journaled write-back protocol — consult the
// process-global FaultInjector on every operation. A matching spec makes
// the operation throw:
//
//   Error(kTransientIoError)  kind=transient (default): expected to succeed
//                             on retry — masked by RetryPolicy at the
//                             retrying sites (LAF I/O, send_bytes)
//   Error(k<site-specific>)   kind=permanent: kIoError for read/write,
//                             kRuntimeError for collective,
//                             kResourceExhausted for budget
//   Error(kCrash)             site crash: fired at a named protocol point
//                             ("shadow"/"apply" of the write-back journal)
//
// Grammar (specs separated by ';'):
//
//   spec  := site ':' kv (',' kv)*
//   site  := read | write | collective | budget | crash
//   kv    := nth=<k>          fail the k-th matching operation (1-based,
//                             counted per rank; default when neither nth
//                             nor p is given: nth=1)
//          | p=<prob>         fail each matching operation with probability
//                             prob (deterministic per-(spec, rank) RNG)
//          | rank=<r>         only operations on simulated rank r (default:
//                             all ranks; host-side operations outside an
//                             SPMD region count as rank -1 and only match
//                             specs without a rank filter)
//          | seed=<s>         RNG stream seed for p-mode (default 42)
//          | count=<c>        stop after c injections per rank (default:
//                             1 for nth-mode, unlimited for p-mode)
//          | kind=transient|permanent
//          | at=shadow|apply  crash site only: which protocol point
//
// Examples: "read:rank=2,nth=7"  "write:p=0.01,seed=42"
//           "crash:nth=1,at=shadow;read:p=0.005"
//
// Determinism: nth-mode counts operations per (spec, rank); p-mode draws
// from an RNG stream seeded by (seed, spec index, rank). Neither depends on
// how ranks interleave, so a rank that reaches its sites in program order
// meets the same faults run after run. Timing still matters in two places:
// with the async engine, one rank's transfers on different files may reach
// the read/write sites in either order; and after a region aborts, how far
// the other ranks got (and so what they counted) depends on timing. So
// tools/soak.sh checks each run's outcome, not its retry, recovery and
// restart tallies, which may vary from run to run.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "oocc/util/error.hpp"
#include "oocc/util/rng.hpp"

namespace oocc::faults {

enum class Site { kRead, kWrite, kCollective, kBudget, kCrash };

std::string_view site_name(Site site) noexcept;

enum class Kind { kTransient, kPermanent };

/// One parsed fault spec (see the grammar above).
struct FaultSpec {
  Site site = Site::kRead;
  Kind kind = Kind::kTransient;
  double p = 0.0;            ///< probability per op; 0 = nth-mode
  std::uint64_t nth = 0;     ///< 1-based op index to fail; 0 = p-mode
  int rank = -1;             ///< -1 = any rank
  std::uint64_t seed = 42;   ///< RNG stream seed (p-mode)
  std::uint64_t count = 0;   ///< max injections per rank; 0 = mode default
  std::string at;            ///< crash point filter; empty = any point

  /// Effective per-rank injection cap.
  std::uint64_t effective_count() const noexcept;
  std::string to_string() const;
};

/// A ';'-separated list of fault specs.
struct FaultPlan {
  std::vector<FaultSpec> specs;

  bool empty() const noexcept { return specs.empty(); }
  /// Parses the grammar above; throws Error(kInvalidArgument) on a bad
  /// site, key, value, or combination (e.g. both p= and nth=).
  static FaultPlan parse(const std::string& text);
  std::string to_string() const;
};

/// Totals across all specs and ranks since the last install().
struct FaultStats {
  std::uint64_t ops_checked = 0;        ///< operations that consulted a spec
  std::uint64_t transient_injected = 0;
  std::uint64_t permanent_injected = 0;
  std::uint64_t crashes_injected = 0;
  std::uint64_t recoveries = 0;  ///< journal recoveries (LAF open scans)

  std::uint64_t injected() const noexcept {
    return transient_injected + permanent_injected + crashes_injected;
  }
};

/// Process-global injector every fault site consults. With no plan
/// installed, check() is a single relaxed atomic load — the default-off
/// fast path costs nothing measurable and changes no I/O accounting.
class FaultInjector {
 public:
  static FaultInjector& instance();

  /// Installs `plan`, resetting all per-spec counters, RNG streams and
  /// stats. An empty plan deactivates injection.
  void install(FaultPlan plan);
  /// Installs the OOCC_FAULTS environment plan, if set. Returns whether a
  /// plan was installed. Tools call this once at startup.
  bool install_from_env();
  void clear() { install(FaultPlan{}); }

  bool active() const noexcept {
    return active_.load(std::memory_order_relaxed);
  }
  FaultPlan plan() const;
  FaultStats stats() const;

  /// Consults the plan for `site` on the calling thread's rank; throws on
  /// an injected fault (see the file comment for the error codes).
  void check(Site site, std::string_view what);
  /// Crash points inside multi-step protocols (the write-back journal);
  /// matches crash specs whose `at` filter is empty or equals `point`.
  void check_crash(std::string_view point, std::string_view what);

  /// Journal-recovery tally (bumped by LocalArrayFile's open scan, which
  /// runs without an SpmdContext). Counted even when no plan is active.
  void note_recovery() noexcept;

 private:
  FaultInjector() = default;
  /// Per-(spec index, rank) op counter, injection tally and RNG stream.
  struct SpecState {
    std::uint64_t ops = 0;
    std::uint64_t injected = 0;
    Rng rng;
  };
  void do_check(Site site, std::string_view point, std::string_view what);

  std::atomic<bool> active_{false};
  mutable std::mutex mu_;
  FaultPlan plan_;
  FaultStats stats_;
  std::map<std::pair<std::size_t, int>, SpecState> states_;
};

/// RAII plan installation for tests: installs on construction, clears on
/// destruction.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(const std::string& text) {
    FaultInjector::instance().install(FaultPlan::parse(text));
  }
  ~ScopedFaultPlan() { FaultInjector::instance().clear(); }
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
};

/// The calling thread's simulated rank for fault matching; -1 outside an
/// SPMD region. sim::Machine tags each processor thread via the guard.
int thread_rank() noexcept;
void set_thread_rank(int rank) noexcept;

class ThreadRankGuard {
 public:
  explicit ThreadRankGuard(int rank) : saved_(thread_rank()) {
    set_thread_rank(rank);
  }
  ~ThreadRankGuard() { set_thread_rank(saved_); }
  ThreadRankGuard(const ThreadRankGuard&) = delete;
  ThreadRankGuard& operator=(const ThreadRankGuard&) = delete;

 private:
  int saved_;
};

/// Bounded-retry policy with exponential backoff for transient faults. The
/// backoff is *simulated* time: callers charge it to their clock (LAF I/O
/// via charge_io_time against the DiskModel's request overhead, sends as
/// comm time), so the pricer can price retried runs.
struct RetryPolicy {
  int max_attempts = 4;           ///< total tries, including the first
  double backoff_base_s = 0.0;    ///< <= 0: use the caller's fallback base
  double backoff_multiplier = 2.0;

  /// Backoff to charge after failed attempt `attempt` (1-based).
  double backoff_s(int attempt, double fallback_base_s) const noexcept;

  /// Defaults overridden by OOCC_RETRY_ATTEMPTS / OOCC_RETRY_BACKOFF_MS.
  static RetryPolicy from_env();
};

}  // namespace oocc::faults
