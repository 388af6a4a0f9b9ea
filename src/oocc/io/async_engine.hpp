// Real asynchronous I/O engine: a small worker-thread pool that performs
// host file operations off the simulated compute threads.
//
// The simulator prices asynchronous I/O with the clock-rewind model
// (sim/clock.hpp): a read-ahead is charged at issue time and its completion
// is queued behind the processor's one modelled disk. This engine makes the
// *host* side match that model: the submitting thread pays only the
// simulated charge, the physical pread/pwrite runs on a worker thread, and
// the submitter blocks only when it actually needs the bytes (Ticket::wait).
//
// Ordering. Jobs are FIFO per *stream* (an opaque `const void*` key).
// The LAF layer keys its submissions by file — one stream per
// LocalArrayFile — so a read never overtakes the write-back it must
// observe, the journal protocol stays serialized, and one rank's
// operations on one file reach the fault sites in program order (see
// util/faults.hpp). Distinct files overlap like independent devices.
//
// Fault identity. submit() captures faults::thread_rank() on the calling
// thread and the worker runs the job under a faults::ThreadRankGuard for
// that rank, so injected fault sites reached on a worker fire with the
// submitting rank's identity. A job's exception (fault, crash, I/O error)
// is stored and rethrown from Ticket::wait() — faults surface at the wait
// point with today's error codes.
//
// Thread safety. All engine state is guarded by one mutex; each ticket has
// its own mutex/condvar for completion handoff, which also provides the
// happens-before edge between the worker's writes (e.g. into a slab buffer)
// and the submitter's reads after wait(). The engine must outlive every
// Ticket obtained from it (Machine owns the engine; pools wait out their
// in-flight tickets before destruction).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace oocc::io {

class AsyncEngine {
 public:
  /// Host wall-clock activity counters (monotone over the engine lifetime).
  struct Counters {
    std::uint64_t jobs_submitted = 0;
    std::uint64_t jobs_completed = 0;
    /// Peak number of submitted-but-unfinished jobs (queue depth).
    std::uint64_t max_queue_depth = 0;
    /// Host seconds workers spent executing jobs.
    double busy_s = 0.0;
    /// Host seconds submitters spent blocked in Ticket::wait().
    double blocked_s = 0.0;
    /// Host seconds of I/O genuinely hidden behind compute: worker time
    /// that nobody was waiting for.
    double overlap_s() const noexcept {
      return busy_s > blocked_s ? busy_s - blocked_s : 0.0;
    }
  };

  /// Completion handle for one submitted job. Default-constructed tickets
  /// are inert (wait() returns immediately).
  class Ticket {
   public:
    Ticket() = default;

    /// True when this ticket refers to a submitted job.
    bool valid() const noexcept { return state_ != nullptr; }

    /// Blocks until the job finished, then rethrows its exception (if any).
    /// Time actually spent blocked is added to the engine's counters.
    /// Safe to call more than once.
    void wait();

   private:
    friend class AsyncEngine;
    struct State;
    explicit Ticket(std::shared_ptr<State> state) : state_(std::move(state)) {}
    std::shared_ptr<State> state_;
  };

  /// Spawns `threads` workers (clamped to >= 1).
  explicit AsyncEngine(int threads);
  ~AsyncEngine();

  AsyncEngine(const AsyncEngine&) = delete;
  AsyncEngine& operator=(const AsyncEngine&) = delete;

  int threads() const noexcept { return static_cast<int>(workers_.size()); }

  /// Enqueues `job` on `stream` (FIFO per stream) and returns its ticket.
  /// The job runs on a worker under the submitting thread's fault rank.
  Ticket submit(const void* stream, std::function<void()> job);

  /// Snapshot of the activity counters.
  Counters counters() const;

 private:
  struct Job {
    std::function<void()> fn;
    std::shared_ptr<Ticket::State> state;
    int rank = -1;
  };
  struct Stream {
    std::deque<Job> queue;
    bool running = false;
  };

  void worker_loop();
  void note_blocked(double seconds);

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::map<const void*, Stream> streams_;
  std::deque<const void*> ready_;
  std::uint64_t inflight_ = 0;
  bool stop_ = false;
  Counters counters_;
  std::vector<std::thread> workers_;
};

}  // namespace oocc::io
