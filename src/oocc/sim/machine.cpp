#include "oocc/sim/machine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <thread>

#include "oocc/io/async_engine.hpp"
#include "oocc/util/env.hpp"
#include "oocc/util/faults.hpp"
#include "oocc/util/log.hpp"
#include "oocc/util/table.hpp"

#include <sstream>

namespace oocc::sim {

double RunReport::max_sim_time_s() const noexcept {
  double m = 0.0;
  for (const auto& p : procs) m = std::max(m, p.sim_time_s);
  return m;
}

std::uint64_t RunReport::total_io_requests() const noexcept {
  std::uint64_t n = 0;
  for (const auto& p : procs) n += p.io_requests;
  return n;
}

std::uint64_t RunReport::total_io_bytes() const noexcept {
  std::uint64_t n = 0;
  for (const auto& p : procs) n += p.io_bytes_read + p.io_bytes_written;
  return n;
}

std::uint64_t RunReport::total_messages() const noexcept {
  std::uint64_t n = 0;
  for (const auto& p : procs) n += p.messages_sent;
  return n;
}

std::uint64_t RunReport::total_bytes_sent() const noexcept {
  std::uint64_t n = 0;
  for (const auto& p : procs) n += p.bytes_sent;
  return n;
}

std::uint64_t RunReport::total_retries() const noexcept {
  std::uint64_t n = 0;
  for (const auto& p : procs) n += p.retries;
  return n;
}

std::string format_report(const RunReport& report) {
  TextTable table({"proc", "sim time (s)", "compute (s)", "comm (s)",
                   "io (s)", "io reqs", "io MB", "msgs sent", "MB sent",
                   "Mflops"});
  for (std::size_t r = 0; r < report.procs.size(); ++r) {
    const ProcStats& p = report.procs[r];
    table.add_row(
        {std::to_string(r), format_fixed(p.sim_time_s, 3),
         format_fixed(p.compute_time_s, 3), format_fixed(p.comm_time_s, 3),
         format_fixed(p.io_time_s, 3), std::to_string(p.io_requests),
         format_fixed(
             static_cast<double>(p.io_bytes_read + p.io_bytes_written) / 1e6,
             2),
         std::to_string(p.messages_sent),
         format_fixed(static_cast<double>(p.bytes_sent) / 1e6, 2),
         format_fixed(p.flops / 1e6, 1)});
  }
  std::ostringstream oss;
  oss << table.to_string() << "makespan: " << format_fixed(
             report.max_sim_time_s(), 3)
      << " s simulated, " << format_fixed(report.wall_time_s, 3)
      << " s wall\n";
  // Regions that never touched the engine (pure compute/comm) keep the
  // classic report shape.
  if (report.async.enabled && report.async.jobs > 0) {
    oss << "async io: " << report.async.threads << " threads, "
        << report.async.jobs << " jobs, peak queue "
        << report.async.max_queue_depth << "; busy "
        << format_fixed(report.async.busy_s, 3) << " s, blocked "
        << format_fixed(report.async.blocked_s, 3) << " s, overlap "
        << format_fixed(report.async.overlap_s, 3) << " s wall\n";
  }
  return oss.str();
}

int SpmdContext::nprocs() const noexcept { return machine_->nprocs(); }

const MachineCostModel& SpmdContext::cost() const noexcept {
  return machine_->cost();
}

void SpmdContext::send_bytes(int dest, int tag, const void* data,
                             std::size_t bytes) {
  OOCC_REQUIRE(dest >= 0 && dest < machine_->nprocs(),
               "send destination " << dest << " outside [0, "
                                   << machine_->nprocs() << ")");
  OOCC_REQUIRE(tag != kAbortTag, "tag " << tag << " is reserved");

  // Message-fault site: a transient fault models a dropped message that
  // succeeds on retransmit — each failed attempt charges backoff to the
  // simulated clock. A permanent fault (or an exhausted retry budget)
  // escalates and aborts the region.
  if (faults::FaultInjector::instance().active()) {
    const faults::RetryPolicy policy = faults::RetryPolicy::from_env();
    for (int attempt = 1;; ++attempt) {
      try {
        faults::FaultInjector::instance().check(
            faults::Site::kCollective,
            "send to rank " + std::to_string(dest));
        break;
      } catch (const Error& e) {
        if (e.code() != ErrorCode::kTransientIoError) {
          throw;
        }
        if (attempt >= policy.max_attempts) {
          OOCC_THROW(ErrorCode::kRuntimeError,
                     "transient message fault persisted after "
                         << attempt << " attempts: " << e.what());
        }
        const double backoff =
            policy.backoff_s(attempt, cost().comm.send_overhead_s);
        clock_.advance(backoff);
        stats_.comm_time_s += backoff;
        ++stats_.retries;
      }
    }
  }

  clock_.advance(cost().comm.send_overhead_s);
  stats_.comm_time_s += cost().comm.send_overhead_s;

  Message m;
  m.source = rank_;
  m.tag = tag;
  m.arrival_time_s =
      clock_.now() + cost().comm.transfer_time(static_cast<double>(bytes));
  m.payload.resize(bytes);
  if (bytes > 0) {
    std::memcpy(m.payload.data(), data, bytes);
  }

  ++stats_.messages_sent;
  stats_.bytes_sent += bytes;
  machine_->mailboxes_[static_cast<std::size_t>(dest)]->push(std::move(m));
}

Message SpmdContext::recv_message(int source, int tag) {
  OOCC_REQUIRE(tag != kAbortTag, "tag " << tag << " is reserved");
  auto& box = *machine_->mailboxes_[static_cast<std::size_t>(rank_)];
  // The abort protocol: a failing rank pushes a kAbortTag message into every
  // mailbox, so a blocked receiver wakes up and unwinds instead of hanging.
  Mailbox::PopResult result = box.pop_matching_or_abort(source, tag, kAbortTag);
  if (result.aborted) {
    OOCC_THROW(ErrorCode::kRuntimeError,
               "SPMD region aborted by another rank");
  }
  Message m = std::move(result.message);
  const double before = clock_.now();
  clock_.wait_until(m.arrival_time_s);
  stats_.comm_time_s += clock_.now() - before;
  ++stats_.messages_received;
  stats_.bytes_received += m.payload.size();
  return m;
}

bool SpmdContext::probe(int source, int tag) {
  return machine_->mailboxes_[static_cast<std::size_t>(rank_)]->probe(source,
                                                                      tag);
}

io::AsyncEngine* SpmdContext::async_engine() noexcept {
  return machine_->engine_.get();
}

Machine::~Machine() = default;

MachineOptions MachineOptions::from_env() {
  MachineOptions o;
  o.async = env_flag_or("OOCC_ASYNC", true);
  o.io_threads = static_cast<int>(env_int("OOCC_IO_THREADS", 0));
  return o;
}

Machine::Machine(int nprocs, MachineCostModel cost_model)
    : Machine(nprocs, cost_model, MachineOptions::from_env()) {}

Machine::Machine(int nprocs, MachineCostModel cost_model,
                 MachineOptions options)
    : nprocs_(nprocs), cost_(cost_model), options_(options) {
  OOCC_REQUIRE(nprocs >= 1, "machine needs at least 1 processor, got "
                                << nprocs);
  mailboxes_.reserve(static_cast<std::size_t>(nprocs));
  for (int i = 0; i < nprocs; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
}

void Machine::abort_all() {
  for (auto& box : mailboxes_) {
    Message m;
    m.source = 0;
    m.tag = kAbortTag;
    box->push(std::move(m));
  }
}

RunReport Machine::run(const std::function<void(SpmdContext&)>& body) {
  // Discard everything left over from a previous failed region — abort
  // markers AND in-flight data messages. A restarted region reuses the
  // same tags, so a stale halo column from an aborted attempt would
  // otherwise be consumed in place of the fresh one and silently corrupt
  // the rerun.
  for (std::size_t r = 0; r < mailboxes_.size(); ++r) {
    const std::size_t dropped = mailboxes_[r]->clear();
    if (dropped != 0) {
      OOCC_DEBUG("sim", "rank " << r << ": dropped " << dropped
                                << " stale message(s) from a previous region");
    }
  }

  // Lazily bring up the real async I/O engine from the knobs captured at
  // construction time — run() itself never consults the environment, so a
  // server can pin each job to the snapshot it was admitted under.
  if (engine_ == nullptr && options_.async) {
    const int threads = options_.io_threads > 0
                            ? std::min(options_.io_threads, 64)
                            : std::max(1, std::min(nprocs_, 4));
    engine_ = std::make_unique<io::AsyncEngine>(threads);
  }
  const io::AsyncEngine::Counters engine_before =
      engine_ != nullptr ? engine_->counters() : io::AsyncEngine::Counters{};

  std::vector<std::unique_ptr<SpmdContext>> contexts;
  contexts.reserve(static_cast<std::size_t>(nprocs_));
  for (int r = 0; r < nprocs_; ++r) {
    contexts.push_back(
        std::unique_ptr<SpmdContext>(new SpmdContext(this, r)));
  }

  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nprocs_));
  std::atomic<bool> aborted{false};
  int first_failure = -1;  // the rank whose error started the abort

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nprocs_));
  for (int r = 0; r < nprocs_; ++r) {
    threads.emplace_back([&, r] {
      // Tag the host thread with its simulated rank so rank-filtered fault
      // specs (e.g. "read:rank=2") hit the right processor.
      faults::ThreadRankGuard rank_guard(r);
      try {
        body(*contexts[static_cast<std::size_t>(r)]);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        if (!aborted.exchange(true)) {
          first_failure = r;
          abort_all();
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  const auto wall_end = std::chrono::steady_clock::now();

  if (first_failure >= 0) {
    std::rethrow_exception(errors[static_cast<std::size_t>(first_failure)]);
  }

  // A clean region must not leave unmatched messages behind (abort messages
  // were consumed above on failure paths; here the region succeeded).
  for (int r = 0; r < nprocs_; ++r) {
    const std::size_t pending =
        mailboxes_[static_cast<std::size_t>(r)]->pending();
    if (pending != 0) {
      OOCC_WARN("sim", "rank " << r << " finished with " << pending
                               << " unconsumed message(s)");
    }
  }

  RunReport report;
  report.procs.reserve(static_cast<std::size_t>(nprocs_));
  for (auto& ctx : contexts) {
    ctx->stats_.sim_time_s = ctx->clock_.now();
    report.procs.push_back(ctx->stats_);
  }
  report.wall_time_s =
      std::chrono::duration<double>(wall_end - wall_start).count();
  if (engine_ != nullptr) {
    const io::AsyncEngine::Counters after = engine_->counters();
    report.async.enabled = true;
    report.async.threads = engine_->threads();
    report.async.jobs = after.jobs_completed - engine_before.jobs_completed;
    report.async.max_queue_depth = after.max_queue_depth;
    report.async.busy_s = after.busy_s - engine_before.busy_s;
    report.async.blocked_s = after.blocked_s - engine_before.blocked_s;
    report.async.overlap_s =
        std::max(0.0, report.async.busy_s - report.async.blocked_s);
  }
  return report;
}

}  // namespace oocc::sim
