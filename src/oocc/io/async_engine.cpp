#include "oocc/io/async_engine.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "oocc/util/faults.hpp"

namespace oocc::io {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

struct AsyncEngine::Ticket::State {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::exception_ptr error;
  AsyncEngine* engine = nullptr;
};

void AsyncEngine::Ticket::wait() {
  if (state_ == nullptr) {
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lk(state_->mu);
    state_->cv.wait(lk, [&] { return state_->done; });
    error = state_->error;
  }
  state_->engine->note_blocked(seconds_since(t0));
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

AsyncEngine::AsyncEngine(int threads) {
  const int n = std::max(1, threads);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

AsyncEngine::~AsyncEngine() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

AsyncEngine::Ticket AsyncEngine::submit(const void* stream,
                                        std::function<void()> job) {
  auto state = std::make_shared<Ticket::State>();
  state->engine = this;
  Job j;
  j.fn = std::move(job);
  j.state = state;
  j.rank = faults::thread_rank();
  {
    std::lock_guard<std::mutex> lk(mu_);
    Stream& st = streams_[stream];
    const bool was_idle = !st.running && st.queue.empty();
    st.queue.push_back(std::move(j));
    ++counters_.jobs_submitted;
    ++inflight_;
    counters_.max_queue_depth = std::max(counters_.max_queue_depth, inflight_);
    if (was_idle) {
      ready_.push_back(stream);
    }
  }
  work_cv_.notify_one();
  return Ticket(std::move(state));
}

AsyncEngine::Counters AsyncEngine::counters() const {
  std::lock_guard<std::mutex> lk(mu_);
  return counters_;
}

void AsyncEngine::note_blocked(double seconds) {
  std::lock_guard<std::mutex> lk(mu_);
  counters_.blocked_s += seconds;
}

void AsyncEngine::worker_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    work_cv_.wait(lk, [&] { return stop_ || !ready_.empty(); });
    if (ready_.empty()) {
      // stop_ is set and no stream is ready. A stream still running on
      // another worker re-queues itself on completion and that worker
      // keeps draining it, so exiting here never strands a job.
      return;
    }
    const void* key = ready_.front();
    ready_.pop_front();
    Stream& st = streams_[key];
    Job job = std::move(st.queue.front());
    st.queue.pop_front();
    st.running = true;
    lk.unlock();

    const auto t0 = std::chrono::steady_clock::now();
    std::exception_ptr error;
    {
      // Fault sites reached inside the job fire with the submitting
      // rank's identity.
      faults::ThreadRankGuard rank_guard(job.rank);
      try {
        job.fn();
      } catch (...) {
        error = std::current_exception();
      }
    }
    const double busy = seconds_since(t0);
    lk.lock();
    // Engine counters are updated BEFORE the ticket is signalled, so a
    // caller returning from wait() observes its job in jobs_completed.
    counters_.busy_s += busy;
    ++counters_.jobs_completed;
    --inflight_;
    lk.unlock();
    {
      std::lock_guard<std::mutex> slk(job.state->mu);
      job.state->error = error;
      job.state->done = true;
    }
    job.state->cv.notify_all();

    lk.lock();
    Stream& done_stream = streams_[key];
    done_stream.running = false;
    if (!done_stream.queue.empty()) {
      ready_.push_back(key);
      work_cv_.notify_one();
    } else {
      streams_.erase(key);
    }
  }
}

}  // namespace oocc::io
