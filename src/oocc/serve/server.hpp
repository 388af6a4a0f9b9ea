// The compile server: plan cache + admission control + worker scheduler.
//
// Layering (docs/serve.md):
//
//   SocketDaemon / stdio loop        framing: one JSON object per line
//        │  parse_request()          capture ExecProfile at request scope
//        ▼
//   Server::serve_one()              thread-safe synchronous core
//        │
//        ├─ PlanCache                single-flight compile, verified plans
//        ├─ AdmissionController      fair-share of the global budget
//        └─ run_job()                execute over a tenant-private LAF tree
//
// The synchronous core is what tests and the bench drive in-process; the
// daemon merely adds sockets, a worker pool and JSON framing on top. Every
// response is a single line; errors come back as {"ok":false,...} on the
// same connection — a malformed request never kills the server.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "oocc/io/file_backend.hpp"
#include "oocc/serve/admission.hpp"
#include "oocc/serve/job.hpp"
#include "oocc/serve/json.hpp"
#include "oocc/serve/plan_cache.hpp"

namespace oocc::serve {

struct ServerOptions {
  /// Global admission budget in elements, fair-shared across tenants. A
  /// job's footprint is nprocs × its per-processor compile budget.
  std::int64_t total_budget_elements = 1 << 22;
  /// Root of the per-tenant LAF trees; empty = a private TempDir removed on
  /// shutdown.
  std::filesystem::path work_root;
};

class Server {
 public:
  explicit Server(ServerOptions options);

  /// Parses one request line (see docs/serve.md for the schema) into a
  /// JobRequest, capturing the process-global ExecProfile *now* — at
  /// request scope — so later execution on a worker thread cannot observe
  /// knob changes that happened after the request was accepted. Throws
  /// Error(kParseError) on malformed input.
  JobRequest parse_request(const std::string& line) const;

  /// Thread-safe synchronous core: runs one job on the calling thread
  /// (compile ops never block on admission; run ops do). Throws on failure.
  JobResult serve_one(const JobRequest& req);

  /// JSON-in, JSON-out wrapper used by the daemon, the stdio loop and the
  /// tests. Never throws: parse/compile/run failures become
  /// {"ok":false,"error":...}. Handles the control ops (ping, stats,
  /// shutdown) that never reach serve_one.
  Json handle_line(const std::string& line);

  /// Renders a JobResult as the wire response object.
  static Json result_json(const JobResult& res);

  Json stats_json() const;

  /// One greppable line: "serve: N jobs (M in flight), cache ..., X.XX
  /// programs/s". The daemon prints it on shutdown; op=stats returns the
  /// same numbers as JSON.
  std::string stats_line() const;

  /// serve_socket's reader threads not yet joined: live connections plus
  /// finished ones it joins at its next accept. Reported by op=stats.
  void set_unjoined_readers(std::size_t n) noexcept {
    unjoined_readers_.store(static_cast<std::int64_t>(n),
                            std::memory_order_relaxed);
  }

  /// True once an op=shutdown request was handled.
  bool shutdown_requested() const noexcept {
    return shutdown_.load(std::memory_order_acquire);
  }

  PlanCache& cache() noexcept { return cache_; }
  AdmissionController& admission() noexcept { return admission_; }
  const std::filesystem::path& work_root() const noexcept { return root_; }

 private:
  std::filesystem::path tenant_root(const std::string& tenant);

  ServerOptions options_;
  std::unique_ptr<io::TempDir> owned_root_;
  std::filesystem::path root_;
  PlanCache cache_;
  AdmissionController admission_;
  mutable std::mutex tenants_mu_;
  std::set<std::string> known_tenants_;
  std::atomic<std::uint64_t> jobs_done_{0};
  std::atomic<std::uint64_t> jobs_failed_{0};
  std::atomic<int> jobs_in_flight_{0};
  std::atomic<std::int64_t> unjoined_readers_{0};
  std::atomic<bool> shutdown_{false};
  std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();
};

/// The longest request line either front end accepts, newline excluded.
/// A longer line gets one {"ok":false,"code":"ParseError"} response and no
/// more of it is buffered: the socket route then closes the connection,
/// the stdio route skips to the next newline.
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{4} << 20;

/// Reads one request line at a time from `in`, writes one response line to
/// `out` (the daemon's --stdio mode; also what tests drive with string
/// streams). Returns when the stream ends or a shutdown request arrives.
void serve_stdio(Server& server, std::istream& in, std::ostream& out);

/// Unix-domain-socket front end: accept loop + per-connection readers + a
/// pool of worker threads executing jobs (so one connection can have many
/// jobs in flight). `workers` ≤ 0 means 2×hardware_concurrency capped at 8.
/// Blocks until a shutdown request; removes the socket file on exit.
/// Returns the number of connections served.
int serve_socket(Server& server, const std::filesystem::path& socket_path,
                 int workers = 0);

}  // namespace oocc::serve
