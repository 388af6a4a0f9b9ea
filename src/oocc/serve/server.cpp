#include "oocc/serve/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <istream>
#include <ostream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "oocc/hpf/parser.hpp"
#include "oocc/hpf/programs.hpp"
#include "oocc/util/log.hpp"

namespace oocc::serve {

namespace {

Json error_response(const std::string& id, const std::string& code,
                    const char* what) {
  Json out = Json::object();
  out.set("id", id);
  out.set("ok", false);
  out.set("code", code);
  out.set("error", what);
  return out;
}

/// The one response to a request line longer than kMaxRequestLineBytes.
Json oversized_line_response() {
  const Error e(ErrorCode::kParseError,
                "request line longer than " +
                    std::to_string(kMaxRequestLineBytes) + " bytes");
  return error_response("", std::string(error_code_name(e.code())),
                        e.what());
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Tenant names become directory components; keep them boring. '/' and
/// every other non-portable character map to '_', so the result is always
/// a single path component; a leading '.' also maps to '_' so "." and ".."
/// (which would resolve outside the work root and later be remove_all'd by
/// the job DirGuard) and hidden directories are impossible by construction.
std::string sanitize_tenant(const std::string& tenant) {
  std::string out;
  for (const char c : tenant) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                    c == '.';
    out.push_back(ok ? c : '_');
  }
  if (out.empty()) {
    out = "default";
  }
  if (out.front() == '.') {
    out.front() = '_';
  }
  return out;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      admission_(options_.total_budget_elements) {
  if (options_.work_root.empty()) {
    owned_root_ = std::make_unique<io::TempDir>("oocc-serve");
    root_ = owned_root_->path();
  } else {
    root_ = options_.work_root;
    std::filesystem::create_directories(root_);
  }
}

std::filesystem::path Server::tenant_root(const std::string& tenant) {
  const std::string safe = sanitize_tenant(tenant);
  const std::filesystem::path dir = root_ / safe;
  std::lock_guard<std::mutex> lock(tenants_mu_);
  if (known_tenants_.insert(safe).second) {
    std::filesystem::create_directories(dir);
  }
  return dir;
}

JobRequest Server::parse_request(const std::string& line) const {
  const Json req = Json::parse(line);
  OOCC_CHECK(req.is_object(), ErrorCode::kParseError,
             "request must be a JSON object, got: " << line.substr(0, 80));

  JobRequest job;
  job.id = req.get_string("id", "");
  job.tenant = req.get_string("tenant", "default");

  const std::string op = req.get_string("op", "compile");
  if (op == "compile") {
    job.op = JobOp::kCompile;
  } else if (op == "run") {
    job.op = JobOp::kRun;
  } else {
    OOCC_THROW(ErrorCode::kParseError, "unknown op '" << op << "'");
  }

  if (req.has("program")) {
    job.source = req.get_string("program", "");
  } else if (req.has("builtin")) {
    const std::string builtin = req.get_string("builtin", "");
    const std::int64_t n = req.get_int("n", 64);
    const std::int64_t p = req.get_int("p", 4);
    if (builtin == "gaxpy") {
      job.source = hpf::gaxpy_source(n, p);
    } else if (builtin == "elementwise") {
      job.source = hpf::elementwise_source(n, n, p, 3);
    } else if (builtin == "stencil") {
      job.source = hpf::stencil_source(n, p);
    } else {
      OOCC_THROW(ErrorCode::kParseError,
                 "unknown builtin '" << builtin << "'");
    }
  } else {
    OOCC_THROW(ErrorCode::kParseError,
               "request needs \"program\" or \"builtin\"");
  }

  compiler::CompileOptions& o = job.options;
  o.memory_budget_elements = req.get_int("memory", 0);
  o.memory_strategy = req.get_bool("equal_split", false)
                          ? compiler::MemoryStrategy::kEqualSplit
                          : compiler::MemoryStrategy::kAccessWeighted;
  o.enable_access_reorganization = req.get_bool("access_reorg", true);
  o.enable_storage_reorganization = req.get_bool("storage_reorg", true);
  o.enable_statement_fusion = req.get_bool("fuse", true);
  const std::string prefetch = req.get_string("prefetch", "off");
  if (prefetch == "off") {
    o.prefetch = compiler::PrefetchMode::kOff;
  } else if (prefetch == "on") {
    o.prefetch = compiler::PrefetchMode::kOn;
  } else if (prefetch == "auto") {
    o.prefetch = compiler::PrefetchMode::kAuto;
  } else {
    OOCC_THROW(ErrorCode::kParseError,
               "unknown prefetch mode '" << prefetch << "'");
  }
  const std::string opt = req.get_string("opt", "heuristic");
  if (opt == "heuristic") {
    o.opt = compiler::OptMode::kHeuristic;
  } else if (opt == "search") {
    o.opt = compiler::OptMode::kSearch;
  } else {
    OOCC_THROW(ErrorCode::kParseError,
               "unknown optimizer mode '" << opt << "'");
  }
  o.search_passes =
      static_cast<int>(req.get_int("search_passes", o.search_passes));
  o.verify = req.get_bool("verify", true);

  job.max_iters = static_cast<int>(req.get_int("iters", 10));
  job.residual_tol = req.get_double("tol", 0.0);

  // Request scope is THE capture point for process-global knobs: whatever
  // OOCC_ASYNC / OOCC_NO_VERIFY / OOCC_NO_CACHE / OOCC_JOURNAL /
  // OOCC_IO_THREADS say right now travels with the job, however long it
  // queues and whichever worker finally runs it.
  job.profile = ExecProfile::capture();
  return job;
}

JobResult Server::serve_one(const JobRequest& req) {
  jobs_in_flight_.fetch_add(1, std::memory_order_relaxed);
  try {
    JobResult res =
        run_job(req, cache_, admission_, tenant_root(req.tenant));
    jobs_in_flight_.fetch_sub(1, std::memory_order_relaxed);
    jobs_done_.fetch_add(1, std::memory_order_relaxed);
    return res;
  } catch (...) {
    jobs_in_flight_.fetch_sub(1, std::memory_order_relaxed);
    jobs_failed_.fetch_add(1, std::memory_order_relaxed);
    throw;
  }
}

Json Server::result_json(const JobResult& res) {
  Json out = Json::object();
  out.set("id", res.id);
  out.set("ok", true);
  out.set("tenant", res.tenant);
  out.set("key", res.key.to_string());
  out.set("key_digest", hex64(res.key.digest()));
  out.set("program_hash", hex64(res.key.program_hash));
  out.set("cache_hit", res.cache_hit);
  out.set("plans", res.plan_count);
  out.set("memory", res.memory_budget_elements);
  out.set("footprint", res.footprint_elements);
  out.set("wait_s", res.admission_wait_s);
  if (res.wall_time_s > 0.0 || res.io_requests > 0) {
    out.set("sim_s", res.sim_time_s);
    out.set("wall_s", res.wall_time_s);
    out.set("io_requests", res.io_requests);
    out.set("result_hash", hex64(res.result_hash));
    if (res.stencil_iterations > 0) {
      out.set("iterations", res.stencil_iterations);
      out.set("residual", res.stencil_residual);
    }
  }
  return out;
}

Json Server::handle_line(const std::string& line) {
  std::string id;
  try {
    // Control ops are cheap to special-case before full request parsing.
    const Json req = Json::parse(line);
    OOCC_CHECK(req.is_object(), ErrorCode::kParseError,
               "request must be a JSON object");
    id = req.get_string("id", "");
    const std::string op = req.get_string("op", "compile");
    if (op == "ping") {
      Json out = Json::object();
      out.set("id", id);
      out.set("ok", true);
      out.set("pong", true);
      return out;
    }
    if (op == "stats") {
      Json out = Json::object();
      out.set("id", id);
      out.set("ok", true);
      out.set("stats", stats_json());
      return out;
    }
    if (op == "shutdown") {
      shutdown_.store(true, std::memory_order_release);
      Json out = Json::object();
      out.set("id", id);
      out.set("ok", true);
      out.set("shutdown", true);
      return out;
    }
    return result_json(serve_one(parse_request(line)));
  } catch (const Error& e) {
    return error_response(id, std::string(error_code_name(e.code())),
                          e.what());
  } catch (const std::exception& e) {
    return error_response(id, "exception", e.what());
  }
}

Json Server::stats_json() const {
  const PlanCache::Stats cs = cache_.stats();
  const AdmissionController::Stats as = admission_.stats();
  const double up_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_)
          .count();
  const std::uint64_t done = jobs_done_.load(std::memory_order_relaxed);

  Json cache = Json::object();
  cache.set("hits", cs.hits);
  cache.set("misses", cs.misses);
  cache.set("inflight_waits", cs.inflight_waits);
  cache.set("failures", cs.failures);
  cache.set("entries", static_cast<std::int64_t>(cs.entries));

  Json admission = Json::object();
  admission.set("total_elements", as.total_elements);
  admission.set("in_use_elements", as.in_use_elements);
  admission.set("peak_in_use_elements", as.peak_in_use_elements);
  admission.set("admitted", as.admitted);
  admission.set("waits", as.waits);
  admission.set("wait_time_s", as.wait_time_s);
  admission.set("waiting_jobs", as.waiting_jobs);
  Json tenants = Json::object();
  for (const auto& [name, ts] : as.tenants) {
    Json t = Json::object();
    t.set("admitted", ts.admitted);
    t.set("waits", ts.waits);
    t.set("wait_time_s", ts.wait_time_s);
    t.set("elements_in_use", ts.elements_in_use);
    t.set("jobs_in_flight", ts.jobs_in_flight);
    tenants.set(name, std::move(t));
  }
  admission.set("tenants", std::move(tenants));

  Json jobs = Json::object();
  jobs.set("done", done);
  jobs.set("failed", jobs_failed_.load(std::memory_order_relaxed));
  jobs.set("in_flight", jobs_in_flight_.load(std::memory_order_relaxed));

  Json socket = Json::object();
  socket.set("unjoined_readers",
             unjoined_readers_.load(std::memory_order_relaxed));

  Json out = Json::object();
  out.set("cache", std::move(cache));
  out.set("admission", std::move(admission));
  out.set("jobs", std::move(jobs));
  out.set("socket", std::move(socket));
  out.set("uptime_s", up_s);
  out.set("programs_per_sec", up_s > 0.0 ? static_cast<double>(done) / up_s
                                         : 0.0);
  return out;
}

std::string Server::stats_line() const {
  const PlanCache::Stats cs = cache_.stats();
  const AdmissionController::Stats as = admission_.stats();
  const double up_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_)
          .count();
  const std::uint64_t done = jobs_done_.load(std::memory_order_relaxed);
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "serve: %llu jobs (%d in flight), cache %llu hits / %llu misses / "
      "%llu joins, admission %llu waits %.2fs, %.2f programs/s",
      static_cast<unsigned long long>(done),
      jobs_in_flight_.load(std::memory_order_relaxed),
      static_cast<unsigned long long>(cs.hits),
      static_cast<unsigned long long>(cs.misses),
      static_cast<unsigned long long>(cs.inflight_waits),
      static_cast<unsigned long long>(as.waits), as.wait_time_s,
      up_s > 0.0 ? static_cast<double>(done) / up_s : 0.0);
  return buf;
}

void serve_stdio(Server& server, std::istream& in, std::ostream& out) {
  std::streambuf& src = *in.rdbuf();
  std::string line;
  for (;;) {
    // One line, at most kMaxRequestLineBytes of it kept.
    line.clear();
    bool oversized = false;
    int c = src.sbumpc();
    for (; c != '\n' && c != std::char_traits<char>::eof();
         c = src.sbumpc()) {
      if (line.size() < kMaxRequestLineBytes) {
        line.push_back(static_cast<char>(c));
      } else {
        oversized = true;
      }
    }
    if (c == std::char_traits<char>::eof() && line.empty()) {
      break;
    }
    if (line.empty()) {
      continue;
    }
    out << (oversized ? oversized_line_response() : server.handle_line(line))
               .dump()
        << "\n";
    out.flush();
    if (server.shutdown_requested()) {
      break;
    }
  }
}

namespace {

/// One accepted connection: reader thread + serialized writes. Jobs run on
/// the shared worker pool, so a single connection can keep several jobs in
/// flight; responses carry the request id for correlation.
struct Connection {
  int fd = -1;
  std::mutex write_mu;
  std::atomic<int> pending{0};  ///< jobs queued or running
  std::atomic<bool> closed{false};
  std::atomic<bool> finished{false};  ///< the reader thread is done

  /// Best-effort framed write. MSG_NOSIGNAL: a client that disconnected
  /// mid-job must not SIGPIPE the daemon; the response is simply dropped.
  void write_line(const std::string& line) {
    std::lock_guard<std::mutex> lock(write_mu);
    if (closed.load(std::memory_order_acquire)) {
      return;
    }
    std::string framed = line;
    framed.push_back('\n');
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = ::send(fd, framed.data() + off, framed.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) {
        closed.store(true, std::memory_order_release);
        return;
      }
      off += static_cast<std::size_t>(n);
    }
  }

  /// Unblocks a reader parked in recv() on an idle client (daemon
  /// shutdown): half-close the read side; pending responses still flush.
  /// write_mu guards against racing close_fd — shutting down a recycled
  /// fd number would hit an unrelated descriptor.
  void shutdown_read() {
    std::lock_guard<std::mutex> lock(write_mu);
    if (!closed.load(std::memory_order_acquire)) {
      ::shutdown(fd, SHUT_RD);
    }
  }

  /// Final close, owned by the reader thread once its drain completes.
  void close_fd() {
    std::lock_guard<std::mutex> lock(write_mu);
    closed.store(true, std::memory_order_release);
    ::close(fd);
  }
};

struct WorkItem {
  std::shared_ptr<Connection> conn;
  std::string line;
};

class WorkQueue {
 public:
  void push(WorkItem item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
  }

  /// Blocks for work; empty conn means "stop".
  WorkItem pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return stopped_ || !items_.empty(); });
    if (items_.empty()) {
      return {};
    }
    WorkItem item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopped_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<WorkItem> items_;
  bool stopped_ = false;
};

}  // namespace

int serve_socket(Server& server, const std::filesystem::path& socket_path,
                 int workers) {
  if (workers <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    workers = static_cast<int>(std::min(8u, std::max(2u, 2 * hw)));
  }

  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  OOCC_CHECK(listen_fd >= 0, ErrorCode::kIoError,
             "socket() failed: " << std::strerror(errno));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string path = socket_path.string();
  OOCC_CHECK(path.size() < sizeof(addr.sun_path), ErrorCode::kInvalidArgument,
             "socket path too long: " << path);
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());
  OOCC_CHECK(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)) == 0,
             ErrorCode::kIoError,
             "bind(" << path << ") failed: " << std::strerror(errno));
  OOCC_CHECK(::listen(listen_fd, 64) == 0, ErrorCode::kIoError,
             "listen(" << path << ") failed: " << std::strerror(errno));

  WorkQueue queue;
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    pool.emplace_back([&] {
      for (;;) {
        WorkItem item = queue.pop();
        if (item.conn == nullptr) {
          return;
        }
        const Json response = server.handle_line(item.line);
        item.conn->write_line(response.dump());
        item.conn->pending.fetch_sub(1, std::memory_order_acq_rel);
      }
    });
  }

  // Accept loop. A shutdown request flips the server flag; the accept loop
  // notices after at most one more accept because handle_line runs on the
  // workers — so shutdown closes the listener from a helper thread instead.
  std::atomic<bool> accepting{true};
  std::thread shutdown_watch([&] {
    while (accepting.load(std::memory_order_acquire) &&
           !server.shutdown_requested()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ::shutdown(listen_fd, SHUT_RDWR);
    ::close(listen_fd);
  });

  int connections = 0;
  std::vector<std::thread> readers;
  std::vector<std::shared_ptr<Connection>> conns;  // main-thread only
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      break;  // listener closed (shutdown) or fatal error
    }
    ++connections;
    // Join the readers whose connection has finished: an exited thread
    // keeps its stack mapped until it is joined.
    for (std::size_t i = 0; i < readers.size();) {
      if (conns[i]->finished.load(std::memory_order_acquire)) {
        readers[i].join();
        readers.erase(readers.begin() + static_cast<std::ptrdiff_t>(i));
        conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    server.set_unjoined_readers(readers.size() + 1);
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conns.push_back(conn);
    readers.emplace_back([&server, &queue, conn] {
      std::string buffer;  // the unfinished line
      char chunk[4096];
      for (;;) {
        const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
        if (n <= 0) {
          break;  // disconnect (mid-job is fine: responses are dropped)
        }
        std::size_t start = 0;
        std::size_t pos = buffer.size();
        buffer.append(chunk, static_cast<std::size_t>(n));
        bool oversized = false;
        while ((pos = buffer.find('\n', pos)) != std::string::npos) {
          oversized = pos - start > kMaxRequestLineBytes;
          if (oversized) {
            break;
          }
          if (pos > start) {
            conn->pending.fetch_add(1, std::memory_order_acq_rel);
            queue.push(WorkItem{conn, buffer.substr(start, pos - start)});
          }
          start = ++pos;
        }
        buffer.erase(0, start);
        if (oversized || buffer.size() > kMaxRequestLineBytes) {
          // The rest of the line is never read: answer it and hang up.
          conn->write_line(oversized_line_response().dump());
          break;
        }
        if (server.shutdown_requested()) {
          break;
        }
      }
      // Drain: in-flight jobs of this connection still complete (their
      // writes turn into no-ops once the peer is gone).
      while (conn->pending.load(std::memory_order_acquire) > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      conn->close_fd();
      conn->finished.store(true, std::memory_order_release);
    });
  }

  accepting.store(false, std::memory_order_release);
  shutdown_watch.join();
  // The listener is closed, so no new connections arrive; readers parked
  // in recv() on clients that sent nothing would otherwise block the join
  // loop forever — half-close every live connection to wake them.
  for (const auto& conn : conns) {
    conn->shutdown_read();
  }
  for (std::thread& t : readers) {
    t.join();
  }
  queue.stop();
  for (std::thread& t : pool) {
    t.join();
  }
  ::unlink(path.c_str());
  return connections;
}

}  // namespace oocc::serve
