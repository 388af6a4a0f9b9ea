// Tests for the compile server: canonical hashing, single-flight plan
// caching, admission fairness (round-robin, no head-of-line blocking,
// anti-starvation barrier), protocol robustness (malformed and deeply
// nested requests, over-long operator chains and request lines, mid-job
// disconnects, reaping finished connection readers), request-scoped
// environment capture, and the bit-identity of cached executions against
// fresh ones and against a serial oocc_compile run.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "oocc/hpf/parser.hpp"
#include "oocc/hpf/programs.hpp"
#include "oocc/io/file_backend.hpp"
#include "oocc/serve/admission.hpp"
#include "oocc/serve/hash.hpp"
#include "oocc/serve/job.hpp"
#include "oocc/serve/json.hpp"
#include "oocc/serve/plan_cache.hpp"
#include "oocc/serve/server.hpp"

#ifndef OOCC_COMPILE_BIN
#define OOCC_COMPILE_BIN ""
#endif

namespace {

using namespace oocc;
using namespace oocc::serve;
using namespace std::chrono_literals;

hpf::BoundProgram analyze_source(const std::string& source) {
  return hpf::analyze(hpf::parse(source));
}

// ---------------------------------------------------------------------------
// Canonical hashing / PlanKey

TEST(ServeHash, InsensitiveToFormattingSensitiveToMeaning) {
  const std::string base = hpf::stencil_source(32, 2);
  // Reformat: extra blank lines and a comment must not change the hash.
  const std::string reformatted = "! a comment\n\n" + base + "\n\n";
  EXPECT_EQ(canonical_program_hash(analyze_source(base)),
            canonical_program_hash(analyze_source(reformatted)));

  // Different N, P, or program: different hash.
  EXPECT_NE(canonical_program_hash(analyze_source(base)),
            canonical_program_hash(analyze_source(hpf::stencil_source(64, 2))));
  EXPECT_NE(canonical_program_hash(analyze_source(base)),
            canonical_program_hash(analyze_source(hpf::stencil_source(32, 4))));
  EXPECT_NE(canonical_program_hash(analyze_source(base)),
            canonical_program_hash(analyze_source(hpf::gaxpy_source(32, 2))));
}

TEST(ServeHash, PlanKeyCapturesKnobs) {
  const hpf::BoundProgram bound = analyze_source(hpf::gaxpy_source(32, 2));
  compiler::CompileOptions o;
  o.memory_budget_elements = default_memory_budget(bound);
  const PlanKey base = make_plan_key(bound, o);
  EXPECT_EQ(base, make_plan_key(bound, o));

  compiler::CompileOptions o2 = o;
  o2.enable_statement_fusion = false;
  EXPECT_NE(base, make_plan_key(bound, o2));
  compiler::CompileOptions o3 = o;
  o3.prefetch = compiler::PrefetchMode::kOn;
  EXPECT_NE(base, make_plan_key(bound, o3));
  compiler::CompileOptions o4 = o;
  o4.memory_budget_elements += 1;
  EXPECT_NE(base, make_plan_key(bound, o4));

  // The cost models feed lowering decisions (kAuto prefetch pricing), so a
  // recalibrated disk or machine must land on a different key.
  compiler::CompileOptions o5 = o;
  o5.disk.request_overhead_s *= 2.0;
  EXPECT_NE(base, make_plan_key(bound, o5));
  compiler::CompileOptions o6 = o;
  o6.machine = sim::MachineCostModel::zero();
  EXPECT_NE(base, make_plan_key(bound, o6));

  EXPECT_NE(base.to_string().find("p=2"), std::string::npos);
}

TEST(ServeHash, PlanKeyCapturesOptimizerMode) {
  // Searched and heuristic plans can differ in every knob the key cannot
  // see (slab sizes, fusion grouping, prefetch), so they must land on
  // different cache entries — and a different search depth too.
  const hpf::BoundProgram bound = analyze_source(hpf::gaxpy_source(32, 2));
  compiler::CompileOptions o;
  o.memory_budget_elements = default_memory_budget(bound);
  const PlanKey heuristic = make_plan_key(bound, o);

  compiler::CompileOptions s = o;
  s.opt = compiler::OptMode::kSearch;
  const PlanKey searched = make_plan_key(bound, s);
  EXPECT_NE(heuristic, searched);
  EXPECT_NE(heuristic.digest(), searched.digest());

  compiler::CompileOptions deeper = s;
  deeper.search_passes = s.search_passes + 3;
  EXPECT_NE(searched, make_plan_key(bound, deeper));

  // Under kHeuristic the search_passes knob is dead: folding it into the
  // key would split the cache across identical plans.
  compiler::CompileOptions h2 = o;
  h2.search_passes = o.search_passes + 3;
  EXPECT_EQ(heuristic, make_plan_key(bound, h2));

  // The rendered key names the optimizer, and passes only when searching.
  EXPECT_NE(searched.to_string().find("opt=search"), std::string::npos);
  EXPECT_NE(searched.to_string().find("passes="), std::string::npos);
  EXPECT_NE(heuristic.to_string().find("opt=heuristic"), std::string::npos);
  EXPECT_EQ(heuristic.to_string().find("passes="), std::string::npos);
}

TEST(ServeHash, DefaultMemoryBudgetMatchesCliRule) {
  const hpf::BoundProgram bound = analyze_source(hpf::gaxpy_source(64, 4));
  std::int64_t largest = 0;
  for (const auto& [name, info] : bound.arrays) {
    largest = std::max(largest, info.dist.local_elements(0));
  }
  const std::int64_t want =
      largest / 4 + 4 * (largest > 0 ? bound.arrays.begin()->second.rows : 1);
  EXPECT_EQ(default_memory_budget(bound), want);
}

// ---------------------------------------------------------------------------
// JSON

TEST(ServeJson, RoundTripsRequests) {
  const std::string line =
      "{\"op\":\"run\",\"tenant\":\"t0\",\"n\":64,\"tol\":0.5,"
      "\"program\":\"line1\\nline2\",\"fuse\":false}";
  const Json v = Json::parse(line);
  EXPECT_EQ(v.get_string("op", ""), "run");
  EXPECT_EQ(v.get_int("n", 0), 64);
  EXPECT_DOUBLE_EQ(v.get_double("tol", 0.0), 0.5);
  EXPECT_EQ(v.get_string("program", ""), "line1\nline2");
  EXPECT_FALSE(v.get_bool("fuse", true));

  // dump() must stay single-line even with embedded newlines.
  const std::string dumped = v.dump();
  EXPECT_EQ(dumped.find('\n'), std::string::npos);
  const Json again = Json::parse(dumped);
  EXPECT_EQ(again.get_string("program", ""), "line1\nline2");
}

TEST(ServeJson, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse("{\"a\":"), Error);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), Error);
  EXPECT_THROW(Json::parse("{'a':1}"), Error);
  EXPECT_THROW(Json::parse(""), Error);
}

TEST(ServeJson, NestingDepthIsCapped) {
  // Past 256 levels, nesting is a structured parse error, not a stack
  // overflow that kills the daemon (one 400 KB line of '[').
  EXPECT_EQ(Json::parse(std::string(200, '[') + std::string(200, ']'))
                .dump()
                .size(),
            400u);
  try {
    Json::parse(std::string(400000, '['));
    FAIL() << "deep nesting parsed";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParseError);
  }
  Server server(ServerOptions{});
  const Json res = server.handle_line(std::string(400000, '['));
  EXPECT_FALSE(res.get_bool("ok", true)) << res.dump();
}

// ---------------------------------------------------------------------------
// PlanCache

TEST(PlanCache, ConcurrentRequestsCompileOnce) {
  PlanCache cache;
  const hpf::BoundProgram bound = analyze_source(hpf::stencil_source(32, 2));
  compiler::CompileOptions o;
  o.memory_budget_elements = default_memory_budget(bound);
  const PlanKey key = make_plan_key(bound, o);

  std::atomic<int> compiles{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const CachedPlan>> results(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      results[static_cast<std::size_t>(i)] = cache.get_or_compile(key, [&] {
        compiles.fetch_add(1);
        std::this_thread::sleep_for(20ms);  // widen the race window
        return compiler::compile_sequence(bound, o);
      });
    });
  }
  for (auto& t : threads) {
    t.join();
  }

  EXPECT_EQ(compiles.load(), 1) << "single-flight violated: duplicate compile";
  for (const auto& r : results) {
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r.get(), results[0].get()) << "joiners must share the entry";
    ASSERT_FALSE(r->plans.empty());
    EXPECT_TRUE(r->plans.front().verified)
        << "cache must store verified plans (hits skip re-verification)";
  }
  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits + stats.inflight_waits, kThreads - 1u);
}

TEST(PlanCache, FailurePropagatesAndRetries) {
  PlanCache cache;
  PlanKey key;
  key.program_hash = 0xdead;
  int calls = 0;
  const auto failing = [&]() -> std::vector<compiler::NodeProgram> {
    ++calls;
    OOCC_THROW(ErrorCode::kCompileError, "boom");
  };
  EXPECT_THROW(cache.get_or_compile(key, failing), Error);
  // The key was forgotten: a later request retries instead of replaying the
  // stale exception.
  EXPECT_THROW(cache.get_or_compile(key, failing), Error);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(cache.stats().failures, 2u);
  EXPECT_EQ(cache.lookup(key), nullptr);
}

// ---------------------------------------------------------------------------
// Admission control

TEST(Admission, OversizedJobIsRejectedImmediately) {
  AdmissionController ac(1000);
  try {
    ac.acquire("t", 1001);
    FAIL() << "expected kResourceExhausted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kResourceExhausted);
  }
}

TEST(Admission, NeverOversubscribesAndTracksPeak) {
  AdmissionController ac(1000);
  auto g1 = ac.acquire("a", 600);
  auto g2 = ac.acquire("b", 300);
  EXPECT_EQ(ac.stats().in_use_elements, 900);
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    auto g3 = ac.acquire("c", 300);  // 900+300 > 1000: must wait
    admitted.store(true);
    g3.release();
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(admitted.load()) << "budget was oversubscribed";
  EXPECT_EQ(ac.stats().waiting_jobs, 1);
  g2.release();
  waiter.join();
  EXPECT_TRUE(admitted.load());
  g1.release();
  const auto stats = ac.stats();
  EXPECT_EQ(stats.in_use_elements, 0);
  EXPECT_EQ(stats.peak_in_use_elements, 900);
  EXPECT_LE(stats.peak_in_use_elements, stats.total_elements);
}

TEST(Admission, SmallJobFlowsPastQueuedGiant) {
  // A big-budget job waiting in the queue must not starve another tenant's
  // small job that currently fits (no cross-tenant head-of-line blocking).
  AdmissionController ac(1000);
  auto big_holder = ac.acquire("a", 800);

  std::atomic<bool> giant_admitted{false};
  std::thread giant([&] {
    auto g = ac.acquire("a2", 800);  // cannot fit until big_holder releases
    giant_admitted.store(true);
    g.release();
  });
  // Wait until the giant is queued.
  while (ac.stats().waiting_jobs == 0) {
    std::this_thread::sleep_for(1ms);
  }

  // The small job fits (800+100 <= 1000) and must be admitted promptly even
  // though the giant queued first.
  const auto t0 = std::chrono::steady_clock::now();
  auto small = ac.acquire("b", 100);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(waited, 1.0);
  EXPECT_FALSE(giant_admitted.load());
  small.release();
  big_holder.release();
  giant.join();
  EXPECT_TRUE(giant_admitted.load());
  EXPECT_GE(ac.stats().tenants.at("a2").waits, 1u);
}

TEST(Admission, StarvedGiantBecomesBarrier) {
  // After kStarvationLimit pass-overs, the queued giant blocks younger
  // admissions, so a steady stream of small jobs cannot starve it forever.
  AdmissionController ac(1000);
  auto holder = ac.acquire("s", 600);

  std::atomic<int> order{0};
  std::atomic<int> giant_order{-1};
  std::thread giant([&] {
    // 950 (not 900): the late 100-element job below must not co-fit with
    // the giant in one grant pass, or the two wakeups race to record order.
    auto g = ac.acquire("big", 950);
    giant_order.store(order.fetch_add(1));
    g.release();
  });
  while (ac.stats().waiting_jobs == 0) {
    std::this_thread::sleep_for(1ms);
  }

  // Each small admission passes the giant over once.
  for (int i = 0; i < AdmissionController::kStarvationLimit; ++i) {
    auto g = ac.acquire("small", 100);
    g.release();
  }

  // The barrier is now armed: a younger small job must queue behind the
  // giant even though 100 elements would fit.
  std::atomic<int> late_order{-1};
  std::thread late([&] {
    auto g = ac.acquire("late", 100);
    late_order.store(order.fetch_add(1));
    g.release();
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(late_order.load(), -1) << "barrier ignored: younger job admitted";
  EXPECT_EQ(ac.stats().waiting_jobs, 2);

  holder.release();  // 0 in use -> giant (the barrier) admitted first
  giant.join();
  late.join();
  EXPECT_LT(giant_order.load(), late_order.load())
      << "giant must be admitted before jobs that queued after the barrier";
}

// ---------------------------------------------------------------------------
// Server protocol

TEST(Server, MalformedRequestsGetErrorResponsesAndServerSurvives) {
  Server server(ServerOptions{});
  const Json bad = server.handle_line("{\"op\":");
  EXPECT_FALSE(bad.get_bool("ok", true));
  EXPECT_EQ(bad.get_string("code", ""), "ParseError");

  const Json bad2 = server.handle_line("{\"op\":\"run\",\"id\":\"x\"}");
  EXPECT_FALSE(bad2.get_bool("ok", true));
  EXPECT_EQ(bad2.get_string("id", ""), "x");

  const Json bad3 = server.handle_line(
      "{\"op\":\"compile\",\"program\":\"this is not hpf\"}");
  EXPECT_FALSE(bad3.get_bool("ok", true));

  // The server still serves valid requests afterwards.
  const Json good = server.handle_line(
      "{\"op\":\"compile\",\"builtin\":\"stencil\",\"n\":32,\"p\":2}");
  EXPECT_TRUE(good.get_bool("ok", false)) << good.dump();
  EXPECT_EQ(server.cache().stats().misses, 1u);
}

TEST(Server, OperatorChainsAreCappedNotFatal) {
  // Past the parser's 4,096-operator cap a chain gets an error response
  // instead of overflowing the daemon's stack in a recursive tree walk
  // after parsing; a chain at the cap still compiles.
  const auto request = [](int operators) {
    std::string src =
        "      parameter (n=8, p=2)\\n"
        "      real x(n,n), y(n,n)\\n"
        "!hpf$ processors Pr(p)\\n"
        "!hpf$ template d(n)\\n"
        "!hpf$ distribute d(block) onto Pr\\n"
        "!hpf$ align (*,:) with d :: x, y\\n"
        "      forall (k=1:n)\\n"
        "        y(1:n,k) = x(1:n,k)";
    for (int i = 0; i < operators; ++i) {
      src += "+x(1:n,k)";
    }
    src += "\\n      end forall\\n      end\\n";
    return "{\"op\":\"compile\",\"program\":\"" + src + "\"}";
  };
  Server server(ServerOptions{});
  const Json rejected = server.handle_line(request(30000));
  EXPECT_FALSE(rejected.get_bool("ok", true)) << rejected.dump();
  EXPECT_EQ(rejected.get_string("code", ""), "ParseError");
  const Json at_cap = server.handle_line(request(4096));
  EXPECT_TRUE(at_cap.get_bool("ok", false)) << at_cap.dump();
}

TEST(Server, CompileRejectsProcessorsPastTheCap) {
  // Every processor of a run is a thread: no compile may hand out a plan
  // for more than hpf::kMaxProcessors of them.
  Server server(ServerOptions{});
  const Json res = server.handle_line(
      "{\"op\":\"compile\",\"program\":\"      real x(8,8)\\n"
      "!hpf$ processors Pr(100000)\\n      end\\n\"}");
  EXPECT_FALSE(res.get_bool("ok", true)) << res.dump();
  EXPECT_EQ(res.get_string("code", ""), "SemanticError") << res.dump();
  // A builtin's count must not wrap to 1 processor on its way to int.
  const Json wrapped = server.handle_line(
      "{\"op\":\"compile\",\"builtin\":\"elementwise\",\"n\":8,"
      "\"p\":4294967297}");
  EXPECT_FALSE(wrapped.get_bool("ok", true)) << wrapped.dump();
  EXPECT_EQ(wrapped.get_string("code", ""), "SemanticError") << wrapped.dump();
}

TEST(Server, HostileTenantNamesStayInsideWorkRoot) {
  // A tenant of ".." must not resolve to the parent of the work root: job
  // directories are created — and recursively removed — under tenant
  // roots, so an escape would let a request delete siblings of the root.
  io::TempDir outer("oocc-serve-tenant");
  const std::filesystem::path root = outer.file("work");
  const std::filesystem::path sentinel = outer.file("job-0");
  std::filesystem::create_directories(sentinel);
  ServerOptions opts;
  opts.work_root = root;
  Server server(opts);
  const Json res = server.handle_line(
      "{\"op\":\"run\",\"tenant\":\"..\",\"builtin\":\"stencil\","
      "\"n\":32,\"p\":2,\"iters\":2,\"id\":\"evil\"}");
  EXPECT_TRUE(res.get_bool("ok", false)) << res.dump();
  EXPECT_TRUE(std::filesystem::exists(sentinel))
      << "a '..' tenant escaped the work root and deleted a sibling dir";
  EXPECT_TRUE(std::filesystem::exists(root / "_."))
      << "'..' should sanitize to a plain component under the work root";
  std::size_t entries = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator(outer.path())) {
    ++entries;
  }
  EXPECT_EQ(entries, 2u) << "unexpected residue next to the work root";
}

TEST(Server, CompileOpsSkipAdmissionButRunOpsAreBounded) {
  // Budget far below the job footprint: compiles must still succeed (they
  // execute nothing); run ops must be rejected as never-admittable.
  ServerOptions opts;
  opts.total_budget_elements = 16;
  Server server(opts);
  const Json ok = server.handle_line(
      "{\"op\":\"compile\",\"builtin\":\"stencil\",\"n\":32,\"p\":2}");
  EXPECT_TRUE(ok.get_bool("ok", false)) << ok.dump();

  const Json rejected = server.handle_line(
      "{\"op\":\"run\",\"builtin\":\"stencil\",\"n\":32,\"p\":2}");
  EXPECT_FALSE(rejected.get_bool("ok", true));
  EXPECT_EQ(rejected.get_string("code", ""), "ResourceExhausted");
}

TEST(Server, StdioLoopServesAndShutsDown) {
  Server server(ServerOptions{});
  std::istringstream in(
      "{\"op\":\"compile\",\"builtin\":\"stencil\",\"n\":32,\"p\":2,"
      "\"id\":\"a\"}\n"
      "{\"op\":\"compile\",\"builtin\":\"stencil\",\"n\":32,\"p\":2,"
      "\"id\":\"b\"}\n"
      "{\"op\":\"stats\",\"id\":\"s\"}\n"
      "{\"op\":\"shutdown\",\"id\":\"q\"}\n"
      "{\"op\":\"compile\",\"builtin\":\"stencil\",\"n\":32,\"p\":2,"
      "\"id\":\"after\"}\n");
  std::ostringstream out;
  serve_stdio(server, in, out);

  std::istringstream lines(out.str());
  std::string line;
  std::vector<Json> responses;
  while (std::getline(lines, line)) {
    responses.push_back(Json::parse(line));
  }
  ASSERT_EQ(responses.size(), 4u) << "no response after shutdown";
  EXPECT_FALSE(responses[0].get_bool("cache_hit", true));
  EXPECT_TRUE(responses[1].get_bool("cache_hit", false));
  EXPECT_TRUE(responses[2].get_bool("ok", false));
  EXPECT_TRUE(responses[3].get_bool("shutdown", false));
  EXPECT_TRUE(server.shutdown_requested());
}

/// A ping request padded to exactly `bytes` bytes.
std::string ping_of_length(std::size_t bytes, const std::string& id) {
  const std::string head = "{\"op\":\"ping\",\"id\":\"" + id + "\",\"pad\":\"";
  const std::string tail = "\"}";
  return head + std::string(bytes - head.size() - tail.size(), 'x') + tail;
}

TEST(Server, StdioSkipsAnOversizedLine) {
  // A line at the limit is served; one byte more gets one parse error, and
  // the loop goes on at the next line.
  Server server(ServerOptions{});
  std::istringstream in(ping_of_length(kMaxRequestLineBytes, "at") + "\n" +
                        ping_of_length(kMaxRequestLineBytes + 1, "over") +
                        "\n{\"op\":\"ping\",\"id\":\"after\"}\n");
  std::ostringstream out;
  serve_stdio(server, in, out);

  std::istringstream lines(out.str());
  std::string line;
  std::vector<Json> responses;
  while (std::getline(lines, line)) {
    responses.push_back(Json::parse(line));
  }
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].get_string("id", ""), "at");
  EXPECT_TRUE(responses[0].get_bool("pong", false));
  EXPECT_FALSE(responses[1].get_bool("ok", true));
  EXPECT_EQ(responses[1].get_string("code", ""), "ParseError");
  EXPECT_EQ(responses[2].get_string("id", ""), "after");
  EXPECT_TRUE(responses[2].get_bool("pong", false));
}

TEST(Server, EnvironmentIsCapturedAtRequestScope) {
  // The request must carry a snapshot of the process-global knobs taken at
  // parse time; flipping the environment afterwards must not affect it.
  Server server(ServerOptions{});
  ::setenv("OOCC_ASYNC", "0", 1);
  ::setenv("OOCC_NO_VERIFY", "1", 1);
  ::setenv("OOCC_IO_THREADS", "3", 1);
  const JobRequest req = server.parse_request(
      "{\"op\":\"run\",\"builtin\":\"stencil\",\"n\":32,\"p\":2}");
  ::unsetenv("OOCC_ASYNC");
  ::unsetenv("OOCC_NO_VERIFY");
  ::unsetenv("OOCC_IO_THREADS");

  EXPECT_FALSE(req.profile.machine.async);
  EXPECT_EQ(req.profile.machine.io_threads, 3);
  EXPECT_FALSE(req.profile.exec.verify);

  // And the snapshot of a fresh request reflects the restored environment.
  const JobRequest fresh = server.parse_request(
      "{\"op\":\"run\",\"builtin\":\"stencil\",\"n\":32,\"p\":2}");
  EXPECT_TRUE(fresh.profile.machine.async);
  EXPECT_TRUE(fresh.profile.exec.verify);
}

// ---------------------------------------------------------------------------
// Bit-identity

class ServeBitIdentity : public ::testing::TestWithParam<int> {};

TEST_P(ServeBitIdentity, CachedRunMatchesFreshRunStencil) {
  const int p = GetParam();
  Server server(ServerOptions{});
  // Explicit budget: the default quarter-of-local rule shrinks with P and
  // underflows the stencil working set at P=3/4 for this small N.
  const std::string req =
      "{\"op\":\"run\",\"builtin\":\"stencil\",\"n\":32,\"p\":" +
      std::to_string(p) + ",\"iters\":3,\"memory\":512}";

  const Json fresh = server.handle_line(req);
  ASSERT_TRUE(fresh.get_bool("ok", false)) << fresh.dump();
  EXPECT_FALSE(fresh.get_bool("cache_hit", true));
  const std::string fresh_hash = fresh.get_string("result_hash", "");
  ASSERT_FALSE(fresh_hash.empty());

  const Json cached = server.handle_line(req);
  ASSERT_TRUE(cached.get_bool("ok", false)) << cached.dump();
  EXPECT_TRUE(cached.get_bool("cache_hit", false));
  EXPECT_EQ(cached.get_string("result_hash", ""), fresh_hash)
      << "cached execution diverged from the fresh one at P=" << p;

  // A second, completely independent server (fresh cache, fresh LAF tree)
  // must land on the same bytes.
  Server other(ServerOptions{});
  const Json independent = other.handle_line(req);
  ASSERT_TRUE(independent.get_bool("ok", false)) << independent.dump();
  EXPECT_EQ(independent.get_string("result_hash", ""), fresh_hash);
}

TEST_P(ServeBitIdentity, CachedRunMatchesFreshRunGaxpy) {
  const int p = GetParam();
  Server server(ServerOptions{});
  const std::string req =
      "{\"op\":\"run\",\"builtin\":\"gaxpy\",\"n\":24,\"p\":" +
      std::to_string(p) + "}";
  const Json fresh = server.handle_line(req);
  ASSERT_TRUE(fresh.get_bool("ok", false)) << fresh.dump();
  const Json cached = server.handle_line(req);
  ASSERT_TRUE(cached.get_bool("ok", false)) << cached.dump();
  EXPECT_TRUE(cached.get_bool("cache_hit", false));
  EXPECT_EQ(cached.get_string("result_hash", ""),
            fresh.get_string("result_hash", ""));
}

INSTANTIATE_TEST_SUITE_P(Procs, ServeBitIdentity, ::testing::Values(1, 3, 4));

TEST(ServeBitIdentity, MatchesSerialOoccCompileDriver) {
  if (std::string(OOCC_COMPILE_BIN).empty()) {
    GTEST_SKIP() << "oocc_compile was not built";
  }
  Server server(ServerOptions{});
  const Json res = server.handle_line(
      "{\"op\":\"run\",\"builtin\":\"stencil\",\"n\":32,\"p\":2,"
      "\"iters\":4}");
  ASSERT_TRUE(res.get_bool("ok", false)) << res.dump();
  const std::string server_hash = res.get_string("result_hash", "");

  io::TempDir dir("oocc-serve-test");
  const auto out_path = dir.file("out.txt");
  const std::string cmd = std::string("\"") + OOCC_COMPILE_BIN +
                          "\" --stencil=32,2 --run --iters 4 --result-hash "
                          "> \"" +
                          out_path.string() + "\" 2>/dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  std::ifstream in(out_path);
  std::string line;
  std::string cli_hash;
  while (std::getline(in, line)) {
    const std::string prefix = "result hash: ";
    if (line.rfind(prefix, 0) == 0) {
      cli_hash = line.substr(prefix.size());
    }
  }
  ASSERT_FALSE(cli_hash.empty());
  EXPECT_EQ(server_hash, cli_hash)
      << "server execution diverged from the serial driver";
}

// ---------------------------------------------------------------------------
// Socket front end

namespace sock {

int connect_to(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void send_line(int fd, const std::string& line) {
  std::string framed = line;
  framed.push_back('\n');
  std::size_t off = 0;
  while (off < framed.size()) {
    const ssize_t n =
        ::send(fd, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
}

std::string recv_line(int fd) {
  std::string buffer;
  char c;
  while (::recv(fd, &c, 1, 0) == 1) {
    if (c == '\n') {
      return buffer;
    }
    buffer.push_back(c);
  }
  return buffer;
}

}  // namespace sock

TEST(ServeSocket, SurvivesMidJobDisconnect) {
  io::TempDir dir("oocc-serve-sock");
  const std::string path = dir.file("serve.sock").string();
  Server server(ServerOptions{});
  std::thread daemon([&] { serve_socket(server, path, 2); });
  // Wait for the listener; generous bound, a parallel ctest run can starve
  // the daemon thread for a while.
  int probe = -1;
  for (int i = 0; i < 1000 && probe < 0; ++i) {
    std::this_thread::sleep_for(10ms);
    probe = sock::connect_to(path);
  }
  ASSERT_GE(probe, 0) << "daemon did not come up";

  // Fire a run request and disconnect immediately: the job must complete
  // (or fail) server-side without crashing anything.
  sock::send_line(probe,
                  "{\"op\":\"run\",\"builtin\":\"stencil\",\"n\":32,"
                  "\"p\":2,\"iters\":4,\"id\":\"orphan\"}");
  ::close(probe);

  // A second connection still gets served.
  const int fd = sock::connect_to(path);
  ASSERT_GE(fd, 0);
  sock::send_line(fd,
                  "{\"op\":\"run\",\"builtin\":\"stencil\",\"n\":32,"
                  "\"p\":2,\"iters\":4,\"id\":\"ok\"}");
  const Json res = Json::parse(sock::recv_line(fd));
  EXPECT_TRUE(res.get_bool("ok", false)) << res.dump();
  EXPECT_EQ(res.get_string("id", ""), "ok");

  sock::send_line(fd, "{\"op\":\"shutdown\"}");
  const Json bye = Json::parse(sock::recv_line(fd));
  EXPECT_TRUE(bye.get_bool("shutdown", false));
  ::close(fd);
  daemon.join();

  // Both jobs ran to completion server-side. They share a cache key, so
  // the second is a hit — or an in-flight join when it catches the first
  // mid-compile (common under TSan, where compiles are slow).
  const PlanCache::Stats cs = server.cache().stats();
  EXPECT_GE(cs.misses + cs.hits + cs.inflight_waits, 2u);
}

TEST(ServeSocket, JoinsFinishedReaders) {
  // Every connection gets a reader thread; once its client hangs up, the
  // accept loop must join it instead of keeping its stack until shutdown.
  io::TempDir dir("oocc-serve-reap");
  const std::string path = dir.file("serve.sock").string();
  Server server(ServerOptions{});
  std::thread daemon([&] { serve_socket(server, path, 2); });
  int fd = -1;
  for (int i = 0; i < 1000 && fd < 0; ++i) {
    std::this_thread::sleep_for(10ms);
    fd = sock::connect_to(path);
  }
  std::int64_t most = 0;
  for (int i = 0; i < 200 && fd >= 0; ++i) {
    sock::send_line(fd, "{\"op\":\"stats\"}");
    const Json res = Json::parse(sock::recv_line(fd));
    ::close(fd);
    const Json& stats = res.as_object().at("stats");
    fd = sock::connect_to(path);
    if (!stats.has("socket")) {
      ADD_FAILURE() << "stats report no socket section: " << res.dump();
      break;
    }
    most = std::max(most, stats.as_object().at("socket").get_int(
                              "unjoined_readers", 0));
  }
  ASSERT_GE(fd, 0) << "daemon not reachable";
  // Readers whose client just hung up may not have noticed yet; 200
  // unjoined ones mean none was ever joined.
  EXPECT_LE(most, 16);
  sock::send_line(fd, "{\"op\":\"shutdown\"}");
  (void)sock::recv_line(fd);
  ::close(fd);
  daemon.join();
}

TEST(ServeSocket, OversizedLineGetsOneErrorAndCloses) {
  io::TempDir dir("oocc-serve-long");
  const std::string path = dir.file("serve.sock").string();
  Server server(ServerOptions{});
  std::thread daemon([&] { serve_socket(server, path, 2); });
  int fd = -1;
  for (int i = 0; i < 1000 && fd < 0; ++i) {
    std::this_thread::sleep_for(10ms);
    fd = sock::connect_to(path);
  }
  ASSERT_GE(fd, 0) << "daemon did not come up";
  // Fail rather than hang if a response never comes.
  const timeval timeout{60, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));

  // A line at the limit is served.
  sock::send_line(fd, ping_of_length(kMaxRequestLineBytes, "at"));
  const Json at = Json::parse(sock::recv_line(fd));
  EXPECT_EQ(at.get_string("id", ""), "at");
  EXPECT_TRUE(at.get_bool("pong", false)) << at.dump();

  // One byte past it, with no newline in sight: the daemon stops reading,
  // answers once and hangs up instead of buffering without bound.
  const std::string over(kMaxRequestLineBytes + 1, 'x');
  for (std::size_t off = 0; off < over.size();) {
    const ssize_t n =
        ::send(fd, over.data() + off, over.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
  const Json rejected = Json::parse(sock::recv_line(fd));
  EXPECT_FALSE(rejected.get_bool("ok", true)) << rejected.dump();
  EXPECT_EQ(rejected.get_string("code", ""), "ParseError");
  char c;
  EXPECT_EQ(::recv(fd, &c, 1, 0), 0) << "connection left open";
  ::close(fd);

  // The daemon serves the next client.
  fd = sock::connect_to(path);
  ASSERT_GE(fd, 0);
  sock::send_line(fd, "{\"op\":\"shutdown\"}");
  const Json bye = Json::parse(sock::recv_line(fd));
  EXPECT_TRUE(bye.get_bool("shutdown", false));
  ::close(fd);
  daemon.join();
}

TEST(ServeSocket, ShutdownUnblocksIdleConnections) {
  io::TempDir dir("oocc-serve-idle");
  const std::string path = dir.file("serve.sock").string();
  Server server(ServerOptions{});
  std::thread daemon([&] { serve_socket(server, path, 2); });
  int idle = -1;
  for (int i = 0; i < 1000 && idle < 0; ++i) {
    std::this_thread::sleep_for(10ms);
    idle = sock::connect_to(path);
  }
  ASSERT_GE(idle, 0) << "daemon did not come up";

  // `idle` never sends a byte, so its reader thread is parked in recv().
  // A shutdown from a second client must still terminate the daemon
  // (regression: the join loop used to block until idle clients hung up).
  const int fd = sock::connect_to(path);
  ASSERT_GE(fd, 0);
  sock::send_line(fd, "{\"op\":\"shutdown\",\"id\":\"bye\"}");
  const Json bye = Json::parse(sock::recv_line(fd));
  EXPECT_TRUE(bye.get_bool("shutdown", false));
  ::close(fd);
  daemon.join();
  ::close(idle);
}

}  // namespace
