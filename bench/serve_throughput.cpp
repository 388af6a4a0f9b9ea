// bench/serve_throughput — the compile server's two headline invariants.
//
// Phase 1 (plan serving): a mixed workload of op=compile requests is pushed
// through Server::handle_line twice. The cold pass clears the PlanCache
// before every request, so each one pays the full parse + lower + verify
// pipeline; the warm pass leaves the cache alone, so every request after
// priming is a hash lookup. The bench asserts warm throughput is at least
// 5x cold throughput (the ISSUE's warm-cache bar) and that the warm pass
// really was all hits.
//
// Phase 2 (multi-tenant execution): three tenants stream op=run stencil
// jobs at a shared budget sized so exactly two footprints fit at once.
// Asserted invariants: every tenant makes progress (admitted > 0), the
// budget is never oversubscribed (peak <= total), two jobs genuinely
// overlapped (peak >= 2 footprints), and every result fingerprint equals a
// serial reference computed by the oocc_compile driver path (direct
// compile_sequence + Machine::run, no cache, no admission) — bit-identity
// of cached multi-tenant execution against the serial compiler.
//
// Environment knobs (on top of bench_common's):
//   OOCC_SERVE_REQS  compile requests per pass (default 48)
//   OOCC_SERVE_REPS  run jobs per tenant in phase 2 (default 6)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "oocc/compiler/lower.hpp"
#include "oocc/exec/interp.hpp"
#include "oocc/hpf/parser.hpp"
#include "oocc/hpf/programs.hpp"
#include "oocc/serve/hash.hpp"
#include "oocc/serve/job.hpp"
#include "oocc/serve/server.hpp"

namespace {

using namespace oocc;
using oocc::serve::Json;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One compile request line; the workload cycles through distinct keys so
/// the warm pass exercises the cache across programs, not just one entry.
std::string compile_request(int variant, std::int64_t n) {
  Json req = Json::object();
  req.set("id", "bench-" + std::to_string(variant));
  req.set("tenant", "bench");
  req.set("op", std::string("compile"));
  switch (variant % 4) {
    case 0:
      req.set("builtin", std::string("stencil"));
      req.set("n", n);
      req.set("p", 2);
      break;
    case 1:
      req.set("builtin", std::string("gaxpy"));
      req.set("n", n / 2);
      req.set("p", 4);
      break;
    case 2:
      req.set("builtin", std::string("elementwise"));
      req.set("n", n);
      req.set("p", 4);
      break;
    default:
      req.set("builtin", std::string("stencil"));
      req.set("n", n);
      req.set("p", 4);
      break;
  }
  return req.dump();
}

/// Serial reference: the oocc_compile driver path — direct compile, one
/// fresh machine, no cache, no admission. Returns the result fingerprint
/// the server must reproduce bit for bit.
std::uint64_t serial_reference_hash(const std::string& source,
                                    std::int64_t memory, int iters) {
  const hpf::BoundProgram bound = hpf::analyze(hpf::parse(source));
  compiler::CompileOptions options;
  options.memory_budget_elements = memory;
  std::vector<compiler::NodeProgram> plans =
      compiler::compile_sequence(bound, options);
  const compiler::NodeProgram& front = plans.front();
  const std::vector<std::string> outputs = serve::collect_output_arrays(plans);
  const std::set<std::string> output_set(outputs.begin(), outputs.end());

  io::TempDir dir("oocc-serve-bench");
  sim::Machine machine(front.nprocs, options.machine, sim::MachineOptions{});
  std::mutex mu;
  std::uint64_t result_hash = 0;
  machine.run([&](sim::SpmdContext& ctx) {
    auto arrays = exec::create_sequence_arrays(ctx, plans, dir.path(),
                                               options.disk);
    for (auto& [name, arr] : arrays) {
      if (!output_set.contains(name)) {
        arr->initialize(ctx,
                        name == front.b ? serve::input_gen_b
                                        : serve::input_gen_a,
                        options.memory_budget_elements);
      }
    }
    sim::barrier(ctx);
    ctx.reset_accounting();

    exec::ArrayBindings bindings;
    for (auto& [name, arr] : arrays) {
      bindings[name] = arr.get();
    }
    exec::ExecOptions exec_options = exec::default_exec_options();
    exec_options.max_iters = iters;
    exec::StencilRunInfo info;
    exec_options.stencil_info = &info;
    exec::execute_sequence(ctx, plans, bindings, exec_options);

    std::vector<std::string> to_hash;
    if (front.kind == compiler::ProgramKind::kStencil) {
      to_hash.push_back(info.result);
    } else {
      to_hash = outputs;
    }
    std::uint64_t h = serve::kFnvOffsetBasis;
    for (const std::string& name : to_hash) {
      const std::vector<double> global = arrays.at(name)->gather_global(
          ctx, options.memory_budget_elements);
      if (ctx.rank() == 0) {
        h = serve::hash_named_array(name, global, h);
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    if (ctx.rank() == 0) {
      result_hash = h;
    }
  });
  return result_hash;
}

}  // namespace

int main() {
  bool ok = true;

  // --- Phase 1: plan-serving throughput, cold vs warm -------------------
  const std::int64_t n = bench::bench_n(256);
  const int reqs = static_cast<int>(env_int("OOCC_SERVE_REQS", 48));

  serve::ServerOptions cold_opts;
  serve::Server server(cold_opts);

  // Cold pass: every request pays the full compile + verify pipeline.
  const double cold_t0 = now_s();
  for (int i = 0; i < reqs; ++i) {
    server.cache().clear();
    const Json res = server.handle_line(compile_request(i, n));
    ok = ok && res.get_bool("ok", false) && !res.get_bool("cache_hit", true);
  }
  const double cold_s = now_s() - cold_t0;

  // Prime once per distinct key, then the warm pass is all cache hits.
  server.cache().clear();
  for (int v = 0; v < 4; ++v) {
    server.handle_line(compile_request(v, n));
  }
  const auto warm_base = server.cache().stats();
  const double warm_t0 = now_s();
  for (int i = 0; i < reqs; ++i) {
    const Json res = server.handle_line(compile_request(i, n));
    ok = ok && res.get_bool("ok", false) && res.get_bool("cache_hit", false);
  }
  const double warm_s = now_s() - warm_t0;
  const auto warm_stats = server.cache().stats();
  const std::uint64_t warm_hits = warm_stats.hits - warm_base.hits;

  const double cold_pps = cold_s > 0.0 ? reqs / cold_s : 0.0;
  const double warm_pps = warm_s > 0.0 ? reqs / warm_s : 0.0;
  const double speedup = cold_pps > 0.0 ? warm_pps / cold_pps : 0.0;

  bench::print_header("serve plan-serving throughput (op=compile)");
  {
    oocc::TextTable table(
        {"pass", "requests", "seconds", "programs/sec", "cache hits"});
    table.add_row({"cold (cleared per request)", std::to_string(reqs),
                   oocc::format_fixed(cold_s, 4),
                   oocc::format_fixed(cold_pps, 1), "0"});
    table.add_row({"warm (plan cache)", std::to_string(reqs),
                   oocc::format_fixed(warm_s, 4),
                   oocc::format_fixed(warm_pps, 1),
                   std::to_string(warm_hits)});
    std::printf("%s", table.to_string().c_str());
    std::printf("warm/cold speedup: %.1fx (floor 5.0x)\n", speedup);
  }
  if (speedup < 5.0) {
    std::printf("FAIL: warm-cache throughput below the 5x floor\n");
    ok = false;
  }
  if (warm_hits != static_cast<std::uint64_t>(reqs)) {
    std::printf("FAIL: warm pass expected %d hits, saw %llu\n", reqs,
                static_cast<unsigned long long>(warm_hits));
    ok = false;
  }

  // --- Phase 2: multi-tenant execution under one shared budget ----------
  const int tenants = 3;
  const int reps = static_cast<int>(env_int("OOCC_SERVE_REPS", 6));
  const std::int64_t run_n = 64;
  const std::int64_t run_memory = 1024;  // per processor; footprint = 2048
  const int run_iters = 4;
  const std::int64_t footprint = 2 * run_memory;  // p=2

  // Two footprints fit, three do not: with three tenants streaming, the
  // admission controller must queue the third while two run.
  serve::ServerOptions run_opts;
  run_opts.total_budget_elements = 2 * footprint + footprint / 2;
  serve::Server run_server(run_opts);

  const std::uint64_t reference = serial_reference_hash(
      hpf::stencil_source(run_n, 2), run_memory, run_iters);

  std::atomic<int> run_ok{0};
  std::atomic<int> run_errors{0};
  std::mutex hash_mu;
  std::set<std::string> hashes;

  const double run_t0 = now_s();
  std::vector<std::thread> threads;
  for (int t = 0; t < tenants; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < reps; ++r) {
        Json req = Json::object();
        std::string id = "t";
        id += std::to_string(t) + "-" + std::to_string(r);
        req.set("id", id);
        req.set("tenant", "tenant" + std::to_string(t));
        req.set("op", std::string("run"));
        req.set("builtin", std::string("stencil"));
        req.set("n", run_n);
        req.set("p", static_cast<std::int64_t>(2));
        req.set("memory", run_memory);
        req.set("iters", run_iters);
        const Json res = run_server.handle_line(req.dump());
        if (res.get_bool("ok", false)) {
          run_ok.fetch_add(1);
          std::lock_guard<std::mutex> lock(hash_mu);
          hashes.insert(res.get_string("result_hash", ""));
        } else {
          run_errors.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  const double run_s = now_s() - run_t0;
  const auto adm = run_server.admission().stats();

  char ref_hex[32];
  std::snprintf(ref_hex, sizeof(ref_hex), "0x%016llx",
                static_cast<unsigned long long>(reference));

  bench::print_header("serve multi-tenant execution (op=run)");
  {
    oocc::TextTable table({"tenant", "jobs", "queued waits", "wait s"});
    for (const auto& [name, ts] : adm.tenants) {
      table.add_row({name, std::to_string(ts.admitted),
                     std::to_string(ts.waits),
                     oocc::format_fixed(ts.wait_time_s, 3)});
    }
    std::printf("%s", table.to_string().c_str());
    std::printf(
        "budget %lld elements, peak in use %lld (job footprint %lld); "
        "%d jobs in %.2fs, %.1f programs/sec\n",
        static_cast<long long>(adm.total_elements),
        static_cast<long long>(adm.peak_in_use_elements),
        static_cast<long long>(footprint), run_ok.load(), run_s,
        run_s > 0.0 ? run_ok.load() / run_s : 0.0);
    std::printf("result hash: %s on all %d runs (serial reference %s)\n",
                hashes.size() == 1 ? hashes.begin()->c_str() : "DIVERGED",
                run_ok.load(), ref_hex);
  }

  if (run_errors.load() != 0 || run_ok.load() != tenants * reps) {
    std::printf("FAIL: %d of %d run jobs failed\n", run_errors.load(),
                tenants * reps);
    ok = false;
  }
  int progressing = 0;
  for (const auto& [name, ts] : adm.tenants) {
    if (ts.admitted > 0) {
      ++progressing;
    }
  }
  if (progressing < 2) {
    std::printf("FAIL: only %d tenant(s) made progress\n", progressing);
    ok = false;
  }
  if (adm.peak_in_use_elements > adm.total_elements) {
    std::printf("FAIL: budget oversubscribed (peak %lld > total %lld)\n",
                static_cast<long long>(adm.peak_in_use_elements),
                static_cast<long long>(adm.total_elements));
    ok = false;
  }
  if (adm.peak_in_use_elements < 2 * footprint) {
    std::printf("FAIL: no two jobs ever ran concurrently (peak %lld)\n",
                static_cast<long long>(adm.peak_in_use_elements));
    ok = false;
  }
  if (hashes.size() != 1 || *hashes.begin() != ref_hex) {
    std::printf("FAIL: results not bit-identical to the serial driver\n");
    ok = false;
  }

  std::printf("shape check (warm>=5x cold, >=2 tenants progressing, "
              "budget never oversubscribed, bit-identical results): %s\n",
              ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
