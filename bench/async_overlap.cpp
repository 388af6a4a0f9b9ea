// Real async I/O engine: host wall-clock overlap of disk and compute.
//
// Two workloads, both through the compiler and the slab buffer pool:
//   chain    c = a*b ; e = c + a*b, statement-at-a-time (fusion off), with
//            double-buffered input streams (prefetch on)
//   stencil  hpf::stencil_source(N, P), OOCC_STENCIL_ITERS sweeps (default 4)
//
// Each workload runs twice at the same physical I/O latency — once on a
// machine with the engine, which the pool then uses, and once on a machine
// without one (sim::MachineOptions::async), synchronously —
// and the bench compares the host wall time of the execute window (per-rank
// max; staging and gathers excluded, matching the simulated timings).
// The simulator prices both runs identically (the clock-rewind model is the
// oracle, the engine only changes *when* the physical I/O happens), so the
// bench asserts bit-identical results AND bit-identical simulated time, and
// a >= 1.3x lower host wall with the engine on for at least one workload.
//
// Real LAF traffic on a warm page cache completes in microseconds, which
// would bury the overlap under thread-scheduling noise; the bench therefore
// dials in OOCC_HOST_IO_DELAY_US (an emulated per-request device latency,
// see io::FileBackend) so each workload's physical I/O takes about as long
// as its compute — the regime the engine exists for. A delay-0 calibration
// run measures the compute; presetting OOCC_HOST_IO_DELAY_US skips the
// calibration and uses the given latency. The wall-ratio assertion is
// gated on N >= 2048 (CI's release smoke job runs exactly that; smaller
// quick runs still check bit-identity but only report the ratio).
#include "bench_common.hpp"

#include <chrono>
#include <cstdlib>
#include <mutex>
#include <set>

#include "oocc/compiler/lower.hpp"
#include "oocc/exec/interp.hpp"
#include "oocc/hpf/programs.hpp"

namespace {

std::string chain_source(std::int64_t n, int p) {
  return "parameter (n=" + std::to_string(n) + ", p=" + std::to_string(p) +
         ")\n"
         "real a(n,n), b(n,n), c(n,n), e(n,n)\n"
         "!hpf$ processors Pr(p)\n"
         "!hpf$ template d(n)\n"
         "!hpf$ distribute d(block) onto Pr\n"
         "!hpf$ align (*,:) with d :: a, b, c, e\n"
         "forall (k=1:n)\n"
         "  c(1:n,k) = a(1:n,k)*b(1:n,k)\n"
         "end forall\n"
         "forall (k=1:n)\n"
         "  e(1:n,k) = c(1:n,k) + a(1:n,k)*b(1:n,k)\n"
         "end forall\n"
         "end\n";
}

struct OverlapResult {
  double exec_wall_s = 0.0;  ///< host wall of the execute window (rank max)
  double sim_time_s = 0.0;
  std::uint64_t io_requests = 0;  ///< LAF requests in that window (rank max)
  std::uint64_t async_jobs = 0;
  double overlap_s = 0.0;
  double blocked_s = 0.0;
  std::vector<double> out;  ///< gathered result (rank 0)
};

/// The emulated device latency is read once per FileBackend, at
/// construction (inside machine.run); set it before the region starts.
void set_host_delay(std::int64_t us) {
  setenv("OOCC_HOST_IO_DELAY_US", std::to_string(us).c_str(), 1);
}

/// The environment's machine knobs, with the async I/O engine or none.
oocc::sim::MachineOptions machine_options(bool use_async) {
  oocc::sim::MachineOptions options = oocc::sim::MachineOptions::from_env();
  options.async = use_async;
  return options;
}

OverlapResult run_chain(std::int64_t n, int p, bool use_async,
                        std::int64_t delay_us) {
  using namespace oocc;
  set_host_delay(delay_us);

  compiler::CompileOptions options;
  options.enable_statement_fusion = false;
  options.prefetch = compiler::PrefetchMode::kOn;
  const std::int64_t local = n * ((n + p - 1) / p);
  // Pool budget 4x: the whole working set (a, b, the staged c) stays
  // resident, so the run is prefetched reads + one flush per output.
  const std::int64_t pool_budget =
      local * env_int("OOCC_CACHE_BUDGET_FACTOR", 4);
  options.memory_budget_elements = local;
  const std::vector<compiler::NodeProgram> plans =
      compiler::compile_sequence_source(chain_source(n, p), options);

  OverlapResult result;
  io::TempDir dir("oocc-async-chain");
  sim::Machine machine(p, sim::MachineCostModel::touchstone_delta(),
                       machine_options(use_async));
  std::mutex mu;
  sim::RunReport report = machine.run([&](sim::SpmdContext& ctx) {
    auto arrays = exec::create_sequence_arrays(
        ctx,
        std::span<const compiler::NodeProgram>(plans.data(), plans.size()),
        dir.path(), io::DiskModel::touchstone_delta_cfs());
    std::set<std::string> outputs;
    for (const compiler::NodeProgram& plan : plans) {
      for (const auto& [name, pa] : plan.arrays) {
        if (pa.is_output) {
          outputs.insert(name);
        }
      }
    }
    for (auto& [name, arr] : arrays) {
      if (!outputs.contains(name)) {
        arr->initialize(
            ctx,
            [](std::int64_t r, std::int64_t c) {
              return 1.0 + 1e-3 * static_cast<double>((r * 31 + c * 7) % 101);
            },
            local);
      }
      arr->laf().reset_stats();
    }
    sim::barrier(ctx);
    ctx.reset_accounting();
    exec::ArrayBindings bindings;
    for (auto& [name, arr] : arrays) {
      bindings[name] = arr.get();
    }
    exec::ExecOptions exec_options;
    exec_options.budget_elements = pool_budget;
    const auto t0 = std::chrono::steady_clock::now();
    exec::execute_sequence(
        ctx,
        std::span<const compiler::NodeProgram>(plans.data(), plans.size()),
        bindings, exec_options);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::uint64_t requests = 0;
    for (auto& [name, arr] : arrays) {
      const io::IoStats& s = arr->laf().stats();
      requests += s.read_requests + s.write_requests;
    }
    std::vector<double> e = arrays.at("e")->gather_global(ctx, local);
    std::lock_guard<std::mutex> lock(mu);
    result.exec_wall_s = std::max(result.exec_wall_s, wall);
    result.io_requests = std::max(result.io_requests, requests);
    if (ctx.rank() == 0) {
      result.out = std::move(e);
    }
  });
  result.sim_time_s = report.max_sim_time_s();
  result.async_jobs = report.async.jobs;
  result.overlap_s = report.async.overlap_s;
  result.blocked_s = report.async.blocked_s;
  return result;
}

OverlapResult run_stencil(std::int64_t n, int p, int iters, bool use_async,
                          std::int64_t delay_us) {
  using namespace oocc;
  set_host_delay(delay_us);

  compiler::CompileOptions options;
  options.prefetch = compiler::PrefetchMode::kOn;
  const std::int64_t local = n * ((n + p - 1) / p);
  // Pool budget 2x (not the usual 4x): the ping-ponged panels then churn
  // through the pool, so write-backs happen at evict time — spread across
  // the sweeps, where the engine can hide them — instead of piling up in
  // one serial flush at region end.
  const std::int64_t pool_budget =
      local * env_int("OOCC_CACHE_BUDGET_FACTOR", 2);
  options.memory_budget_elements = local;
  const compiler::NodeProgram plan =
      compiler::compile_source(hpf::stencil_source(n, p), options);

  OverlapResult result;
  io::TempDir dir("oocc-async-stencil");
  sim::Machine machine(p, sim::MachineCostModel::touchstone_delta(),
                       machine_options(use_async));
  std::mutex mu;
  sim::RunReport report = machine.run([&](sim::SpmdContext& ctx) {
    auto arrays = exec::create_plan_arrays(
        ctx, plan, dir.path(), io::DiskModel::touchstone_delta_cfs());
    arrays.at("a")->initialize(
        ctx,
        [](std::int64_t r, std::int64_t c) {
          return c == 0 ? 100.0 : (r % 4 == 0 ? 2.0 : -1.0);
        },
        local);
    for (auto& [name, arr] : arrays) {
      arr->laf().reset_stats();
    }
    sim::barrier(ctx);
    ctx.reset_accounting();
    exec::ArrayBindings bindings;
    for (auto& [name, arr] : arrays) {
      bindings[name] = arr.get();
    }
    exec::ExecOptions exec_options;
    exec_options.budget_elements = pool_budget;
    exec_options.max_iters = iters;
    exec::StencilRunInfo info;
    exec_options.stencil_info = &info;
    const auto t0 = std::chrono::steady_clock::now();
    exec::execute(ctx, plan, bindings, exec_options);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::uint64_t requests = 0;
    for (auto& [name, arr] : arrays) {
      const io::IoStats& s = arr->laf().stats();
      requests += s.read_requests + s.write_requests;
    }
    std::vector<double> state =
        arrays.at(info.result)->gather_global(ctx, local);
    std::lock_guard<std::mutex> lock(mu);
    result.exec_wall_s = std::max(result.exec_wall_s, wall);
    result.io_requests = std::max(result.io_requests, requests);
    if (ctx.rank() == 0) {
      result.out = std::move(state);
    }
  });
  result.sim_time_s = report.max_sim_time_s();
  result.async_jobs = report.async.jobs;
  result.overlap_s = report.async.overlap_s;
  result.blocked_s = report.async.blocked_s;
  return result;
}

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b,
                   const char* what) {
  if (a.size() != b.size()) {
    std::printf("%s: result size mismatch (%zu vs %zu)\n", what, a.size(),
                b.size());
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) {
      std::printf("%s: result mismatch at index %zu\n", what, i);
      return false;
    }
  }
  return true;
}

/// Per-request latency that makes the workload's physical I/O take about
/// 1.5x as long as its compute (calibration wall / request count, scaled):
/// enough I/O that hiding it is worth measuring, not so much that the
/// non-overlappable head and tail requests dominate the async wall.
std::int64_t calibrate_delay_us(const OverlapResult& calib) {
  const double per_request_s =
      calib.exec_wall_s / static_cast<double>(std::max<std::uint64_t>(
                              calib.io_requests, 1));
  return std::clamp<std::int64_t>(
      static_cast<std::int64_t>(per_request_s * 1.5 * 1e6), 200, 50000);
}

}  // namespace

int main() {
  using namespace oocc;
  using namespace oocc::bench;

  // N >= 2048 by default — the regime the ISSUE's wall-ratio assertion
  // targets (deliberately not bench_n's 512 quick default).
  const std::int64_t n = env_int("OOCC_N", 2048);
  const int p = bench_procs().front();
  const int iters = static_cast<int>(env_int("OOCC_STENCIL_ITERS", 4));
  print_header("Async I/O engine: disk/compute overlap in host wall-clock");

  if (!env_flag_or("OOCC_ASYNC", true)) {
    std::printf("OOCC_ASYNC=0: engine disabled, nothing to measure. OK\n");
    return 0;
  }

  // The engine's default worker count (min(nprocs, 4)) is sized for real
  // disks, where a blocked worker means a busy device. Under the emulated
  // per-request latency a worker *sleeps* through each job, so the default
  // starves the per-file streams (4 ranks x several arrays); give the
  // measurement enough workers that streams, not workers, are the limit.
  if (std::getenv("OOCC_IO_THREADS") == nullptr) {
    setenv("OOCC_IO_THREADS", "16", 1);
  }

  const char* preset = std::getenv("OOCC_HOST_IO_DELAY_US");
  const std::int64_t preset_us = preset != nullptr ? std::atoll(preset) : -1;

  std::printf(
      "N = %lld, P = %d; sync vs async at the same emulated device "
      "latency\n\n",
      static_cast<long long>(n), p);

  TextTable table({"workload", "delay us", "reqs", "sync wall (s)",
                   "async wall (s)", "wall ratio", "jobs", "overlap (s)",
                   "blocked (s)", "sim (s)"});
  bool ok = true;
  double best_ratio = 0.0;
  for (const char* kind : {"chain", "stencil"}) {
    const bool is_chain = std::string(kind) == "chain";
    auto run = [&](bool use_async, std::int64_t delay_us) {
      return is_chain ? run_chain(n, p, use_async, delay_us)
                      : run_stencil(n, p, iters, use_async, delay_us);
    };
    std::int64_t delay_us = preset_us;
    if (delay_us < 0) {
      delay_us = calibrate_delay_us(run(/*use_async=*/false, 0));
    }
    // Host wall on a loaded box is noisy; min-of-REPS for each mode is the
    // standard way to ask "how fast can this configuration go". Every
    // repetition's results still have to be bit-identical.
    const int reps = static_cast<int>(env_int("OOCC_BENCH_REPS", 3));
    OverlapResult sync_run;
    OverlapResult async_run;
    for (int r = 0; r < reps; ++r) {
      OverlapResult s = run(/*use_async=*/false, delay_us);
      OverlapResult a = run(/*use_async=*/true, delay_us);

      // The engine must be invisible to both the program and the
      // simulator.
      ok = ok && bit_identical(s.out, a.out, kind);
      if (s.sim_time_s != a.sim_time_s) {
        std::printf("%s: simulated time diverged (%.9f vs %.9f)\n", kind,
                    s.sim_time_s, a.sim_time_s);
        ok = false;
      }
      if (r == 0 || s.exec_wall_s < sync_run.exec_wall_s) {
        sync_run = std::move(s);
      }
      if (r == 0 || a.exec_wall_s < async_run.exec_wall_s) {
        async_run = std::move(a);
      }
    }
    const double ratio = sync_run.exec_wall_s / async_run.exec_wall_s;
    best_ratio = std::max(best_ratio, ratio);
    table.add_row({kind, std::to_string(delay_us),
                   std::to_string(sync_run.io_requests),
                   format_fixed(sync_run.exec_wall_s, 3),
                   format_fixed(async_run.exec_wall_s, 3),
                   format_fixed(ratio, 2) + "x",
                   std::to_string(async_run.async_jobs),
                   format_fixed(async_run.overlap_s, 3),
                   format_fixed(async_run.blocked_s, 3),
                   format_fixed(async_run.sim_time_s, 2)});
  }
  std::printf("%s\n", table.to_string().c_str());

  // The headline invariant, asserted at full scale (CI's release smoke job
  // runs N=2048): the engine buys >= 1.3x lower host wall somewhere.
  const bool assert_ratio = n >= 2048;
  if (assert_ratio) {
    ok = ok && best_ratio >= 1.3;
  }
  std::printf(
      "shape check (bit-identical results and simulated time%s): %s\n",
      assert_ratio ? ", best wall ratio >= 1.3x" : "", ok ? "OK" : "FAILED");
  if (!assert_ratio) {
    std::printf("(wall ratio reported but not asserted below N=2048)\n");
  }
  return ok ? 0 : 1;
}
