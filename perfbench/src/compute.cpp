// The compute workloads (chain, stencil, gaxpy) and the execution harness.
//
// One operation = one execution: a fresh Machine, arrays created and inputs
// staged (set-up), then exec::execute_sequence (the execute window), then a
// second region that reads every checked output back slab by slab and
// compares it with an oracle that never goes through the compiler.
#include <malloc.h>

#include <algorithm>
#include <cstdlib>
#include <mutex>

#include "harness.hpp"
#include "oocc/apps/jacobi.hpp"
#include "oocc/gaxpy/gaxpy.hpp"
#include "oocc/hpf/programs.hpp"
#include "oocc/io/file_backend.hpp"
#include "oocc/sim/collectives.hpp"

namespace perfbench {

using namespace oocc;

Execution execute_once(const ExecSetup& setup,
                       const std::filesystem::path& dir) {
  Execution out;
  std::vector<ArrayMap> arrays(static_cast<std::size_t>(setup.nprocs));
  std::vector<double> exec_s(arrays.size());
  std::vector<std::string> results(arrays.size());
  std::mutex mu;

  malloc_trim(0);  // the peak below starts from what is really in use
  reset_peak_rss();
  const auto t_setup = SteadyClock::now();
  sim::Machine machine(setup.nprocs, sim::MachineCostModel::touchstone_delta());
  out.report = machine.run([&](sim::SpmdContext& ctx) {
    ArrayMap& mine = arrays[static_cast<std::size_t>(ctx.rank())];
    mine = exec::create_sequence_arrays(ctx, setup.plans, dir,
                                        io::DiskModel::touchstone_delta_cfs());
    const auto t_init = SteadyClock::now();
    for (const auto& [name, gen] : setup.inputs) {
      mine.at(name)->initialize(ctx, gen, setup.stage_budget);
    }
    const double init_s = seconds_since(t_init);
    sim::barrier(ctx);
    ctx.reset_accounting();
    for (auto& [name, arr] : mine) {
      arr->laf().reset_stats();
    }
    exec::ArrayBindings bindings;
    for (auto& [name, arr] : mine) {
      bindings[name] = arr.get();
    }
    exec::ExecOptions options;
    options.budget_elements = setup.pool_budget;
    options.max_iters = setup.max_iters;
    exec::StencilRunInfo info;
    options.stencil_info = &info;
    runtime::SlabCacheStats cache;
    options.cache_stats = &cache;

    const auto t_exec = SteadyClock::now();
    const double setup_s =
        std::chrono::duration<double>(t_exec - t_setup).count();
    exec::execute_sequence(ctx, setup.plans, bindings, options);
    const double wall = seconds_since(t_exec);

    std::lock_guard<std::mutex> lock(mu);
    exec_s[static_cast<std::size_t>(ctx.rank())] = wall;
    results[static_cast<std::size_t>(ctx.rank())] = info.result;
    out.setup_s = std::max(out.setup_s, setup_s);
    out.init_s = std::max(out.init_s, init_s);
    out.cache.merge(cache);
  });

  out.peak_rss_mb = peak_rss_mb();
  out.exec_max_s = *std::max_element(exec_s.begin(), exec_s.end());
  out.exec_min_s = *std::min_element(exec_s.begin(), exec_s.end());
  for (const double s : exec_s) {
    out.exec_sum_s += s;
  }
  for (std::size_t rank = 0; rank < arrays.size(); ++rank) {
    for (const auto& [name, arr] : arrays[rank]) {
      out.io.merge(arr->laf().stats());
      if (rank == 0) {
        out.rank0_requests +=
            static_cast<double>(arr->laf().stats().total_requests());
      }
    }
  }
  out.result = results.front().empty() ? setup.primary_output : results.front();

  machine.run([&](sim::SpmdContext& ctx) {
    ArrayMap& mine = arrays[static_cast<std::size_t>(ctx.rank())];
    if (setup.time_gather) {
      const auto t0 = SteadyClock::now();
      mine.at(out.result)->gather_global(ctx, setup.stage_budget);
      const double gather_s = seconds_since(t0);
      std::lock_guard<std::mutex> lock(mu);
      out.gather_s = std::max(out.gather_s, gather_s);
    }
    if (setup.post) {
      setup.post(ctx, mine, out.result);
    }
  });
  return out;
}

double price_error(const ExecSetup& setup, const std::vector<Execution>& runs,
                   double priced) {
  std::vector<double> measured;
  for (const Execution& e : runs) {
    measured.push_back(e.rank0_requests);
  }
  if (setup.max_iters > 1) {
    ExecSetup single = setup;
    single.max_iters = 1;
    single.time_gather = false;
    single.post = nullptr;
    io::TempDir dir("perfbench-price");
    measured = {execute_once(single, dir.path()).rank0_requests};
  }
  const double m = median(measured);
  return ratio(std::abs(priced - m), m);
}

void report_exec_layers(Report& report, const std::vector<Execution>& runs) {
  auto med = [&](const std::function<double(const Execution&)>& f) {
    std::vector<double> v;
    for (const Execution& e : runs) {
      v.push_back(f(e));
    }
    return median(std::move(v));
  };
  auto proc_max = [](const Execution& e, double sim::ProcStats::*field) {
    double m = 0.0;
    for (const sim::ProcStats& p : e.report.procs) {
      m = std::max(m, p.*field);
    }
    return m;
  };
  auto flops = [](const Execution& e) {
    double f = 0.0;
    for (const sim::ProcStats& p : e.report.procs) {
      f += p.flops;
    }
    return f;
  };
  auto nonwait = [](const Execution& e) {
    return e.exec_sum_s - e.report.async.blocked_s;
  };
  constexpr double kMB = 1e6;

  report.set("exec.rank_max_s", med([](auto& e) { return e.exec_max_s; }), "s");
  report.set("exec.rank_imbalance",
             med([](auto& e) { return ratio(e.exec_max_s, e.exec_min_s); }),
             "ratio");
  report.set("exec.nonwait_s", med(nonwait), "s");
  report.set("exec.ns_per_flop",
             med([&](auto& e) { return ratio(nonwait(e), flops(e)) * 1e9; }),
             "ns");

  report.set("runtime.pool_hits",
             med([](auto& e) { return double(e.cache.hits); }), "count");
  report.set("runtime.pool_misses",
             med([](auto& e) { return double(e.cache.misses); }), "count");
  report.set("runtime.pool_hit_ratio", med([](auto& e) {
               return ratio(double(e.cache.hits),
                            double(e.cache.hits + e.cache.misses));
             }),
             "ratio");
  report.set("runtime.pool_evictions",
             med([](auto& e) { return double(e.cache.evictions); }), "count");
  report.set("runtime.pool_writebacks",
             med([](auto& e) { return double(e.cache.writebacks); }), "count");
  report.set("runtime.pool_mb_avoided",
             med([](auto& e) { return double(e.cache.elements_hit) * 8 / kMB; }),
             "MB");
  report.set("runtime.initialize_s", med([](auto& e) { return e.init_s; }), "s");
  report.set("runtime.gather_s", med([](auto& e) { return e.gather_s; }), "s");

  report.set("io.read_requests",
             med([](auto& e) { return double(e.io.read_requests); }), "count");
  report.set("io.write_requests",
             med([](auto& e) { return double(e.io.write_requests); }), "count");
  report.set("io.read_mb", med([](auto& e) { return e.io.bytes_read / kMB; }),
             "MB");
  report.set("io.write_mb",
             med([](auto& e) { return e.io.bytes_written / kMB; }), "MB");
  report.set("io.async_jobs",
             med([](auto& e) { return double(e.report.async.jobs); }), "count");
  report.set("io.async_busy_s",
             med([](auto& e) { return e.report.async.busy_s; }), "s");
  report.set("io.async_blocked_s",
             med([](auto& e) { return e.report.async.blocked_s; }), "s");
  report.set("io.async_overlap_s",
             med([](auto& e) { return e.report.async.overlap_s; }), "s");
  report.set("io.async_max_queue", med([](auto& e) {
               return double(e.report.async.max_queue_depth);
             }),
             "count");

  report.set("sim.compute_s", med([&](auto& e) {
               return proc_max(e, &sim::ProcStats::compute_time_s);
             }),
             "sim_s");
  report.set("sim.io_s", med([&](auto& e) {
               return proc_max(e, &sim::ProcStats::io_time_s);
             }),
             "sim_s");
  report.set("sim.comm_s", med([&](auto& e) {
               return proc_max(e, &sim::ProcStats::comm_time_s);
             }),
             "sim_s");
  report.set("sim.messages",
             med([](auto& e) { return double(e.report.total_messages()); }),
             "count");
  report.set("sim.mb_sent",
             med([](auto& e) { return e.report.total_bytes_sent() / kMB; }),
             "MB");
}

namespace {

/// Host MB/s of raw sequential LocalArrayFile writes then reads of a
/// rows x cols local array in `capacity`-element slabs of `orientation`,
/// under the device latency currently set; medians over `reps` passes.
std::pair<double, double> probe_io_ceiling(
    const std::filesystem::path& dir, std::int64_t rows, std::int64_t cols,
    runtime::SlabOrientation orientation, std::int64_t capacity, int reps) {
  const runtime::SlabIterator slabs(rows, cols, orientation, capacity);
  const double mb = static_cast<double>(rows * cols) * 8.0 / 1e6;
  std::vector<double> read_s;
  std::vector<double> write_s;
  sim::Machine machine(1, sim::MachineCostModel::touchstone_delta());
  machine.run([&](sim::SpmdContext& ctx) {
    io::LocalArrayFile laf(dir / "ceiling.laf", rows, cols,
                           runtime::contiguous_order_for(orientation),
                           io::DiskModel::touchstone_delta_cfs());
    std::vector<double> buf(static_cast<std::size_t>(slabs.slab_elements()),
                            1.0);
    auto slab = [&](std::int64_t s) {
      const io::Section sec = slabs.section(s);
      return std::pair{sec, std::span<double>(buf.data(), sec.elements())};
    };
    for (int rep = 0; rep < reps; ++rep) {
      auto t0 = SteadyClock::now();
      for (std::int64_t s = 0; s < slabs.count(); ++s) {
        const auto [sec, data] = slab(s);
        laf.write_section(ctx, sec, data);
      }
      write_s.push_back(seconds_since(t0));
      t0 = SteadyClock::now();
      for (std::int64_t s = 0; s < slabs.count(); ++s) {
        const auto [sec, data] = slab(s);
        laf.read_section(ctx, sec, data);
      }
      read_s.push_back(seconds_since(t0));
    }
  });
  return {ratio(mb, median(read_s)), ratio(mb, median(write_s))};
}

}  // namespace

void report_io_ceiling(Report& report, const compiler::NodeProgram& front,
                       const std::vector<Execution>& runs) {
  const compiler::SlabLoop& loop = front.loops.front();
  const compiler::PlanArray& space = front.array(loop.space);
  io::TempDir dir("perfbench-ceiling");
  const auto [read_mbps, write_mbps] = probe_io_ceiling(
      dir.path(), space.dist.local_rows(0), space.dist.local_cols(0),
      loop.orientation, loop.capacity_elements, 3);
  report.set("io.ceiling_read_mbps", read_mbps, "MB/s");
  report.set("io.ceiling_write_mbps", write_mbps, "MB/s");
  // Time the rank-average LAF traffic would take at the ceiling rates, as a
  // share of the execute window: 1 means as fast as the disk allows.
  std::vector<double> frac;
  for (const Execution& e : runs) {
    const double per_rank_mb = 1e-6 / static_cast<double>(front.nprocs);
    const double bound_s =
        ratio(double(e.io.bytes_read) * per_rank_mb, read_mbps) +
        ratio(double(e.io.bytes_written) * per_rank_mb, write_mbps);
    frac.push_back(ratio(bound_s, e.exec_max_s));
  }
  report.set("io.ceiling_frac", median(frac), "ratio");
}

std::string chain_source(std::int64_t n, int p) {
  return "      parameter (n=" + std::to_string(n) + ", p=" + std::to_string(p) +
         ")\n"
         "      real x(n,n), y(n,n), z(n,n), w(n,n)\n"
         "!hpf$ processors Pr(p)\n"
         "!hpf$ template d(n)\n"
         "!hpf$ distribute d(block) onto Pr\n"
         "!hpf$ align (*,:) with d :: x, y, z, w\n"
         "      forall (k=1:n)\n"
         "        y(1:n,k) = x(1:n,k)*2 + 1\n"
         "      end forall\n"
         "      forall (k=1:n)\n"
         "        z(1:n,k) = y(1:n,k)*x(1:n,k)\n"
         "      end forall\n"
         "      forall (k=1:n)\n"
         "        w(1:n,k) = z(1:n,k) + y(1:n,k)*x(1:n,k)\n"
         "      end forall\n"
         "      end\n";
}

namespace {

/// Zero-valued metrics of the serve layer, which these workloads never
/// reach.
void report_idle_serve_layer(Report& report) {
  for (const auto& [name, unit] :
       {std::pair{"serve.hit_ratio", "ratio"}, {"serve.inflight_waits", "count"},
        {"serve.hit_p50_ms", "ms"}, {"serve.miss_p50_ms", "ms"},
        {"serve.miss_p99_ms", "ms"}, {"serve.run_p50_ms", "ms"},
        {"serve.admission_wait_s", "s"}, {"serve.json_s", "s"},
        {"serve.hash_s", "s"}}) {
    report.set(name, 0.0, unit);
  }
}

/// Slab budget of the oracle's read-back (per rank, elements).
constexpr std::int64_t kCheckChunk = 1 << 18;

/// One compute workload: program, sizes, options and oracle.
struct Workload {
  std::string source;
  int nprocs = 4;
  compiler::CompileOptions options;
  std::int64_t pool_budget = 0;
  int max_iters = 1;
  std::int64_t io_delay_us = 0;
  std::map<std::string, Generator> inputs;
  std::vector<std::string> checked;  ///< empty: check the result array only
  std::string primary_output;
};

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  if (name == "chain") {
    const std::int64_t n = 4096;
    w.source = chain_source(n, w.nprocs);
    // 64 x 4096-element columns per rank across four arrays: 16-column slabs,
    // 64 slabs per rank over a 1024-column local panel.
    w.options.memory_budget_elements = 64 * n;
    w.inputs["x"] = [seed](std::int64_t r, std::int64_t c) {
      return seeded_value(seed, r, c, 0.5, 1.0);
    };
    w.checked = {"y", "z", "w"};
    w.primary_output = "w";
  } else if (name == "stencil") {
    const std::int64_t n = 2048;
    const std::int64_t local = n * (n / w.nprocs);
    w.source = hpf::stencil_source(n, w.nprocs);
    w.options.memory_budget_elements = local / 16;
    w.options.prefetch = compiler::PrefetchMode::kOn;
    w.pool_budget = 2 * local;
    w.max_iters = 8;
    w.io_delay_us = 500;
    w.inputs["a"] = [seed](std::int64_t r, std::int64_t c) {
      return c == 0 ? 100.0 : seeded_value(seed, r, c, -1.0, 2.0);
    };
    w.primary_output = "b";
  } else if (name == "gaxpy") {
    const std::int64_t n = 1024;
    w.source = hpf::gaxpy_source(n, w.nprocs);
    w.options.memory_budget_elements = 65536;
    w.inputs["a"] = [seed](std::int64_t r, std::int64_t c) {
      return seeded_value(seed, r, c, 0.5, 1.0);
    };
    w.inputs["b"] = [seed](std::int64_t r, std::int64_t c) {
      return seeded_value(seed ^ 0x5bd1e995ULL, r, c, -0.25, 0.5);
    };
    w.primary_output = "c";
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
    std::exit(2);
  }
  return w;
}

/// Expected value of one output array at global (row, col).
using Oracle = std::function<Generator(const std::string& array)>;

/// Element oracle of the chain: the three statements as a serial loop.
Oracle chain_oracle(const Generator& x) {
  return [x](const std::string& array) -> Generator {
    const int stage = array == "y" ? 0 : array == "z" ? 1 : 2;
    return [x, stage](std::int64_t r, std::int64_t c) {
      const double xv = x(r, c);
      const double y = xv * 2 + 1;
      const double z = y * xv;
      return stage == 0 ? y : stage == 1 ? z : z + y * xv;
    };
  };
}

/// Column-major global array as an element oracle.
Oracle dense_oracle(std::shared_ptr<const std::vector<double>> data,
                    std::int64_t rows) {
  return [data, rows](const std::string&) -> Generator {
    return [data, rows](std::int64_t r, std::int64_t c) {
      return (*data)[static_cast<std::size_t>(c * rows + r)];
    };
  };
}

/// The hand-coded Figure 9/12 kernel with the plan's slab sizes.
std::vector<double> handcoded_gaxpy(const compiler::NodeProgram& plan,
                                    const Workload& w,
                                    const std::filesystem::path& dir) {
  std::vector<double> c_global;
  sim::Machine machine(plan.nprocs, sim::MachineCostModel::touchstone_delta());
  machine.run([&](sim::SpmdContext& ctx) {
    auto arrays = exec::create_plan_arrays(ctx, plan, dir,
                                           io::DiskModel::touchstone_delta_cfs());
    arrays.at(plan.a)->initialize(ctx, w.inputs.at("a"),
                                  plan.memory_budget_elements);
    arrays.at(plan.b)->initialize(ctx, w.inputs.at("b"),
                                  plan.memory_budget_elements);
    gaxpy::GaxpyConfig config;
    config.slab_a_elements = plan.memory.slab_a;
    config.slab_b_elements = plan.memory.slab_b;
    config.slab_c_elements = plan.memory.slab_c;
    config.prefetch = plan.prefetch;
    runtime::MemoryBudget budget(plan.memory_budget_elements);
    if (plan.a_orientation == runtime::SlabOrientation::kColumnSlabs) {
      gaxpy::ooc_gaxpy_column_slabs(ctx, *arrays.at(plan.a), *arrays.at(plan.b),
                                    *arrays.at(plan.c), budget, config);
    } else {
      gaxpy::ooc_gaxpy_row_slabs(ctx, *arrays.at(plan.a), *arrays.at(plan.b),
                                 *arrays.at(plan.c), budget, config);
    }
    std::vector<double> got =
        arrays.at(plan.c)->gather_global(ctx, plan.memory_budget_elements);
    if (ctx.rank() == 0) {
      c_global = std::move(got);
    }
  });
  return c_global;
}

/// Reads `arr`'s local piece back in column slabs and counts the elements
/// that differ (bitwise, via !=) from `want`.
std::uint64_t count_mismatches(sim::SpmdContext& ctx,
                               runtime::OutOfCoreArray& arr,
                               const Generator& want) {
  const int rank = ctx.rank();
  const hpf::ArrayDistribution& dist = arr.dist();
  const std::int64_t rows = arr.local_rows();
  std::vector<std::int64_t> grow(static_cast<std::size_t>(rows));
  for (std::int64_t r = 0; r < rows; ++r) {
    grow[static_cast<std::size_t>(r)] = dist.local_to_global_row(rank, r);
  }
  const runtime::SlabIterator slabs(rows, arr.local_cols(),
                                    runtime::SlabOrientation::kColumnSlabs,
                                    kCheckChunk);
  std::vector<double> buf;
  std::uint64_t bad = 0;
  for (std::int64_t s = 0; s < slabs.count(); ++s) {
    const io::Section sec = slabs.section(s);
    buf.resize(static_cast<std::size_t>(sec.elements()));
    arr.laf().read_section(ctx, sec, std::span<double>(buf));
    for (std::int64_t c = sec.col0; c < sec.col1; ++c) {
      const std::int64_t gc = dist.local_to_global_col(rank, c);
      const double* col = buf.data() + (c - sec.col0) * rows;
      for (std::int64_t r = 0; r < rows; ++r) {
        bad += col[r] != want(grow[static_cast<std::size_t>(r)], gc) ? 1 : 0;
      }
    }
  }
  return bad;
}

}  // namespace

void run_compute_workload(const RunConfig& cfg, Report& report) {
  const Workload w = make_workload(cfg.workload, cfg.seed);
  // FileBackend reads the emulated device latency when a file opens.
  setenv("OOCC_HOST_IO_DELAY_US", std::to_string(w.io_delay_us).c_str(), 1);
  const auto t_start = SteadyClock::now();

  // Compile: HPF text to verified plans. Untraced runs also take samples
  // between the executions (about 15% of the run), so they span the run.
  std::vector<double> compile_s;
  auto compile = [&] {
    const auto t0 = SteadyClock::now();
    std::vector<compiler::NodeProgram> p =
        compiler::compile_sequence_source(w.source, w.options);
    compile_s.push_back(seconds_since(t0));
    return p;
  };
  const std::vector<compiler::NodeProgram> plans = compile();
  // The traced run times each compile layer's entry point instead.
  std::vector<CompileLayers> layers;
  for (int rep = 0; cfg.trace && rep < 3; ++rep) {
    layers.push_back(time_compile_layers(w.source, w.options, w.pool_budget,
                                         /*search=*/true));
  }
  const compiler::NodeProgram& front = plans.front();
  const std::int64_t rows = front.arrays.begin()->second.dist.global_rows();

  // Oracles: a serial loop (chain), apps::serial_jacobi (stencil), the
  // hand-coded gaxpy kernels (gaxpy).
  Oracle oracle;
  if (cfg.workload == "chain") {
    oracle = chain_oracle(w.inputs.at("x"));
  } else if (cfg.workload == "stencil") {
    oracle = dense_oracle(
        std::make_shared<const std::vector<double>>(
            apps::serial_jacobi(rows, w.max_iters, w.inputs.at("a"))),
        rows);
  } else {
    io::TempDir dir("perfbench-oracle");
    oracle = dense_oracle(std::make_shared<const std::vector<double>>(
                              handcoded_gaxpy(front, w, dir.path())),
                          rows);
  }

  ExecSetup setup;
  setup.plans = std::span<const compiler::NodeProgram>(plans);
  setup.nprocs = front.nprocs;
  setup.inputs = w.inputs;
  setup.stage_budget = w.options.memory_budget_elements;
  setup.pool_budget = w.pool_budget;
  setup.max_iters = w.max_iters;
  setup.primary_output = w.primary_output;
  std::mutex mu;
  std::uint64_t mismatches = 0;
  setup.post = [&](sim::SpmdContext& ctx, ArrayMap& arrays,
                   const std::string& result) {
    std::uint64_t bad = 0;
    for (const std::string& name :
         w.checked.empty() ? std::vector<std::string>{result} : w.checked) {
      bad += count_mismatches(ctx, *arrays.at(name), oracle(name));
    }
    std::lock_guard<std::mutex> lock(mu);
    mismatches += bad;
  };

  // Operations: untraced runs execute until the time is up. The traced run
  // alternates untraced and traced (gather-timed) executions so the two can
  // be compared.
  std::vector<Execution> runs;
  std::vector<double> op_s;
  std::vector<double> untraced_op_s;
  std::vector<double> traced_op_s;
  double measured_s = 0.0;
  for (int op = 0; op < 4 || seconds_since(t_start) < cfg.seconds; ++op) {
    const auto t_compile = SteadyClock::now();
    const double compile_share = op_s.empty() ? 0.0 : 0.15 * op_s.back();
    if (!cfg.trace) {
      do {
        compile();
      } while (seconds_since(t_compile) < compile_share);
    }
    const bool traced = cfg.trace && op % 2 == 1;
    setup.time_gather = traced;
    mismatches = 0;
    io::TempDir dir("perfbench-" + cfg.workload);
    bool ok = true;
    try {
      Execution e = execute_once(setup, dir.path());
      ok = mismatches == 0;
      const double latency = e.setup_s + e.exec_max_s;
      op_s.push_back(latency);
      (traced ? traced_op_s : untraced_op_s).push_back(latency);
      measured_s += latency;
      runs.push_back(std::move(e));
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "%s: execution failed: %s\n", cfg.workload.c_str(),
                   ex.what());
      ok = false;
    }
    if (mismatches != 0) {
      std::fprintf(stderr, "%s: %llu elements differ from the oracle\n",
                   cfg.workload.c_str(),
                   static_cast<unsigned long long>(mismatches));
    }
    report.count_op(ok);
  }

  if (!cfg.trace) {
    std::vector<double> run_s;
    std::vector<double> setup_s;
    std::vector<double> sim_s;
    std::vector<double> rss_mb;
    for (const Execution& e : runs) {
      rss_mb.push_back(e.peak_rss_mb);
      run_s.push_back(e.exec_max_s);
      setup_s.push_back(e.setup_s);
      sim_s.push_back(e.report.max_sim_time_s());
    }
    report.set("run_s", median(run_s), "s");
    report.set("compile_s", quantile(compile_s, 0.1), "s");
    report.set("sim_makespan_s", median(sim_s), "sim_s");
    report.set("setup_s", median(setup_s), "s");
    report.set("req_p50_ms", 1e3 * median(op_s), "ms");
    report.set("req_p99_ms", 1e3 * quantile(op_s, 0.99), "ms");
    report.set("req_per_s", ratio(double(op_s.size()), measured_s), "1/s");
    // Malloc arenas make later executions climb in steps (README.md).
    report.set("peak_rss_mb", quantile(rss_mb, 0.1), "MB");
    return;
  }

  const CompileLayers compiled = median_layers(layers);
  if (!compiled.ok) {
    report.count_op(false);
  }
  report_compile_layers(report, compiled);
  report.set("compiler.price_error",
             price_error(setup, runs, compiled.priced_requests), "ratio");
  report_exec_layers(report, runs);
  report_io_ceiling(report, front, runs);
  report_idle_serve_layer(report);
  report.set("trace.overhead_frac",
             ratio(median(traced_op_s), median(untraced_op_s)) - 1.0, "ratio");
}

}  // namespace perfbench
