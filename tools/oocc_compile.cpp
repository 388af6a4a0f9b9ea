// oocc-compile — command-line driver for the out-of-core HPF compiler.
//
//   oocc-compile <program.hpf> [options]
//   oocc-compile --stencil[=N[,P]] [options]
//
// Options:
//   --memory <elements>    per-processor ICLA budget (default 1/4 OCLA)
//   --equal-split          equal memory division instead of access-weighted
//   --no-access-reorg      disable Figure 14 orientation selection
//   --no-storage-reorg     disable on-disk storage reorganization
//   --no-fuse              disable inter-statement slab fusion
//   --prefetch             double-buffer the dominant array's slabs
//   --prefetch=auto        let price_plan + the disk model decide per plan
//   --no-prefetch          force synchronous slab reads (the default)
//   --opt=search           global plan search: enumerate slab sizes, memory
//                          shares, prefetch and fusion groupings, keep the
//                          min-priced verified plan (docs/plan-search.md)
//   --opt=heuristic        the per-statement local decisions (the default)
//   --search-passes <k>    --opt=search: coordinate-descent rounds (def. 2)
//   --dump-search          print the plan-search decision record (implies
//                          --opt=search): candidates priced, adopted knobs
//                          and the structured "not searchable" diagnostics
//   --no-cache             run the slab buffer pool in no-retain mode
//                          (--run): staged slabs write through and nothing
//                          is kept past its use, so every sweep re-reads
//   --no-async             disable the real async I/O engine (--run): all
//                          host I/O runs synchronously on the compute
//                          threads, bit-identically (OOCC_ASYNC=0 is the
//                          same knob via the environment)
//   --stencil[=N[,P]]      compile the bundled Jacobi halo-stencil program
//                          (hpf::stencil_source, default N=64 P=4) instead
//                          of reading a source file
//   --iters <k>            stencil --run: max Jacobi sweeps (default 10)
//   --tol <x>              stencil --run: stop when the global max |update|
//                          drops to x (default 0 = run all sweeps)
//   --hash                 print the canonical plan-cache key (the same
//                          PlanKey oocc-serve uses: program hash + compile
//                          knobs) and exit without compiling
//   --result-hash          with --run: print the FNV-1a fingerprint of the
//                          output arrays (serve::hash_named_array, the
//                          same fingerprint oocc-serve responses carry in
//                          "result_hash") so serve results can be checked
//                          bit-for-bit against a serial run
//   --ast                  print the parsed program and exit
//   --dump-plan            print the step-level slab-program IR and its
//                          step-walking I/O price (uncached and with the
//                          slab cache modelled) instead of pseudo-code
//   --dump-verify          print the static verifier's report (replay
//                          stats + any OOCC-V0xx diagnostics) for the
//                          compiled plans
//   --no-verify            skip the static verifier (compile- and
//                          run-time); mirrors the OOCC_NO_VERIFY env knob
//   --run                  execute the plan on the simulated machine, and
//                          print processor 0's LAF traffic as priced (over
//                          the sweeps run) beside the measured counters
//   --verify               with --run: check the result against a serial
//                          reference (GAXPY, stencil and elementwise
//                          programs); a GAXPY result must also match the
//                          hand-coded Figure 9/12 kernel bit for bit
//   --faults=<plan>        install a deterministic fault plan (see
//                          docs/fault-tolerance.md for the grammar);
//                          OOCC_FAULTS provides the same knob via the
//                          environment. Implies journaled write-back.
//   --checkpoint-every <k> stencil --run: checkpoint the ping-pong state
//                          every k sweeps and recover from crashes or
//                          exhausted retries by restarting from the last
//                          committed checkpoint
//   --restarts <n>         with --checkpoint-every: give up after n
//                          restarts (default 8)
//
// Prints the compilation decision report and the generated node program
// (Figure 9/12-style pseudo-code, or the raw step IR with --dump-plan).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>

#include "oocc/apps/elementwise.hpp"
#include "oocc/apps/jacobi.hpp"
#include "oocc/compiler/lower.hpp"
#include "oocc/compiler/pretty.hpp"
#include "oocc/compiler/search.hpp"
#include "oocc/compiler/verify.hpp"
#include "oocc/exec/checkpoint.hpp"
#include "oocc/exec/interp.hpp"
#include "oocc/gaxpy/gaxpy.hpp"
#include "oocc/hpf/parser.hpp"
#include "oocc/hpf/programs.hpp"
#include "oocc/serve/hash.hpp"
#include "oocc/serve/job.hpp"
#include "oocc/sim/collectives.hpp"
#include "oocc/util/faults.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: oocc-compile <program.hpf> [--memory N] "
               "[--equal-split] [--no-access-reorg] [--no-storage-reorg] "
               "[--no-fuse] [--prefetch[=auto]] [--no-prefetch] "
               "[--opt=search|heuristic] [--search-passes K] "
               "[--dump-search] "
               "[--no-cache] [--no-async] [--stencil[=N[,P]]] [--iters K] "
               "[--tol X] "
               "[--hash] [--result-hash] "
               "[--ast] [--dump-plan] [--dump-verify] [--no-verify] "
               "[--run] [--verify] [--faults=PLAN] [--checkpoint-every K] "
               "[--restarts N]\n");
}

// Deterministic input generators, shared with the compile server (serve/
// job.cpp) so a server run and a CLI run see bit-identical inputs.
double gen_a(std::int64_t r, std::int64_t c) {
  return oocc::serve::input_gen_a(r, c);
}

double gen_b(std::int64_t r, std::int64_t c) {
  return oocc::serve::input_gen_b(r, c);
}

/// Runs the hand-coded Figure 9/12 kernel of `plan`'s orientation at the
/// plan's slab sizes over the inputs the compiled run saw; returns C,
/// gathered on processor 0.
std::vector<double> run_handcoded_gaxpy(oocc::sim::Machine& machine,
                                        const oocc::compiler::NodeProgram& plan,
                                        const oocc::io::DiskModel& disk,
                                        std::int64_t memory) {
  using namespace oocc;
  io::TempDir dir("oocc-cli-handcoded");
  std::vector<double> c_global;
  machine.run([&](sim::SpmdContext& ctx) {
    auto arrays = exec::create_plan_arrays(ctx, plan, dir.path(), disk);
    runtime::OutOfCoreArray& a = *arrays.at(plan.a);
    runtime::OutOfCoreArray& b = *arrays.at(plan.b);
    runtime::OutOfCoreArray& c = *arrays.at(plan.c);
    a.initialize(ctx, gen_a, memory);
    b.initialize(ctx, gen_b, memory);
    gaxpy::GaxpyConfig config;
    config.slab_a_elements = plan.memory.slab_a;
    config.slab_b_elements = plan.memory.slab_b;
    config.slab_c_elements = plan.memory.slab_c;
    config.prefetch = plan.prefetch;
    runtime::MemoryBudget budget(plan.memory_budget_elements);
    if (plan.a_orientation == runtime::SlabOrientation::kColumnSlabs) {
      gaxpy::ooc_gaxpy_column_slabs(ctx, a, b, c, budget, config);
    } else {
      gaxpy::ooc_gaxpy_row_slabs(ctx, a, b, c, budget, config);
    }
    std::vector<double> got = c.gather_global(ctx, memory);
    if (ctx.rank() == 0) {
      c_global = std::move(got);
    }
  });
  return c_global;
}

/// One line of LAF traffic, in --dump-plan's price format.
void print_traffic(const std::string& label,
                   const oocc::compiler::StepIoCost& c) {
  std::printf(
      "%s: reads %.0f req / %.0f elems, writes %.0f req / %.0f elems\n",
      label.c_str(), c.read_requests, c.elements_read, c.write_requests,
      c.elements_written);
}

/// Machine-greppable fault-tolerance counter line (soak.sh parses it).
void print_fault_line(const oocc::faults::FaultStats& stats,
                      const oocc::sim::RunReport& report, int restarts) {
  std::printf(
      "fault tolerance: injected %llu transient / %llu permanent / "
      "%llu crash; %llu retries, %llu recoveries, %d restarts\n",
      static_cast<unsigned long long>(stats.transient_injected),
      static_cast<unsigned long long>(stats.permanent_injected),
      static_cast<unsigned long long>(stats.crashes_injected),
      static_cast<unsigned long long>(report.total_retries()),
      static_cast<unsigned long long>(stats.recoveries), restarts);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace oocc;

  if (argc < 2) {
    usage();
    return 2;
  }

  std::string path;
  std::int64_t memory = 0;
  bool hash_only = false;
  bool result_hash = false;
  bool ast_only = false;
  bool dump_plan = false;
  bool dump_search = false;
  bool dump_verify = false;
  bool run = false;
  bool verify = false;
  bool use_cache = true;
  bool use_async = true;
  bool stencil = false;
  std::int64_t stencil_n = 64;
  int stencil_p = 4;
  int stencil_iters = 10;
  double stencil_tol = 0.0;
  std::string faults_text;
  int checkpoint_every = 0;
  int max_restarts = 8;
  compiler::CompileOptions options;
  options.disk = io::DiskModel::touchstone_delta_cfs();

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--memory") == 0 && i + 1 < argc) {
      memory = std::atoll(argv[++i]);
    } else if (std::strncmp(arg, "--stencil", 9) == 0 &&
               (arg[9] == '\0' || arg[9] == '=')) {
      stencil = true;
      if (arg[9] == '=') {
        char* end = nullptr;
        stencil_n = std::strtoll(arg + 10, &end, 10);
        if (end != nullptr && *end == ',') {
          stencil_p = std::atoi(end + 1);
        }
        if (stencil_n < 4 || stencil_p < 1) {
          std::fprintf(stderr, "bad --stencil=N,P: %s\n", arg);
          return 2;
        }
      }
    } else if (std::strcmp(arg, "--iters") == 0 && i + 1 < argc) {
      stencil_iters = std::atoi(argv[++i]);
    } else if (std::strcmp(arg, "--tol") == 0 && i + 1 < argc) {
      stencil_tol = std::atof(argv[++i]);
    } else if (std::strcmp(arg, "--equal-split") == 0) {
      options.memory_strategy = compiler::MemoryStrategy::kEqualSplit;
    } else if (std::strcmp(arg, "--no-access-reorg") == 0) {
      options.enable_access_reorganization = false;
    } else if (std::strcmp(arg, "--no-storage-reorg") == 0) {
      options.enable_storage_reorganization = false;
    } else if (std::strcmp(arg, "--no-fuse") == 0) {
      options.enable_statement_fusion = false;
    } else if (std::strcmp(arg, "--prefetch") == 0) {
      options.prefetch = compiler::PrefetchMode::kOn;
    } else if (std::strcmp(arg, "--prefetch=auto") == 0) {
      options.prefetch = compiler::PrefetchMode::kAuto;
    } else if (std::strcmp(arg, "--no-prefetch") == 0) {
      options.prefetch = compiler::PrefetchMode::kOff;
    } else if (std::strcmp(arg, "--opt=search") == 0) {
      options.opt = compiler::OptMode::kSearch;
    } else if (std::strcmp(arg, "--opt=heuristic") == 0) {
      options.opt = compiler::OptMode::kHeuristic;
    } else if (std::strcmp(arg, "--search-passes") == 0 && i + 1 < argc) {
      options.search_passes = std::atoi(argv[++i]);
      if (options.search_passes < 1) {
        std::fprintf(stderr, "bad --search-passes: %s\n", argv[i]);
        return 2;
      }
    } else if (std::strcmp(arg, "--dump-search") == 0) {
      dump_search = true;
      options.opt = compiler::OptMode::kSearch;
    } else if (std::strcmp(arg, "--no-cache") == 0) {
      use_cache = false;
    } else if (std::strcmp(arg, "--no-async") == 0) {
      use_async = false;
    } else if (std::strcmp(arg, "--hash") == 0) {
      hash_only = true;
    } else if (std::strcmp(arg, "--result-hash") == 0) {
      result_hash = true;
    } else if (std::strcmp(arg, "--ast") == 0) {
      ast_only = true;
    } else if (std::strcmp(arg, "--dump-plan") == 0) {
      dump_plan = true;
    } else if (std::strcmp(arg, "--dump-verify") == 0) {
      dump_verify = true;
    } else if (std::strcmp(arg, "--no-verify") == 0) {
      options.verify = false;
    } else if (std::strcmp(arg, "--run") == 0) {
      run = true;
    } else if (std::strcmp(arg, "--verify") == 0) {
      verify = true;
    } else if (std::strncmp(arg, "--faults=", 9) == 0) {
      faults_text = arg + 9;
    } else if (std::strcmp(arg, "--checkpoint-every") == 0 && i + 1 < argc) {
      checkpoint_every = std::atoi(argv[++i]);
      if (checkpoint_every < 1) {
        std::fprintf(stderr, "bad --checkpoint-every: %s\n", argv[i]);
        return 2;
      }
    } else if (std::strcmp(arg, "--restarts") == 0 && i + 1 < argc) {
      max_restarts = std::atoi(argv[++i]);
      if (max_restarts < 0) {
        std::fprintf(stderr, "bad --restarts: %s\n", argv[i]);
        return 2;
      }
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg);
      usage();
      return 2;
    } else {
      path = arg;
    }
  }
  if (path.empty() && !stencil) {
    usage();
    return 2;
  }

  // Fault injection: the explicit flag wins over OOCC_FAULTS. Installing
  // before default_exec_options() runs also switches journaling on.
  try {
    if (!faults_text.empty()) {
      faults::FaultInjector::instance().install(
          faults::FaultPlan::parse(faults_text));
    } else {
      faults::FaultInjector::instance().install_from_env();
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  const bool faults_installed = faults::FaultInjector::instance().active();

  std::string source;
  if (stencil) {
    source = hpf::stencil_source(stencil_n, stencil_p);
  } else {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    source = buffer.str();
  }

  try {
    if (ast_only) {
      const hpf::Program program = hpf::parse(source);
      std::printf("%s", hpf::to_string(program).c_str());
      return 0;
    }

    const hpf::BoundProgram bound = hpf::analyze(hpf::parse(source));
    if (memory == 0) {
      // Default: a quarter of the largest local array, i.e. genuinely
      // out-of-core, plus room for the reduction temporary. The rule lives
      // in serve/hash.cpp so a budget-less server request lands on the
      // same cache key as the equivalent CLI invocation.
      memory = serve::default_memory_budget(bound);
    }
    options.memory_budget_elements = memory;

    if (hash_only) {
      // The canonical plan-cache key: what oocc-serve would store this
      // compile under. One line, greppable, stable across reformatting of
      // the source program.
      std::printf("%s\n", serve::make_plan_key(bound, options)
                              .to_string()
                              .c_str());
      return 0;
    }

    std::vector<compiler::NodeProgram> plans;
    if (options.opt == compiler::OptMode::kSearch) {
      // Call the searcher directly (rather than through compile_sequence's
      // dispatch) so --dump-search can render the decision record.
      compiler::SearchResult searched =
          compiler::search_sequence(bound, options);
      plans = std::move(searched.plans);
      if (dump_search) {
        std::printf(
            "=== plan search ===\n%s\n",
            compiler::search_report_text(searched.report).c_str());
      }
    } else {
      plans = compiler::compile_sequence(bound, options);
    }
    const std::span<const compiler::NodeProgram> sequence(plans);
    if (dump_verify) {
      std::printf("=== static verification ===\n%s\n",
                  compiler::verify_sequence(sequence).to_string().c_str());
    }
    // The printed reuse hints and per-plan uncached prices are the
    // sequence's, as the executor derives them.
    std::vector<std::vector<double>> hints;
    std::vector<compiler::PlanPrice> uncached;
    if (dump_plan) {
      hints = compiler::annotate_reuse_distances(sequence);
      uncached = compiler::price_sequence(sequence);
    }
    for (std::size_t i = 0; i < plans.size(); ++i) {
      if (plans.size() > 1) {
        std::printf("--- plan %zu of %zu ---\n", i + 1, plans.size());
      }
      std::printf("=== decision report ===\n%s\n",
                  compiler::decision_report(plans[i]).c_str());
      if (dump_plan) {
        std::printf("=== step program ===\n%s",
                    compiler::step_program_text(plans[i], hints[i]).c_str());
        std::printf("=== step I/O price (per processor 0) ===\n");
        for (const auto& [name, cost] : uncached[i].arrays) {
          print_traffic(name, cost);
        }
        std::printf("\n");
      } else {
        std::printf("=== node program ===\n%s\n",
                    compiler::pseudo_code(plans[i]).c_str());
      }
    }
    if (dump_plan) {
      // Sequence-level price with the executor's slab cache modelled: hits
      // are demand reads the pool serves from memory (cross-statement
      // reuse included).
      compiler::PriceOptions popts;
      popts.model_cache = true;
      const std::vector<compiler::PlanPrice> cached =
          compiler::price_sequence(sequence, 0, popts);
      double hits = 0.0;
      double avoided = 0.0;
      double reqs = 0.0;
      double elems = 0.0;
      for (const compiler::PlanPrice& p : cached) {
        hits += p.cache_hits;
        avoided += p.elements_avoided;
        reqs += p.total_requests();
        elems += p.total_elements();
      }
      std::printf(
          "=== step I/O price with slab cache (sequence, processor 0) ===\n"
          "cache hits: %.0f, elements avoided: %.0f; charged: %.0f req / "
          "%.0f elems\n\n",
          hits, avoided, reqs, elems);
    }
    const compiler::NodeProgram& plan = plans.front();

    if (!run) {
      return 0;
    }

    if (checkpoint_every > 0 &&
        (plans.size() != 1 || plan.kind != compiler::ProgramKind::kStencil)) {
      std::fprintf(stderr,
                   "--checkpoint-every needs a single stencil program\n");
      return 2;
    }

    const bool elementwise = std::ranges::all_of(
        plans, [](const compiler::NodeProgram& p) {
          return p.kind == compiler::ProgramKind::kElementwise;
        });
    io::TempDir dir("oocc-cli");
    // --no-async joins OOCC_ASYNC=0: a machine without an engine.
    sim::MachineOptions machine_options = sim::MachineOptions::from_env();
    machine_options.async = machine_options.async && use_async;
    sim::Machine machine(plan.nprocs,
                         sim::MachineCostModel::touchstone_delta(),
                         machine_options);
    std::vector<double> result;
    apps::DenseArrays outputs_run;  // elementwise --verify, gathered
    compiler::StepIoCost measured;  // processor 0's LAF traffic
    runtime::SlabCacheStats cache_stats;
    exec::StencilRunInfo stencil_info;
    std::uint64_t result_fingerprint = 0;
    std::mutex stats_mu;
    // Arrays never written by any statement are the pure inputs.
    std::set<std::string> outputs;
    for (const auto& pl : plans) {
      for (const auto& [name, pa] : pl.arrays) {
        if (pa.is_output) {
          outputs.insert(name);
        }
      }
    }
    // Combines --no-cache with OOCC_NO_CACHE; also gates the counter line
    // below, which must reflect whether the pool actually ran.
    exec::ExecOptions base_exec_options = exec::default_exec_options();
    base_exec_options.use_cache = base_exec_options.use_cache && use_cache;
    base_exec_options.verify = base_exec_options.verify && options.verify;
    sim::RunReport report;
    int restarts = 0;

    if (checkpoint_every > 0) {
      // Fault-tolerant stencil path: run under the checkpoint/restart
      // driver, then gather for verification in a separate clean region
      // (the injector targets the computation, not the oracle check).
      exec::RestartOptions ropts;
      ropts.exec = base_exec_options;
      ropts.exec.max_iters = stencil_iters;
      ropts.exec.residual_tol = stencil_tol;
      ropts.array_dir = dir.path();
      ropts.disk = options.disk;
      ropts.checkpoint_every = checkpoint_every;
      ropts.checkpoint_dir = dir.path() / "ckpt";
      ropts.max_restarts = max_restarts;
      ropts.initialize = [&](sim::SpmdContext& ctx,
                             const exec::ArrayBindings& bindings) {
        for (const auto& [name, arr] : bindings) {
          if (outputs.contains(name)) {
            // A cold restart must not see a crashed attempt's partial
            // sweeps: reset outputs to the fresh-file state.
            arr->laf().fill(ctx, 0.0);
          } else {
            arr->initialize(ctx, name == plan.b ? gen_b : gen_a, memory);
          }
        }
      };
      const exec::RestartRunInfo rr =
          exec::run_stencil_with_restart(machine, plan, ropts);
      report = rr.report;
      stencil_info = rr.stencil;
      restarts = rr.restarts;
      if (verify) {
        faults::FaultInjector& injector = faults::FaultInjector::instance();
        const faults::FaultStats snapshot = injector.stats();
        injector.clear();
        machine.run([&](sim::SpmdContext& ctx) {
          auto arrays = exec::create_plan_arrays(ctx, plan, dir.path(),
                                                 options.disk);
          std::vector<double> state =
              arrays.at(stencil_info.result)->gather_global(ctx, memory);
          if (ctx.rank() == 0) {
            result = std::move(state);
          }
        });
        print_fault_line(snapshot, report, restarts);
      } else if (faults_installed) {
        print_fault_line(faults::FaultInjector::instance().stats(), report,
                         restarts);
      }
    } else {
      report = machine.run([&](sim::SpmdContext& ctx) {
        auto arrays = exec::create_sequence_arrays(ctx, sequence, dir.path(),
                                                   options.disk);
        // Initialize pure inputs: arrays never written by any statement.
        for (auto& [name, arr] : arrays) {
          if (!outputs.contains(name)) {
            arr->initialize(ctx, name == plan.b ? gen_b : gen_a, memory);
          }
        }
        sim::barrier(ctx);
        ctx.reset_accounting();
        exec::ArrayBindings bindings;
        for (auto& [name, arr] : arrays) {
          arr->laf().reset_stats();
          bindings[name] = arr.get();
        }
        exec::ExecOptions exec_options = base_exec_options;
        oocc::runtime::SlabCacheStats local_stats;
        exec_options.cache_stats = &local_stats;
        exec::StencilRunInfo local_info;
        exec_options.max_iters = stencil_iters;
        exec_options.residual_tol = stencil_tol;
        exec_options.stencil_info = &local_info;
        exec::execute_sequence(ctx, sequence, bindings, exec_options);
        {
          std::lock_guard<std::mutex> lock(stats_mu);
          cache_stats.merge(local_stats);
          if (!local_info.result.empty()) {
            stencil_info = local_info;  // allreduced: identical on every rank
          }
        }
        if (ctx.rank() == 0) {  // before the gathers below add their reads
          for (auto& [name, arr] : arrays) {
            const io::IoStats& s = arr->laf().stats();
            measured.read_requests += static_cast<double>(s.read_requests);
            measured.elements_read += static_cast<double>(s.bytes_read) / 8;
            measured.write_requests += static_cast<double>(s.write_requests);
            measured.elements_written +=
                static_cast<double>(s.bytes_written) / 8;
          }
        }
        if (verify && plan.kind == compiler::ProgramKind::kGaxpy) {
          std::vector<double> c =
              arrays.at(plan.c)->gather_global(ctx, memory);
          if (ctx.rank() == 0) {
            result = std::move(c);
          }
        }
        if (verify && plan.kind == compiler::ProgramKind::kStencil) {
          std::vector<double> state =
              arrays.at(local_info.result)->gather_global(ctx, memory);
          if (ctx.rank() == 0) {
            result = std::move(state);
          }
        }
        if (verify && elementwise) {
          for (const std::string& name : outputs) {
            std::vector<double> global =
                arrays.at(name)->gather_global(ctx, memory);
            if (ctx.rank() == 0) {
              std::lock_guard<std::mutex> lock(stats_mu);
              outputs_run[name] = std::move(global);
            }
          }
        }
        if (result_hash) {
          // The serve-compatible output fingerprint: stencil plans hash the
          // live half of the ping-pong pair, everything else hashes every
          // pure output in sorted name order (collective: all ranks gather).
          std::vector<std::string> to_hash;
          if (plan.kind == compiler::ProgramKind::kStencil) {
            to_hash.push_back(local_info.result);
          } else {
            to_hash.assign(outputs.begin(), outputs.end());
          }
          std::uint64_t h = serve::kFnvOffsetBasis;
          for (const std::string& name : to_hash) {
            const std::vector<double> global =
                arrays.at(name)->gather_global(ctx, memory);
            if (ctx.rank() == 0) {
              h = serve::hash_named_array(name, global, h);
            }
          }
          if (ctx.rank() == 0) {
            std::lock_guard<std::mutex> lock(stats_mu);
            result_fingerprint = h;
          }
        }
      });
      if (faults_installed) {
        print_fault_line(faults::FaultInjector::instance().stats(), report,
                         restarts);
      }
    }

    std::printf("=== execution ===\n");
    std::printf("simulated time: %.3f s; wall: %.3f s\n",
                report.max_sim_time_s(), report.wall_time_s);
    std::printf("I/O: %llu requests, %.2f MB; messages: %llu\n",
                static_cast<unsigned long long>(report.total_io_requests()),
                static_cast<double>(report.total_io_bytes()) / 1e6,
                static_cast<unsigned long long>(report.total_messages()));
    if (report.async.enabled && report.async.jobs > 0) {
      std::printf(
          "async io: %d threads, %llu jobs, peak queue %llu; busy %.3f s, "
          "blocked %.3f s, overlap %.3f s wall\n",
          report.async.threads,
          static_cast<unsigned long long>(report.async.jobs),
          static_cast<unsigned long long>(report.async.max_queue_depth),
          report.async.busy_s, report.async.blocked_s,
          report.async.overlap_s);
    }
    if (base_exec_options.use_cache && checkpoint_every == 0) {
      std::printf(
          "slab cache: %llu hits, %llu misses, %llu evictions, %llu "
          "write-backs, %.2f MB avoided, %llu dead slabs dropped\n",
          static_cast<unsigned long long>(cache_stats.hits),
          static_cast<unsigned long long>(cache_stats.misses),
          static_cast<unsigned long long>(cache_stats.evictions),
          static_cast<unsigned long long>(cache_stats.writebacks),
          static_cast<double>(cache_stats.elements_hit) * 8.0 / 1e6,
          static_cast<unsigned long long>(cache_stats.discarded));
    }
    if (checkpoint_every == 0 && !faults_installed) {
      // The whole run as the pricer sees it: every sweep run, in the
      // run's pool mode. Checkpoints and faults are not priced.
      compiler::PriceOptions popts;
      popts.model_cache = base_exec_options.use_cache;
      popts.sweeps = stencil_info.iterations;  // 0 without a stencil
      compiler::StepIoCost priced;
      for (const compiler::PlanPrice& p :
           compiler::price_sequence(sequence, 0, popts)) {
        for (const auto& [name, c] : p.arrays) {
          priced.read_requests += c.read_requests;
          priced.elements_read += c.elements_read;
          priced.write_requests += c.write_requests;
          priced.elements_written += c.elements_written;
        }
      }
      print_traffic("priced (processor 0)", priced);
      print_traffic("measured (processor 0)", measured);
    }

    if (result_hash && checkpoint_every == 0) {
      std::printf("result hash: 0x%016llx\n",
                  static_cast<unsigned long long>(result_fingerprint));
    }

    if (plan.kind == compiler::ProgramKind::kStencil) {
      std::printf(
          "stencil: %d sweep(s) run, final residual %.3g, result in '%s'\n",
          stencil_info.iterations, stencil_info.final_residual,
          stencil_info.result.c_str());
    }

    if (verify && plan.kind == compiler::ProgramKind::kGaxpy) {
      const std::int64_t n = plan.n;
      std::vector<double> da(static_cast<std::size_t>(n * n));
      std::vector<double> db(static_cast<std::size_t>(n * n));
      for (std::int64_t c = 0; c < n; ++c) {
        for (std::int64_t r = 0; r < n; ++r) {
          da[static_cast<std::size_t>(c * n + r)] = gen_a(r, c);
          db[static_cast<std::size_t>(c * n + r)] = gen_b(r, c);
        }
      }
      const std::vector<double> want = gaxpy::serial_matmul(da, db, n);
      double max_err = 0.0;
      for (std::size_t i = 0; i < want.size(); ++i) {
        max_err = std::max(max_err, std::abs(want[i] - result[i]));
      }
      // A tolerance passes a kernel that sums in another order; the
      // hand-coded kernel at the same slab sizes pins the order. A fault
      // plan targets the compiled run, not this oracle.
      faults::FaultInjector::instance().clear();
      const std::vector<double> handcoded =
          run_handcoded_gaxpy(machine, plan, options.disk, memory);
      std::size_t differ = 0;
      for (std::size_t i = 0; i < handcoded.size(); ++i) {
        differ += std::memcmp(&handcoded[i], &result[i], sizeof(double)) != 0
                      ? 1
                      : 0;
      }
      const bool ok = max_err < 1e-9 && differ == 0;
      std::printf("verification: max |C - A*B| = %.3g; %zu of %zu elements "
                  "differ from the hand-coded kernel -> %s\n",
                  max_err, differ, handcoded.size(),
                  ok ? "BIT-IDENTICAL" : "WRONG");
      return ok ? 0 : 1;
    }
    if (verify && plan.kind == compiler::ProgramKind::kStencil) {
      const std::vector<double> want = apps::serial_jacobi(
          plan.n, stencil_info.iterations, gen_a);
      double max_err = 0.0;
      for (std::size_t i = 0; i < want.size(); ++i) {
        max_err = std::max(max_err, std::abs(want[i] - result[i]));
      }
      std::printf("verification: max |jacobi - serial| = %.3g -> %s\n",
                  max_err, max_err == 0.0 ? "BIT-IDENTICAL" : "WRONG");
      return max_err == 0.0 ? 0 : 1;
    }
    if (verify && elementwise) {
      // The analyzed statements, run serially over dense arrays: pure
      // inputs from the generators, outputs from zero like fresh LAFs.
      apps::DenseArrays want;
      for (const auto& [name, info] : bound.arrays) {
        std::vector<double>& a = want[name];
        a.assign(static_cast<std::size_t>(info.rows * info.cols), 0.0);
        if (!outputs.contains(name)) {
          for (std::int64_t c = 0; c < info.cols; ++c) {
            for (std::int64_t r = 0; r < info.rows; ++r) {
              a[static_cast<std::size_t>(c * info.rows + r)] =
                  name == plan.b ? gen_b(r, c) : gen_a(r, c);
            }
          }
        }
      }
      apps::serial_elementwise(bound, want);
      std::size_t wrong = 0;
      for (const auto& [name, got] : outputs_run) {
        const std::vector<double>& w = want.at(name);
        if (got.size() != w.size() ||
            std::memcmp(got.data(), w.data(), w.size() * sizeof(double)) !=
                0) {
          ++wrong;
        }
      }
      std::printf("verification: %zu of %zu output arrays differ from the "
                  "serial reference -> %s\n",
                  wrong, outputs_run.size(),
                  wrong == 0 ? "BIT-IDENTICAL" : "WRONG");
      return wrong == 0 ? 0 : 1;
    }
    if (verify) {
      std::printf("verification: no serial reference for a sequence that "
                  "mixes program kinds -> UNCHECKED\n");
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
