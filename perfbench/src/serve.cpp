// serve_compile: a fixed, seeded request stream through in-process
// serve::Server::handle_line from two closed-loop clients.
//
// A pass sends every compile key kRepeats times and the one run key
// kRunRepeats times per client, each client's order shuffled by the seed,
// to a fresh Server; passes repeat until the time is up. The first request
// of a key is the one that misses, on every run: each compile key belongs to
// one client, and the shared run key is client 0's first request, which
// client 1 waits for before it starts.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <mutex>
#include <random>
#include <set>
#include <thread>

#include "harness.hpp"
#include "oocc/hpf/parser.hpp"
#include "oocc/hpf/programs.hpp"
#include "oocc/io/file_backend.hpp"
#include "oocc/serve/hash.hpp"
#include "oocc/serve/job.hpp"
#include "oocc/serve/server.hpp"

namespace perfbench {

using namespace oocc;
using serve::Json;

namespace {

constexpr int kClients = 2;
constexpr int kRepeats = 12;      ///< requests per compile key and pass
constexpr int kRunRepeats = 4;    ///< op=run requests per client and pass
constexpr int kServerBuilds = 20;  ///< Server constructions per pass

std::string wide_chain_source(std::int64_t n, int p) {
  return "      parameter (n=" + std::to_string(n) + ", p=" + std::to_string(p) +
         ")\n"
         "      real x(n,n), y(n,n), u(n,n), v(n,n), w(n,n)\n"
         "!hpf$ processors Pr(p)\n"
         "!hpf$ template d(n)\n"
         "!hpf$ distribute d(block) onto Pr\n"
         "!hpf$ align (*,:) with d :: x, y, u, v, w\n"
         "      forall (k=1:n)\n"
         "        y(1:n,k) = x(1:n,k)*2 + 1\n"
         "      end forall\n"
         "      forall (k=1:n)\n"
         "        w(1:n,k) = y(1:n,k)*u(1:n,k) + v(1:n,k)\n"
         "      end forall\n"
         "      end\n";
}

/// One distinct plan-cache key of the stream.
struct Key {
  std::string label;
  std::string source;
  std::int64_t memory = 0;  ///< per-processor budget, elements
  bool search = false;
  bool run = false;         ///< sent as op=run, by both clients
  int iters = 1;            ///< stencil sweeps of a run

  compiler::CompileOptions options() const {
    compiler::CompileOptions o;
    o.memory_budget_elements = memory;
    o.opt = search ? compiler::OptMode::kSearch : compiler::OptMode::kHeuristic;
    return o;
  }

  std::string request(int client, int seq) const {
    Json req = Json::object();
    req.set("id", label + "-" + std::to_string(seq));
    req.set("tenant", "client" + std::to_string(client));
    req.set("op", run ? "run" : "compile");
    req.set("program", source);
    req.set("memory", memory);
    req.set("opt", search ? "search" : "heuristic");
    req.set("iters", iters);
    return req.dump();
  }
};

/// Chain, wide-chain, GAXPY and stencil shapes, tight to roomy budgets,
/// heuristic and search, then the run key (last).
std::vector<Key> make_keys() {
  auto local = [](std::int64_t n, int p) { return n * ((n + p - 1) / p); };
  std::vector<Key> keys = {
      {"chain1024-tight", chain_source(1024, 4), local(1024, 4) / 16},
      {"chain512-roomy-search", chain_source(512, 4), 2 * local(512, 4), true},
      {"chain1024-p2", chain_source(1024, 2), local(1024, 2) / 8},
      {"chain256-search", chain_source(256, 4), local(256, 4) / 4, true},
      {"wide1024-tight", wide_chain_source(1024, 4), local(1024, 4) / 16},
      {"wide512-search", wide_chain_source(512, 4), local(512, 4) / 2, true},
      {"wide1024-roomy", wide_chain_source(1024, 2), 2 * local(1024, 2)},
      {"gaxpy256", hpf::gaxpy_source(256, 4), local(256, 4) / 2},
      // The three heaviest misses, close in cost: together 1.5% of a pass's
      // requests, so the pass's p99 falls inside their cluster.
      {"gaxpy384-tight", hpf::gaxpy_source(384, 4), 8192},
      {"gaxpy384-tight2", hpf::gaxpy_source(384, 4), 8704},
      {"gaxpy384-tight3", hpf::gaxpy_source(384, 4), 9216},
      {"gaxpy192-search", hpf::gaxpy_source(192, 2), local(192, 2) / 2, true},
      {"stencil1024-tight", hpf::stencil_source(1024, 4), local(1024, 4) / 16},
      {"stencil1024-search", hpf::stencil_source(1024, 4), local(1024, 4) / 4,
       true},
      {"stencil768", hpf::stencil_source(768, 2), local(768, 2) / 8},
      {"stencil512-roomy-search", hpf::stencil_source(512, 2),
       2 * local(512, 2), true},
  };
  Key run{"run-stencil64", hpf::stencil_source(64, 2), 1024};
  run.run = true;
  run.iters = 4;
  keys.push_back(run);
  return keys;
}

/// One request of a client's stream.
struct Request {
  const Key* key = nullptr;
  std::string line;
};

/// Each client's pass: its compile keys (every other one) and the run key,
/// repeated and shuffled by the seed; client 0 opens with the run key.
std::vector<std::vector<Request>> make_streams(const std::vector<Key>& keys,
                                               std::uint64_t seed) {
  std::vector<std::vector<Request>> streams(kClients);
  int seq = 0;
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const Key& key = keys[k];
    for (int c = 0; c < kClients; ++c) {
      if (!key.run && k % kClients != static_cast<std::size_t>(c)) {
        continue;
      }
      for (int i = 0; i < (key.run ? kRunRepeats : kRepeats); ++i) {
        streams[static_cast<std::size_t>(c)].push_back(
            {&key, key.request(c, seq++)});
      }
    }
  }
  for (int c = 0; c < kClients; ++c) {
    std::vector<Request>& s = streams[static_cast<std::size_t>(c)];
    std::mt19937_64 rng(seed * kClients + static_cast<std::uint64_t>(c));
    std::shuffle(s.begin(), s.end(), rng);
    if (c == 0) {
      std::iter_swap(s.begin(), std::find_if(s.begin(), s.end(), [](auto& r) {
                       return r.key->run;
                     }));
    }
  }
  return streams;
}

/// The run key executed directly: compile_sequence_source and
/// execute_sequence on a fresh machine, no server, the server's input
/// generators. Every op=run result_hash must equal `hash`.
struct Reference {
  std::uint64_t hash = 0;
  bool repeatable = true;  ///< every direct run gave the same hash
  std::vector<compiler::NodeProgram> plans;
  ExecSetup setup;
  std::vector<Execution> runs;
};

/// Fills `ref` from `times` direct executions of `key`.
void run_reference(const Key& key, bool trace, int times, Reference& ref) {
  ref.plans = compiler::compile_sequence_source(key.source, key.options());
  const compiler::NodeProgram& front = ref.plans.front();
  const std::vector<std::string> outputs =
      serve::collect_output_arrays(ref.plans);
  const std::set<std::string> output_set(outputs.begin(), outputs.end());

  ExecSetup& setup = ref.setup;
  setup.plans = std::span<const compiler::NodeProgram>(ref.plans);
  setup.nprocs = front.nprocs;
  for (const compiler::NodeProgram& plan : ref.plans) {
    for (const auto& [name, pa] : plan.arrays) {
      if (!output_set.contains(name)) {
        setup.inputs[name] =
            name == front.b ? serve::input_gen_b : serve::input_gen_a;
      }
    }
  }
  setup.stage_budget = key.memory;
  setup.max_iters = key.iters;
  setup.primary_output = outputs.back();
  std::uint64_t hash = 0;
  setup.post = [&](sim::SpmdContext& ctx, ArrayMap& arrays,
                   const std::string& result) {
    // The fingerprint run_job computes: the live stencil array, otherwise
    // every output in name order.
    std::vector<std::string> names = outputs;
    if (front.kind == compiler::ProgramKind::kStencil) {
      names = {result};
    }
    std::uint64_t h = serve::kFnvOffsetBasis;
    for (const std::string& name : names) {
      const std::vector<double> global =
          arrays.at(name)->gather_global(ctx, key.memory);
      if (ctx.rank() == 0) {
        h = serve::hash_named_array(name, global, h);
      }
    }
    if (ctx.rank() == 0) {
      hash = h;
    }
  };
  for (int i = 0; i < times; ++i) {
    setup.time_gather = trace && i % 2 == 1;
    io::TempDir dir("perfbench-serve-ref");
    ref.runs.push_back(execute_once(setup, dir.path()));
    ref.repeatable = ref.repeatable && (i == 0 || hash == ref.hash);
    ref.hash = hash;
  }
  setup.post = nullptr;
}

/// What one request cost and returned.
struct Sample {
  enum Kind { kHit, kMiss, kRun } kind = kHit;
  double latency_s = 0.0;
  bool ok = true;
  double run_wall_s = 0.0;
  double run_sim_s = 0.0;
  double wait_s = 0.0;
};

std::vector<double> latencies_ms(const std::vector<Sample>& from, int kind) {
  std::vector<double> v;
  for (const Sample& s : from) {
    if (kind < 0 || s.kind == kind) {
      v.push_back(s.latency_s * 1e3);
    }
  }
  return v;
}

/// Sends one client's stream; `traced` also times the JSON layer on each
/// request and response, outside the request's latency.
std::vector<Sample> run_client(serve::Server& server,
                               const std::vector<Request>& stream,
                               const Reference& ref, bool traced,
                               double& json_s,
                               std::promise<void>* first_done) {
  std::vector<Sample> out;
  for (const Request& req : stream) {
    const auto t0 = SteadyClock::now();
    const Json res = server.handle_line(req.line);
    Sample s;
    s.latency_s = seconds_since(t0);
    s.ok = res.get_bool("ok", false);
    if (!s.ok) {
      std::fprintf(stderr, "serve_compile: %s failed: %s\n",
                   req.key->label.c_str(), res.get_string("error", "?").c_str());
    }
    if (req.key->run) {
      s.kind = Sample::kRun;
      s.run_wall_s = res.get_double("wall_s", 0.0);
      s.run_sim_s = res.get_double("sim_s", 0.0);
      s.wait_s = res.get_double("wait_s", 0.0);
      const std::string got = res.get_string("result_hash", "");
      if (s.ok && (!ref.repeatable ||
                   std::strtoull(got.c_str(), nullptr, 16) != ref.hash)) {
        std::fprintf(stderr, "serve_compile: %s result %s != direct %llx\n",
                     req.key->label.c_str(), got.c_str(),
                     static_cast<unsigned long long>(ref.hash));
        s.ok = false;
      }
    } else {
      s.kind = res.get_bool("cache_hit", false) ? Sample::kHit : Sample::kMiss;
    }
    if (traced) {
      const auto tj = SteadyClock::now();
      Json::parse(req.line);
      res.dump();
      json_s += seconds_since(tj);
    }
    out.push_back(s);
    if (first_done != nullptr) {
      first_done->set_value();
      first_done = nullptr;
    }
  }
  return out;
}

}  // namespace

void run_serve_workload(const RunConfig& cfg, Report& report) {
  const auto t_start = SteadyClock::now();
  const std::vector<Key> keys = make_keys();
  const Key& run_key = keys.back();
  const std::vector<std::vector<Request>> streams = make_streams(keys, cfg.seed);

  // compile_s: the stream's distinct programs compiled directly, summed;
  // one sample after every pass.
  std::vector<double> compile_s;
  auto compile_all = [&] {
    double total = 0.0;
    for (const Key& key : keys) {
      const auto t0 = SteadyClock::now();
      compiler::compile_sequence_source(key.source, key.options());
      total += seconds_since(t0);
    }
    compile_s.push_back(total);
  };

  Reference ref;
  run_reference(run_key, cfg.trace, cfg.trace ? 6 : 1, ref);

  // Tenant trees live in one directory for the whole run, so constructing
  // a Server does no file-system work.
  const io::TempDir work_root("perfbench-serve");
  std::vector<Sample> samples;
  std::vector<Sample> traced_samples;
  std::vector<double> setup_s;
  std::vector<double> pass_wall_s;
  std::vector<double> rss_mb;
  std::vector<double> json_s;
  std::vector<double> wait_s;
  std::vector<double> pass_p99_ms;
  std::uint64_t lookups = 0;
  std::uint64_t from_cache = 0;
  std::uint64_t inflight_waits = 0;
  for (int pass = 0; pass < 2 || seconds_since(t_start) < cfg.seconds; ++pass) {
    const bool traced = cfg.trace && pass % 2 == 1;
    serve::ServerOptions options;
    // Room for both clients' run jobs at once: admission never queues.
    options.total_budget_elements =
        kClients * ref.plans.front().nprocs * run_key.memory;
    options.work_root = work_root.path();
    malloc_trim(0);
    reset_peak_rss();
    // set-up: Server construction, timed over a batch since one takes a few
    // microseconds.
    std::unique_ptr<serve::Server> server;
    const auto t_setup = SteadyClock::now();
    for (int i = 0; i < kServerBuilds; ++i) {
      server.reset();
      server = std::make_unique<serve::Server>(options);
    }
    setup_s.push_back(seconds_since(t_setup) / kServerBuilds);

    std::vector<std::vector<Sample>> got(kClients);
    std::vector<double> client_json_s(kClients, 0.0);
    std::promise<void> first_done;
    std::shared_future<void> started = first_done.get_future().share();
    const auto t_pass = SteadyClock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        if (c != 0) {
          started.wait();
        }
        got[c] = run_client(*server, streams[c], ref, traced,
                            client_json_s[c], c == 0 ? &first_done : nullptr);
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    pass_wall_s.push_back(seconds_since(t_pass));
    rss_mb.push_back(peak_rss_mb());
    if (!cfg.trace) {
      compile_all();
    }

    const serve::PlanCache::Stats stats = server->cache().stats();
    lookups += stats.hits + stats.misses + stats.inflight_waits;
    from_cache += stats.hits + stats.inflight_waits;
    inflight_waits += stats.inflight_waits;
    double pass_json_s = 0.0;
    double pass_wait_s = 0.0;
    std::vector<double> pass_ms;
    for (int c = 0; c < kClients; ++c) {
      pass_json_s += client_json_s[c];
      for (const Sample& s : got[c]) {
        report.count_op(s.ok);
        pass_wait_s += s.wait_s;
        pass_ms.push_back(s.latency_s * 1e3);
        (traced ? traced_samples : samples).push_back(s);
      }
    }
    wait_s.push_back(pass_wait_s);
    if (!traced) {
      pass_p99_ms.push_back(quantile(pass_ms, 0.99));
    }
    if (traced) {
      json_s.push_back(pass_json_s);
    }
  }
  report.note("requests", std::to_string(samples.size() + traced_samples.size()));

  if (!cfg.trace) {
    std::vector<double> run_wall;
    std::vector<double> run_sim;
    for (const Sample& s : samples) {
      if (s.kind == Sample::kRun) {
        run_wall.push_back(s.run_wall_s);
        run_sim.push_back(s.run_sim_s);
      }
    }
    double total_wall = 0.0;
    for (const double w : pass_wall_s) {
      total_wall += w;
    }
    const std::vector<double> all = latencies_ms(samples, -1);
    report.set("run_s", median(run_wall), "s");
    report.set("compile_s", quantile(compile_s, 0.1), "s");
    report.set("sim_makespan_s", median(run_sim), "sim_s");
    report.set("setup_s", median(setup_s), "s");
    report.set("req_p50_ms", median(all), "ms");
    // The p99 of each pass lies among its three GAXPY N=384 misses, whose
    // cost follows the host's CPU speed; pooled over the run it would fall
    // on the boundary between fast and slow stretches and move with their
    // mix. The fast passes, like compile_s, are the repeatable ones.
    report.set("req_p99_ms", quantile(pass_p99_ms, 0.1), "ms");
    report.set("req_per_s", ratio(double(all.size()), total_wall), "1/s");
    // Malloc arenas make later passes climb in steps (README.md).
    report.set("peak_rss_mb", quantile(rss_mb, 0.1), "MB");
    return;
  }

  // Compile layers summed over the distinct keys, plus the program hash a
  // pass computes (one canonical_program_hash per request).
  std::vector<CompileLayers> layer_samples;
  std::vector<double> hash_s;
  for (int rep = 0; rep < 3; ++rep) {
    CompileLayers total;
    double hashing = 0.0;
    for (const Key& key : keys) {
      total.add(time_compile_layers(key.source, key.options(), 0, key.search));
      const hpf::BoundProgram bound = hpf::analyze(hpf::parse(key.source));
      const auto t0 = SteadyClock::now();
      serve::canonical_program_hash(bound);
      hashing += seconds_since(t0) *
                 (key.run ? kClients * kRunRepeats : kRepeats);
    }
    layer_samples.push_back(total);
    hash_s.push_back(hashing);
  }
  const CompileLayers compiled = median_layers(layer_samples);
  if (!compiled.ok) {
    report.count_op(false);
  }
  report_compile_layers(report, compiled);

  // exec, runtime, io and sim: the run key's direct executions.
  report.set("compiler.price_error",
             price_error(ref.setup, ref.runs,
                         time_compile_layers(run_key.source, run_key.options(),
                                             0, false)
                             .priced_requests),
             "ratio");
  report_exec_layers(report, ref.runs);
  report_io_ceiling(report, ref.plans.front(), ref.runs);

  std::vector<Sample> both = samples;
  both.insert(both.end(), traced_samples.begin(), traced_samples.end());
  report.set("serve.hit_ratio",
             ratio(double(from_cache), double(lookups)), "ratio");
  report.set("serve.inflight_waits", double(inflight_waits), "count");
  report.set("serve.hit_p50_ms", median(latencies_ms(both, Sample::kHit)),
             "ms");
  report.set("serve.miss_p50_ms", median(latencies_ms(both, Sample::kMiss)),
             "ms");
  report.set("serve.miss_p99_ms",
             quantile(latencies_ms(both, Sample::kMiss), 0.99), "ms");
  report.set("serve.run_p50_ms", median(latencies_ms(both, Sample::kRun)),
             "ms");
  report.set("serve.admission_wait_s", median(wait_s), "s");
  report.set("serve.json_s", median(json_s), "s");
  report.set("serve.hash_s", median(hash_s), "s");
  report.set("trace.overhead_frac",
             ratio(median(latencies_ms(traced_samples, -1)),
                   median(latencies_ms(samples, -1))) -
                 1.0,
             "ratio");
}

}  // namespace perfbench
