// Reuse-aware slab buffer pool: LAF traffic of a two-statement GAXPY-style
// elementwise chain, with the pool on vs --no-cache.
//
// Workload (statement-at-a-time — the case fusion does not cover, e.g.
// separately compiled statements):
//   c = a*b ; e = c + a*b
//
// Uncached, statement 2 re-reads c, a and b from their Local Array Files
// even though every one of those slabs was in memory moments earlier:
// 5 local-array reads + 2 writes in total. With the pool, statement 2's
// demand reads hit slabs statement 1 read (a, b) or staged (c, served
// dirty before its write-back), so the chain moves 2 reads + 2 writes —
// a 7/4 = 1.75x LAF-byte reduction. The slab sweeps stay genuinely
// out-of-core (each buffer holds a fraction of a local array); the pool is
// given the memory the compiler left unused (OOCC_CACHE_BUDGET_FACTOR
// local arrays, default 4) so the chain's working set is retainable.
//
// The bench exits nonzero if the >= 1.5x byte invariant breaks (CI runs it
// in the release smoke job), or if the pool run's outputs differ from the
// uncached run's.
#include "bench_common.hpp"

#include <mutex>
#include <set>

#include "oocc/compiler/lower.hpp"
#include "oocc/exec/interp.hpp"

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

struct ChainResult {
  std::uint64_t laf_bytes = 0;
  std::uint64_t laf_requests = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_writebacks = 0;
  std::uint64_t bytes_avoided = 0;
  double sim_time_s = 0.0;
  std::vector<double> e_global;  ///< gathered result (rank 0)
};

ChainResult run_chain(std::int64_t n, int p, bool use_cache) {
  using namespace oocc;

  compiler::CompileOptions options;
  // Statement-at-a-time: the pool, not fusion, is under test here.
  options.enable_statement_fusion = false;
  // Slab sizes from one local array's worth of memory: every sweep is
  // multi-slab (each buffer holds ~1/3 of a local array).
  const std::int64_t local = n * ((n + p - 1) / p);
  options.memory_budget_elements = local;
  const std::vector<compiler::NodeProgram> plans =
      compiler::compile_sequence_source(chain_source(n, p), options);

  ChainResult result;
  io::TempDir dir("oocc-cache");
  sim::Machine machine(p, sim::MachineCostModel::touchstone_delta());
  std::mutex mu;
  sim::RunReport report = machine.run([&](sim::SpmdContext& ctx) {
    auto arrays = exec::create_sequence_arrays(
        ctx, std::span<const compiler::NodeProgram>(plans.data(),
                                                    plans.size()),
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
    exec_options.use_cache = use_cache;
    // The compiler sized the slabs; the pool additionally gets the node
    // memory the plans left unused, so the chain's working set (a, b and
    // the staged c) is retainable across statements.
    exec_options.budget_elements =
        local * env_int("OOCC_CACHE_BUDGET_FACTOR", 4);
    runtime::SlabCacheStats cache;
    exec_options.cache_stats = &cache;
    exec::execute_sequence(
        ctx,
        std::span<const compiler::NodeProgram>(plans.data(), plans.size()),
        bindings, exec_options);
    std::vector<double> e = arrays.at("e")->gather_global(ctx, local);
    std::lock_guard<std::mutex> lock(mu);
    for (auto& [name, arr] : arrays) {
      const io::IoStats& s = arr->laf().stats();
      result.laf_bytes += s.bytes_read + s.bytes_written;
      result.laf_requests += s.read_requests + s.write_requests;
    }
    result.bytes_avoided += cache.elements_hit * sizeof(double);
    result.cache_hits += cache.hits;
    result.cache_writebacks += cache.writebacks;
    if (ctx.rank() == 0) {
      result.e_global = std::move(e);
    }
  });
  result.sim_time_s = report.max_sim_time_s();
  return result;
}

}  // namespace

int main() {
  using namespace oocc;
  using namespace oocc::bench;

  const std::int64_t n = bench_n(512);
  print_header(
      "Slab buffer pool: 2-statement GAXPY chain, LAF traffic vs --no-cache");
  std::printf("c = a*b ; e = c + a*b (statement-at-a-time), N = %lld\n\n",
              static_cast<long long>(n));

  TextTable table({"P", "no-cache MB", "pool MB", "byte ratio",
                   "no-cache reqs", "pool reqs", "hits", "write-backs",
                   "MB avoided", "no-cache time (s)", "pool time (s)"});
  bool ok = true;
  for (int p : bench_procs()) {
    if (p > n) {
      continue;
    }
    const ChainResult plain = run_chain(n, p, /*use_cache=*/false);
    const ChainResult pooled = run_chain(n, p, /*use_cache=*/true);
    const double ratio = static_cast<double>(plain.laf_bytes) /
                         static_cast<double>(pooled.laf_bytes);
    // The ISSUE invariant: >= 1.5x fewer LAF bytes with the pool on.
    ok = ok && 2 * plain.laf_bytes >= 3 * pooled.laf_bytes;
    // And bit-identical results: the pool changes where bytes come from,
    // never their values.
    if (plain.e_global.size() != pooled.e_global.size()) {
      std::printf("result size mismatch at P=%d\n", p);
      ok = false;
    } else {
      for (std::size_t i = 0; i < plain.e_global.size(); ++i) {
        if (plain.e_global[i] != pooled.e_global[i]) {
          std::printf("result mismatch at P=%d index %zu\n", p, i);
          ok = false;
          break;
        }
      }
    }
    table.add_row(
        {std::to_string(p),
         format_fixed(static_cast<double>(plain.laf_bytes) / 1e6, 1),
         format_fixed(static_cast<double>(pooled.laf_bytes) / 1e6, 1),
         format_fixed(ratio, 2) + "x", std::to_string(plain.laf_requests),
         std::to_string(pooled.laf_requests),
         std::to_string(pooled.cache_hits),
         std::to_string(pooled.cache_writebacks),
         format_fixed(static_cast<double>(pooled.bytes_avoided) / 1e6, 1),
         format_fixed(plain.sim_time_s, 2),
         format_fixed(pooled.sim_time_s, 2)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "shape check (pool moves >=1.5x fewer LAF bytes, identical results): "
      "%s\n",
      ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
