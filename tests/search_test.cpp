// Cost-model-driven global plan search (compiler/search.hpp): a randomized
// differential-testing harness over seeded generated programs (progen.hpp)
// proving, per program, that heuristic and searched plans both verify, run
// bit-identically to each other and to the uncached reference execution,
// match their priced LAF counters exactly on every rank (cached, and the
// uncached reference against the uncached price), and that the searched
// plan's
// priced makespan never exceeds the heuristic's (the search's defining
// invariant: the heuristic is candidate 0). Plus: seeded determinism, the
// structured "not searchable" barrier diagnostics, fusion-partition
// enumeration, and the OOCC-V0xx mutation catalogue replayed against
// search-produced plans. OOCC_SEARCH_SOAK=1 unlocks the 200-program soak
// (nightly CI job).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "oocc/compiler/lower.hpp"
#include "oocc/compiler/pretty.hpp"
#include "oocc/compiler/search.hpp"
#include "oocc/compiler/verify.hpp"
#include "oocc/exec/interp.hpp"
#include "oocc/hpf/programs.hpp"
#include "oocc/sim/collectives.hpp"
#include "progen.hpp"

namespace oocc::compiler {
namespace {

using exec::ArrayBindings;
using exec::ExecOptions;
using io::DiskModel;
using io::TempDir;
using progen::GeneratedProgram;
using sim::Machine;
using sim::MachineCostModel;
using sim::SpmdContext;

double gen_input(std::int64_t r, std::int64_t c) {
  return std::sin(static_cast<double>(r * 3 + c * 13)) + 1.25;
}

struct SequenceRun {
  std::map<std::string, std::vector<double>> globals;  ///< gathered arrays
  /// Per rank: LAF stats by array, and the pool's counters.
  std::vector<std::map<std::string, io::IoStats>> per_array;
  std::vector<runtime::SlabCacheStats> cache;
};

/// Executes the sequence on a P-processor machine: initialize the pure
/// inputs deterministically, run one sweep of everything (stencils pinned
/// to max_iters=1 so priced == measured holds), gather every array.
SequenceRun run_sequence(const std::vector<NodeProgram>& plans, int nprocs,
                         bool use_cache) {
  TempDir dir;
  Machine machine(nprocs, MachineCostModel::zero());
  SequenceRun out;
  out.per_array.resize(static_cast<std::size_t>(nprocs));
  out.cache.resize(static_cast<std::size_t>(nprocs));
  machine.run([&](SpmdContext& ctx) {
    auto arrays = exec::create_sequence_arrays(
        ctx, std::span<const NodeProgram>(plans.data(), plans.size()),
        dir.path(), DiskModel::zero());
    std::set<std::string> outputs;
    for (const NodeProgram& plan : plans) {
      for (const auto& [name, pa] : plan.arrays) {
        if (pa.is_output) {
          outputs.insert(name);
        }
      }
    }
    for (auto& [name, arr] : arrays) {
      if (!outputs.contains(name)) {
        arr->initialize(ctx, gen_input, 1 << 16);
      }
      arr->laf().reset_stats();
    }
    ArrayBindings bindings;
    for (auto& [name, arr] : arrays) {
      bindings[name] = arr.get();
    }
    ExecOptions options;
    options.use_cache = use_cache;
    options.max_iters = 1;
    runtime::SlabCacheStats local_cache;
    options.cache_stats = &local_cache;
    exec::execute_sequence(
        ctx, std::span<const NodeProgram>(plans.data(), plans.size()),
        bindings, options);
    static std::mutex mu;
    const auto rank = static_cast<std::size_t>(ctx.rank());
    out.cache[rank] = local_cache;
    for (auto& [name, arr] : arrays) {
      const io::IoStats s = arr->laf().stats();
      std::vector<double> g = arr->gather_global(ctx, 1 << 16);
      std::lock_guard<std::mutex> lock(mu);
      out.per_array[rank][name] = s;
      if (ctx.rank() == 0) {
        out.globals[name] = std::move(g);
      }
    }
  });
  return out;
}

/// Exact-counter check: on every rank, the sequence price must equal the
/// rank's measured LAF stats and pool hits, for whichever plan set —
/// heuristic or searched — `plans` holds. `model_cache` matches how `run`
/// executed: the retaining pool, or the uncached (no-retain) reference.
void expect_priced_equals_measured(const std::vector<NodeProgram>& plans,
                                   const SequenceRun& run,
                                   const std::string& label,
                                   bool model_cache = true) {
  PriceOptions popts;
  popts.model_cache = model_cache;
  for (std::size_t rank = 0; rank < run.per_array.size(); ++rank) {
    const std::string where = label + " rank " + std::to_string(rank);
    const std::vector<PlanPrice> priced = price_sequence(
        std::span<const NodeProgram>(plans.data(), plans.size()),
        static_cast<int>(rank), popts);
    std::map<std::string, StepIoCost> total;
    double hits = 0.0;
    for (const PlanPrice& p : priced) {
      for (const auto& [name, cost] : p.arrays) {
        StepIoCost& t = total[name];
        t.read_requests += cost.read_requests;
        t.elements_read += cost.elements_read;
        t.write_requests += cost.write_requests;
        t.elements_written += cost.elements_written;
      }
      hits += p.cache_hits;
    }
    EXPECT_DOUBLE_EQ(static_cast<double>(run.cache[rank].hits), hits)
        << where;
    for (const auto& [name, cost] : total) {
      const io::IoStats& s = run.per_array[rank].at(name);
      EXPECT_DOUBLE_EQ(static_cast<double>(s.read_requests),
                       cost.read_requests)
          << where << " " << name;
      EXPECT_DOUBLE_EQ(static_cast<double>(s.bytes_read) / 8.0,
                       cost.elements_read)
          << where << " " << name;
      EXPECT_DOUBLE_EQ(static_cast<double>(s.write_requests),
                       cost.write_requests)
          << where << " " << name;
      EXPECT_DOUBLE_EQ(static_cast<double>(s.bytes_written) / 8.0,
                       cost.elements_written)
          << where << " " << name;
    }
  }
}

void expect_bit_identical(const SequenceRun& got, const SequenceRun& want,
                          const std::string& label) {
  ASSERT_EQ(got.globals.size(), want.globals.size()) << label;
  for (const auto& [name, w] : want.globals) {
    const auto it = got.globals.find(name);
    ASSERT_NE(it, got.globals.end()) << label << " " << name;
    ASSERT_EQ(it->second.size(), w.size()) << label << " " << name;
    for (std::size_t i = 0; i < w.size(); ++i) {
      ASSERT_EQ(it->second[i], w[i]) << label << " " << name << "[" << i
                                     << "]";
    }
  }
}

/// The full differential check for one seed. Every assertion carries the
/// generated program's description so a failing seed reproduces directly.
void check_seed(std::uint64_t seed, bool fuse = true) {
  const GeneratedProgram gp = progen::generate_program(seed);
  SCOPED_TRACE("seed " + std::to_string(seed) + (fuse ? "" : " unfused") +
               ": " + gp.describe);

  CompileOptions base;
  base.memory_budget_elements = gp.memory_budget_elements;
  base.enable_statement_fusion = fuse;
  const std::vector<NodeProgram> heuristic =
      compile_sequence_source(gp.source, base);

  CompileOptions sopt = base;
  sopt.opt = OptMode::kSearch;
  const SearchResult searched = search_sequence_source(gp.source, sopt);

  // Both verify: the compile paths stamp plans only after the static
  // verifier passed, so a missing stamp means a verification gap.
  for (const NodeProgram& p : heuristic) {
    EXPECT_TRUE(p.verified);
  }
  for (const NodeProgram& p : searched.plans) {
    EXPECT_TRUE(p.verified);
  }
  // The search stamps no plan it did not verify as a whole sequence.
  EXPECT_TRUE(verify_sequence(std::span<const NodeProgram>(
                                  searched.plans.data(), searched.plans.size()))
                  .ok());

  // The search can never lose to its own candidate 0.
  const double heur_priced = priced_sequence_makespan_s(
      std::span<const NodeProgram>(heuristic.data(), heuristic.size()),
      base.disk, base.machine);
  const double search_priced = priced_sequence_makespan_s(
      std::span<const NodeProgram>(searched.plans.data(),
                                   searched.plans.size()),
      base.disk, base.machine);
  EXPECT_LE(search_priced, heur_priced + 1e-9);
  // And the report's numbers are the real ones, not summaries drifting
  // from the returned plans.
  EXPECT_NEAR(searched.report.heuristic_priced_s, heur_priced, 1e-9);
  EXPECT_NEAR(searched.report.chosen_priced_s, search_priced, 1e-9);

  // Three executions: heuristic cached, searched cached, and the uncached
  // heuristic run as the reference semantics. All bit-identical.
  const SequenceRun ref = run_sequence(heuristic, gp.nprocs, false);
  const SequenceRun heur_run = run_sequence(heuristic, gp.nprocs, true);
  const SequenceRun search_run =
      run_sequence(searched.plans, gp.nprocs, true);
  expect_bit_identical(heur_run, ref, "heuristic cached vs reference");
  expect_bit_identical(search_run, ref, "searched vs reference");

  // Priced == measured on both plan sets: the objective the search
  // minimized is the executor's reality, not a proxy.
  expect_priced_equals_measured(heuristic, heur_run, "heuristic");
  expect_priced_equals_measured(searched.plans, search_run, "searched");
  expect_priced_equals_measured(heuristic, ref, "uncached reference",
                                /*model_cache=*/false);
}

// ------------------------------------------------- differential harness

TEST(SearchDifferential, HundredSeededPrograms) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    check_seed(seed);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(SearchDifferential, UnfusedChainsRunAtTheirOwnBudget) {
  // Statement-at-a-time sequences whose cover hits once left no room to
  // assemble beside their pinned sources: the pool threw although the plans
  // verified, and the pricer over-subscribed silently. Such reads are now
  // served from disk by both, so each seed runs and prices exactly.
  for (const std::uint64_t seed :
       {168ULL, 169ULL, 483ULL, 606ULL, 834ULL, 898ULL, 1048ULL, 1063ULL,
        1158ULL, 1455ULL, 1670ULL, 1945ULL, 1975ULL}) {
    check_seed(seed, /*fuse=*/false);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(SearchDifferential, SoakTwoHundredPrograms) {
  // Nightly-scale soak on a disjoint seed range; OOCC_SEARCH_SOAK=1 (the
  // search-soak CI job) unlocks it.
  const char* env = std::getenv("OOCC_SEARCH_SOAK");
  if (env == nullptr || std::string(env) == "0") {
    GTEST_SKIP() << "set OOCC_SEARCH_SOAK=1 to run the 200-program soak";
  }
  for (std::uint64_t seed = 1000; seed < 1200; ++seed) {
    check_seed(seed);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

// ------------------------------------------------------------ determinism

TEST(SearchDeterminism, SameSeedSameProgramSamePlan) {
  for (const std::uint64_t seed : {7ULL, 42ULL, 99ULL}) {
    const GeneratedProgram a = progen::generate_program(seed);
    const GeneratedProgram b = progen::generate_program(seed);
    EXPECT_EQ(a.source, b.source) << "seed " << seed;
    EXPECT_EQ(a.describe, b.describe) << "seed " << seed;
    EXPECT_EQ(a.memory_budget_elements, b.memory_budget_elements);

    CompileOptions options;
    options.memory_budget_elements = a.memory_budget_elements;
    options.opt = OptMode::kSearch;
    const SearchResult first = search_sequence_source(a.source, options);
    const SearchResult second = search_sequence_source(b.source, options);
    EXPECT_EQ(first.report.chosen, second.report.chosen) << "seed " << seed;
    EXPECT_EQ(first.report.enumerated, second.report.enumerated);
    EXPECT_DOUBLE_EQ(first.report.chosen_priced_s,
                     second.report.chosen_priced_s);
    ASSERT_EQ(first.plans.size(), second.plans.size()) << "seed " << seed;
    for (std::size_t i = 0; i < first.plans.size(); ++i) {
      // The emitted step programs must match structurally, not just in
      // price: step_program_text renders loops, capacities and the tree.
      EXPECT_EQ(step_program_text(first.plans[i]),
                step_program_text(second.plans[i]))
          << "seed " << seed << " plan " << i;
    }
  }
}

TEST(SearchDeterminism, DistinctSeedsCoverEveryShape) {
  // The generator must actually exercise all four program shapes within
  // the default differential range, or the harness silently narrows.
  bool chain = false;
  bool gaxpy = false;
  bool stencil = false;
  bool mixed = false;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const GeneratedProgram gp = progen::generate_program(seed);
    if (gp.has_stencil) {
      stencil = true;
    } else if (gp.has_gaxpy) {
      (gp.statements > 1 ? mixed : gaxpy) = true;
    } else {
      chain = true;
    }
  }
  EXPECT_TRUE(chain);
  EXPECT_TRUE(gaxpy);
  EXPECT_TRUE(stencil);
  EXPECT_TRUE(mixed);
}

// ------------------------------------------- search space and diagnostics

TEST(SearchSpace, EnumeratesFusionPartitionsOfAChain) {
  // A 3-statement chain has four contiguous partitions; each must appear
  // in the candidate log (crossed with share/prefetch knobs).
  const std::string src =
      "parameter (n=24, p=4)\n"
      "real x(n,n), y(n,n), z(n,n), w(n,n)\n"
      "!hpf$ processors Pr(p)\n"
      "!hpf$ template d(n)\n"
      "!hpf$ distribute d(block) onto Pr\n"
      "!hpf$ align (*,:) with d :: x, y, z, w\n"
      "forall (k=1:n)\n"
      "  y(1:n,k) = x(1:n,k)*2 + 1\n"
      "end forall\n"
      "forall (k=1:n)\n"
      "  z(1:n,k) = y(1:n,k)*x(1:n,k)\n"
      "end forall\n"
      "forall (k=1:n)\n"
      "  w(1:n,k) = z(1:n,k) + y(1:n,k)*x(1:n,k)\n"
      "end forall\n"
      "end\n";
  CompileOptions options;
  options.memory_budget_elements = 4096;
  options.opt = OptMode::kSearch;
  options.search_passes = 1;
  const SearchResult result = search_sequence_source(src, options);
  std::set<std::string> partitions;
  for (const SearchCandidate& c : result.report.candidates) {
    const std::size_t brace = c.describe.find('}');
    if (c.describe.rfind("fuse {", 0) == 0 && brace != std::string::npos) {
      partitions.insert(c.describe.substr(0, brace + 1));
    }
  }
  EXPECT_TRUE(partitions.contains("fuse {1+2+3}"));
  EXPECT_TRUE(partitions.contains("fuse {1,2+3}"));
  EXPECT_TRUE(partitions.contains("fuse {1+2,3}"));
  EXPECT_TRUE(partitions.contains("fuse {1,2,3}"));
  // The searched result is still a verified plan set that prices no worse
  // than the heuristic (which fuses all three here).
  EXPECT_LE(result.report.chosen_priced_s,
            result.report.heuristic_priced_s + 1e-9);
}

TEST(SearchSpace, GaxpyBarrierEmitsNotSearchableDiagnostic) {
  // Elementwise statements on both sides of a GAXPY nest: the search must
  // say — structurally, not by omission — that it does not fuse across
  // the reduction barrier.
  const std::string src =
      "parameter (n=16, p=2)\n"
      "real x(n,n), u(n,n), v(n,n), a(n,n), b(n,n), c(n,n), temp(n,n)\n"
      "!hpf$ processors Pr(p)\n"
      "!hpf$ template d(n)\n"
      "!hpf$ distribute d(block) onto Pr\n"
      "!hpf$ align (*,:) with d :: x, u, v, a, c, temp\n"
      "!hpf$ align (:,*) with d :: b\n"
      "forall (k=1:n)\n"
      "  u(1:n,k) = x(1:n,k)*2 + 1\n"
      "end forall\n"
      "do j=1, n\n"
      "  forall (k=1:n)\n"
      "    temp(1:n,k) = b(k,j)*a(1:n,k)\n"
      "  end forall\n"
      "  c(1:n,j) = SUM(temp,2)\n"
      "end do\n"
      "forall (k=1:n)\n"
      "  v(1:n,k) = u(1:n,k) + x(1:n,k)*3\n"
      "end forall\n"
      "end\n";
  CompileOptions options;
  options.memory_budget_elements = 1 << 12;
  options.opt = OptMode::kSearch;
  const SearchResult result = search_sequence_source(src, options);
  bool barrier_diag = false;
  for (const std::string& d : result.report.not_searchable) {
    EXPECT_EQ(d.rfind("not searchable: ", 0), 0u) << d;
    if (d.find("GAXPY reduction nest") != std::string::npos) {
      barrier_diag = true;
    }
  }
  EXPECT_TRUE(barrier_diag);
  EXPECT_EQ(result.report.segments, 3);
}

TEST(SearchSpace, StencilPrefetchEmitsNotSearchableDiagnostic) {
  CompileOptions options;
  options.memory_budget_elements = 4096;
  options.opt = OptMode::kSearch;
  const SearchResult result =
      search_sequence_source(hpf::stencil_source(24, 3), options);
  bool halo_diag = false;
  for (const std::string& d : result.report.not_searchable) {
    if (d.find("halo") != std::string::npos &&
        d.find("prefetch") != std::string::npos) {
      halo_diag = true;
    }
  }
  EXPECT_TRUE(halo_diag);
}

/// The pass-1 candidate described exactly `describe` (nullptr if absent).
const SearchCandidate* pass1_candidate(const SearchReport& report,
                                       const std::string& describe) {
  for (const SearchCandidate& c : report.candidates) {
    if (c.pass == 1 && c.describe == describe) {
      return &c;
    }
  }
  return nullptr;
}

TEST(SearchSpace, HeuristicLayoutIsACandidate) {
  // The baseline and every candidate are laid out by lowering's own
  // routines, so the candidate carrying the heuristic's knobs must price
  // exactly the baseline: under any disk model, at any budget.
  for (const DiskModel& disk :
       {DiskModel::touchstone_delta_cfs(), DiskModel::unit_test()}) {
    for (const std::int64_t budget : {512, 1024, 2048}) {
      CompileOptions options;
      options.memory_budget_elements = budget;
      options.disk = disk;
      const std::string src = hpf::gaxpy_source(64, 4);
      const NodeProgram heuristic = compile_source(src, options);
      const SearchResult result = search_sequence_source(src, options);
      const std::string knobs =
          std::string("orientation=") +
          (heuristic.a_orientation == runtime::SlabOrientation::kRowSlabs
               ? "row"
               : "column") +
          " split=" +
          std::string(memory_strategy_name(options.memory_strategy)) +
          " slabA=full prefetch=off";
      const SearchCandidate* cand = pass1_candidate(result.report, knobs);
      ASSERT_NE(cand, nullptr) << knobs << " budget " << budget;
      ASSERT_TRUE(cand->priced) << knobs << " budget " << budget;
      EXPECT_EQ(cand->priced_s, result.report.heuristic_priced_s)
          << knobs << " budget " << budget << " disk latency "
          << disk.request_overhead_s;
    }
  }
  for (const std::int64_t budget : {1024, 2048, 2176, 4096}) {
    CompileOptions options;
    options.memory_budget_elements = budget;
    const std::string src = hpf::stencil_source(64, 4);
    const NodeProgram heuristic = compile_source(src, options);
    const SearchResult result = search_sequence_source(src, options);
    const SlabStmt& st = heuristic.statements.front();
    const std::int64_t rows = heuristic.array(st.lhs).dist.local_rows(0);
    const std::int64_t w = heuristic.loops.front().capacity_elements / rows;
    const std::string knobs = "stencil w=" + std::to_string(w) +
                              " (slabs of " + std::to_string(w) +
                              " column(s), halo " + std::to_string(st.halo) +
                              ")";
    const SearchCandidate* cand = pass1_candidate(result.report, knobs);
    ASSERT_NE(cand, nullptr) << knobs << " budget " << budget;
    ASSERT_TRUE(cand->priced) << knobs << " budget " << budget;
    EXPECT_EQ(cand->priced_s, result.report.heuristic_priced_s)
        << knobs << " budget " << budget;
  }
}

// ------------------------- verifier reachability on search-produced plans

/// The verify_test mutation catalogue replayed against plans the *search*
/// emitted: every OOCC-V0xx code must stay reachable from searched plans,
/// proving the searcher cannot move plans out of the verifier's domain.

NodeProgram searched_elementwise(int nprocs, std::int64_t budget = 4096) {
  CompileOptions options;
  options.memory_budget_elements = budget;
  options.opt = OptMode::kSearch;
  SearchResult r = search_sequence_source(
      hpf::elementwise_source(10, 20, nprocs, 2), options);
  EXPECT_EQ(r.plans.size(), 1u);
  return std::move(r.plans.front());
}

NodeProgram searched_stencil(int nprocs, std::int64_t budget) {
  CompileOptions options;
  options.memory_budget_elements = budget;
  options.opt = OptMode::kSearch;
  SearchResult r =
      search_sequence_source(hpf::stencil_source(24, nprocs), options);
  EXPECT_EQ(r.plans.size(), 1u);
  return std::move(r.plans.front());
}

Step* find_step(std::vector<Step>& steps, StepKind kind) {
  for (Step& s : steps) {
    if (s.kind == kind) {
      return &s;
    }
    if (Step* hit = find_step(s.body, kind)) {
      return hit;
    }
  }
  return nullptr;
}

Step* require_step(NodeProgram& plan, StepKind kind) {
  Step* step = find_step(plan.steps, kind);
  EXPECT_NE(step, nullptr) << "plan has no " << step_kind_name(kind);
  return step;
}

bool remove_step(std::vector<Step>& steps, StepKind kind) {
  for (auto it = steps.begin(); it != steps.end(); ++it) {
    if (it->kind == kind) {
      steps.erase(it);
      return true;
    }
    if (remove_step(it->body, kind)) {
      return true;
    }
  }
  return false;
}

::testing::AssertionResult fires(const NodeProgram& plan,
                                 const std::string& code) {
  const VerifyReport report = verify_plan(plan);
  for (const VerifyDiagnostic& d : report.diagnostics) {
    if (d.code == code) {
      return ::testing::AssertionSuccess();
    }
  }
  return ::testing::AssertionFailure()
         << "expected " << code << ", got:\n"
         << report.to_string();
}

TEST(SearchVerifierReachability, StructuralCodes) {
  {
    NodeProgram plan = searched_elementwise(1);
    require_step(plan, StepKind::kForEachSlab)->loop = "bogus";
    EXPECT_TRUE(fires(plan, "OOCC-V001"));
  }
  {
    NodeProgram plan = searched_elementwise(1);
    require_step(plan, StepKind::kReadSlab)->array = "nosuch";
    EXPECT_TRUE(fires(plan, "OOCC-V002"));
  }
  {
    NodeProgram plan = searched_elementwise(1);
    require_step(plan, StepKind::kComputeElementwise)->stmt = 99;
    EXPECT_TRUE(fires(plan, "OOCC-V003"));
  }
  {
    NodeProgram plan = searched_elementwise(1);
    Step hoisted = *require_step(plan, StepKind::kReadSlab);
    plan.steps.push_back(hoisted);
    EXPECT_TRUE(fires(plan, "OOCC-V004"));
  }
  {
    NodeProgram plan = searched_elementwise(1);
    ASSERT_TRUE(remove_step(plan.steps, StepKind::kComputeElementwise));
    EXPECT_TRUE(fires(plan, "OOCC-V005"));
  }
}

TEST(SearchVerifierReachability, RaceAndHaloCodes) {
  {
    NodeProgram plan = searched_elementwise(3);
    plan.arrays.at("y").dist = hpf::ArrayDistribution(
        10, 20, hpf::DistAxis::kNone, hpf::DistKind::kCollapsed,
        plan.nprocs);
    EXPECT_TRUE(fires(plan, "OOCC-V010"));
  }
  {
    NodeProgram plan = searched_stencil(3, 4096);
    ASSERT_TRUE(remove_step(plan.steps, StepKind::kBarrier));
    EXPECT_TRUE(fires(plan, "OOCC-V011"));
  }
  {
    NodeProgram plan = searched_stencil(3, 4096);
    require_step(plan, StepKind::kExchangeHalo)->halo = 0;
    EXPECT_TRUE(fires(plan, "OOCC-V012"));
  }
}

TEST(SearchVerifierReachability, BoundsAndCoverageCodes) {
  {
    NodeProgram plan = searched_elementwise(3);
    plan.arrays.at("x").dist = hpf::column_block(10, 10, 3);
    EXPECT_TRUE(fires(plan, "OOCC-V020"));
  }
  {
    // A searched fused chain: shrinking the second output's distribution
    // makes its WriteSlab run past the local extent.
    const std::string src =
        "parameter (n=20, p=3)\n"
        "real x(n,n), y(n,n), z(n,n)\n"
        "!hpf$ processors Pr(p)\n"
        "!hpf$ template d(n)\n"
        "!hpf$ distribute d(block) onto Pr\n"
        "!hpf$ align (*,:) with d :: x, y, z\n"
        "forall (k=1:n)\n"
        "  y(1:n,k) = x(1:n,k)*2 + 1\n"
        "end forall\n"
        "forall (k=1:n)\n"
        "  z(1:n,k) = y(1:n,k) + k\n"
        "end forall\n"
        "end\n";
    CompileOptions options;
    options.memory_budget_elements = 4096;
    options.opt = OptMode::kSearch;
    SearchResult r = search_sequence_source(src, options);
    ASSERT_FALSE(r.plans.empty());
    NodeProgram& plan = r.plans.front();
    ASSERT_GT(plan.statements.size(), 1u) << "searched chain did not fuse";
    plan.arrays.at("z").dist = hpf::column_block(20, 10, 3);
    EXPECT_TRUE(fires(plan, "OOCC-V021"));
  }
  {
    NodeProgram plan = searched_elementwise(3);
    ASSERT_TRUE(remove_step(plan.steps, StepKind::kWriteSlab));
    EXPECT_TRUE(fires(plan, "OOCC-V022"));
  }
  {
    NodeProgram plan = searched_elementwise(3);
    Step* sweep = require_step(plan, StepKind::kForEachSlab);
    Step* write = find_step(sweep->body, StepKind::kWriteSlab);
    ASSERT_NE(write, nullptr);
    sweep->body.push_back(*write);
    EXPECT_TRUE(fires(plan, "OOCC-V023"));
  }
}

TEST(SearchVerifierReachability, BudgetAndScheduleCodes) {
  {
    NodeProgram plan = searched_elementwise(1, 3 * 10);
    require_step(plan, StepKind::kReadSlab)->halo = 8;
    EXPECT_TRUE(fires(plan, "OOCC-V030"));
  }
  {
    NodeProgram plan = searched_elementwise(3, 7 * 10);
    Step barrier;
    barrier.kind = StepKind::kBarrier;
    require_step(plan, StepKind::kForEachSlab)->body.push_back(barrier);
    EXPECT_TRUE(fires(plan, "OOCC-V040"));
  }
}

// ---------------------------------------------------------- plumbing

TEST(SearchPlumbing, CompileSequenceDispatchesOnOptMode) {
  // compile_sequence with opt=kSearch must return the searched plans (the
  // public entry the CLI, serve jobs and embedding code all use).
  const GeneratedProgram gp = progen::generate_program(3);
  CompileOptions options;
  options.memory_budget_elements = gp.memory_budget_elements;
  options.opt = OptMode::kSearch;
  const std::vector<NodeProgram> via_dispatch =
      compile_sequence_source(gp.source, options);
  const SearchResult direct = search_sequence_source(gp.source, options);
  ASSERT_EQ(via_dispatch.size(), direct.plans.size());
  for (std::size_t i = 0; i < via_dispatch.size(); ++i) {
    EXPECT_EQ(step_program_text(via_dispatch[i]),
              step_program_text(direct.plans[i]));
    EXPECT_TRUE(via_dispatch[i].verified);
  }
}

TEST(SearchPlumbing, ReportTextIsDeterministic) {
  CompileOptions options;
  options.memory_budget_elements = 4096;
  options.opt = OptMode::kSearch;
  const SearchResult a =
      search_sequence_source(hpf::gaxpy_source(32, 4), options);
  const SearchResult b =
      search_sequence_source(hpf::gaxpy_source(32, 4), options);
  EXPECT_EQ(search_report_text(a.report), search_report_text(b.report));
  EXPECT_NE(search_report_text(a.report).find("heuristic baseline"),
            std::string::npos);
}

}  // namespace
}  // namespace oocc::compiler
