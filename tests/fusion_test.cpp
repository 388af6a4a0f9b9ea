// Inter-statement slab fusion and the step-level execution engine:
// fused-vs-unfused bit-identity, LAF traffic reduction, fusion legality,
// step-walking cost pricing against measured counters, and the sequence
// error paths (conflicting placements across statements).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "oocc/apps/elementwise.hpp"
#include "oocc/compiler/lower.hpp"
#include "oocc/compiler/pretty.hpp"
#include "oocc/exec/interp.hpp"
#include "oocc/gaxpy/gaxpy.hpp"
#include "oocc/hpf/parser.hpp"
#include "oocc/hpf/programs.hpp"
#include "oocc/runtime/slab_iter.hpp"
#include "oocc/sim/collectives.hpp"

namespace oocc::exec {
namespace {

using compiler::CompileOptions;
using compiler::NodeProgram;
using compiler::ProgramKind;
using compiler::StepKind;
using io::DiskModel;
using io::TempDir;
using sim::Machine;
using sim::MachineCostModel;
using sim::SpmdContext;

double gen_x(std::int64_t r, std::int64_t c) {
  return std::sin(static_cast<double>(r * 3 + c * 13)) + 1.25;
}

// A three-statement chain with enough cross-references that the unfused
// translation re-reads x three times and y twice while the fused sweep
// reads x exactly once.
const char* kChainSource =
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

struct SequenceRun {
  std::map<std::string, std::vector<double>> globals;  ///< gathered arrays
  std::uint64_t laf_bytes = 0;     ///< LAF bytes moved (reads + writes)
  std::uint64_t laf_requests = 0;  ///< LAF requests (reads + writes)
  std::map<std::string, io::IoStats> per_array;  ///< rank-0 stats
  runtime::SlabCacheStats cache;   ///< pool counters summed over ranks
};

ExecOptions no_cache() {
  ExecOptions options;
  options.use_cache = false;
  return options;
}

SequenceRun run_sequence(const std::vector<NodeProgram>& plans, int nprocs,
                         const ExecOptions& exec_options = ExecOptions{}) {
  TempDir dir;
  Machine machine(nprocs, MachineCostModel::zero());
  SequenceRun out;
  machine.run([&](SpmdContext& ctx) {
    auto arrays = create_sequence_arrays(
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
        arr->initialize(ctx, gen_x, 4096);
      }
      arr->laf().reset_stats();
    }
    ArrayBindings bindings;
    for (auto& [name, arr] : arrays) {
      bindings[name] = arr.get();
    }
    ExecOptions options = exec_options;
    runtime::SlabCacheStats local_cache;
    options.cache_stats = &local_cache;
    execute_sequence(ctx,
                     std::span<const NodeProgram>(plans.data(), plans.size()),
                     bindings, options);
    {
      static std::mutex mu;
      std::lock_guard<std::mutex> lock(mu);
      out.cache.merge(local_cache);
    }
    for (auto& [name, arr] : arrays) {
      const io::IoStats& s = arr->laf().stats();
      {
        static std::mutex mu;
        std::lock_guard<std::mutex> lock(mu);
        out.laf_bytes += s.bytes_read + s.bytes_written;
        out.laf_requests += s.read_requests + s.write_requests;
        if (ctx.rank() == 0) {
          out.per_array[name] = s;
        }
      }
      std::vector<double> g = arr->gather_global(ctx, 4096);
      if (ctx.rank() == 0) {
        out.globals[name] = std::move(g);
      }
    }
  });
  return out;
}

TEST(SlabFusion, ChainFusesIntoOnePlan) {
  CompileOptions options;
  options.memory_budget_elements = 4096;
  const std::vector<NodeProgram> plans =
      compiler::compile_sequence_source(kChainSource, options);
  ASSERT_EQ(plans.size(), 1u);
  const NodeProgram& plan = plans.front();
  EXPECT_EQ(plan.kind, ProgramKind::kElementwise);
  ASSERT_EQ(plan.statements.size(), 3u);
  EXPECT_EQ(plan.statements[0].lhs, "y");
  EXPECT_EQ(plan.statements[2].lhs, "w");
  EXPECT_EQ(plan.arrays.size(), 4u);
  EXPECT_NE(plan.cost.rationale.find("fused 3"), std::string::npos);

  // The sweep reads only x (y and z flow buffer-to-buffer) and writes all
  // three produced arrays.
  ASSERT_EQ(plan.steps.size(), 1u);
  ASSERT_EQ(plan.steps.front().kind, StepKind::kForEachSlab);
  int reads = 0;
  int writes = 0;
  for (const compiler::Step& s : plan.steps.front().body) {
    if (s.kind == StepKind::kReadSlab) {
      ++reads;
      EXPECT_EQ(s.array, "x");
    }
    if (s.kind == StepKind::kWriteSlab) {
      ++writes;
    }
  }
  EXPECT_EQ(reads, 1);
  EXPECT_EQ(writes, 3);
}

TEST(SlabFusion, FusedAndUnfusedAreBitIdentical) {
  CompileOptions options;
  options.memory_budget_elements = 4096;
  const std::vector<NodeProgram> fused =
      compiler::compile_sequence_source(kChainSource, options);
  options.enable_statement_fusion = false;
  const std::vector<NodeProgram> unfused =
      compiler::compile_sequence_source(kChainSource, options);
  ASSERT_EQ(fused.size(), 1u);
  ASSERT_EQ(unfused.size(), 3u);

  // Uncached on both sides: this test isolates what *fusion* removes (the
  // slab pool would recover the unfused chain's re-reads on its own).
  const SequenceRun a = run_sequence(fused, 4, no_cache());
  const SequenceRun b = run_sequence(unfused, 4, no_cache());
  ASSERT_EQ(a.globals.size(), b.globals.size());
  for (const auto& [name, want] : b.globals) {
    const auto it = a.globals.find(name);
    ASSERT_NE(it, a.globals.end()) << name;
    ASSERT_EQ(it->second.size(), want.size()) << name;
    for (std::size_t i = 0; i < want.size(); ++i) {
      // Exact equality: fusion only changes where values are staged, never
      // the floating-point evaluation order.
      EXPECT_EQ(it->second[i], want[i]) << name << "[" << i << "]";
    }
  }
  // And the fusion actually removed the intermediate LAF round-trips:
  // unfused moves x three times and y twice, fused reads x once.
  EXPECT_GE(static_cast<double>(b.laf_bytes),
            2.0 * static_cast<double>(a.laf_bytes));
}

// Two statements updating the same array.
const char* kInPlaceSource =
    "parameter (n=8, p=2)\n"
    "real x(n,n)\n"
    "!hpf$ processors Pr(p)\n"
    "!hpf$ template d(n)\n"
    "!hpf$ distribute d(block) onto Pr\n"
    "!hpf$ align (*,:) with d :: x\n"
    "forall (k=1:n)\n"
    "  x(1:n,k) = x(1:n,k)*2\n"
    "end forall\n"
    "forall (k=1:n)\n"
    "  x(1:n,k) = x(1:n,k) + k\n"
    "end forall\n"
    "end\n";

TEST(SlabFusion, InPlaceChainOnOneArray) {
  // The in-place pair fuses into one sweep with a single staged read and a
  // single write per slab.
  CompileOptions options;
  options.memory_budget_elements = 4096;
  const std::vector<NodeProgram> plans =
      compiler::compile_sequence_source(kInPlaceSource, options);
  ASSERT_EQ(plans.size(), 1u);
  ASSERT_EQ(plans.front().statements.size(), 2u);

  TempDir dir;
  Machine machine(2, MachineCostModel::zero());
  machine.run([&](SpmdContext& ctx) {
    auto arrays = create_plan_arrays(ctx, plans.front(), dir.path(),
                                     DiskModel::zero());
    arrays.at("x")->initialize(
        ctx,
        [](std::int64_t r, std::int64_t c) {
          return static_cast<double>(r + 10 * c);
        },
        4096);
    ArrayBindings bindings{{"x", arrays.at("x").get()}};
    execute(ctx, plans.front(), bindings);
    std::vector<double> got = arrays.at("x")->gather_global(ctx, 4096);
    if (ctx.rank() == 0) {
      for (std::int64_t c = 0; c < 8; ++c) {
        for (std::int64_t r = 0; r < 8; ++r) {
          const double want =
              static_cast<double>(r + 10 * c) * 2 + static_cast<double>(c + 1);
          ASSERT_DOUBLE_EQ(got[static_cast<std::size_t>(c * 8 + r)], want);
        }
      }
    }
  });
}

TEST(SlabFusion, MismatchedDistributionsDoNotFuse) {
  // y/x are column-distributed, w/v row-distributed: sweeps do not align.
  const std::string src =
      "parameter (n=16, p=4)\n"
      "real x(n,n), y(n,n), v(n,n), w(n,n)\n"
      "!hpf$ processors Pr(p)\n"
      "!hpf$ template d(n)\n"
      "!hpf$ distribute d(block) onto Pr\n"
      "!hpf$ align (*,:) with d :: x, y\n"
      "!hpf$ align (:,*) with d :: v, w\n"
      "forall (k=1:n)\n"
      "  y(1:n,k) = x(1:n,k) + 1\n"
      "end forall\n"
      "forall (k=1:n)\n"
      "  w(1:n,k) = v(1:n,k) - 1\n"
      "end forall\n"
      "end\n";
  CompileOptions options;
  options.memory_budget_elements = 4096;
  const std::vector<NodeProgram> plans =
      compiler::compile_sequence_source(src, options);
  EXPECT_EQ(plans.size(), 2u);
}

TEST(SlabFusion, TightBudgetFallsBackToUnfused) {
  // The union of three arrays does not fit one column per buffer, but each
  // individual statement's pair does — fusion must decline, not throw.
  const std::string src =
      "parameter (n=24, p=4)\n"
      "real x(n,n), y(n,n), z(n,n)\n"
      "!hpf$ processors Pr(p)\n"
      "!hpf$ template d(n)\n"
      "!hpf$ distribute d(block) onto Pr\n"
      "!hpf$ align (*,:) with d :: x, y, z\n"
      "forall (k=1:n)\n"
      "  y(1:n,k) = x(1:n,k) + 1\n"
      "end forall\n"
      "forall (k=1:n)\n"
      "  z(1:n,k) = y(1:n,k)*2\n"
      "end forall\n"
      "end\n";
  CompileOptions options;
  options.memory_budget_elements = 64;  // 64/2 = 32 >= 24, 64/3 = 21 < 24
  const std::vector<NodeProgram> plans =
      compiler::compile_sequence_source(src, options);
  ASSERT_EQ(plans.size(), 2u);
  EXPECT_EQ(plans[0].statements.size(), 1u);
  EXPECT_EQ(plans[1].statements.size(), 1u);
}

TEST(StepPricing, MatchesMeasuredCountersForFusedSweep) {
  CompileOptions options;
  options.memory_budget_elements = 4096;
  const std::vector<NodeProgram> plans =
      compiler::compile_sequence_source(kChainSource, options);
  ASSERT_EQ(plans.size(), 1u);
  const std::map<std::string, compiler::StepIoCost> price =
      compiler::price_plan(plans.front()).arrays;
  const SequenceRun run = run_sequence(plans, 4, no_cache());
  for (const auto& [name, cost] : price) {
    const io::IoStats& s = run.per_array.at(name);
    EXPECT_DOUBLE_EQ(static_cast<double>(s.read_requests),
                     cost.read_requests)
        << name;
    EXPECT_DOUBLE_EQ(static_cast<double>(s.bytes_read) / 8.0,
                     cost.elements_read)
        << name;
    EXPECT_DOUBLE_EQ(static_cast<double>(s.write_requests),
                     cost.write_requests)
        << name;
    EXPECT_DOUBLE_EQ(static_cast<double>(s.bytes_written) / 8.0,
                     cost.elements_written)
        << name;
  }
}

TEST(StepPricing, MatchesSchemaEstimatorForGaxpy) {
  // The step walker must agree with the closed-form Figure 9/12 estimator
  // on the plan the compiler actually chose (evenly dividing sizes).
  for (const bool reorganize : {true, false}) {
    CompileOptions options;
    options.memory_budget_elements = 4096;
    options.enable_access_reorganization = reorganize;
    const NodeProgram plan =
        compiler::compile_source(hpf::gaxpy_source(32, 4), options);
    compiler::GaxpyCostQuery q;
    q.n = 32;
    q.nprocs = 4;
    q.slab_a = plan.memory.slab_a;
    q.slab_b = plan.memory.slab_b;
    q.slab_c = plan.memory.slab_c;
    const compiler::CandidateCost schema =
        compiler::estimate_gaxpy_cost(plan.a_orientation, q);
    const std::map<std::string, compiler::StepIoCost> steps =
        compiler::price_plan(plan).arrays;
    EXPECT_DOUBLE_EQ(steps.at(plan.a).read_requests,
                     schema.cost_of("a").fetch_requests);
    EXPECT_DOUBLE_EQ(steps.at(plan.a).elements_read,
                     schema.cost_of("a").data_elements);
    EXPECT_DOUBLE_EQ(steps.at(plan.b).read_requests,
                     schema.cost_of("b").fetch_requests);
    EXPECT_DOUBLE_EQ(steps.at(plan.b).elements_read,
                     schema.cost_of("b").data_elements);
    EXPECT_DOUBLE_EQ(steps.at(plan.c).write_requests,
                     schema.cost_of("c").fetch_requests);
    EXPECT_DOUBLE_EQ(steps.at(plan.c).elements_written,
                     schema.cost_of("c").data_elements);
  }
}

/// The flops each rank charges in one run (one sweep) of `plans`.
std::vector<double> charged_flops(const std::vector<NodeProgram>& plans,
                                  int nprocs) {
  const std::span<const NodeProgram> seq(plans.data(), plans.size());
  TempDir dir;
  Machine machine(nprocs, MachineCostModel::zero());
  const sim::RunReport report = machine.run([&](SpmdContext& ctx) {
    auto arrays = create_sequence_arrays(ctx, seq, dir.path(),
                                         DiskModel::zero());
    ArrayBindings bindings;
    for (auto& [name, arr] : arrays) {
      arr->initialize(ctx, gen_x, 4096);
      bindings[name] = arr.get();
    }
    execute_sequence(ctx, seq, bindings);
  });
  std::vector<double> out;
  for (const sim::ProcStats& p : report.procs) {
    out.push_back(p.flops);
  }
  return out;
}

TEST(StepPricing, PricedFlopsEqualChargedFlops) {
  // One flop rule (compiler::compute_flops) for the pricer and the
  // executor: fused and in-place elementwise sweeps, and stencil sweeps
  // whose boundary columns are free, over even and uneven panels. GAXPY is
  // left out: sim::reduce_sum charges its additions inside the collective,
  // which the pricer does not model.
  const auto expect_equal = [](const std::vector<NodeProgram>& plans,
                               int nprocs, const std::string& label) {
    const std::vector<double> charged = charged_flops(plans, nprocs);
    for (int p = 0; p < nprocs; ++p) {
      double priced = 0.0;
      for (const NodeProgram& plan : plans) {
        priced += compiler::price_plan(plan, p).flops;
      }
      EXPECT_GT(priced, 0.0) << label << " rank " << p;
      EXPECT_EQ(priced, charged[static_cast<std::size_t>(p)])
          << label << " rank " << p;
    }
  };
  CompileOptions options;
  options.memory_budget_elements = 4096;
  const std::vector<NodeProgram> chain =
      compiler::compile_sequence_source(kChainSource, options);
  ASSERT_EQ(chain.size(), 1u);
  expect_equal(chain, 4, "fused chain");
  const std::vector<NodeProgram> in_place =
      compiler::compile_sequence_source(kInPlaceSource, options);
  ASSERT_EQ(in_place.size(), 1u);
  expect_equal(in_place, 2, "in-place pair");

  options.memory_budget_elements = 26 * 4 * 5;  // 4-column owner slabs
  for (const int p : {1, 3, 4}) {
    expect_equal({compiler::compile_source(hpf::stencil_source(26, p),
                                           options)},
                 p, "stencil P=" + std::to_string(p));
  }
}

/// Runs a GAXPY plan through the step executor and through the hand-coded
/// Figure 9/12 kernel at the plan's slab sizes; returns the number of
/// elements of C that differ bit for bit. The executor's LAF traffic must
/// also equal its price, on every rank.
std::size_t gaxpy_mismatches_vs_handcoded(const NodeProgram& plan) {
  std::vector<double> generic;
  std::vector<double> handcoded;
  const ExecOptions options = default_exec_options();
  std::map<int, std::map<std::string, io::IoStats>> measured;
  std::mutex mu;
  for (const bool use_generic : {true, false}) {
    TempDir dir;
    Machine machine(plan.nprocs, MachineCostModel::zero());
    machine.run([&](SpmdContext& ctx) {
      auto arrays =
          create_plan_arrays(ctx, plan, dir.path(), DiskModel::zero());
      arrays.at("a")->initialize(ctx, gen_x, 4096);
      arrays.at("b")->initialize(
          ctx,
          [](std::int64_t r, std::int64_t c) {
            return std::cos(static_cast<double>(r * 7 + c)) - 0.4;
          },
          4096);
      if (use_generic) {
        ArrayBindings bindings;
        for (auto& [name, arr] : arrays) {
          arr->laf().reset_stats();
          bindings[name] = arr.get();
        }
        execute(ctx, plan, bindings, options);
        std::lock_guard<std::mutex> lock(mu);
        for (auto& [name, arr] : arrays) {
          measured[ctx.rank()][name] = arr->laf().stats();
        }
      } else {
        gaxpy::GaxpyConfig config;
        config.slab_a_elements = plan.memory.slab_a;
        config.slab_b_elements = plan.memory.slab_b;
        config.slab_c_elements = plan.memory.slab_c;
        config.prefetch = plan.prefetch;
        runtime::MemoryBudget budget(plan.memory_budget_elements);
        if (plan.a_orientation == runtime::SlabOrientation::kColumnSlabs) {
          gaxpy::ooc_gaxpy_column_slabs(ctx, *arrays.at("a"), *arrays.at("b"),
                                        *arrays.at("c"), budget, config);
        } else {
          gaxpy::ooc_gaxpy_row_slabs(ctx, *arrays.at("a"), *arrays.at("b"),
                                     *arrays.at("c"), budget, config);
        }
      }
      std::vector<double> got = arrays.at("c")->gather_global(ctx, 4096);
      if (ctx.rank() == 0) {
        (use_generic ? generic : handcoded) = std::move(got);
      }
    });
  }
  compiler::PriceOptions popts;
  popts.model_cache = options.use_cache;
  for (int rank = 0; rank < plan.nprocs; ++rank) {
    for (const auto& [name, cost] :
         compiler::price_plan(plan, rank, popts).arrays) {
      const io::IoStats& s = measured.at(rank).at(name);
      SCOPED_TRACE("rank " + std::to_string(rank) + " " + name);
      EXPECT_DOUBLE_EQ(static_cast<double>(s.read_requests),
                       cost.read_requests);
      EXPECT_DOUBLE_EQ(static_cast<double>(s.bytes_read) / 8.0,
                       cost.elements_read);
      EXPECT_DOUBLE_EQ(static_cast<double>(s.write_requests),
                       cost.write_requests);
      EXPECT_DOUBLE_EQ(static_cast<double>(s.bytes_written) / 8.0,
                       cost.elements_written);
    }
  }
  EXPECT_EQ(generic.size(), handcoded.size());
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < std::min(generic.size(), handcoded.size());
       ++i) {
    wrong += generic[i] != handcoded[i] ? 1 : 0;
  }
  return wrong;
}

TEST(StepExecutor, GaxpyBitIdenticalToHandcodedKernels) {
  // The generic step executor must reproduce the hand-coded Figure 9/12
  // kernels exactly — same accumulation order, same reductions — for both
  // orientations.
  for (const bool reorganize : {true, false}) {
    CompileOptions options;
    options.memory_budget_elements = 4096;
    options.enable_access_reorganization = reorganize;
    const NodeProgram plan =
        compiler::compile_source(hpf::gaxpy_source(16, 4), options);
    EXPECT_EQ(gaxpy_mismatches_vs_handcoded(plan), 0u)
        << "reorganize=" << reorganize;
  }

  // The executor takes A's columns in blocks of eight. Slabs wider than a
  // block and not a multiple of it run whole blocks and leftover columns
  // in one partial product, and several A and B slabs per rank carry the
  // partial sums across slabs. A kernel that reassociates a block's sum
  // matches the ordered one while the partial sum is still zero, so every
  // shape also makes a block add onto a nonzero one: a second block in a
  // slab, or a block in a later column slab. Even and uneven BLOCK
  // distributions, both orientations, row slabs with and without
  // double-buffered A. N=53 at P=3 has 18, 18 and 17 local columns; its
  // budgets give every rank A row slabs of one height, which the
  // subcolumn reductions need.
  struct Shape {
    std::int64_t n;
    int nprocs;
    std::int64_t budget;
    bool reorganize;  ///< row slabs (Figure 12) or column slabs (Figure 9)
    bool prefetch;
  };
  for (const Shape& s : {Shape{76, 4, 1300, true, false},
                         Shape{76, 4, 1300, true, true},
                         Shape{53, 3, 900, true, false},
                         Shape{53, 3, 1600, true, true},
                         Shape{21, 1, 500, true, false},
                         Shape{21, 1, 500, true, true},
                         Shape{21, 1, 500, false, false},
                         Shape{44, 2, 800, false, false},
                         Shape{37, 2, 600, false, false}}) {
    CompileOptions options;
    options.memory_budget_elements = s.budget;
    options.enable_access_reorganization = s.reorganize;
    options.prefetch = s.prefetch ? compiler::PrefetchMode::kOn
                                  : compiler::PrefetchMode::kOff;
    const NodeProgram plan =
        compiler::compile_source(hpf::gaxpy_source(s.n, s.nprocs), options);
    const std::string what = "n=" + std::to_string(s.n) +
                             " p=" + std::to_string(s.nprocs) +
                             " budget=" + std::to_string(s.budget) +
                             " reorganize=" + std::to_string(s.reorganize) +
                             " prefetch=" + std::to_string(s.prefetch);
    SCOPED_TRACE(what);
    ASSERT_EQ(plan.a_orientation == runtime::SlabOrientation::kRowSlabs,
              s.reorganize);
    ASSERT_EQ(plan.prefetch, s.prefetch);
    // The shape must reach the blocked loop's two halves on every rank.
    const hpf::ArrayDistribution& dist = plan.array(plan.a).dist;
    for (int rank = 0; rank < s.nprocs; ++rank) {
      const std::int64_t nlc = dist.local_cols(rank);
      const runtime::SlabIterator a_slabs(s.n, nlc, plan.a_orientation,
                                          plan.memory.slab_a);
      const runtime::SlabIterator b_slabs(
          nlc, s.n, runtime::SlabOrientation::kColumnSlabs,
          plan.memory.slab_b);
      const std::int64_t width = a_slabs.section(0).cols();
      ASSERT_GE(a_slabs.count(), 2) << "rank " << rank;
      ASSERT_GE(b_slabs.count(), 2) << "rank " << rank;
      ASSERT_GT(width, 8) << "rank " << rank;
      ASSERT_NE(width % 8, 0) << "rank " << rank;
      ASSERT_TRUE(width > 16 ||
                  (!s.reorganize && a_slabs.section(1).cols() >= 8))
          << "rank " << rank;
    }
    EXPECT_EQ(gaxpy_mismatches_vs_handcoded(plan), 0u);
  }

  // Uneven BLOCK in row slabs, at budgets where a rank's own column count
  // would give it A row slabs of a different height from processor 0's:
  // N=37 at P=3 has 13, 13 and 11 local columns, N=53 has 18, 18 and 17.
  // Every rank takes processor 0's height, so the subcolumn sums add
  // vectors of one length; each plan verifies (compile_source), runs
  // bit-identical to the hand-coded kernel and prices what it measures.
  for (const Shape& s : {Shape{37, 3, 400, true, false},
                         Shape{37, 3, 800, true, false},
                         Shape{37, 3, 512, true, true},
                         Shape{53, 3, 700, true, false},
                         Shape{53, 3, 1500, true, false}}) {
    CompileOptions options;
    options.memory_budget_elements = s.budget;
    options.prefetch = s.prefetch ? compiler::PrefetchMode::kOn
                                  : compiler::PrefetchMode::kOff;
    SCOPED_TRACE("n=" + std::to_string(s.n) +
                 " budget=" + std::to_string(s.budget) +
                 " prefetch=" + std::to_string(s.prefetch));
    const NodeProgram plan =
        compiler::compile_source(hpf::gaxpy_source(s.n, s.nprocs), options);
    ASSERT_EQ(plan.a_orientation, runtime::SlabOrientation::kRowSlabs);
    ASSERT_EQ(plan.prefetch, s.prefetch);
    EXPECT_EQ(gaxpy_mismatches_vs_handcoded(plan), 0u);
  }
}

TEST(SlabCache, OutputsBitIdenticalWithAndWithoutCache) {
  // The pool only changes *where* bytes come from, never their values or
  // the evaluation order: cached and uncached runs must agree exactly, for
  // both the fused sweep and the statement-at-a-time translation.
  CompileOptions options;
  options.memory_budget_elements = 4096;
  for (const bool fuse : {true, false}) {
    options.enable_statement_fusion = fuse;
    const std::vector<NodeProgram> plans =
        compiler::compile_sequence_source(kChainSource, options);
    const SequenceRun cached = run_sequence(plans, 4);
    const SequenceRun plain = run_sequence(plans, 4, no_cache());
    ASSERT_EQ(cached.globals.size(), plain.globals.size());
    for (const auto& [name, want] : plain.globals) {
      const auto it = cached.globals.find(name);
      ASSERT_NE(it, cached.globals.end()) << name;
      ASSERT_EQ(it->second.size(), want.size()) << name;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(it->second[i], want[i])
            << "fuse=" << fuse << " " << name << "[" << i << "]";
      }
    }
  }
}

TEST(SlabCache, UnfusedChainRecoversSharedTrafficFromPool) {
  // Statement-at-a-time, the chain re-reads x three times and y/z once
  // each; with the pool those demand reads hit slabs an earlier statement
  // read or staged. The budget (4096 elements vs 4*144 live data) holds
  // the whole working set, so only the first read of x misses.
  CompileOptions options;
  options.memory_budget_elements = 4096;
  options.enable_statement_fusion = false;
  const std::vector<NodeProgram> plans =
      compiler::compile_sequence_source(kChainSource, options);
  ASSERT_EQ(plans.size(), 3u);
  const SequenceRun cached = run_sequence(plans, 4);
  const SequenceRun plain = run_sequence(plans, 4, no_cache());
  EXPECT_GT(cached.cache.hits, 0u);
  EXPECT_GT(cached.cache.elements_hit, 0u);
  EXPECT_LT(cached.laf_bytes, plain.laf_bytes);
  // x re-reads (2 sweeps) + y (1) + z (1) are recovered: >= 1.5x fewer
  // LAF bytes than the uncached statement-at-a-time translation.
  EXPECT_GE(2 * plain.laf_bytes, 3 * cached.laf_bytes);
}

TEST(SlabCache, SequencePriceWithCacheMatchesMeasuredCounters) {
  // price_sequence with model_cache walks the same schedule the executor
  // runs and mirrors the pool's lookup/eviction policy, so priced traffic
  // and hit counts must match the measured ones exactly at this budget.
  CompileOptions options;
  options.memory_budget_elements = 4096;
  options.enable_statement_fusion = false;
  const std::vector<NodeProgram> plans =
      compiler::compile_sequence_source(kChainSource, options);
  compiler::PriceOptions popts;
  popts.model_cache = true;
  const std::vector<compiler::PlanPrice> priced = compiler::price_sequence(
      std::span<const NodeProgram>(plans.data(), plans.size()), 0, popts);
  std::map<std::string, compiler::StepIoCost> total;
  double hits = 0.0;
  for (const compiler::PlanPrice& p : priced) {
    for (const auto& [name, cost] : p.arrays) {
      compiler::StepIoCost& t = total[name];
      t.read_requests += cost.read_requests;
      t.elements_read += cost.elements_read;
      t.write_requests += cost.write_requests;
      t.elements_written += cost.elements_written;
    }
    hits += p.cache_hits;
  }
  const SequenceRun run = run_sequence(plans, 4);
  EXPECT_DOUBLE_EQ(static_cast<double>(run.cache.hits) / 4.0, hits);
  for (const auto& [name, cost] : total) {
    const io::IoStats& s = run.per_array.at(name);
    EXPECT_DOUBLE_EQ(static_cast<double>(s.read_requests),
                     cost.read_requests)
        << name;
    EXPECT_DOUBLE_EQ(static_cast<double>(s.bytes_read) / 8.0,
                     cost.elements_read)
        << name;
    EXPECT_DOUBLE_EQ(static_cast<double>(s.write_requests),
                     cost.write_requests)
        << name;
    EXPECT_DOUBLE_EQ(static_cast<double>(s.bytes_written) / 8.0,
                     cost.elements_written)
        << name;
  }
}

/// Runs `source` statement at a time at `budget` on `nprocs` ranks, with a
/// slab pool of `pool` elements (0 = the budget), and checks it against the
/// serial reference (bit for bit) and its sequence price (rank 0's traffic
/// and every rank's hits); returns the run.
SequenceRun expect_sound_unfused(const std::string& source,
                                 std::int64_t budget, int nprocs = 4,
                                 std::int64_t pool = 0) {
  CompileOptions options;
  options.memory_budget_elements = budget;
  options.enable_statement_fusion = false;
  const hpf::BoundProgram bound = hpf::analyze(hpf::parse(source));
  const std::vector<NodeProgram> plans =
      compiler::compile_sequence(bound, options);
  ExecOptions exec_options;
  exec_options.budget_elements = pool;
  const SequenceRun run = run_sequence(plans, nprocs, exec_options);

  apps::DenseArrays want;
  std::set<std::string> outputs;
  for (const NodeProgram& plan : plans) {
    outputs.insert(plan.statements.front().lhs);
  }
  for (const auto& [name, info] : bound.arrays) {
    std::vector<double>& a = want[name];
    a.assign(static_cast<std::size_t>(info.rows * info.cols), 0.0);
    for (std::int64_t c = 0; c < info.cols && !outputs.contains(name); ++c) {
      for (std::int64_t r = 0; r < info.rows; ++r) {
        a[static_cast<std::size_t>(c * info.rows + r)] = gen_x(r, c);
      }
    }
  }
  apps::serial_elementwise(bound, want);
  for (const std::string& name : outputs) {
    EXPECT_EQ(run.globals.at(name), want.at(name)) << name;
  }

  compiler::PriceOptions popts;
  popts.model_cache = true;
  popts.cache_budget_elements = pool;
  std::map<std::string, compiler::StepIoCost> total;
  double hits = 0.0;
  for (int rank = 0; rank < nprocs; ++rank) {
    for (const compiler::PlanPrice& p : compiler::price_sequence(
             std::span<const NodeProgram>(plans.data(), plans.size()), rank,
             popts)) {
      hits += p.cache_hits;
      for (const auto& [name, cost] : p.arrays) {
        if (rank == 0) {
          compiler::StepIoCost& t = total[name];
          t.read_requests += cost.read_requests;
          t.elements_read += cost.elements_read;
          t.write_requests += cost.write_requests;
          t.elements_written += cost.elements_written;
        }
      }
    }
  }
  EXPECT_DOUBLE_EQ(static_cast<double>(run.cache.hits), hits);
  for (const auto& [name, cost] : total) {
    const io::IoStats& s = run.per_array.at(name);
    EXPECT_DOUBLE_EQ(static_cast<double>(s.read_requests), cost.read_requests)
        << name;
    EXPECT_DOUBLE_EQ(static_cast<double>(s.bytes_read) / 8.0,
                     cost.elements_read)
        << name;
    EXPECT_DOUBLE_EQ(static_cast<double>(s.write_requests),
                     cost.write_requests)
        << name;
    EXPECT_DOUBLE_EQ(static_cast<double>(s.bytes_written) / 8.0,
                     cost.elements_written)
        << name;
  }
  return run;
}

std::string chain_source(const std::vector<std::string>& statements) {
  std::string src =
      "parameter (n=24, p=4)\n"
      "real x(n,n), y(n,n), z(n,n), w(n,n)\n"
      "!hpf$ processors Pr(p)\n"
      "!hpf$ template d(n)\n"
      "!hpf$ distribute d(block) onto Pr\n"
      "!hpf$ align (*,:) with d :: x, y, z, w\n";
  for (const std::string& st : statements) {
    src += "forall (k=1:n)\n  " + st + "\nend forall\n";
  }
  return src + "end\n";
}

TEST(SlabCache, OverwritingAnEarlierOutputDropsItsDeadSlabs) {
  // Statement 3 overwrites y without reading it, so y's slabs from
  // statement 1, still dirty in the pool, are dropped unwritten; statement
  // 2 read them first, and statement 4 reads the new y.
  const std::string source = chain_source({
      "y(1:n,k) = x(1:n,k)*2 + 1",
      "z(1:n,k) = y(1:n,k)*x(1:n,k)",
      "y(1:n,k) = x(1:n,k) + 3",
      "w(1:n,k) = y(1:n,k)*z(1:n,k)",
  });
  EXPECT_GT(expect_sound_unfused(source, 4096).cache.discarded, 0u);
  expect_sound_unfused(source, 600);
}

TEST(SlabCache, InPlaceUpdateOfAnEarlierOutputKeepsItsSlabs) {
  // Statement 2 reads y as it overwrites it, so y is not dead: nothing of
  // it may be dropped unwritten.
  const std::string source = chain_source({
      "y(1:n,k) = x(1:n,k)*2 + 1",
      "y(1:n,k) = y(1:n,k)*2 + y(1:n,k)",
      "z(1:n,k) = y(1:n,k) + x(1:n,k)",
  });
  EXPECT_EQ(expect_sound_unfused(source, 4096).cache.discarded, 0u);
  expect_sound_unfused(source, 600);
}

TEST(SlabCache, PoolBelowThePlanBudgetPricesWhatItRuns) {
  // A pool requested below the plans' budget does not shrink it: the
  // executor and the pricer size the pool by one rule
  // (compiler::pool_budget). A 500-element pool holds three of the
  // 144-element panels, so priced at that size the last statement would
  // re-read x, which the run keeps resident.
  const std::string source = chain_source({
      "y(1:n,k) = x(1:n,k)*2 + 1",
      "z(1:n,k) = y(1:n,k)*x(1:n,k)",
      "w(1:n,k) = y(1:n,k)*z(1:n,k)",
      "y(1:n,k) = w(1:n,k) + x(1:n,k)",
  });
  const SequenceRun run = expect_sound_unfused(source, 4096, 4, 500);
  EXPECT_EQ(run.cache.evictions, 0u);
}

TEST(SlabCache, ReuseHintsKeepTheChainsOperandsResident) {
  // bench/cache_reuse's chain, statement at a time: c = a*b; e = c + a*b
  // at N=64 on 2 ranks, slabs sized for one local array and a pool of
  // four. The pool evicts by the reuse hints the executor derives from the
  // step walk; an LRU-only pool makes 42 requests and serves 14 hits. The
  // pricer derives the same hints, so priced == measured.
  const std::int64_t local = 64 * 64 / 2;
  const SequenceRun run = expect_sound_unfused(
      "parameter (n=64, p=2)\n"
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
      "end\n",
      local, 2, 4 * local);
  EXPECT_EQ(run.laf_requests, 32u);
  EXPECT_EQ(run.cache.hits, 24u);
}

TEST(SlabCache, GaxpyCachedPriceMatchesMeasuredCounters) {
  // The column-slab GAXPY re-sweeps A once per output column; with the
  // pool (and a budget that retains A) the re-sweeps hit. The cached
  // pricer must mirror that exactly — this is the reduction-side
  // counterpart of the elementwise exactness test, covering the
  // reduction output's invalidation and the gaxpy side reservations.
  CompileOptions options;
  options.memory_budget_elements = 4096;
  options.enable_access_reorganization = false;  // force Figure 9 re-sweeps
  const NodeProgram plan =
      compiler::compile_source(hpf::gaxpy_source(16, 4), options);
  compiler::PriceOptions popts;
  popts.model_cache = true;
  const compiler::PlanPrice priced = compiler::price_plan(plan, 0, popts);
  ASSERT_GT(priced.cache_hits, 0.0);  // the re-sweeps must actually hit

  TempDir dir;
  Machine machine(4, MachineCostModel::zero());
  machine.run([&](SpmdContext& ctx) {
    auto arrays =
        create_plan_arrays(ctx, plan, dir.path(), DiskModel::zero());
    arrays.at("a")->initialize(ctx, gen_x, 4096);
    arrays.at("b")->initialize(ctx, gen_x, 4096);
    for (auto& [name, arr] : arrays) {
      arr->laf().reset_stats();
    }
    ArrayBindings bindings;
    for (auto& [name, arr] : arrays) {
      bindings[name] = arr.get();
    }
    ExecOptions exec_options;
    runtime::SlabCacheStats cache;
    exec_options.cache_stats = &cache;
    execute(ctx, plan, bindings, exec_options);
    if (ctx.rank() != 0) {
      return;
    }
    EXPECT_DOUBLE_EQ(static_cast<double>(cache.hits), priced.cache_hits);
    for (const auto& [name, cost] : priced.arrays) {
      const io::IoStats& s = arrays.at(name)->laf().stats();
      EXPECT_DOUBLE_EQ(static_cast<double>(s.read_requests),
                       cost.read_requests)
          << name;
      EXPECT_DOUBLE_EQ(static_cast<double>(s.bytes_read) / 8.0,
                       cost.elements_read)
          << name;
      EXPECT_DOUBLE_EQ(static_cast<double>(s.write_requests),
                       cost.write_requests)
          << name;
      EXPECT_DOUBLE_EQ(static_cast<double>(s.bytes_written) / 8.0,
                       cost.elements_written)
          << name;
    }
  });
}

TEST(SlabCache, GaxpyResultUnchangedByCache) {
  // The GAXPY executor stores the reduction output around the pool; the
  // pool serves the A/B slab streams. Values must match the uncached run
  // exactly.
  CompileOptions options;
  options.memory_budget_elements = 4096;
  const NodeProgram plan =
      compiler::compile_source(hpf::gaxpy_source(16, 4), options);
  std::vector<double> results[2];
  for (const bool cache : {true, false}) {
    TempDir dir;
    Machine machine(4, MachineCostModel::zero());
    machine.run([&](SpmdContext& ctx) {
      auto arrays =
          create_plan_arrays(ctx, plan, dir.path(), DiskModel::zero());
      arrays.at("a")->initialize(ctx, gen_x, 4096);
      arrays.at("b")->initialize(
          ctx,
          [](std::int64_t r, std::int64_t c) {
            return std::cos(static_cast<double>(r * 5 + c)) + 0.125;
          },
          4096);
      ArrayBindings bindings;
      for (auto& [name, arr] : arrays) {
        bindings[name] = arr.get();
      }
      ExecOptions exec_options;
      exec_options.use_cache = cache;
      execute(ctx, plan, bindings, exec_options);
      std::vector<double> got = arrays.at("c")->gather_global(ctx, 4096);
      if (ctx.rank() == 0) {
        results[cache ? 0 : 1] = std::move(got);
      }
    });
  }
  ASSERT_EQ(results[0].size(), results[1].size());
  for (std::size_t i = 0; i < results[0].size(); ++i) {
    EXPECT_EQ(results[0][i], results[1][i]) << i;
  }
}

TEST(SequenceErrors, ConflictingStorageOrdersAcrossStatements) {
  // A GAXPY statement reorganizes 'a' to row-major; a following
  // elementwise statement expects it column-major. The plans lower, but
  // creating the sequence's arrays must fail with a specific diagnostic.
  CompileOptions options;
  options.memory_budget_elements = 1 << 14;
  std::vector<NodeProgram> plans;
  plans.push_back(
      compiler::compile_source(hpf::gaxpy_source(16, 2), options));
  const std::string elementwise_src =
      "parameter (n=16, p=2)\n"
      "real a(n,n), t(n,n)\n"
      "!hpf$ processors Pr(p)\n"
      "!hpf$ template d(n)\n"
      "!hpf$ distribute d(block) onto Pr\n"
      "!hpf$ align (*,:) with d :: a, t\n"
      "forall (k=1:n)\n"
      "  t(1:n,k) = a(1:n,k)*2\n"
      "end forall\n"
      "end\n";
  plans.push_back(compiler::compile_source(elementwise_src, options));
  ASSERT_EQ(plans[0].array("a").storage, io::StorageOrder::kRowMajor);
  ASSERT_EQ(plans[1].array("a").storage, io::StorageOrder::kColumnMajor);

  TempDir dir;
  Machine machine(2, MachineCostModel::zero());
  try {
    machine.run([&](SpmdContext& ctx) {
      (void)create_sequence_arrays(
          ctx, std::span<const NodeProgram>(plans.data(), plans.size()),
          dir.path(), DiskModel::zero());
    });
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCompileError);
    EXPECT_NE(std::string(e.what()).find("storage"), std::string::npos);
  }
}

TEST(SequenceErrors, ConflictingDistributionsAcrossStatements) {
  // Same array name distributed differently by two plans (possible when
  // plans come from separately compiled sources).
  CompileOptions options;
  options.memory_budget_elements = 1 << 14;
  auto src_with_align = [](const char* align) {
    return std::string("parameter (n=16, p=2)\n"
                       "real x(n,n), y(n,n)\n"
                       "!hpf$ processors Pr(p)\n"
                       "!hpf$ template d(n)\n"
                       "!hpf$ distribute d(block) onto Pr\n"
                       "!hpf$ align ") +
           align +
           " with d :: x, y\n"
           "forall (k=1:n)\n"
           "  y(1:n,k) = x(1:n,k)*2\n"
           "end forall\n"
           "end\n";
  };
  std::vector<NodeProgram> plans;
  plans.push_back(compiler::compile_source(src_with_align("(*,:)"), options));
  plans.push_back(compiler::compile_source(src_with_align("(:,*)"), options));

  TempDir dir;
  Machine machine(2, MachineCostModel::zero());
  try {
    machine.run([&](SpmdContext& ctx) {
      (void)create_sequence_arrays(
          ctx, std::span<const NodeProgram>(plans.data(), plans.size()),
          dir.path(), DiskModel::zero());
    });
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCompileError);
    EXPECT_NE(std::string(e.what()).find("distributed differently"),
              std::string::npos);
  }
}

TEST(StepProgramText, RendersLoopsAndSteps) {
  CompileOptions options;
  options.memory_budget_elements = 1 << 16;
  const NodeProgram gaxpy =
      compiler::compile_source(hpf::gaxpy_source(256, 4), options);
  const std::string text = compiler::step_program_text(gaxpy);
  EXPECT_NE(text.find("for-each-slab A"), std::string::npos) << text;
  EXPECT_NE(text.find("reduce-sum -> c"), std::string::npos) << text;
  EXPECT_NE(text.find("compute-gaxpy-partial"), std::string::npos) << text;

  const std::vector<NodeProgram> fused =
      compiler::compile_sequence_source(kChainSource, options);
  const std::string etext = compiler::step_program_text(fused.front());
  EXPECT_NE(etext.find("read-slab x"), std::string::npos) << etext;
  EXPECT_NE(etext.find("write-slab w"), std::string::npos) << etext;
  EXPECT_NE(etext.find("compute-elementwise stmt#2"), std::string::npos)
      << etext;
}

}  // namespace
}  // namespace oocc::exec
