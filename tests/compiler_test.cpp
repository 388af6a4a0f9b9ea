// Tests for the out-of-core compiler: access classification, the I/O cost
// estimator (Equations 3-6 and Figure 14), memory planning (§4.2.1),
// lowering decisions, and the pseudo-code renderer.
#include <gtest/gtest.h>

#include <sstream>

#include "oocc/compiler/access.hpp"
#include "oocc/compiler/cost.hpp"
#include "oocc/compiler/lower.hpp"
#include "oocc/compiler/memplan.hpp"
#include "oocc/compiler/pretty.hpp"
#include "oocc/hpf/parser.hpp"
#include "oocc/hpf/programs.hpp"
#include "oocc/hpf/sema.hpp"
#include "oocc/util/error.hpp"

namespace oocc::compiler {
namespace {

using runtime::SlabOrientation;

// ----------------------------------------------------------------- access

TEST(AccessTest, ClassifiesGaxpyReferences) {
  const hpf::BoundProgram bound =
      hpf::analyze(hpf::parse(hpf::gaxpy_source(64, 4)));
  const hpf::Stmt& outer = *bound.stmts[0];
  const hpf::Stmt& forall = *outer.body[0];
  const hpf::Stmt& inner = *forall.body[0];
  const LoopContext loops{"j", "k"};

  // temp(1:n, k)
  const RefAccess temp =
      classify_reference(*inner.lhs, bound.array("temp"), loops, true);
  EXPECT_EQ(temp.row_class, SubscriptClass::kFullRange);
  EXPECT_EQ(temp.col_class, SubscriptClass::kForallIndex);
  EXPECT_TRUE(temp.outer_invariant());

  std::vector<RefAccess> refs;
  collect_references(*inner.rhs, bound, loops, false, refs);
  ASSERT_EQ(refs.size(), 2u);
  // b(k, j): forall-index row, outer-index column -> NOT outer-invariant.
  const RefAccess& b = refs[0].array == "b" ? refs[0] : refs[1];
  const RefAccess& a = refs[0].array == "a" ? refs[0] : refs[1];
  EXPECT_EQ(b.row_class, SubscriptClass::kForallIndex);
  EXPECT_EQ(b.col_class, SubscriptClass::kOuterIndex);
  EXPECT_FALSE(b.outer_invariant());
  // a(1:n, k): full rows, forall column -> outer-invariant (the waste the
  // reorganization eliminates).
  EXPECT_EQ(a.row_class, SubscriptClass::kFullRange);
  EXPECT_EQ(a.col_class, SubscriptClass::kForallIndex);
  EXPECT_TRUE(a.outer_invariant());
}

TEST(AccessTest, ConstantAndOtherClasses) {
  const hpf::BoundProgram bound = hpf::analyze(hpf::parse(
      "parameter (n=8)\n"
      "real a(n,n)\n"
      "do j=1,n\n"
      "  forall (k=1:n)\n"
      "    a(1:n,k) = a(3,k) * a(1:n,1)\n"
      "  end forall\n"
      "end do\n"
      "end\n"));
  const hpf::Stmt& inner = *bound.stmts[0]->body[0]->body[0];
  const LoopContext loops{"j", "k"};
  std::vector<RefAccess> refs;
  collect_references(*inner.rhs, bound, loops, false, refs);
  ASSERT_EQ(refs.size(), 2u);
  EXPECT_EQ(refs[0].row_class, SubscriptClass::kConstant);  // a(3,k)
  EXPECT_EQ(refs[1].col_class, SubscriptClass::kConstant);  // a(1:n,1)
}

TEST(AccessTest, PartialRangeIsConstantRangeWithBounds) {
  const hpf::BoundProgram bound = hpf::analyze(hpf::parse(
      "parameter (n=8)\n"
      "real a(n,n)\n"
      "forall (k=1:n)\n"
      "  a(1:n,k) = a(2:4,k)\n"
      "end forall\n"
      "end\n"));
  const hpf::Stmt& inner = *bound.stmts[0]->body[0];
  const LoopContext loops{"", "k"};
  std::vector<RefAccess> refs;
  collect_references(*inner.rhs, bound, loops, false, refs);
  // Partial sections still reject from the full-range matchers, but the
  // stencil matcher needs their Fortran bounds.
  EXPECT_EQ(refs[0].row_class, SubscriptClass::kConstantRange);
  EXPECT_EQ(refs[0].row_lo, 2);
  EXPECT_EQ(refs[0].row_hi, 4);
}

TEST(AccessTest, ForallOffsetCarriesTheSignedDistance) {
  const hpf::BoundProgram bound = hpf::analyze(hpf::parse(
      "parameter (n=8)\n"
      "real a(n,n)\n"
      "forall (k=2:7)\n"
      "  a(1:n,k) = a(1:n,k-1) + a(1:n,k+2)\n"
      "end forall\n"
      "end\n"));
  const hpf::Stmt& inner = *bound.stmts[0]->body[0];
  const LoopContext loops{"", "k"};
  std::vector<RefAccess> refs;
  collect_references(*inner.rhs, bound, loops, false, refs);
  ASSERT_EQ(refs.size(), 2u);
  EXPECT_EQ(refs[0].col_class, SubscriptClass::kForallOffset);
  EXPECT_EQ(refs[0].col_offset, -1);
  EXPECT_EQ(refs[1].col_class, SubscriptClass::kForallOffset);
  EXPECT_EQ(refs[1].col_offset, 2);
}

// ------------------------------------------------------------------- cost

TEST(CostTest, ColumnSlabMatchesEquations3And4) {
  // Paper's formulas with M elements per slab of A: T_fetch = N^3/(M P),
  // T_data = N^3/P.
  GaxpyCostQuery q;
  q.n = 1024;
  q.nprocs = 4;
  q.slab_a = 2 * 1024;  // two columns
  q.slab_b = 2 * 1024;
  q.slab_c = 2 * 1024;
  const CandidateCost cost =
      estimate_gaxpy_cost(SlabOrientation::kColumnSlabs, q);
  const double n = 1024.0;
  EXPECT_DOUBLE_EQ(cost.cost_of("a").fetch_requests,
                   n * n * n / (2048.0 * 4.0));
  EXPECT_DOUBLE_EQ(cost.cost_of("a").data_elements, n * n * n / 4.0);
  // B read once.
  EXPECT_DOUBLE_EQ(cost.cost_of("b").data_elements, n * n / 4.0);
}

TEST(CostTest, RowSlabMatchesEquations5And6) {
  GaxpyCostQuery q;
  q.n = 1024;
  q.nprocs = 4;
  q.slab_a = 2 * 1024;
  q.slab_b = 2 * 1024;
  q.slab_c = 2 * 1024;
  const CandidateCost cost = estimate_gaxpy_cost(SlabOrientation::kRowSlabs, q);
  const double n = 1024.0;
  EXPECT_DOUBLE_EQ(cost.cost_of("a").fetch_requests, n * n / (2048.0 * 4.0));
  EXPECT_DOUBLE_EQ(cost.cost_of("a").data_elements, n * n / 4.0);
}

TEST(CostTest, RowVersionOrderOfMagnitudeCheaper) {
  GaxpyCostQuery q;
  q.n = 1024;
  q.nprocs = 16;
  q.slab_a = q.slab_b = q.slab_c = 8 * 1024;
  const CandidateCost col = estimate_gaxpy_cost(SlabOrientation::kColumnSlabs, q);
  const CandidateCost row = estimate_gaxpy_cost(SlabOrientation::kRowSlabs, q);
  EXPECT_DOUBLE_EQ(col.cost_of("a").data_elements /
                       row.cost_of("a").data_elements,
                   1024.0);  // exactly N for square blocks
  EXPECT_GT(col.cost_of("a").fetch_requests,
            100.0 * row.cost_of("a").fetch_requests);
}

TEST(CostTest, UnreorganizedRowSlabsPayPerColumnExtents) {
  GaxpyCostQuery q;
  q.n = 64;
  q.nprocs = 4;
  q.slab_a = q.slab_b = q.slab_c = 4 * 64;
  q.storage_reorganized = false;
  const CandidateCost strided = estimate_gaxpy_cost(SlabOrientation::kRowSlabs, q);
  q.storage_reorganized = true;
  const CandidateCost contiguous =
      estimate_gaxpy_cost(SlabOrientation::kRowSlabs, q);
  // Without reorganization every row slab costs one extent per local
  // column (16 here).
  EXPECT_DOUBLE_EQ(strided.cost_of("a").fetch_requests,
                   16.0 * contiguous.cost_of("a").fetch_requests);
  // Data volume is unchanged.
  EXPECT_DOUBLE_EQ(strided.cost_of("a").data_elements,
                   contiguous.cost_of("a").data_elements);
}

TEST(CostTest, Figure14PicksRowSlabsAndExplainsWhy) {
  GaxpyCostQuery q;
  q.n = 1024;
  q.nprocs = 16;
  q.slab_a = q.slab_b = q.slab_c = 16 * 1024;
  const CostDecision decision = choose_access_reorganization(
      q, q, io::DiskModel::touchstone_delta_cfs());
  EXPECT_EQ(decision.dominant_array, "a");
  EXPECT_EQ(decision.chosen.a_orientation, SlabOrientation::kRowSlabs);
  EXPECT_EQ(decision.candidates.size(), 2u);
  EXPECT_NE(decision.rationale.find("row-slabs"), std::string::npos);
  EXPECT_NE(decision.rationale.find("dominant"), std::string::npos);
}

TEST(CostTest, EstimatedTimeUsesDiskModel) {
  GaxpyCostQuery q;
  q.n = 64;
  q.nprocs = 4;
  q.slab_a = q.slab_b = q.slab_c = 64 * 4;
  const CandidateCost cost = estimate_gaxpy_cost(SlabOrientation::kRowSlabs, q);
  io::DiskModel disk = io::DiskModel::unit_test();
  const double expected =
      cost.total_requests() * disk.request_overhead_s +
      cost.total_elements() * 8.0 / disk.effective_bandwidth(4);
  EXPECT_DOUBLE_EQ(cost.estimated_io_time_s(disk, 4), expected);
}

TEST(CostTest, TotalEstimatePredictsRowSlabWinOnDeltaHardware) {
  GaxpyCostQuery q;
  q.n = 512;
  q.nprocs = 4;
  q.slab_a = q.slab_b = q.slab_c = 512 * 32;
  const io::DiskModel disk = io::DiskModel::touchstone_delta_cfs();
  const sim::MachineCostModel machine =
      sim::MachineCostModel::touchstone_delta();
  const TotalCostEstimate col = estimate_gaxpy_total(
      SlabOrientation::kColumnSlabs, q, disk, machine);
  const TotalCostEstimate row =
      estimate_gaxpy_total(SlabOrientation::kRowSlabs, q, disk, machine);
  // Same compute; far less I/O for the row version; ordering must hold.
  EXPECT_DOUBLE_EQ(col.compute_s, row.compute_s);
  EXPECT_GT(col.io_s, 10 * row.io_s);
  EXPECT_LT(row.total_s(), col.total_s());
  // Components are all positive and total is their sum.
  EXPECT_GT(row.comm_s, 0.0);
  EXPECT_DOUBLE_EQ(row.total_s(), row.io_s + row.compute_s + row.comm_s);
}

TEST(CostTest, DecisionReportIncludesPredictedTotals) {
  CompileOptions options;
  options.memory_budget_elements = 1 << 16;
  const NodeProgram plan = compile_source(hpf::gaxpy_source(256, 4), options);
  ASSERT_EQ(plan.cost.candidate_total_s.size(), 2u);
  EXPECT_GT(plan.cost.candidate_total_s[0], plan.cost.candidate_total_s[1]);
  const std::string report = decision_report(plan);
  EXPECT_NE(report.find("predicted_total"), std::string::npos);
}

TEST(CostTest, MachineModelChangesPredictionsNotTheChoice) {
  // A faster CPU changes the predicted totals but the Figure 14 decision
  // is made on I/O alone, so the orientation must be stable.
  CompileOptions slow;
  slow.memory_budget_elements = 1 << 16;
  CompileOptions fast = slow;
  fast.machine.compute.seconds_per_flop = 1e-12;
  const NodeProgram a = compile_source(hpf::gaxpy_source(256, 4), slow);
  const NodeProgram b = compile_source(hpf::gaxpy_source(256, 4), fast);
  EXPECT_EQ(a.a_orientation, b.a_orientation);
  ASSERT_EQ(a.cost.candidate_total_s.size(), 2u);
  ASSERT_EQ(b.cost.candidate_total_s.size(), 2u);
  EXPECT_GT(a.cost.candidate_total_s[1], b.cost.candidate_total_s[1]);
}

TEST(CostTest, QueryValidation) {
  GaxpyCostQuery q;
  q.n = 0;
  EXPECT_THROW(estimate_gaxpy_cost(SlabOrientation::kRowSlabs, q), Error);
  q.n = 8;
  q.slab_a = 0;
  q.slab_b = q.slab_c = 8;
  EXPECT_THROW(estimate_gaxpy_cost(SlabOrientation::kRowSlabs, q), Error);
}

// ---------------------------------------------------------------- memplan

TEST(MemplanTest, EqualSplitDividesSpareEvenly) {
  const MemoryPlan plan = plan_memory(MemoryStrategy::kEqualSplit, 100000,
                                      256, 4, SlabOrientation::kColumnSlabs);
  EXPECT_EQ(plan.temp_elements, 256);
  // Floors: a=256, b=64, c=256, temp=256 -> spare split 3 ways.
  const std::int64_t spare = (100000 - (256 + 64 + 256 + 256)) / 3;
  EXPECT_EQ(plan.slab_a, 256 + spare);
  EXPECT_EQ(plan.slab_b, 64 + spare);
  EXPECT_EQ(plan.slab_c, 256 + spare);
  EXPECT_LE(plan.total(), 100000);
}

TEST(MemplanTest, WeightedGivesDominantArrayTheLargestSlab) {
  // Budget below A's OCLA size so the cap does not engage.
  const MemoryPlan plan =
      plan_memory(MemoryStrategy::kAccessWeighted, 30000, 512, 4,
                  SlabOrientation::kColumnSlabs);
  // A is the most frequently accessed array (T_fetch scales with 1/slab_a
  // at N re-sweeps): the search must give it the largest share.
  EXPECT_GT(plan.slab_a, plan.slab_b);
  EXPECT_GT(plan.slab_a, plan.slab_c);
  EXPECT_GT(plan.slab_a, 30000 / 2);  // majority of the budget
  EXPECT_LE(plan.total(), 30000);
}

TEST(MemplanTest, WeightedNeverPredictsWorseThanEqualSplit) {
  const io::DiskModel disk = io::DiskModel::touchstone_delta_cfs();
  for (SlabOrientation orient :
       {SlabOrientation::kColumnSlabs, SlabOrientation::kRowSlabs}) {
    for (std::int64_t budget : {4000LL, 30000LL, 200000LL}) {
      const MemoryPlan equal = plan_memory(MemoryStrategy::kEqualSplit,
                                           budget, 512, 4, orient, disk);
      const MemoryPlan weighted = plan_memory(
          MemoryStrategy::kAccessWeighted, budget, 512, 4, orient, disk);
      auto predict = [&](const MemoryPlan& p) {
        GaxpyCostQuery q;
        q.n = 512;
        q.nprocs = 4;
        q.slab_a = p.slab_a;
        q.slab_b = p.slab_b;
        q.slab_c = p.slab_c;
        return estimate_gaxpy_cost(orient, q).estimated_io_time_s(disk, 4);
      };
      EXPECT_LE(predict(weighted), predict(equal) * 1.0001)
          << "orient=" << static_cast<int>(orient) << " budget=" << budget;
    }
  }
}

TEST(MemplanTest, WeightedWithLargeBudgetCapsAtOclaSize) {
  // With more memory than the OCLA, the dominant slab is the whole local
  // array (slab ratio 1) — exactly the paper's best configuration.
  const MemoryPlan plan =
      plan_memory(MemoryStrategy::kAccessWeighted, 100000, 256, 4,
                  SlabOrientation::kColumnSlabs);
  EXPECT_EQ(plan.slab_a, 256 * 64);
  EXPECT_LE(plan.total(), 100000);
}

TEST(MemplanTest, SlabsCappedAtLocalArraySize) {
  // Huge budget: slabs must not exceed the OCLA sizes.
  const MemoryPlan plan =
      plan_memory(MemoryStrategy::kAccessWeighted, 1 << 28, 64, 4,
                  SlabOrientation::kRowSlabs);
  EXPECT_LE(plan.slab_a, 64 * 16);
  EXPECT_LE(plan.slab_b, 64 * 16);
  EXPECT_LE(plan.slab_c, 64 * 16);
}

TEST(MemplanTest, InsufficientBudgetThrows) {
  try {
    plan_memory(MemoryStrategy::kEqualSplit, 100, 256, 4,
                SlabOrientation::kColumnSlabs);
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kResourceExhausted);
  }
}

// ------------------------------------------------------------------ lower

TEST(LowerTest, CompilesFigure3ToRowSlabPlan) {
  CompileOptions options;
  options.memory_budget_elements = 1 << 16;
  const NodeProgram plan = compile_source(hpf::gaxpy_source(256, 4), options);
  EXPECT_EQ(plan.kind, ProgramKind::kGaxpy);
  EXPECT_EQ(plan.nprocs, 4);
  EXPECT_EQ(plan.n, 256);
  EXPECT_EQ(plan.a, "a");
  EXPECT_EQ(plan.b, "b");
  EXPECT_EQ(plan.c, "c");
  // The optimizer must pick row slabs (order-of-magnitude less I/O).
  EXPECT_EQ(plan.a_orientation, SlabOrientation::kRowSlabs);
  // Storage reorganization: A and C row-major, B stays column-major.
  EXPECT_EQ(plan.array("a").storage, io::StorageOrder::kRowMajor);
  EXPECT_TRUE(plan.array("a").needs_storage_reorganization);
  EXPECT_EQ(plan.array("b").storage, io::StorageOrder::kColumnMajor);
  EXPECT_EQ(plan.array("c").storage, io::StorageOrder::kRowMajor);
  EXPECT_EQ(plan.cost.dominant_array, "a");
  EXPECT_EQ(plan.cost.candidates.size(), 2u);
}

TEST(LowerTest, AblationForcesColumnSlabs) {
  CompileOptions options;
  options.memory_budget_elements = 1 << 16;
  options.enable_access_reorganization = false;
  const NodeProgram plan = compile_source(hpf::gaxpy_source(256, 4), options);
  EXPECT_EQ(plan.a_orientation, SlabOrientation::kColumnSlabs);
  EXPECT_EQ(plan.array("a").storage, io::StorageOrder::kColumnMajor);
  EXPECT_NE(plan.cost.rationale.find("disabled"), std::string::npos);
}

TEST(LowerTest, StorageReorganizationCanBeDisabled) {
  CompileOptions options;
  options.memory_budget_elements = 1 << 16;
  options.enable_storage_reorganization = false;
  const NodeProgram plan = compile_source(hpf::gaxpy_source(256, 4), options);
  // Everything stays column-major even if row slabs were chosen.
  EXPECT_EQ(plan.array("a").storage, io::StorageOrder::kColumnMajor);
  EXPECT_FALSE(plan.array("a").needs_storage_reorganization);
}

TEST(LowerTest, PrefetchHalvesDominantSlab) {
  CompileOptions options;
  options.memory_budget_elements = 1 << 16;
  const NodeProgram base = compile_source(hpf::gaxpy_source(256, 4), options);
  options.prefetch = PrefetchMode::kOn;
  const NodeProgram pf = compile_source(hpf::gaxpy_source(256, 4), options);
  EXPECT_TRUE(pf.prefetch);
  EXPECT_LE(pf.memory.slab_a, base.memory.slab_a / 2 + 64);
}

TEST(LowerTest, Figure14RationaleQuotesItsCandidates) {
  // docs/examples/gaxpy.hpf's shape. Each orientation is estimated under
  // its own memory plan, and the rationale must quote those same
  // candidates, the ones the decision report tabulates above it.
  CompileOptions options;
  options.memory_budget_elements = 2048;
  const NodeProgram plan = compile_source(hpf::gaxpy_source(64, 4), options);
  ASSERT_EQ(plan.cost.candidates.size(), 2u);
  for (const CandidateCost& cand : plan.cost.candidates) {
    const ArrayCost& dominant = cand.cost_of(plan.cost.dominant_array);
    std::ostringstream quote;
    quote << runtime::slab_orientation_name(cand.a_orientation)
          << ": T_fetch=" << dominant.fetch_requests
          << " T_data=" << dominant.data_elements << ";";
    EXPECT_NE(plan.cost.rationale.find(quote.str()), std::string::npos)
        << "'" << quote.str() << "' missing from: " << plan.cost.rationale;
  }
}

TEST(LowerTest, MemorySplitFollowsTheDiskModel) {
  CompileOptions options;
  options.memory_budget_elements = 1024;
  options.disk = io::DiskModel::unit_test();
  const NodeProgram plan = compile_source(hpf::gaxpy_source(64, 4), options);
  const MemoryPlan expected =
      plan_memory(MemoryStrategy::kAccessWeighted, 1024, 64, 4,
                  plan.a_orientation, options.disk);
  EXPECT_EQ(plan.memory.slab_a, expected.slab_a);
  EXPECT_EQ(plan.memory.slab_b, expected.slab_b);
  EXPECT_EQ(plan.memory.slab_c, expected.slab_c);
  EXPECT_EQ(plan.memory.temp_elements, expected.temp_elements);
  // The Touchstone model would split this budget 286/394/280.
  EXPECT_EQ(plan.memory.slab_a, 394);
  EXPECT_EQ(plan.memory.slab_b, 178);
  EXPECT_EQ(plan.memory.slab_c, 388);
}

TEST(LowerTest, AcceptsOperandOrderVariants) {
  // a(1:n,k)*b(k,j) instead of b(k,j)*a(1:n,k).
  const std::string src =
      "parameter (n=64, p=4)\n"
      "real a(n,n), b(n,n), c(n,n), temp(n,n)\n"
      "!hpf$ processors Pr(p)\n"
      "!hpf$ template d(n)\n"
      "!hpf$ distribute d(block) onto Pr\n"
      "!hpf$ align (*,:) with d :: a, c, temp\n"
      "!hpf$ align (:,*) with d :: b\n"
      "do j=1, n\n"
      "  forall (k=1:n)\n"
      "    temp(1:n,k) = a(1:n,k)*b(k,j)\n"
      "  end forall\n"
      "  c(1:n,j) = SUM(temp,2)\n"
      "end do\n"
      "end\n";
  CompileOptions options;
  options.memory_budget_elements = 1 << 16;
  const NodeProgram plan = compile_source(src, options);
  EXPECT_EQ(plan.a, "a");
  EXPECT_EQ(plan.b, "b");
}

TEST(LowerTest, CompilesCyclicGaxpy) {
  // The paper's program with CYCLIC instead of BLOCK distribution.
  const std::string src =
      "parameter (n=64, p=4)\n"
      "real a(n,n), b(n,n), c(n,n), temp(n,n)\n"
      "!hpf$ processors Pr(p)\n"
      "!hpf$ template d(n)\n"
      "!hpf$ distribute d(cyclic) onto Pr\n"
      "!hpf$ align (*,:) with d :: a, c, temp\n"
      "!hpf$ align (:,*) with d :: b\n"
      "do j=1, n\n"
      "  forall (k=1:n)\n"
      "    temp(1:n,k) = b(k,j)*a(1:n,k)\n"
      "  end forall\n"
      "  c(1:n,j) = SUM(temp,2)\n"
      "end do\n"
      "end\n";
  CompileOptions options;
  options.memory_budget_elements = 1 << 16;
  const NodeProgram plan = compile_source(src, options);
  EXPECT_EQ(plan.kind, ProgramKind::kGaxpy);
  EXPECT_EQ(plan.array("a").dist.col_dist().kind(), hpf::DistKind::kCyclic);
  EXPECT_EQ(plan.a_orientation, SlabOrientation::kRowSlabs);
}

TEST(LowerTest, RejectsMixedDistributionKinds) {
  // A cyclic but B block: the local-index correspondence breaks.
  const std::string src =
      "parameter (n=64, p=4)\n"
      "real a(n,n), b(n,n), c(n,n), temp(n,n)\n"
      "!hpf$ processors Pr(p)\n"
      "!hpf$ template d1(n)\n"
      "!hpf$ template d2(n)\n"
      "!hpf$ distribute d1(cyclic) onto Pr\n"
      "!hpf$ distribute d2(block) onto Pr\n"
      "!hpf$ align (*,:) with d1 :: a, c, temp\n"
      "!hpf$ align (:,*) with d2 :: b\n"
      "do j=1, n\n"
      "  forall (k=1:n)\n"
      "    temp(1:n,k) = b(k,j)*a(1:n,k)\n"
      "  end forall\n"
      "  c(1:n,j) = SUM(temp,2)\n"
      "end do\n"
      "end\n";
  CompileOptions options;
  options.memory_budget_elements = 1 << 16;
  try {
    compile_source(src, options);
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCompileError);
    EXPECT_NE(std::string(e.what()).find("share one distribution"),
              std::string::npos);
  }
}

TEST(LowerTest, NormalizesArrayAssignmentToForall) {
  // HPF array syntax without an explicit FORALL (§3.2 footnote).
  const std::string src =
      "parameter (n=16, p=2)\n"
      "real x(n,n), y(n,n)\n"
      "!hpf$ processors Pr(p)\n"
      "!hpf$ template d(n)\n"
      "!hpf$ distribute d(block) onto Pr\n"
      "!hpf$ align (*,:) with d :: x, y\n"
      "y(1:n,1:n) = x(1:n,1:n)*2 + 1\n"
      "end\n";
  CompileOptions options;
  options.memory_budget_elements = 1 << 14;
  const NodeProgram plan = compile_source(src, options);
  EXPECT_EQ(plan.kind, ProgramKind::kElementwise);
  ASSERT_EQ(plan.statements.size(), 1u);
  EXPECT_EQ(plan.statements.front().lhs, "y");
}

TEST(LowerTest, ArrayAssignmentWithColonSections) {
  const std::string src =
      "parameter (n=16, p=2)\n"
      "real x(n,n), y(n,n)\n"
      "!hpf$ processors Pr(p)\n"
      "!hpf$ template d(n)\n"
      "!hpf$ distribute d(block) onto Pr\n"
      "!hpf$ align (*,:) with d :: x, y\n"
      "y(:,:) = x(:,:) - 3\n"
      "end\n";
  CompileOptions options;
  options.memory_budget_elements = 1 << 14;
  const NodeProgram plan = compile_source(src, options);
  EXPECT_EQ(plan.kind, ProgramKind::kElementwise);
}

TEST(LowerTest, PartialSectionAssignmentRejected) {
  const std::string src =
      "parameter (n=16, p=2)\n"
      "real x(n,n), y(n,n)\n"
      "!hpf$ processors Pr(p)\n"
      "!hpf$ template d(n)\n"
      "!hpf$ distribute d(block) onto Pr\n"
      "!hpf$ align (*,:) with d :: x, y\n"
      "y(1:n,2:5) = x(1:n,2:5)\n"
      "end\n";
  CompileOptions options;
  options.memory_budget_elements = 1 << 14;
  EXPECT_THROW(compile_source(src, options), Error);
}

TEST(LowerTest, CompilesElementwiseForall) {
  CompileOptions options;
  options.memory_budget_elements = 1 << 14;
  const NodeProgram plan =
      compile_source(hpf::elementwise_source(32, 32, 4, 3), options);
  EXPECT_EQ(plan.kind, ProgramKind::kElementwise);
  ASSERT_EQ(plan.statements.size(), 1u);
  EXPECT_EQ(plan.statements.front().lhs, "y");
  EXPECT_EQ(plan.arrays.size(), 2u);
  EXPECT_TRUE(plan.array("y").is_output);
  EXPECT_FALSE(plan.array("x").is_output);
}

TEST(LowerTest, CompileErrorsAreSpecific) {
  CompileOptions options;
  options.memory_budget_elements = 1 << 16;

  // Unsupported pattern: two top-level loops.
  const std::string two_loops =
      "real a(8,8)\n"
      "do j=1,8\n"
      "end do\n"
      "do i=1,8\n"
      "end do\n"
      "end\n";
  EXPECT_THROW(compile_source(two_loops, options), Error);

  // Elementwise with mismatched distributions.
  const std::string mismatched =
      "parameter (n=8, p=2)\n"
      "real x(n,n), y(n,n)\n"
      "!hpf$ processors Pr(p)\n"
      "!hpf$ template d(n)\n"
      "!hpf$ distribute d(block) onto Pr\n"
      "!hpf$ align (*,:) with d :: y\n"
      "!hpf$ align (:,*) with d :: x\n"
      "forall (k=1:n)\n"
      "  y(1:n,k) = x(1:n,k)\n"
      "end forall\n"
      "end\n";
  try {
    compile_source(mismatched, options);
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCompileError);
    EXPECT_NE(std::string(e.what()).find("identically distributed"),
              std::string::npos);
  }

  // Budget too small for one column per array.
  CompileOptions tiny = options;
  tiny.memory_budget_elements = 8;
  EXPECT_THROW(compile_source(hpf::gaxpy_source(256, 4), tiny), Error);
}

// ----------------------------------------------------------------- pretty

TEST(PrettyTest, RowSlabPseudoCodeShowsReorganizedStructure) {
  CompileOptions options;
  options.memory_budget_elements = 1 << 16;
  const NodeProgram plan = compile_source(hpf::gaxpy_source(256, 4), options);
  const std::string code = pseudo_code(plan);
  EXPECT_NE(code.find("row slab"), std::string::npos);
  EXPECT_NE(code.find("fetched exactly once"), std::string::npos);
  EXPECT_NE(code.find("GLOBAL_SUM"), std::string::npos);
  EXPECT_NE(code.find("REORGANIZE_STORAGE"), std::string::npos);
}

TEST(PrettyTest, ColumnSlabPseudoCodeShowsRereads) {
  CompileOptions options;
  options.memory_budget_elements = 1 << 16;
  options.enable_access_reorganization = false;
  const NodeProgram plan = compile_source(hpf::gaxpy_source(256, 4), options);
  const std::string code = pseudo_code(plan);
  EXPECT_NE(code.find("re-read every output column"), std::string::npos);
}

TEST(PrettyTest, DecisionReportListsCandidates) {
  CompileOptions options;
  options.memory_budget_elements = 1 << 16;
  const NodeProgram plan = compile_source(hpf::gaxpy_source(256, 4), options);
  const std::string report = decision_report(plan);
  EXPECT_NE(report.find("column-slabs"), std::string::npos);
  EXPECT_NE(report.find("row-slabs"), std::string::npos);
  EXPECT_NE(report.find("T_fetch"), std::string::npos);
  EXPECT_NE(report.find("access-weighted"), std::string::npos);
}

TEST(PrettyTest, ElementwisePseudoCode) {
  CompileOptions options;
  options.memory_budget_elements = 1 << 14;
  const NodeProgram plan =
      compile_source(hpf::elementwise_source(32, 32, 4, 3), options);
  const std::string code = pseudo_code(plan);
  EXPECT_NE(code.find("READ_ICLA(x"), std::string::npos);
  EXPECT_NE(code.find("WRITE_ICLA(y"), std::string::npos);
}

}  // namespace
}  // namespace oocc::compiler
