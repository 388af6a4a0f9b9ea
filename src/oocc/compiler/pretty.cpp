#include "oocc/compiler/pretty.hpp"

#include <cstdio>
#include <sstream>

#include "oocc/util/error.hpp"

namespace oocc::compiler {

namespace {

void emit_gaxpy_column(std::ostringstream& oss, const NodeProgram& p) {
  oss << "C  Column-slab translation (straightforward extension, Fig. 9)\n"
      << "C  slabs: " << p.a << "=" << p.memory.slab_a << " elems, " << p.b
      << "=" << p.memory.slab_b << " elems, " << p.c << "="
      << p.memory.slab_c << " elems\n"
      << "   global_index = 0\n"
      << "   do l = 1, slabs_of(" << p.b << ")\n"
      << "      call READ_ICLA(" << p.b << ", slab l)\n"
      << "      do m = 1, columns_in_icla(" << p.b << ")\n"
      << "         global_index = global_index + 1\n"
      << "         temp(1:N) = 0\n"
      << "         do n = 1, slabs_of(" << p.a << ")\n"
      << "            call READ_ICLA(" << p.a << ", slab n)    ! re-read "
      << "every output column\n"
      << "            do i = 1, columns_in_icla(" << p.a << ")\n"
      << "               do j = 1, N\n"
      << "                  temp(j) = temp(j) + " << p.a << "(j,i)*" << p.b
      << "(col(i),m)\n"
      << "               end do\n"
      << "            end do\n"
      << "         end do\n"
      << "         call GLOBAL_SUM(temp, owner(global_index))\n"
      << "         if (mynode .eq. owner(global_index)) then\n"
      << "            store temp into ICLA of " << p.c << "\n"
      << "            if (ICLA full) call WRITE_ICLA(" << p.c << ")\n"
      << "         end if\n"
      << "      end do\n"
      << "   end do\n";
}

void emit_gaxpy_row(std::ostringstream& oss, const NodeProgram& p) {
  oss << "C  Row-slab translation (reorganized accesses, Fig. 12)\n"
      << "C  slabs: " << p.a << "=" << p.memory.slab_a << " elems"
      << (p.prefetch ? " (double-buffered)" : "") << ", " << p.b << "="
      << p.memory.slab_b << " elems, " << p.c << "=" << p.memory.slab_c
      << " elems\n";
  if (p.array(p.a).needs_storage_reorganization) {
    oss << "   call REORGANIZE_STORAGE(" << p.a
        << ", row-major)        ! one-time, amortized\n";
  }
  oss << "   do l = 1, slabs_of(" << p.a << ")\n"
      << "      call READ_ICLA(" << p.a << ", row slab l)   ! fetched "
      << "exactly once\n"
      << "      global_index = 0\n"
      << "      do n = 1, slabs_of(" << p.b << ")\n"
      << "         call READ_ICLA(" << p.b << ", slab n)\n"
      << "         do m = 1, columns_in_icla(" << p.b << ")\n"
      << "            global_index = global_index + 1\n"
      << "            temp(1:rows_in_slab) = 0\n"
      << "            do i = 1, local_columns(" << p.a << ")\n"
      << "               do j = 1, rows_in_slab\n"
      << "                  temp(j) = temp(j) + " << p.a << "(j,i)*" << p.b
      << "(i,m)\n"
      << "               end do\n"
      << "            end do\n"
      << "            call GLOBAL_SUM(temp, owner(global_index))\n"
      << "            if (mynode .eq. owner(global_index)) then\n"
      << "               store temp as subcolumn of " << p.c << " ICLA\n"
      << "               if (ICLA full) call WRITE_ICLA(" << p.c << ")\n"
      << "            end if\n"
      << "         end do\n"
      << "      end do\n"
      << "   end do\n";
}

/// Renders a position-normalized expression: array references print as
/// name(r+shift, c+offset) relative to the element being computed.
void expr_text(std::ostringstream& oss, const hpf::Expr& e) {
  switch (e.kind) {
    case hpf::ExprKind::kIntConst:
      oss << e.int_value;
      return;
    case hpf::ExprKind::kVarRef:
      oss << e.name;
      return;
    case hpf::ExprKind::kArrayRef: {
      const std::int64_t sr = e.subscripts[0].scalar->int_value;
      const std::int64_t co = e.subscripts[1].scalar->int_value;
      oss << e.name << "(r";
      if (sr != 0) {
        oss << (sr > 0 ? "+" : "") << sr;
      }
      oss << ",c";
      if (co != 0) {
        oss << (co > 0 ? "+" : "") << co;
      }
      oss << ")";
      return;
    }
    case hpf::ExprKind::kBinary: {
      const char* op = "?";
      switch (e.op) {
        case hpf::BinOp::kAdd:
          op = " + ";
          break;
        case hpf::BinOp::kSub:
          op = " - ";
          break;
        case hpf::BinOp::kMul:
          op = "*";
          break;
        case hpf::BinOp::kDiv:
          op = "/";
          break;
      }
      oss << "(";
      expr_text(oss, *e.lhs);
      oss << op;
      expr_text(oss, *e.rhs);
      oss << ")";
      return;
    }
    case hpf::ExprKind::kSumIntrinsic:
      oss << "SUM(?)";
      return;
  }
}

std::string stmt_text(const SlabStmt& st) {
  std::ostringstream oss;
  oss << st.lhs << "(r,c) = ";
  expr_text(oss, *st.rhs);
  return oss.str();
}

void emit_elementwise(std::ostringstream& oss, const NodeProgram& p) {
  oss << "C  Elementwise FORALL translation (no communication";
  if (p.statements.size() > 1) {
    oss << "; " << p.statements.size() << " statements fused into one sweep";
  }
  oss << ")\n";
  const std::string& sweep = p.statements.front().lhs;
  oss << "   do s = 1, slabs_of(" << sweep << ")\n";
  // Render the sweep body off the step program so the pseudo-code shows
  // exactly which reads the fusion pass kept and which it eliminated.
  OOCC_ASSERT(!p.steps.empty() &&
                  p.steps.front().kind == StepKind::kForEachSlab,
              "elementwise plan must be a single slab sweep");
  for (const Step& step : p.steps.front().body) {
    switch (step.kind) {
      case StepKind::kReadSlab:
        oss << "      call READ_ICLA(" << step.array << ", slab s)\n";
        break;
      case StepKind::kComputeElementwise:
        oss << "      do each element (r,c) in slab s\n"
            << "         "
            << stmt_text(p.statements[static_cast<std::size_t>(step.stmt)])
            << "\n"
            << "      end do\n";
        break;
      case StepKind::kWriteSlab:
        oss << "      call WRITE_ICLA(" << step.array << ", slab s)\n";
        break;
      default:
        break;
    }
  }
  oss << "   end do\n";
}

/// Renders `steps` and their bodies; `id` is the next step id in preorder,
/// the key into `hints`.
void emit_steps(std::ostringstream& oss, const std::vector<Step>& steps,
                int depth, std::span<const double> hints, std::size_t& id) {
  const std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
  for (const Step& s : steps) {
    oss << pad << step_text(s);
    const bool io =
        s.kind == StepKind::kReadSlab || s.kind == StepKind::kWriteSlab;
    if (io && id < hints.size() && hints[id] >= 0) {
      oss << " (reuse " << hints[id] << ")";
    }
    oss << "\n";
    ++id;
    emit_steps(oss, s.body, depth + 1, hints, id);
  }
}

void emit_stencil(std::ostringstream& oss, const NodeProgram& p) {
  const SlabStmt& st = p.statements.front();
  oss << "C  Halo-stencil translation (one sweep of the ping-pong pair)\n"
      << "C  slabs: " << st.source << "="
      << p.array(st.source).slab_elements << " elems (halo-widened), "
      << st.lhs << "=" << p.array(st.lhs).slab_elements << " elems\n"
      << "   exchange +/-" << st.halo << " edge columns of " << st.source
      << " with the neighbour processors\n"
      << "   do s = 1, slabs_of(" << st.lhs << ")\n"
      << "      call READ_ICLA(" << st.source << ", slab s widened by "
      << st.halo << " column(s) each side, clipped)\n"
      << "      do each interior element (r,c) in slab s\n"
      << "         " << stmt_text(st) << "\n"
      << "      end do\n"
      << "      boundary rows/columns copy through from " << st.source
      << "\n"
      << "      call WRITE_ICLA(" << st.lhs << ", slab s)\n"
      << "   end do\n"
      << "   barrier\n"
      << "C  the executor swaps " << st.lhs << "/" << st.source
      << " and repeats until max_iters or residual <= tol\n";
}

}  // namespace

std::string step_text(const Step& s) {
  std::ostringstream oss;
  oss << step_kind_name(s.kind);
  switch (s.kind) {
    case StepKind::kForEachSlab:
    case StepKind::kForEachColumn:
      oss << " " << s.loop << ":";
      break;
    case StepKind::kReadSlab:
    case StepKind::kWriteSlab:
      oss << " " << s.array << " [" << s.loop << "]";
      if (s.halo > 0) {
        oss << " (halo +/-" << s.halo << ", clipped)";
      }
      break;
    case StepKind::kExchangeHalo:
      oss << " " << s.array << " [" << s.loop << "] (+/-" << s.halo
          << " edge columns)";
      break;
    case StepKind::kComputeElementwise:
    case StepKind::kComputeStencil:
      oss << " stmt#" << s.stmt;
      break;
    case StepKind::kComputeGaxpyPartial:
      oss << " (" << s.loop << " x " << s.with << ")";
      break;
    case StepKind::kReduceSum:
      oss << " -> " << s.array << " [" << s.with << "]";
      break;
    case StepKind::kBarrier:
      break;
  }
  return oss.str();
}

std::string step_program_text(const NodeProgram& plan,
                              std::span<const double> hints) {
  std::ostringstream oss;
  oss << "slab-program (" << program_kind_name(plan.kind) << ", "
      << plan.nprocs << " procs)\n";
  for (const SlabLoop& loop : plan.loops) {
    oss << "loop " << loop.name << ": "
        << runtime::slab_orientation_name(loop.orientation) << " over '"
        << loop.space << "', capacity " << loop.capacity_elements
        << " elems" << (loop.prefetch ? " (double-buffered)" : "") << "\n";
  }
  std::size_t id = 0;
  emit_steps(oss, plan.steps, 0, hints, id);
  return oss.str();
}

std::string pseudo_code(const NodeProgram& plan) {
  std::ostringstream oss;
  oss << "C  (N,N) arrays over " << plan.nprocs << " processors, N = "
      << plan.n << "\n";
  switch (plan.kind) {
    case ProgramKind::kGaxpy:
      if (plan.a_orientation == runtime::SlabOrientation::kColumnSlabs) {
        emit_gaxpy_column(oss, plan);
      } else {
        emit_gaxpy_row(oss, plan);
      }
      break;
    case ProgramKind::kElementwise:
      emit_elementwise(oss, plan);
      break;
    case ProgramKind::kStencil:
      emit_stencil(oss, plan);
      break;
  }
  return oss.str();
}

std::string decision_report(const NodeProgram& plan) {
  std::ostringstream oss;
  oss << "kind: " << program_kind_name(plan.kind) << "\n";
  oss << "processors: " << plan.nprocs << ", N: " << plan.n << "\n";
  oss << "memory budget: " << plan.memory_budget_elements << " elements, "
      << "strategy: " << memory_strategy_name(plan.memory.strategy) << "\n";
  if (plan.kind == ProgramKind::kGaxpy) {
    oss << "chosen orientation for '" << plan.a << "': "
        << runtime::slab_orientation_name(plan.a_orientation)
        << (plan.prefetch ? " (prefetching)" : "") << "\n";
    oss << "slab sizes: " << plan.a << "=" << plan.memory.slab_a << " "
        << plan.b << "=" << plan.memory.slab_b << " " << plan.c << "="
        << plan.memory.slab_c << " temp=" << plan.memory.temp_elements
        << "\n";
    for (const auto& [name, pa] : plan.arrays) {
      oss << "array '" << name << "': " << pa.dist.to_string() << ", stored "
          << io::storage_order_name(pa.storage)
          << (pa.needs_storage_reorganization ? " (reorganized)" : "")
          << "\n";
    }
    oss << "candidates:\n";
    for (std::size_t i = 0; i < plan.cost.candidates.size(); ++i) {
      const CandidateCost& cand = plan.cost.candidates[i];
      oss << "  " << runtime::slab_orientation_name(cand.a_orientation)
          << ":";
      for (const ArrayCost& a : cand.arrays) {
        oss << "  " << a.array << "{T_fetch=" << a.fetch_requests
            << ", T_data=" << a.data_elements << "}";
      }
      if (i < plan.cost.candidate_total_s.size()) {
        oss << "  predicted_total=" << plan.cost.candidate_total_s[i] << "s";
      }
      oss << "\n";
    }
    oss << "rationale: " << plan.cost.rationale << "\n";
  } else {
    for (const SlabStmt& st : plan.statements) {
      oss << "stmt: " << stmt_text(st) << "\n";
    }
    if (plan.kind == ProgramKind::kStencil) {
      const SlabStmt& st = plan.statements.front();
      oss << "halo: +/-" << st.halo << " columns, +/-" << st.row_halo
          << " rows; ping-pong pair " << st.lhs << "/" << st.source << "\n";
      for (const auto& [name, pa] : plan.arrays) {
        oss << "array '" << name << "': " << pa.dist.to_string()
            << ", stored " << io::storage_order_name(pa.storage) << ", slab "
            << pa.slab_elements << " elems\n";
      }
    }
    if (!plan.cost.rationale.empty()) {
      oss << "rationale: " << plan.cost.rationale << "\n";
    }
  }
  if (!plan.cost.prefetch_rationale.empty()) {
    oss << "prefetch: " << plan.cost.prefetch_rationale << "\n";
  }
  return oss.str();
}

std::string search_report_text(const SearchReport& report) {
  std::ostringstream oss;
  char buf[64];
  const auto secs = [&](double s) {
    std::snprintf(buf, sizeof(buf), "%.6f", s);
    return std::string(buf);
  };
  oss << "statements: " << report.statements << ", segments: "
      << report.segments << ", passes: " << report.passes << "\n";
  oss << "candidates: " << report.enumerated << " enumerated, "
      << report.priced << " priced, " << report.verified << " verified\n";
  oss << "heuristic baseline: " << secs(report.heuristic_priced_s)
      << " s priced makespan\n";
  oss << "chosen: " << secs(report.chosen_priced_s) << " s priced makespan ("
      << report.chosen << ")\n";
  for (const SearchCandidate& c : report.candidates) {
    oss << "  [pass " << c.pass << "]";
    if (c.segment >= 0) {
      oss << " seg " << c.segment + 1;
    }
    oss << " " << c.describe;
    if (c.priced) {
      oss << ": " << secs(c.priced_s) << " s";
    }
    if (c.adopted) {
      oss << "  << adopted";
    } else if (!c.rejected.empty()) {
      oss << "  (rejected: " << c.rejected << ")";
    }
    oss << "\n";
  }
  for (const std::string& d : report.not_searchable) {
    oss << d << "\n";
  }
  return oss.str();
}

}  // namespace oocc::compiler
