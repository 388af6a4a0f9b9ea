#include "oocc/compiler/search.hpp"

#include <algorithm>
#include <sstream>

#include "oocc/compiler/lower_internal.hpp"
#include "oocc/compiler/memplan.hpp"
#include "oocc/compiler/verify.hpp"
#include "oocc/hpf/parser.hpp"
#include "oocc/util/error.hpp"

namespace oocc::compiler {

namespace {

/// How many source statements one compiled plan covers (fusion merges
/// several elementwise statements into one plan; GAXPY and stencil plans
/// always cover exactly one).
std::size_t statements_covered(const NodeProgram& plan) {
  return plan.kind == ProgramKind::kElementwise ? plan.statements.size() : 1;
}

/// One searchable segment of the statement sequence: either a single
/// GAXPY/stencil statement or a maximal run of consecutive elementwise
/// statements (the fusible region between reduction/halo barriers).
struct Segment {
  ProgramKind kind = ProgramKind::kElementwise;
  int first_stmt = 0;  ///< index into the proto (per-statement) plans
  int count = 1;       ///< statements in the segment
};

/// One enumerated candidate: the segment's replacement plans plus the knob
/// description. Candidates that fail feasibility never materialize — the
/// enumerators record the rejection instead.
struct Candidate {
  std::string describe;
  std::vector<NodeProgram> plans;
};

std::string partition_text(std::span<const int> group_of, int count) {
  std::ostringstream oss;
  oss << "fuse {";
  for (int g = 0, printed = 0;; ++g) {
    bool any = false;
    for (int i = 0; i < count; ++i) {
      if (group_of[static_cast<std::size_t>(i)] == g) {
        oss << (any ? "+" : (printed ? "," : "")) << i + 1;
        any = true;
      }
    }
    if (!any) break;
    ++printed;
  }
  oss << "}";
  return oss.str();
}

}  // namespace

double priced_sequence_makespan_s(std::span<const NodeProgram> plans,
                                  const io::DiskModel& disk,
                                  const sim::MachineCostModel& machine) {
  PriceOptions popts;
  popts.model_cache = true;
  const std::vector<PlanPrice> prices = price_sequence(plans, 0, popts);
  double total = 0.0;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    total += prices[i].makespan_s(disk, machine, plans[i].nprocs);
  }
  return total;
}

SearchResult search_sequence(const hpf::BoundProgram& program,
                             const CompileOptions& options) {
  SearchResult result;
  SearchReport& report = result.report;

  CompileOptions heuristic = options;
  heuristic.opt = OptMode::kHeuristic;

  // The baseline: whatever the heuristic pipeline produces under the same
  // knobs. It is candidate 0 and the initial incumbent, so the search can
  // only improve on it; any compile error surfaces here exactly as it
  // would in heuristic mode.
  std::vector<NodeProgram> incumbent = compile_sequence(program, heuristic);

  report.statements = static_cast<int>(std::max<std::size_t>(
      1, program.stmts.size()));

  // Per-statement proto plans: the raw material candidates are laid out
  // from, by lowering's own layout routines. Lowered without prefetch
  // (every candidate sets its own); candidate sequences verify jointly.
  CompileOptions proto_options = heuristic;
  proto_options.prefetch = PrefetchMode::kOff;
  const std::vector<NodeProgram> protos =
      detail::lower_statements(program, proto_options);

  // Split the statement list into segments: GAXPY/stencil statements are
  // their own segments (their collective schedules are fusion barriers);
  // maximal elementwise runs are fusible segments.
  std::vector<Segment> segments;
  for (int i = 0; i < static_cast<int>(protos.size()); ++i) {
    if (protos[i].kind == ProgramKind::kElementwise && !segments.empty() &&
        segments.back().kind == ProgramKind::kElementwise &&
        segments.back().first_stmt + segments.back().count == i) {
      ++segments.back().count;
    } else {
      segments.push_back(Segment{protos[i].kind, i, 1});
    }
  }
  report.segments = static_cast<int>(segments.size());

  // Structured diagnostics for the shapes the search skips by
  // construction (satellite of the fusion-barrier fix: the space around a
  // barrier is enumerated, the crossing itself is not — and says so).
  for (std::size_t s = 0; s + 1 < segments.size(); ++s) {
    const Segment& cur = segments[s];
    const Segment& nxt = segments[s + 1];
    const bool cur_ew = cur.kind == ProgramKind::kElementwise;
    const bool nxt_ew = nxt.kind == ProgramKind::kElementwise;
    if (cur_ew != nxt_ew) {
      const Segment& barrier = cur_ew ? nxt : cur;
      std::ostringstream oss;
      oss << "not searchable: fusing elementwise statements across the "
          << (barrier.kind == ProgramKind::kGaxpy
                  ? "GAXPY reduction nest"
                  : "halo-stencil sweep")
          << " at statement " << barrier.first_stmt + 1
          << ": its collective schedule (global sums/ghost exchanges) is a "
             "fusion barrier; the search enumerates fusion groupings on "
             "each side of it only";
      if (std::find(report.not_searchable.begin(),
                    report.not_searchable.end(),
                    oss.str()) == report.not_searchable.end()) {
        report.not_searchable.push_back(oss.str());
      }
    }
  }
  for (const Segment& seg : segments) {
    if (seg.kind == ProgramKind::kStencil) {
      std::ostringstream oss;
      oss << "not searchable: double-buffered halo reads for statement "
          << seg.first_stmt + 1
          << ": prefetch enqueues unwidened sections, so the executor "
             "would read different slabs than the pricer charges; the "
             "search never emits prefetch on a halo loop";
      report.not_searchable.push_back(oss.str());
    }
    if (seg.kind == ProgramKind::kGaxpy &&
        !options.enable_access_reorganization) {
      report.not_searchable.push_back(
          "not searchable: row-slab GAXPY candidates for statement " +
          std::to_string(seg.first_stmt + 1) +
          ": access reorganization is disabled (--no-access-reorg pins "
          "column slabs)");
    }
  }

  // Partition the heuristic baseline into per-segment plan lists (fusion
  // never crosses a segment boundary, so the split is exact).
  std::vector<std::vector<NodeProgram>> seg_plans(segments.size());
  {
    std::size_t pi = 0;
    for (std::size_t s = 0; s < segments.size(); ++s) {
      int covered = 0;
      while (covered < segments[s].count) {
        OOCC_ASSERT(pi < incumbent.size(),
                    "baseline plans do not tile the statement segments");
        covered += static_cast<int>(statements_covered(incumbent[pi]));
        seg_plans[s].push_back(std::move(incumbent[pi]));
        ++pi;
      }
      OOCC_ASSERT(covered == segments[s].count,
                  "baseline fusion crossed a segment boundary");
    }
    OOCC_ASSERT(pi == incumbent.size(), "unassigned baseline plans");
  }

  const auto flatten = [&](int replace_seg,
                           std::span<const NodeProgram> replacement) {
    std::vector<NodeProgram> seq;
    for (std::size_t s = 0; s < seg_plans.size(); ++s) {
      if (static_cast<int>(s) == replace_seg) {
        seq.insert(seq.end(), replacement.begin(), replacement.end());
      } else {
        seq.insert(seq.end(), seg_plans[s].begin(), seg_plans[s].end());
      }
    }
    return seq;
  };

  const auto priced_of = [&](const std::vector<NodeProgram>& seq) {
    return priced_sequence_makespan_s(seq, options.disk, options.machine);
  };

  {
    std::vector<NodeProgram> baseline = flatten(-1, {});
    report.heuristic_priced_s = priced_of(baseline);
  }
  double best_priced = report.heuristic_priced_s;
  std::string best_describe = "heuristic baseline";
  report.chosen = best_describe;

  SearchCandidate base;
  base.pass = 0;
  base.segment = -1;
  base.describe = "heuristic baseline";
  base.priced_s = best_priced;
  base.priced = true;
  base.adopted = true;
  report.candidates.push_back(base);
  ++report.enumerated;
  ++report.priced;

  // ---------------------------------------------- candidate enumerators

  const auto enumerate_run = [&](const Segment& seg,
                                 std::vector<Candidate>& out,
                                 std::vector<SearchCandidate>& rejected) {
    const int k = seg.count;
    // Boundary masks: bit b set = a group boundary between statement b and
    // b+1 of the run. 0 = fuse everything, all-ones = singletons.
    std::vector<unsigned> masks;
    if (k <= 5) {
      for (unsigned m = 0; m < (1u << (k - 1)); ++m) {
        masks.push_back(m);
      }
    } else {
      // Sampled: full enumeration of 2^(k-1) partitions is capped.
      masks = {0u, (1u << (k - 1)) - 1u,
               1u << ((k - 1) / 2)};  // fused, singletons, midpoint split
      std::ostringstream oss;
      oss << "not searchable: the " << (1u << (k - 1))
          << " fusion partitions of the " << k
          << "-statement elementwise run at statements "
          << seg.first_stmt + 1 << ".." << seg.first_stmt + k
          << " exceed the enumeration cap; sampling all-fused, "
             "all-singleton and midpoint-split partitions only";
      report.not_searchable.push_back(oss.str());
    }
    const double fracs[] = {1.0, 0.5, 0.25};
    const char* frac_names[] = {"full", "1/2", "1/4"};
    for (const unsigned mask : masks) {
      // group_of[i]: which group statement i of the run lands in.
      std::vector<int> group_of(static_cast<std::size_t>(k), 0);
      for (int i = 1; i < k; ++i) {
        group_of[static_cast<std::size_t>(i)] =
            group_of[static_cast<std::size_t>(i - 1)] +
            ((mask >> (i - 1)) & 1u ? 1 : 0);
      }
      const int groups = group_of.back() + 1;
      for (int f = 0; f < 3; ++f) {
        for (const bool prefetch : {false, true}) {
          std::ostringstream desc;
          desc << partition_text(group_of, k) << " share=" << frac_names[f]
               << " prefetch=" << (prefetch ? "on" : "off");
          ++report.enumerated;
          try {
            std::vector<NodeProgram> plans;
            for (int g = 0; g < groups; ++g) {
              std::vector<const NodeProgram*> members;
              for (int i = 0; i < k; ++i) {
                if (group_of[static_cast<std::size_t>(i)] == g) {
                  members.push_back(&protos[seg.first_stmt + i]);
                }
              }
              plans.push_back(
                  detail::fuse(members, options, prefetch, fracs[f]));
            }
            out.push_back(Candidate{desc.str(), std::move(plans)});
          } catch (const Error& e) {
            SearchCandidate c;
            c.describe = desc.str();
            c.rejected = e.what();
            rejected.push_back(std::move(c));
          }
        }
      }
    }
  };

  const auto enumerate_gaxpy = [&](const Segment& seg,
                                   std::vector<Candidate>& out,
                                   std::vector<SearchCandidate>& rejected) {
    const NodeProgram& proto = protos[seg.first_stmt];
    std::vector<runtime::SlabOrientation> orients = {
        runtime::SlabOrientation::kColumnSlabs};
    if (options.enable_access_reorganization) {
      orients.push_back(runtime::SlabOrientation::kRowSlabs);
    }
    for (const runtime::SlabOrientation orient : orients) {
      const bool row = orient == runtime::SlabOrientation::kRowSlabs;
      for (const MemoryStrategy strategy :
           {MemoryStrategy::kAccessWeighted, MemoryStrategy::kEqualSplit}) {
        for (const bool halve_a : {false, true}) {
          for (const bool prefetch : {false, true}) {
            if (prefetch && !row) {
              continue;  // the column sweep re-reads A per output column;
                         // there is no prefetchable stream (the kAuto
                         // heuristic skips it for the same reason)
            }
            std::ostringstream desc;
            desc << "orientation=" << (row ? "row" : "column")
                 << " split=" << memory_strategy_name(strategy)
                 << " slabA=" << (halve_a ? "1/2" : "full")
                 << " prefetch=" << (prefetch ? "on" : "off");
            ++report.enumerated;
            try {
              NodeProgram plan = proto;
              detail::layout_gaxpy(plan, {orient, strategy, halve_a, prefetch},
                                   options);
              plan.cost.rationale = "plan search: " + desc.str();
              std::vector<NodeProgram> plans;
              plans.push_back(std::move(plan));
              out.push_back(Candidate{desc.str(), std::move(plans)});
            } catch (const Error& e) {
              SearchCandidate c;
              c.describe = desc.str();
              c.rejected = e.what();
              rejected.push_back(std::move(c));
            }
          }
        }
      }
    }
  };

  const auto enumerate_stencil = [&](const Segment& seg,
                                     std::vector<Candidate>& out) {
    const NodeProgram& proto = protos[seg.first_stmt];
    const SlabStmt& st = proto.statements.front();
    const PlanArray& lhs = proto.arrays.at(st.lhs);
    const std::int64_t rows = lhs.dist.local_rows(0);
    const std::int64_t d = st.halo;
    const std::int64_t budget = options.memory_budget_elements;
    // Upper bound: the pool's halo-assembly transient (the covering slabs
    // of one sweep stay pinned while the widened copy is assembled) stays
    // inside the budget when (4w + 2d) * rows <= budget. The heuristic's
    // width, read off the lowered loop, always satisfies it, so the
    // baseline width is always in the space.
    const std::int64_t wmax = (budget / rows - 2 * d) / 4;
    const std::int64_t wmin = std::max<std::int64_t>(1, d);
    const std::int64_t w_heuristic =
        proto.loops.front().capacity_elements / rows;
    std::vector<std::int64_t> widths = {w_heuristic, wmax, wmin};
    // Widths dividing the local panel evenly avoid the ragged tail slab
    // (and its extra halo-overlapped requests).
    const std::int64_t nlc = lhs.dist.local_cols(0);
    int divisors = 0;
    for (std::int64_t w = wmax; w >= wmin && divisors < 3; --w) {
      if (nlc % w == 0) {
        widths.push_back(w);
        ++divisors;
      }
    }
    std::sort(widths.begin(), widths.end());
    widths.erase(std::unique(widths.begin(), widths.end()), widths.end());
    for (const std::int64_t w : widths) {
      if (w < wmin || w > wmax) {
        continue;  // budget cannot hold this width's working set
      }
      std::ostringstream desc;
      desc << "stencil w=" << w << " (slabs of " << w
           << " column(s), halo " << d << ")";
      ++report.enumerated;
      NodeProgram plan = proto;
      detail::layout_stencil(plan, w);
      plan.cost.rationale = "plan search: " + desc.str();
      std::vector<NodeProgram> plans;
      plans.push_back(std::move(plan));
      out.push_back(Candidate{desc.str(), std::move(plans)});
    }
  };

  // --------------------------------------------------- coordinate descent

  const int passes = std::clamp(options.search_passes, 1, 8);
  std::vector<std::string> seg_describe(segments.size(), "heuristic");
  constexpr std::size_t kMaxRecorded = 256;

  for (int pass = 1; pass <= passes; ++pass) {
    bool improved_this_pass = false;
    for (std::size_t s = 0; s < segments.size(); ++s) {
      std::vector<Candidate> candidates;
      std::vector<SearchCandidate> rejected;
      switch (segments[s].kind) {
        case ProgramKind::kElementwise:
          enumerate_run(segments[s], candidates, rejected);
          break;
        case ProgramKind::kGaxpy:
          enumerate_gaxpy(segments[s], candidates, rejected);
          break;
        case ProgramKind::kStencil:
          enumerate_stencil(segments[s], candidates);
          break;
      }
      for (SearchCandidate& c : rejected) {
        c.pass = pass;
        c.segment = static_cast<int>(s);
        if (report.candidates.size() < kMaxRecorded) {
          report.candidates.push_back(std::move(c));
        }
      }
      for (Candidate& cand : candidates) {
        SearchCandidate rec;
        rec.pass = pass;
        rec.segment = static_cast<int>(s);
        rec.describe = cand.describe;
        std::vector<NodeProgram> seq = flatten(
            static_cast<int>(s),
            std::span<const NodeProgram>(cand.plans.data(),
                                         cand.plans.size()));
        try {
          rec.priced_s = priced_of(seq);
        } catch (const Error& e) {
          // The pricer runs the executor's pool policy: a candidate whose
          // pinned working set cannot fit would fail the same way at run
          // time.
          rec.rejected = e.what();
          if (report.candidates.size() < kMaxRecorded) {
            report.candidates.push_back(std::move(rec));
          }
          continue;
        }
        rec.priced = true;
        ++report.priced;
        if (rec.priced_s < best_priced - 1e-12) {
          bool ok = true;
          if (options.verify) {
            ++report.verified;
            const VerifyReport vr = verify_sequence(
                std::span<const NodeProgram>(seq.data(), seq.size()));
            if (!vr.ok()) {
              ok = false;
              rec.rejected = "verifier: " + vr.diagnostics.front().code;
            } else {
              for (NodeProgram& p : seq) {
                p.verified = true;
              }
            }
          }
          if (ok) {
            best_priced = rec.priced_s;
            rec.adopted = true;
            improved_this_pass = true;
            seg_describe[s] = cand.describe;
            // Re-split the adopted sequence back into the segment lists
            // (only segment s changed shape; counts elsewhere are stable).
            std::size_t pi = 0;
            for (std::size_t t = 0; t < seg_plans.size(); ++t) {
              const std::size_t n =
                  t == s ? cand.plans.size() : seg_plans[t].size();
              std::vector<NodeProgram> part;
              for (std::size_t j = 0; j < n; ++j) {
                part.push_back(std::move(seq[pi++]));
              }
              seg_plans[t] = std::move(part);
            }
          }
        }
        if (report.candidates.size() < kMaxRecorded) {
          report.candidates.push_back(std::move(rec));
        }
      }
    }
    report.passes = pass;
    if (!improved_this_pass) {
      break;  // converged: a further pass would re-price the same space
    }
  }

  // The result is the last adopted sequence, verified whole and stamped
  // when it was adopted, or the baseline, which compile_sequence verified
  // and stamped.
  for (std::vector<NodeProgram>& part : seg_plans) {
    for (NodeProgram& p : part) {
      result.plans.push_back(std::move(p));
    }
  }

  report.chosen_priced_s = best_priced;
  if (best_priced < report.heuristic_priced_s - 1e-12) {
    std::ostringstream oss;
    for (std::size_t s = 0; s < seg_describe.size(); ++s) {
      if (s) oss << "; ";
      oss << "seg " << s + 1 << ": " << seg_describe[s];
    }
    report.chosen = oss.str();
  }
  return result;
}

SearchResult search_sequence_source(std::string_view source,
                                    const CompileOptions& options) {
  return search_sequence(hpf::analyze(hpf::parse(source)), options);
}

}  // namespace oocc::compiler
