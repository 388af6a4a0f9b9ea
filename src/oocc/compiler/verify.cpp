#include "oocc/compiler/verify.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "oocc/compiler/pretty.hpp"
#include "oocc/compiler/walk.hpp"
#include "oocc/runtime/slab_directory.hpp"
#include "oocc/util/error.hpp"

namespace oocc::compiler {

namespace {

constexpr std::size_t kMaxDiagnostics = 64;
constexpr std::int64_t kMaxReplayEvents = std::int64_t{1} << 20;

/// Collects diagnostics with per-(code, plan, step, salt) deduplication, so
/// a step that misbehaves on every slab of every rank reports once.
class Sink {
 public:
  explicit Sink(VerifyReport& report) : report_(report) {}

  void add(const char* code, int plan_index, int rank,
           const std::string& message, const Step* step,
           const std::string& salt = {}) {
    std::ostringstream key;
    key << code << '#' << plan_index << '#' << static_cast<const void*>(step)
        << '#' << salt;
    if (!seen_.insert(key.str()).second) {
      return;
    }
    if (report_.diagnostics.size() >= kMaxDiagnostics) {
      report_.stats.truncated = true;
      return;
    }
    VerifyDiagnostic d;
    d.code = code;
    d.plan_index = plan_index;
    d.rank = rank;
    d.message = message;
    if (step != nullptr) {
      d.step = step_text(*step);
    }
    report_.diagnostics.push_back(std::move(d));
  }

  bool has(const char* code) const {
    for (const VerifyDiagnostic& d : report_.diagnostics) {
      if (d.code == code) {
        return true;
      }
    }
    return false;
  }

 private:
  VerifyReport& report_;
  std::set<std::string> seen_;
};

// ----------------------------------------------------------------- replay

/// Maps a local section on `proc` to the global rectangles it images to,
/// decomposed along the distributed axis's ownership runs (one rectangle
/// for BLOCK, one per dealt block for BLOCK-CYCLIC, per element for
/// CYCLIC). Sections are clamped to the local extents first — bounds
/// violations are reported separately and must not corrupt the ownership
/// algebra.
std::vector<io::Section> global_rects(const hpf::ArrayDistribution& dist,
                                      int proc, io::Section sec) {
  sec.row0 = std::clamp<std::int64_t>(sec.row0, 0, dist.local_rows(proc));
  sec.row1 = std::clamp<std::int64_t>(sec.row1, 0, dist.local_rows(proc));
  sec.col0 = std::clamp<std::int64_t>(sec.col0, 0, dist.local_cols(proc));
  sec.col1 = std::clamp<std::int64_t>(sec.col1, 0, dist.local_cols(proc));
  std::vector<io::Section> out;
  if (sec.empty()) {
    return out;
  }
  const auto runs = [&](const hpf::DimDistribution& d, std::int64_t lo,
                        std::int64_t hi) {
    std::vector<std::pair<std::int64_t, std::int64_t>> r;
    for (std::int64_t l = lo; l < hi;) {
      const std::int64_t e = std::min(hi, d.local_run_end(proc, l));
      const std::int64_t g0 = d.local_to_global(proc, l);
      r.emplace_back(g0, g0 + (e - l));
      l = e;
    }
    return r;
  };
  for (const auto& [r0, r1] : runs(dist.row_dist(), sec.row0, sec.row1)) {
    for (const auto& [c0, c1] : runs(dist.col_dist(), sec.col0, sec.col1)) {
      out.push_back(io::Section{r0, r1, c0, c1});
    }
  }
  return out;
}

bool rects_overlap(const std::vector<io::Section>& a,
                   const std::vector<io::Section>& b) {
  for (const io::Section& x : a) {
    for (const io::Section& y : b) {
      if (x.overlaps(y)) {
        return true;
      }
    }
  }
  return false;
}

/// A write one rank performed: local section plus its global image, the
/// barrier interval it happened in, and the sweep (epoch) it belongs to —
/// stencil plans replay the swapped ping-pong sweep as a second epoch.
struct WriteEvent {
  std::string array;  ///< resolved name (after stencil ping-pong)
  io::Section local;
  std::vector<io::Section> global;
  std::int64_t interval = 0;
  int epoch = 0;
  const Step* step = nullptr;
};

/// Ghost columns one rank received through an ExchangeHalo: global
/// rectangles owned by a *different* rank, read in `interval`.
struct GhostRead {
  std::string array;
  std::vector<io::Section> global;
  std::int64_t interval = 0;
  const Step* step = nullptr;
};

/// Everything one rank's replay produced.
struct RankTrace {
  std::vector<WriteEvent> writes;
  std::vector<GhostRead> ghosts;
  std::vector<std::string> collectives;  ///< signature per collective event
  std::int64_t intervals = 0;
  /// The peak working set: pinned slabs plus the GAXPY side buffers held
  /// then (`peak_side` of it).
  std::int64_t peak = 0;
  std::int64_t peak_side = 0;
  const Step* peak_step = nullptr;
  std::int64_t events = 0;
  bool truncated = false;
};

/// Replays one sweep of one plan on one rank as a StepWalk client: the
/// executor's own event stream, checked for bounds and recorded as write,
/// ghost and collective traces. Pins are counted by a no-retain
/// runtime::SlabDirectory without a capacity limit: one entry per (array,
/// section), pins refcounted — the rule the executor's pool charges its
/// budget by — and the GAXPY side buffers from the walk's reserve events
/// on, as the executor takes them from the same budget.
class RankReplayer final : public StepWalk {
 public:
  /// `epoch` 1 is a stencil plan's swapped (ping-ponged) sweep; the
  /// barrier-interval count carries over in `trace`, as it does across the
  /// convergence driver's back-to-back sweeps.
  RankReplayer(const NodeProgram& plan, int plan_index, int proc, int epoch,
               Sink& sink, RankTrace& trace)
      : StepWalk(plan, proc, /*swapped=*/epoch == 1), plan_index_(plan_index),
        epoch_(epoch), sink_(sink), trace_(trace) {}

  void run() { sweep(); }

 private:
  void count_event() {
    if (++trace_.events > kMaxReplayEvents) {
      trace_.truncated = true;
      stop();
    }
  }

  /// Records the working set: what is pinned, `transient` elements held
  /// for the event alone, and the side buffers.
  void note_peak(const Step& step, std::int64_t transient = 0) {
    const std::int64_t held = pins_.pinned_elements() + transient + side_;
    if (held > trace_.peak) {
      trace_.peak = held;
      trace_.peak_side = side_;
      trace_.peak_step = &step;
    }
  }

  void pin(const Node& n, const io::Section& sec) {
    pins_.pin(unlimited_, *n.array, sec);
    note_peak(*n.step);
  }

  void reserve(const Node& n, std::int64_t elements) override {
    side_ += elements;
    note_peak(*n.step);
  }

  /// Bounds check of a section against the resolved array's local extents;
  /// out-of-bounds reads/writes are the V020/V021 diagnostics.
  void check_bounds(const Node& n, const char* code, const io::Section& sec,
                    const char* what) {
    const std::int64_t rows = n.info->dist.local_rows(rank_);
    const std::int64_t cols = n.info->dist.local_cols(rank_);
    if (sec.row0 < 0 || sec.col0 < 0 || sec.row1 > rows || sec.col1 > cols) {
      std::ostringstream oss;
      oss << what << " section [" << sec.row0 << ',' << sec.row1 << ")x["
          << sec.col0 << ',' << sec.col1 << ") of '" << *n.array
          << "' exceeds its local " << rows << 'x' << cols << " extent";
      sink_.add(code, plan_index_, rank_, oss.str(), n.step);
    }
  }

  void read(const Node& n, const io::Section& s) override {
    count_event();
    check_bounds(n, "OOCC-V020", n.loop->section, "ReadSlab");
    pin(n, s);
  }

  void stage(const Node& n) override { pin(n, n.loop->section); }

  void write(const Node& n) override {
    count_event();
    check_bounds(n, "OOCC-V021", n.loop->section, "WriteSlab");
    store(n, n.loop->section);
  }

  /// Records a write of `s`: a WriteSlab's slab, or an output batch the
  /// GAXPY owner stores (Figures 9/12's WRITE_ICLA(C)), the very section
  /// the executor writes.
  void store(const Node& n, const io::Section& s) override {
    trace_.writes.push_back(WriteEvent{*n.array, s,
                                       global_rects(n.info->dist, rank_, s),
                                       trace_.intervals, epoch_, n.step});
  }

  void exchange(const Node& n, const Exchange& ex) override {
    trace_.collectives.push_back("exchange:" + *n.array + ":" +
                                 std::to_string(n.step->halo));
    if (plan_.nprocs == 1 || n.step->halo <= 0) {
      return;
    }
    count_event();
    // Own edge columns are read and sent; ghosts from each neighbour are
    // held transiently. Model the momentary working set.
    std::int64_t transient = 0;
    for (const std::optional<Edge>& edge : {ex.left, ex.right}) {
      if (edge) {
        check_bounds(n, "OOCC-V020", edge->sent, "ExchangeHalo edge");
        trace_.ghosts.push_back(GhostRead{
            *n.array, global_rects(n.info->dist, edge->peer, edge->received),
            trace_.intervals, n.step});
        transient += edge->sent.elements() + edge->received.elements();
      }
    }
    note_peak(*n.step, transient);
  }

  /// A ReduceSum's GLOBAL_SUM; the owner's stores of the summed columns
  /// are the walk's store events.
  void reduce(const Node& n, std::int64_t /*column*/, std::int64_t /*row0*/,
              std::int64_t /*row1*/) override {
    count_event();
    trace_.collectives.push_back("reduce:" + *n.array);
    ++trace_.intervals;  // the global sum synchronizes every rank
  }

  void barrier() override {
    trace_.collectives.emplace_back("barrier");
    ++trace_.intervals;
  }

  void release(const std::string& array, const io::Section& s) override {
    pins_.unpin(unlimited_, array, s);
  }

  int plan_index_;
  int epoch_;
  Sink& sink_;
  RankTrace& trace_;
  struct Unlimited final : runtime::SlabDirectory<>::Host {} unlimited_;
  runtime::SlabDirectory<> pins_{"verify", /*retain=*/false};
  std::int64_t side_ = 0;  ///< GAXPY side buffers held, for one sweep
};

// ------------------------------------------------------ cross-rank checks

void check_collectives(const std::vector<RankTrace>& traces, int plan_index,
                       Sink& sink) {
  for (std::size_t r = 1; r < traces.size(); ++r) {
    const auto& a = traces[0].collectives;
    const auto& b = traces[r].collectives;
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (a[i] != b[i]) {
        sink.add("OOCC-V040", plan_index, static_cast<int>(r),
                 "collective sequence diverges from rank 0 at event " +
                     std::to_string(i) + ": rank 0 runs '" + a[i] +
                     "', rank " + std::to_string(r) + " runs '" + b[i] + "'",
                 nullptr, std::to_string(r));
        return;
      }
    }
    if (a.size() != b.size()) {
      sink.add("OOCC-V040", plan_index, static_cast<int>(r),
               "rank 0 runs " + std::to_string(a.size()) +
                   " collective(s) but rank " + std::to_string(r) + " runs " +
                   std::to_string(b.size()) +
                   " (a rank would block forever)",
               nullptr, std::to_string(r));
      return;
    }
  }
}

void check_races(const NodeProgram& plan, const std::vector<RankTrace>& traces,
                 int plan_index, Sink& sink) {
  // Write-write (OOCC-V010): for an array with a distributed axis, every
  // in-bounds local write images into the writer's owned global region, so
  // two ranks' writes are disjoint *by construction* — the ownership
  // algebra is the proof, and V020/V021 guard its precondition. Only
  // arrays without a distributed axis (replicated) can collide.
  for (std::size_t p = 0; p < traces.size(); ++p) {
    for (const WriteEvent& wa : traces[p].writes) {
      if (plan.array(wa.array).dist.axis() != hpf::DistAxis::kNone) {
        continue;
      }
      for (std::size_t q = p + 1; q < traces.size(); ++q) {
        for (const WriteEvent& wb : traces[q].writes) {
          if (wa.array == wb.array && wa.interval == wb.interval &&
              rects_overlap(wa.global, wb.global)) {
            std::ostringstream oss;
            oss << "ranks " << p << " and " << q
                << " write overlapping global sections of replicated '"
                << wa.array << "' in the same barrier interval "
                << wa.interval;
            sink.add("OOCC-V010", plan_index, static_cast<int>(p), oss.str(),
                     wa.step, wa.array);
          }
        }
      }
    }
  }
  // Ghost-read vs write (OOCC-V011): an ExchangeHalo's ghost columns are
  // another rank's data; if that rank writes them in the same barrier
  // interval, a threads backend has a read-write race (the dropped-barrier
  // hazard). Exchanges reading data written in an *earlier* interval are
  // the sanctioned pattern.
  for (std::size_t p = 0; p < traces.size(); ++p) {
    for (const GhostRead& gr : traces[p].ghosts) {
      for (std::size_t q = 0; q < traces.size(); ++q) {
        if (q == p) {
          continue;
        }
        for (const WriteEvent& wb : traces[q].writes) {
          if (gr.array == wb.array && gr.interval == wb.interval &&
              rects_overlap(gr.global, wb.global)) {
            std::ostringstream oss;
            oss << "rank " << p << " receives ghost columns of '" << gr.array
                << "' that rank " << q
                << " writes in the same barrier interval " << gr.interval
                << " (missing Barrier between sweep and exchange?)";
            sink.add("OOCC-V011", plan_index, static_cast<int>(p), oss.str(),
                     gr.step, gr.array);
          }
        }
      }
    }
  }
}

void check_coverage(const NodeProgram& plan,
                    const std::vector<RankTrace>& traces, int plan_index,
                    Sink& sink) {
  // Which (epoch, array) pairs must be covered? Declared outputs always
  // must (so a dropped write of an entire array is still a hole, not a
  // vacuous pass), plus anything any rank actually wrote.
  std::set<std::pair<int, std::string>> written;
  for (const auto& [name, pa] : plan.arrays) {
    if (pa.is_output) {
      written.emplace(0, name);
    }
  }
  for (const RankTrace& t : traces) {
    for (const WriteEvent& w : t.writes) {
      written.emplace(w.epoch, w.array);
    }
  }
  for (std::size_t p = 0; p < traces.size(); ++p) {
    for (const auto& [epoch, array] : written) {
      std::vector<const WriteEvent*> mine;
      for (const WriteEvent& w : traces[p].writes) {
        if (w.epoch == epoch && w.array == array) {
          mine.push_back(&w);
        }
      }
      // Same-rank overlap (OOCC-V023): each element must be produced once.
      std::int64_t area = 0;
      bool overlapped = false;
      for (std::size_t i = 0; i < mine.size(); ++i) {
        area += mine[i]->local.elements();
        for (std::size_t j = i + 1; !overlapped && j < mine.size(); ++j) {
          if (mine[i]->local.overlaps(mine[j]->local)) {
            sink.add("OOCC-V023", plan_index, static_cast<int>(p),
                     "two writes of '" + array +
                         "' touch overlapping local sections within one "
                         "sweep (each element must be produced exactly once)",
                     mine[j]->step, array);
            overlapped = true;
          }
        }
      }
      // Exact tiling (OOCC-V022): without overlaps, covering the owned
      // region exactly once is an area identity.
      const std::int64_t owned =
          plan.array(array).dist.local_elements(static_cast<int>(p));
      if (area != owned) {
        std::ostringstream oss;
        oss << "write sections of '" << array << "' cover " << area
            << " of the " << owned << " locally owned element(s)"
            << (area < owned ? " (holes keep stale data)"
                             : " (elements written more than once)");
        sink.add("OOCC-V022", plan_index, static_cast<int>(p), oss.str(),
                 mine.empty() ? nullptr : mine.front()->step,
                 array + "@" + std::to_string(epoch));
      }
    }
  }
}

void check_budget(const NodeProgram& plan,
                  const std::vector<RankTrace>& traces, int plan_index,
                  Sink& sink, VerifyReport& report) {
  if (plan.memory_budget_elements <= 0) {
    return;  // hand-built plan without a declared budget: nothing to check
  }
  for (std::size_t p = 0; p < traces.size(); ++p) {
    const std::int64_t peak = traces[p].peak;
    if (peak > report.stats.peak_pinned_elements) {
      report.stats.peak_pinned_elements = peak;
      report.stats.side_reservation_elements = traces[p].peak_side;
      report.stats.peak_rank = static_cast<int>(p);
    }
    if (peak > plan.memory_budget_elements) {
      std::ostringstream oss;
      oss << "peak working set of " << peak
          << " element(s) exceeds the memory budget of "
          << plan.memory_budget_elements
          << " (the executor would throw ResourceExhausted mid-sweep)";
      sink.add("OOCC-V030", plan_index, static_cast<int>(p), oss.str(),
               traces[p].peak_step);
    }
  }
}

}  // namespace

std::string VerifyReport::to_string() const {
  std::ostringstream oss;
  oss << "verifier: " << stats.plans << " plan(s), " << stats.ranks
      << " rank(s) replayed, " << stats.events << " event(s), "
      << stats.intervals << " barrier interval(s)\n";
  oss << "peak working set: " << stats.peak_pinned_elements << " of "
      << stats.budget_elements << " budgeted element(s)";
  if (stats.side_reservation_elements > 0) {
    oss << " (incl. " << stats.side_reservation_elements
        << " reduction-side)";
  }
  oss << " on rank " << stats.peak_rank << "\n";
  if (ok()) {
    oss << "result: OK — no violations\n";
    return oss.str();
  }
  oss << "result: FAIL — " << diagnostics.size() << " violation(s)"
      << (stats.truncated ? " (truncated)" : "") << "\n";
  for (const VerifyDiagnostic& d : diagnostics) {
    oss << d.code << " [plan " << d.plan_index;
    if (d.rank >= 0) {
      oss << ", rank " << d.rank;
    }
    oss << "] " << d.message << "\n";
    if (!d.step.empty()) {
      oss << "  step: " << d.step << "\n";
    }
  }
  return oss.str();
}

VerifyReport verify_sequence(std::span<const NodeProgram> plans) {
  VerifyReport report;
  report.stats.plans = static_cast<int>(plans.size());
  Sink sink(report);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const NodeProgram& plan = plans[i];
    report.stats.ranks = std::max(report.stats.ranks, plan.nprocs);
    report.stats.budget_elements =
        std::max(report.stats.budget_elements, plan.memory_budget_elements);
    std::vector<RankTrace> traces(static_cast<std::size_t>(plan.nprocs));
    try {
      for (int p = 0; p < plan.nprocs; ++p) {
        RankTrace& trace = traces[static_cast<std::size_t>(p)];
        // The convergence driver re-runs a stencil sweep ping-ponged;
        // replaying it as a second epoch checks the steady-state schedule —
        // the one whose exchange reads what the previous sweep wrote.
        const int epochs = plan.kind == ProgramKind::kStencil ? 2 : 1;
        for (int epoch = 0; epoch < epochs; ++epoch) {
          RankReplayer(plan, static_cast<int>(i), p, epoch, sink, trace)
              .run();
        }
        report.stats.events += trace.events;
        report.stats.writes += std::ssize(trace.writes);
        report.stats.intervals =
            std::max(report.stats.intervals, trace.intervals);
        if (trace.truncated) {
          report.stats.truncated = true;
        }
      }
    } catch (const StructureError& e) {
      // The walk checks the step tree as it binds it, the same way for
      // every rank and parity, so the first replay throws before any event.
      // The one structural diagnostic replaces the replay.
      sink.add(e.rule(), static_cast<int>(i), -1, e.detail(), e.step());
      continue;
    }
    check_collectives(traces, static_cast<int>(i), sink);
    if (!report.stats.truncated && !sink.has("OOCC-V040")) {
      // Interval numbering only aligns across ranks when the collective
      // sequences do; racing checks against skewed intervals would report
      // noise on top of the real V040.
      check_races(plan, traces, static_cast<int>(i), sink);
    }
    if (!report.stats.truncated) {
      check_coverage(plan, traces, static_cast<int>(i), sink);
    }
    check_budget(plan, traces, static_cast<int>(i), sink, report);
  }
  return report;
}

VerifyReport verify_plan(const NodeProgram& plan) {
  return verify_sequence(std::span<const NodeProgram>(&plan, 1));
}

void verify_sequence_or_throw(std::span<const NodeProgram> plans) {
  const VerifyReport report = verify_sequence(plans);
  if (!report.ok()) {
    OOCC_THROW(ErrorCode::kVerifyError,
               "the slab program failed static verification\n"
                   << report.to_string());
  }
}

void verify_or_throw(const NodeProgram& plan) {
  verify_sequence_or_throw(std::span<const NodeProgram>(&plan, 1));
}

}  // namespace oocc::compiler
