#include "oocc/compiler/cost.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "oocc/compiler/plan.hpp"
#include "oocc/compiler/walk.hpp"
#include "oocc/hpf/distribution.hpp"
#include "oocc/runtime/bufferpool.hpp"
#include "oocc/runtime/slab_directory.hpp"
#include "oocc/util/error.hpp"

namespace oocc::compiler {

double CandidateCost::total_requests() const noexcept {
  double t = 0.0;
  for (const auto& a : arrays) t += a.fetch_requests;
  return t;
}

double CandidateCost::total_elements() const noexcept {
  double t = 0.0;
  for (const auto& a : arrays) t += a.data_elements;
  return t;
}

double CandidateCost::estimated_io_time_s(const io::DiskModel& disk,
                                          int nprocs) const {
  return disk.batch_time(total_requests(), total_elements(), nprocs);
}

const ArrayCost& CandidateCost::cost_of(const std::string& name) const {
  for (const auto& a : arrays) {
    if (a.array == name) {
      return a;
    }
  }
  OOCC_THROW(ErrorCode::kInvalidArgument,
             "candidate has no cost entry for array '" << name << "'");
}

namespace {

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

}  // namespace

CandidateCost estimate_gaxpy_cost(runtime::SlabOrientation orientation,
                                  const GaxpyCostQuery& q) {
  OOCC_REQUIRE(q.n >= 1 && q.nprocs >= 1, "query needs n >= 1 and P >= 1");
  OOCC_REQUIRE(q.slab_a >= 1 && q.slab_b >= 1 && q.slab_c >= 1,
               "slab sizes must be >= 1 element");
  const std::int64_t n = q.n;
  // Local extents on processor 0 (the maximum under BLOCK); with N a
  // multiple of P every processor matches and the estimate is exact.
  const hpf::ArrayDistribution a_dist = hpf::column_block(n, n, q.nprocs);
  const std::int64_t nlc = a_dist.local_cols(0);

  CandidateCost out;
  out.a_orientation = orientation;
  out.storage_reorganized = q.storage_reorganized;

  // B is stripmined in column slabs in both translations (its ICLA holds
  // nlc-row columns); reads are contiguous in B's column-major LAF.
  const runtime::SlabIterator b_slabs(
      nlc, n, runtime::SlabOrientation::kColumnSlabs, q.slab_b);

  if (orientation == runtime::SlabOrientation::kColumnSlabs) {
    // Figure 9. A is re-swept once per output column (Equations 3-4).
    const runtime::SlabIterator a_slabs(
        n, nlc, runtime::SlabOrientation::kColumnSlabs, q.slab_a);
    // Column slabs of a column-major LAF are contiguous: 1 request/slab.
    const double a_reqs_per_sweep =
        static_cast<double>(a_slabs.count()) *
        (q.storage_reorganized ? 1.0 : 1.0);  // natural order is contiguous
    out.arrays.push_back(ArrayCost{
        "a", static_cast<double>(n) * a_reqs_per_sweep,
        static_cast<double>(n) * static_cast<double>(nlc * n)});
    out.arrays.push_back(ArrayCost{"b",
                                   static_cast<double>(b_slabs.count()),
                                   static_cast<double>(nlc * n)});
    // C: the writer flushes ceil(nlc / wc) full-column sections, one
    // contiguous request each in column-major storage.
    const std::int64_t c_capacity = std::max(q.slab_c, n);
    const std::int64_t wc = std::max<std::int64_t>(1, c_capacity / n);
    out.arrays.push_back(ArrayCost{
        "c", static_cast<double>(ceil_div(nlc, std::min(wc, nlc))),
        static_cast<double>(nlc * n)});
    return out;
  }

  // Figure 12 (row slabs). A is swept exactly once (Equations 5-6).
  const runtime::SlabIterator a_slabs(
      n, nlc, runtime::SlabOrientation::kRowSlabs, q.slab_a);
  const std::int64_t ha = a_slabs.slab_span();
  // Contiguity: one request per slab when A's LAF was reorganized to
  // row-major; otherwise each row slab costs one extent per local column.
  const double a_extents_per_slab =
      q.storage_reorganized ? 1.0 : static_cast<double>(nlc);
  out.arrays.push_back(
      ArrayCost{"a", static_cast<double>(a_slabs.count()) * a_extents_per_slab,
                static_cast<double>(nlc * n)});
  // B is re-read once per A slab (Figure 12's loop nest).
  out.arrays.push_back(ArrayCost{
      "b",
      static_cast<double>(a_slabs.count()) *
          static_cast<double>(b_slabs.count()),
      static_cast<double>(a_slabs.count()) * static_cast<double>(nlc * n)});
  // C: per A slab, the writer flushes ceil(nlc / wc) sections of ha rows.
  const std::int64_t c_capacity = std::max(q.slab_c, ha);
  const std::int64_t wc =
      std::min(std::max<std::int64_t>(1, c_capacity / ha), nlc);
  const std::int64_t sections_per_slab = ceil_div(nlc, wc);
  double extents_per_section;
  if (q.storage_reorganized) {
    // Row-major C: a full-width section is one extent, else one per row.
    extents_per_section =
        wc == nlc ? 1.0 : static_cast<double>(ha);
  } else {
    // Column-major C: one extent per column in the section.
    extents_per_section = static_cast<double>(wc);
  }
  out.arrays.push_back(ArrayCost{
      "c",
      static_cast<double>(a_slabs.count()) *
          static_cast<double>(sections_per_slab) * extents_per_section,
      static_cast<double>(nlc * n)});
  return out;
}

CostDecision choose_access_reorganization(const GaxpyCostQuery& column_query,
                                          const GaxpyCostQuery& row_query,
                                          const io::DiskModel& disk) {
  CostDecision decision;
  decision.candidates.push_back(estimate_gaxpy_cost(
      runtime::SlabOrientation::kColumnSlabs, column_query));
  decision.candidates.push_back(
      estimate_gaxpy_cost(runtime::SlabOrientation::kRowSlabs, row_query));

  // Figure 14, step 3: which array requires the largest amount of I/O?
  // Judged on the straightforward translation (the first candidate), as
  // the paper does when it identifies A as dominant.
  const CandidateCost& base = decision.candidates.front();
  const ArrayCost* dominant = &base.arrays.front();
  for (const ArrayCost& a : base.arrays) {
    if (a.data_elements > dominant->data_elements) {
      dominant = &a;
    }
  }
  decision.dominant_array = dominant->array;

  // Figure 14, step 4: select the strategy with the lowest cost for the
  // dominant array; break ties with total estimated disk time.
  const CandidateCost* best = nullptr;
  for (const CandidateCost& cand : decision.candidates) {
    if (best == nullptr) {
      best = &cand;
      continue;
    }
    const ArrayCost& lhs = cand.cost_of(decision.dominant_array);
    const ArrayCost& rhs = best->cost_of(decision.dominant_array);
    const double lhs_time =
        cand.estimated_io_time_s(disk, column_query.nprocs);
    const double rhs_time =
        best->estimated_io_time_s(disk, column_query.nprocs);
    if (lhs.data_elements < rhs.data_elements ||
        (lhs.data_elements == rhs.data_elements && lhs_time < rhs_time)) {
      best = &cand;
    }
  }
  decision.chosen = *best;

  std::ostringstream why;
  why << "dominant array is '" << decision.dominant_array << "' (";
  why << dominant->data_elements << " elements/proc in the column-slab "
      << "translation); ";
  for (const CandidateCost& cand : decision.candidates) {
    const ArrayCost& d = cand.cost_of(decision.dominant_array);
    why << runtime::slab_orientation_name(cand.a_orientation) << ": T_fetch="
        << d.fetch_requests << " T_data=" << d.data_elements << "; ";
  }
  why << "selected "
      << runtime::slab_orientation_name(decision.chosen.a_orientation);
  decision.rationale = why.str();
  return decision;
}

namespace {

using Directory = runtime::SlabDirectory<>;

/// Symbolic execution of a plan for one processor: a StepWalk client that
/// drives the same runtime::SlabDirectory the executor's pool does
/// (retaining or not), charging extent counts wherever the pool would move
/// data or the GAXPY owner stores an output batch.
class StepPricer final : public StepWalk, public Directory::Host {
 public:
  /// `dir` persists across the plans of a priced sequence, as the pool does
  /// across execute_sequence; `capacity` is the budget it shares with the
  /// GAXPY side buffers. `all_arrays` resolves arrays that live in *other*
  /// plans of the sequence (a persistent cache can evict another
  /// statement's dirty slab mid-walk).
  /// `swapped` prices a stencil plan's odd sweep; `hints` are the plan's
  /// reuse hints; `price` accumulates the plan's sweeps.
  StepPricer(const NodeProgram& plan, int proc, bool swapped,
             std::span<const double> hints, Directory& dir,
             std::int64_t capacity,
             const std::map<std::string, const PlanArray*>& all_arrays,
             PlanPrice& price)
      : StepWalk(plan, proc, swapped, hints), dir_(dir), capacity_(capacity),
        all_arrays_(all_arrays), price_(price) {}

  /// Prices one sweep; `flush` adds the end-of-run write-back of every
  /// dirty slab (the executor flushes its pool after the last plan).
  void run(bool flush) {
    sweep();
    if (flush) {
      dir_.flush(*this);
    }
  }

  std::int64_t room() const override {
    return capacity_ - dir_.resident_elements() - reserved_;
  }
  void write_back(const std::string& array, Directory::Entry& e) override {
    charge(array, e.sec, /*is_read=*/false);
  }

 private:
  const PlanArray& resolve_array(const std::string& array) const {
    const auto it = plan_.arrays.find(array);
    if (it != plan_.arrays.end()) {
      return it->second;
    }
    OOCC_CHECK(all_arrays_.contains(array), ErrorCode::kInvalidArgument,
               "priced cache holds array '" << array
                                            << "' unknown to the sequence");
    return *all_arrays_.at(array);
  }

  double extents(const std::string& array, const io::Section& s) const {
    const PlanArray& pa = resolve_array(array);
    return static_cast<double>(io::section_extent_count(
        s, pa.dist.local_rows(rank_), pa.dist.local_cols(rank_), pa.storage));
  }

  void charge(const std::string& array, const io::Section& s, bool is_read) {
    StepIoCost& cost = price_.arrays[array];
    if (is_read) {
      cost.read_requests += extents(array, s);
      cost.elements_read += static_cast<double>(s.elements());
    } else {
      cost.write_requests += extents(array, s);
      cost.elements_written += static_cast<double>(s.elements());
    }
  }

  /// One demand read through the directory: a miss is charged, a hit is
  /// counted as avoided traffic, a prefetched entry was charged at issue.
  void demand_read(const std::string& array, const io::Section& s,
                   double reuse_hint, bool transient) {
    switch (dir_.acquire_read(*this, array, s, reuse_hint, transient).how) {
      case runtime::SlabLookup::kMiss:
        charge(array, s, /*is_read=*/true);
        return;
      case runtime::SlabLookup::kHit:
      case runtime::SlabLookup::kAssembled:
        price_.cache_hits += 1.0;
        price_.elements_avoided += static_cast<double>(s.elements());
        return;
      case runtime::SlabLookup::kPrefetched:
        return;
    }
  }

  void read(const Node& n, const io::Section& s) override {
    demand_read(*n.array, s, n.hint, n.step->halo > 0);
  }

  bool resident(const Request& r) const override {
    return dir_.resident(r.array, r.section);
  }

  /// Read-aheads are charged when issued (the bytes move now) and count as
  /// overlappable: they run behind the compute.
  bool read_ahead(const Request& r) override {
    Directory::Entry* fill = nullptr;
    if (!dir_.read_ahead(*this, r.array, r.section, r.reuse_hint, &fill)) {
      return false;
    }
    if (fill != nullptr) {
      charge(r.array, r.section, /*is_read=*/true);
      price_.overlappable_read_requests += extents(r.array, r.section);
      price_.overlappable_read_elements +=
          static_cast<double>(r.section.elements());
    }
    return true;
  }

  /// One acquire_write of the output slab, and the statement's flops.
  void stage(const Node& n) override {
    const io::Section& sec = n.loop->section;
    price_.flops += compute_flops(
        plan_.statements[static_cast<std::size_t>(n.step->stmt)],
        n.info->dist, rank_, sec);
    dir_.acquire_write(*this, *n.array, sec, n.hint);
  }

  /// A retaining directory charges the dirty slab at write-back time, a
  /// no-retain one right here.
  void write(const Node& n) override {
    dir_.mark_dirty(*this, *n.array, n.loop->section, n.hint);
  }

  /// The edge-column reads go through the directory; the messages
  /// themselves carry no LAF cost.
  void exchange(const Node& n, const Exchange& ex) override {
    for (const std::optional<Edge>& edge : {ex.left, ex.right}) {
      if (edge) {
        demand_read(*n.array, edge->sent, n.hint, false);
        dir_.unpin(*this, *n.array, edge->sent);
      }
    }
  }

  void partial(const Node& n, bool /*fresh*/) override {
    price_.flops += 2.0 * static_cast<double>(n.loop->section.rows()) *
                    static_cast<double>(n.loop->section.cols());
  }

  /// Reserves a GAXPY side buffer beside the directory, evicting for room
  /// exactly as the executor's ensure_available does.
  void reserve(const Node& /*n*/, std::int64_t elements) override {
    dir_.make_room(*this, elements);
    reserved_ += elements;
  }

  void store(const Node& n, const io::Section& s) override {
    charge(*n.array, s, /*is_read=*/false);
  }

  void release(const std::string& array, const io::Section& s) override {
    dir_.unpin(*this, array, s);
  }

  /// The pool's sweep-start drops, on its directory.
  void drop(const std::string& array, bool dead) override {
    dir_.drop(*this, array, dead);
  }

  Directory& dir_;
  std::int64_t capacity_;
  const std::map<std::string, const PlanArray*>& all_arrays_;
  std::int64_t reserved_ = 0;  ///< side buffers held (GAXPY), for one sweep
  PlanPrice& price_;
};

}  // namespace

double PlanPrice::total_requests() const noexcept {
  double t = 0.0;
  for (const auto& [name, c] : arrays) {
    t += c.read_requests + c.write_requests;
  }
  return t;
}

double PlanPrice::total_elements() const noexcept {
  double t = 0.0;
  for (const auto& [name, c] : arrays) {
    t += c.elements_read + c.elements_written;
  }
  return t;
}

double PlanPrice::io_time_s(const io::DiskModel& disk,
                            int nprocs) const noexcept {
  return disk.batch_time(total_requests(), total_elements(), nprocs);
}

PlanPrice price_plan(const NodeProgram& plan, int proc,
                     const PriceOptions& options) {
  return price_sequence(std::span<const NodeProgram>(&plan, 1), proc, options)
      .front();
}

std::int64_t pool_budget(std::span<const NodeProgram> plans,
                         std::int64_t requested) {
  for (const NodeProgram& plan : plans) {
    requested = std::max(requested, plan.memory_budget_elements);
  }
  return requested;
}

std::vector<PlanPrice> price_sequence(std::span<const NodeProgram> plans,
                                      int proc, const PriceOptions& options) {
  // The retaining executor shares one pool over the whole sequence; the
  // no-retain one gives each plan its own, empty again when the plan ends.
  // A persistent cache can write back one statement's slab while a later
  // statement (which may not mention the array at all) is being priced,
  // hence the union of the arrays.
  std::map<std::string, const PlanArray*> all_arrays;
  for (const NodeProgram& plan : plans) {
    OOCC_REQUIRE(proc >= 0 && proc < plan.nprocs,
                 "processor " << proc << " outside the plan's 0.."
                              << plan.nprocs - 1);
    for (const auto& [name, pa] : plan.arrays) {
      all_arrays.emplace(name, &pa);
    }
  }
  // Processor 0's hints, whatever `proc` is priced: the executor's.
  const std::vector<std::vector<double>> hints =
      annotate_reuse_distances(plans);
  Directory dir("pool", options.model_cache);
  std::vector<PlanPrice> out;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const std::int64_t budget =
        pool_budget(options.model_cache ? plans : plans.subspan(i, 1),
                    options.cache_budget_elements);
    // A stencil plan runs its sweeps as the convergence driver does, the
    // ping-pong pair trading places on odd ones. The run-end flush lands on
    // the last sweep of the last plan, where the executor performs it.
    const int sweeps = plans[i].kind == ProgramKind::kStencil
                           ? std::max(1, options.sweeps)
                           : 1;
    PlanPrice& price = out.emplace_back();
    for (int sweep = 0; sweep < sweeps; ++sweep) {
      StepPricer(plans[i], proc, /*swapped=*/sweep % 2 != 0, hints[i], dir,
                 budget, all_arrays, price)
          .run(/*flush=*/i + 1 == plans.size() && sweep + 1 == sweeps);
    }
  }
  return out;
}

double PlanPrice::makespan_s(const io::DiskModel& disk,
                             const sim::MachineCostModel& machine,
                             int nprocs) const noexcept {
  const double comp = machine.compute.flops_time(flops);
  const double overlappable = disk.batch_time(
      overlappable_read_requests, overlappable_read_elements, nprocs);
  return io_time_s(disk, nprocs) + comp - std::min(overlappable, comp);
}

namespace {

/// Replays one sweep's dynamic slab schedule, appending (plan, step id,
/// array, section, is-read) events; stops once `max_events` are recorded.
class TraceCollector final : public StepWalk {
 public:
  struct Event {
    std::size_t plan;
    std::size_t step;
    const std::string* array;
    io::Section sec;
    bool is_read;
  };

  TraceCollector(const NodeProgram& plan, std::size_t plan_index, int proc,
                 bool swapped, std::vector<Event>& out, std::size_t max_events)
      : StepWalk(plan, proc, swapped), plan_index_(plan_index), out_(out),
        max_events_(max_events) {}

  /// Returns false when the event cap was hit (annotation is skipped).
  bool collect() { return sweep(); }

  using StepWalk::step_count;

 private:
  void push(const Node& n, const io::Section& sec, bool is_read) {
    if (out_.size() >= max_events_) {
      stop();
      return;
    }
    out_.push_back(Event{plan_index_, n.id, n.array, sec, is_read});
  }

  void read(const Node& n, const io::Section& s) override {
    push(n, s, true);
  }
  void stage(const Node& n) override { push(n, n.loop->section, false); }
  void write(const Node& n) override { push(n, n.loop->section, false); }
  void exchange(const Node& n, const Exchange& ex) override {
    for (const std::optional<Edge>& edge : {ex.left, ex.right}) {
      if (edge) {
        push(n, edge->sent, true);
      }
    }
  }

  std::size_t plan_index_;
  std::vector<Event>& out_;
  std::size_t max_events_;
};

}  // namespace

std::vector<std::vector<double>> annotate_reuse_distances(
    std::span<const NodeProgram> plans, int proc) {
  constexpr std::size_t kMaxEvents = std::size_t{1} << 20;
  std::vector<std::vector<double>> hints;
  std::vector<TraceCollector::Event> trace;
  bool complete = true;
  for (std::size_t p = 0; p < plans.size(); ++p) {
    // The convergence driver re-runs a stencil sweep with the ping-pong
    // pair swapped: replay that second sweep so the write steps see the
    // next sweep's halo reads of the very slabs they stage — the hint that
    // keeps the previous iteration's interior slabs resident.
    const int sweeps = plans[p].kind == ProgramKind::kStencil ? 2 : 1;
    for (int sweep = 0; sweep < sweeps; ++sweep) {
      TraceCollector collector(plans[p], p, proc, /*swapped=*/sweep == 1,
                               trace, kMaxEvents);
      if (sweep == 0) {
        hints.emplace_back(collector.step_count(), -1.0);
      }
      // A pathologically long schedule leaves every distance at -1 (the
      // pool degrades to plain LRU) rather than annotate from a partial
      // trace.
      complete = complete && collector.collect();
    }
  }
  if (!complete) {
    return hints;
  }
  // Backward scan: for each event, the nearest later read overlapping its
  // section gives the distance; the step keeps the minimum over its
  // dynamic executions. future[array] holds later read events, most recent
  // (smallest position) last.
  std::map<std::string, std::vector<std::pair<std::size_t, io::Section>>>
      future;
  // Scanning outward from the nearest future read finds the overlap
  // within ~one sweep's slab count for real schedules; the bound keeps the
  // pass linear on adversarial ones (an unfound overlap just leaves the
  // hint at -1, i.e. evict-first — conservative).
  constexpr std::size_t kMaxScan = 4096;
  for (std::size_t i = trace.size(); i-- > 0;) {
    const TraceCollector::Event& ev = trace[i];
    auto& reads = future[*ev.array];
    double dist = -1.0;
    std::size_t scanned = 0;
    for (auto it = reads.rbegin(); it != reads.rend() && scanned < kMaxScan;
         ++it, ++scanned) {
      if (it->second.overlaps(ev.sec)) {
        dist = static_cast<double>(it->first - i);
        break;
      }
    }
    double& hint = hints[ev.plan][ev.step];
    if (dist >= 0 && (hint < 0 || dist < hint)) {
      hint = dist;
    }
    if (ev.is_read) {
      reads.emplace_back(i, ev.sec);
    }
  }
  return hints;
}

TotalCostEstimate estimate_gaxpy_total(runtime::SlabOrientation orientation,
                                       const GaxpyCostQuery& query,
                                       const io::DiskModel& disk,
                                       const sim::MachineCostModel& machine) {
  TotalCostEstimate out;
  const CandidateCost io = estimate_gaxpy_cost(orientation, query);
  out.io_s = io.estimated_io_time_s(disk, query.nprocs);

  // Computation: every processor multiplies its nlc local columns into
  // every output (sub)column exactly once: 2 * N^2 * nlc flops.
  const hpf::ArrayDistribution a_dist =
      hpf::column_block(query.n, query.n, query.nprocs);
  const std::int64_t nlc = a_dist.local_cols(0);
  out.compute_s = machine.compute.flops_time(
      2.0 * static_cast<double>(query.n) * static_cast<double>(query.n) *
      static_cast<double>(nlc));

  // Communication: one binomial-tree sum per output (sub)column. The
  // critical path of each reduction is ceil(log2 P) hops of
  // (latency + vector bytes / bandwidth); vectors are full columns (N) in
  // the column version and slab-height subcolumns in the row version
  // (which does slabs_A * N reductions of N/slabs_A elements each — the
  // same volume, more latencies).
  int hops = 0;
  for (int m = 1; m < query.nprocs; m <<= 1) {
    ++hops;
  }
  double reductions;
  double vector_elements;
  if (orientation == runtime::SlabOrientation::kColumnSlabs) {
    reductions = static_cast<double>(query.n);
    vector_elements = static_cast<double>(query.n);
  } else {
    const runtime::SlabIterator a_slabs(
        query.n, nlc, runtime::SlabOrientation::kRowSlabs, query.slab_a);
    reductions =
        static_cast<double>(a_slabs.count()) * static_cast<double>(query.n);
    vector_elements = static_cast<double>(a_slabs.slab_span());
  }
  const double per_reduction =
      hops * machine.comm.transfer_time(vector_elements *
                                        static_cast<double>(sizeof(double)));
  out.comm_s = reductions * per_reduction;
  return out;
}

}  // namespace oocc::compiler
