// Cost-model-driven global plan search (`--opt=search`).
//
// The symbolic pricer is exact — priced LAF counters match measured ones
// request-for-request, and CI asserts it — but the heuristic pipeline only
// ever *checks* plans with it, making local one-knob decisions (greedy
// fusion, --prefetch=auto, the memplan grid). This pass inverts that: the
// pricer becomes the objective. The statement sequence is split into
// segments (each GAXPY or stencil statement is its own segment; maximal
// runs of elementwise statements form fusible segments), every segment
// gets an enumerated candidate set —
//
//   * elementwise runs: every contiguous fusion partition of the run,
//     crossed with prefetch on/off and a slab-share fraction (full budget,
//     1/2, 1/4 — smaller slabs leave the shared slab pool headroom to
//     retain another statement's data);
//   * GAXPY: slab orientation (Figure 9 vs 12) x memory-split strategy
//     x A-slab scale x prefetch (row orientation only);
//   * stencil: every slab width w with d <= w <= (budget/rows - 2d)/4 —
//     the upper bound keeps the pool's halo-assembly transient (covering
//     slabs pinned while the widened copy is built) inside the budget —
//     sampled down to the heuristic width, the maximum, the even divisors
//     of the local panel (no ragged tail) and the extremes;
//
// — and coordinate descent walks the segments (CompileOptions::search_passes
// rounds), re-pricing the *whole sequence* (price_sequence with the slab
// cache modelled, the executor's default) for every candidate and adopting
// a candidate only when it is strictly cheaper AND the sequence passes
// the static verifier. The heuristic compile is candidate
// 0 and the initial incumbent, so the result's priced makespan is <= the
// heuristic's by construction — the invariant the differential harness
// (tests/search_test.cpp) checks over randomized programs. Shapes the
// search cannot legally explore (fusion across a reduction barrier,
// double-buffered halo reads) are recorded as structured "not searchable:
// ..." diagnostics in the report, never silently skipped.
#pragma once

#include <span>

#include "oocc/compiler/lower.hpp"

namespace oocc::compiler {

/// One enumerated candidate's fate, recorded for the --dump-search report.
struct SearchCandidate {
  int pass = 0;             ///< coordinate-descent round (0 = baseline)
  int segment = -1;         ///< segment index (-1 = whole-sequence baseline)
  std::string describe;     ///< knob assignment, human-readable
  double priced_s = 0.0;    ///< priced sequence makespan (0 when pruned)
  bool priced = false;      ///< false when pruned before pricing
  bool adopted = false;     ///< became the incumbent
  std::string rejected;     ///< why it was pruned / rejected ("" if adopted
                            ///< or simply not cheaper)
};

/// Decision record of one search run (what --dump-search renders).
struct SearchReport {
  int statements = 0;       ///< source statements in the sequence
  int segments = 0;         ///< searchable segments they were split into
  int passes = 0;           ///< coordinate-descent rounds actually run
  int enumerated = 0;       ///< candidates generated (incl. pruned)
  int priced = 0;           ///< candidates priced against the objective
  int verified = 0;         ///< improving candidates verified
  double heuristic_priced_s = 0.0;  ///< baseline priced makespan
  double chosen_priced_s = 0.0;     ///< incumbent's priced makespan
  std::string chosen;               ///< incumbent knob description
  std::vector<SearchCandidate> candidates;
  /// Structured diagnostics for shapes the search skips by construction
  /// ("not searchable: ..."), e.g. fusing across a GAXPY reduction barrier.
  std::vector<std::string> not_searchable;
};

struct SearchResult {
  std::vector<NodeProgram> plans;
  SearchReport report;
};

/// Runs the global plan search over the analyzed program. `options.opt` is
/// ignored (callers arrive here via compile_sequence's kSearch dispatch or
/// directly); the heuristic baseline is compiled with a kHeuristic copy of
/// `options`. When options.verify is set, every adopted candidate passed
/// verify_sequence and the returned plans carry the verified stamp; with
/// it cleared the search trusts the pricer alone (mutation tests do this).
SearchResult search_sequence(const hpf::BoundProgram& program,
                             const CompileOptions& options);

/// Convenience: parse + analyze + search.
SearchResult search_sequence_source(std::string_view source,
                                    const CompileOptions& options);

/// The search objective: predicted makespan of the whole sequence under
/// the executor's defaults (slab cache on, one pool persisting across the
/// statements). Per plan: charged disk service + compute, minus the read
/// I/O its prefetching loops can overlap with compute. Exposed so tests and
/// benches rank plans with exactly the objective the searcher minimized;
/// the --prefetch=auto decision prices one plan with it, with and without
/// the double-buffered layout.
double priced_sequence_makespan_s(std::span<const NodeProgram> plans,
                                  const io::DiskModel& disk,
                                  const sim::MachineCostModel& machine);

}  // namespace oocc::compiler
