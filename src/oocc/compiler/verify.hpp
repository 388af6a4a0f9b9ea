// Static slab-program verification (the gate before execution).
//
// The paper's bet is that out-of-core programs are analyzable at compile
// time: the compiler already prices every plan exactly, and this pass
// completes the story by *proving* a step program safe to run before any
// rank executes it. The ROADMAP's native-threads backend depends on it —
// before P simulated processors become P real threads, race freedom has to
// be a checked property of the IR, not a hope.
//
// verify_plan / verify_sequence replay the step program symbolically for
// every rank (the same step walk the executor, the pricer and the reuse
// annotator run) and check, per rank and across ranks via the
// ownership-interval algebra in hpf::DimDistribution:
//
//  * structure   — declared loops, known arrays, well-formed steps, slab
//                  steps inside their loops, writes of staged data only
//                  (OOCC-V001..V005);
//  * races       — no two ranks write overlapping global sections within a
//                  barrier interval, and no rank reads ghost data another
//                  rank writes in the same interval (OOCC-V010..V012);
//  * coverage    — every read in bounds, every output's write sections tile
//                  its owned region exactly once (OOCC-V020..V023);
//  * budget      — the peak simultaneously-pinned working set (plus the
//                  GAXPY side reservations) fits the memory budget, turning
//                  runtime kResourceExhausted failures into compile-time
//                  diagnostics (OOCC-V030);
//  * schedule    — the collective sequence (Barrier / ReduceSum /
//                  ExchangeHalo) is identical on every rank (OOCC-V040).
//
// Reuse hints are not part of a plan: the pricer and the executor derive
// them from the walk when they run it, so there is nothing to check.
// Every violation carries a stable OOCC-V0xx code plus the pretty-printed
// offending step. compile()/compile_sequence() run the verifier by default
// and stamp NodeProgram::verified; the executor re-verifies unstamped
// (hand-built or mutated) plans unless told not to. docs/verification.md
// has the full check catalogue.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "oocc/compiler/plan.hpp"

namespace oocc::compiler {

/// One violation found by the verifier.
struct VerifyDiagnostic {
  std::string code;     ///< stable identifier, e.g. "OOCC-V022"
  std::string message;  ///< human-readable description
  std::string step;     ///< pretty-printed offending step ("" if structural)
  int plan_index = 0;   ///< which plan of the sequence (0-based)
  int rank = -1;        ///< offending rank; -1 = structural or cross-rank
};

/// Replay statistics, reported even when the program verifies clean
/// (oocc_compile --dump-verify prints them).
struct VerifyStats {
  int plans = 0;
  int ranks = 0;             ///< ranks replayed (the plans' nprocs)
  std::int64_t events = 0;   ///< slab I/O / exchange events across all ranks
  /// Write sections replayed across all ranks: the WriteSlabs and the GAXPY
  /// output batches the executor stores. Not printed.
  std::int64_t writes = 0;
  std::int64_t intervals = 0;  ///< barrier intervals (max over ranks)
  std::int64_t peak_pinned_elements = 0;  ///< worst simultaneous working set
  /// The GAXPY side buffers (not pool slabs) held at that peak.
  std::int64_t side_reservation_elements = 0;
  std::int64_t budget_elements = 0;       ///< budget the peak is checked against
  int peak_rank = 0;
  /// Set when the replay or the diagnostic list hit its cap; the report is
  /// then a prefix of the truth, never wrong but possibly incomplete.
  bool truncated = false;
};

struct VerifyReport {
  std::vector<VerifyDiagnostic> diagnostics;
  VerifyStats stats;

  bool ok() const noexcept { return diagnostics.empty(); }
  /// Renders the stats line plus every diagnostic (what --dump-verify
  /// prints and what Error(kVerifyError) messages quote).
  std::string to_string() const;
};

/// Verifies a single compiled plan.
VerifyReport verify_plan(const NodeProgram& plan);

/// Verifies a compiled statement sequence, plan by plan.
VerifyReport verify_sequence(std::span<const NodeProgram> plans);

/// Throws Error(kVerifyError) quoting the report when verification fails.
void verify_or_throw(const NodeProgram& plan);
void verify_sequence_or_throw(std::span<const NodeProgram> plans);

}  // namespace oocc::compiler
