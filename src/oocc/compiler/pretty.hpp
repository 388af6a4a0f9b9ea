// Pseudo-code rendering of a compiled node program, in the style of the
// paper's Figure 9 (column-slab version) and Figure 12 (row-slab version).
// Used by examples and documentation so a reader can see exactly which
// translation the compiler chose and where the I/O calls were inserted.
#pragma once

#include <span>
#include <string>

#include "oocc/compiler/plan.hpp"
#include "oocc/compiler/search.hpp"

namespace oocc::compiler {

/// Renders the node program (loops, I/O calls, communication) as text.
std::string pseudo_code(const NodeProgram& plan);

/// One-paragraph summary of the compilation decisions: chosen orientation,
/// storage orders, slab sizes, estimated costs and the Figure 14 rationale.
std::string decision_report(const NodeProgram& plan);

/// Renders the plan's slab-program IR: the named slab loops, then the step
/// tree (indented two spaces per nesting level). This is what the generic
/// executor actually interprets; `oocc_compile --dump-plan` prints it.
/// `hints`, indexed by step id (annotate_reuse_distances), adds each
/// ReadSlab / WriteSlab step's known reuse distance as "(reuse N)".
std::string step_program_text(const NodeProgram& plan,
                              std::span<const double> hints = {});

/// Renders one step (no children, no indent) exactly as a step_program_text
/// line would. The verifier quotes this in its diagnostics.
std::string step_text(const Step& step);

/// Renders a plan-search decision record: space statistics, baseline vs
/// chosen priced makespans, the adopted/rejected candidate log and the
/// "not searchable" diagnostics. `oocc_compile --dump-search` prints it;
/// formatting is deterministic so docs can embed the output verbatim.
std::string search_report_text(const SearchReport& report);

}  // namespace oocc::compiler
