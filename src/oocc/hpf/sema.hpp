// Semantic analysis: binds the parsed Program to concrete array layouts.
//
// This is the front half of the paper's "in-core phase" (Figure 7): the
// distribution directives are resolved into an ArrayDistribution per array
// (from which local bounds on every processor follow), parameters are
// folded, and the statement list is checked for well-formedness. The
// result, BoundProgram, is what the out-of-core compiler (oocc/compiler)
// lowers to a node program.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "oocc/hpf/ast.hpp"
#include "oocc/hpf/distribution.hpp"

namespace oocc::hpf {

/// A declared array with its resolved distribution. Rank-1 arrays are
/// carried as rows x 1.
struct ArrayInfo {
  std::string name;
  int rank = 2;
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  ArrayDistribution dist;
};

/// The semantically analyzed program.
struct BoundProgram {
  int nprocs = 1;
  std::map<std::string, std::int64_t> parameters;
  std::map<std::string, ArrayInfo> arrays;
  std::vector<StmtPtr> stmts;  ///< ownership moved from the parsed Program

  const ArrayInfo& array(const std::string& name) const;
};

/// The most processors a PROCESSORS directive may declare. Each one runs
/// as an OS thread of sim::Machine, so this bounds what a run starts; it
/// is 16x the largest arrangement any test, bench or example uses (64).
inline constexpr std::int64_t kMaxProcessors = 1024;

/// Runs semantic analysis; consumes `program`. Throws
/// Error(kSemanticError) on undeclared names, rank mismatches, unresolved
/// directives, non-constant declaration extents, or a processor count
/// outside 1..kMaxProcessors.
BoundProgram analyze(Program program);

}  // namespace oocc::hpf
