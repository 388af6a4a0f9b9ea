// Canonical program/config hashing — the PlanCache key.
//
// A cached plan may be handed to any request that would have compiled an
// identical plan, so the key must capture everything compile_sequence
// depends on and nothing it does not. The program half hashes the
// *analyzed* program (statements rendered from the AST, in which sema bound
// every PARAMETER to its value, plus every array's resolved distribution),
// which makes the hash insensitive to whitespace, comments and directive
// ordering but sensitive to N, P, distribution kind and block, PARAMETER
// values and statement changes. The config half carries the optimizer knobs
// (budget, memory strategy, reorganization/fusion switches, prefetch mode,
// verify) plus a fingerprint of the disk and machine cost models — both
// feed lowering decisions (e.g. PrefetchMode::kAuto prices the prefetch
// variant), so two requests under different calibrations must not share a
// plan. `oocc_compile --hash` prints the same key, so clients and tests
// can predict cache behaviour without talking to the server.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "oocc/compiler/lower.hpp"
#include "oocc/hpf/sema.hpp"
#include "oocc/util/hash.hpp"

namespace oocc::serve {

/// FNV-1a offset basis: the starting value of every serve fingerprint.
inline constexpr std::uint64_t kFnvOffsetBasis = kFnv1aOffsetBasis;

/// 64-bit FNV-1a (util/hash.hpp) over raw bytes; the building block of
/// every serve hash.
inline std::uint64_t fnv1a64(std::string_view bytes,
                             std::uint64_t seed = kFnvOffsetBasis) noexcept {
  return fnv1a(bytes.data(), bytes.size(), seed);
}

/// Hash of the canonical (analyzed) program text: nprocs, every array's
/// shape + resolved distribution, and the bound statement list. Two
/// sources that differ only in formatting, comments or PARAMETER names
/// collide by construction.
std::uint64_t canonical_program_hash(const hpf::BoundProgram& bound);

/// The oocc_compile default memory rule: a quarter of the largest local
/// array plus room for the reduction temporary. Shared by the CLI driver
/// and the serve request parser so a request with memory = 0 lands on the
/// same cache key as the equivalent CLI invocation.
std::int64_t default_memory_budget(const hpf::BoundProgram& bound);

/// FNV-1a over the numeric parameters of the disk + machine cost models.
/// Part of the PlanKey: the pricer consults both models during lowering,
/// so plans compiled under different calibrations are distinct.
std::uint64_t cost_model_fingerprint(
    const io::DiskModel& disk, const sim::MachineCostModel& machine) noexcept;

/// The full cache key: canonical program hash plus the compile
/// configuration that shapes the emitted plans.
struct PlanKey {
  std::uint64_t program_hash = 0;
  int nprocs = 1;
  std::int64_t memory_budget_elements = 0;
  compiler::MemoryStrategy memory_strategy =
      compiler::MemoryStrategy::kAccessWeighted;
  bool access_reorg = true;
  bool storage_reorg = true;
  bool fuse = true;
  compiler::PrefetchMode prefetch = compiler::PrefetchMode::kOff;
  /// Plan optimizer: heuristic and searched plans for the same program are
  /// different plans, so they must land on different cache entries.
  compiler::OptMode opt = compiler::OptMode::kHeuristic;
  /// Coordinate-descent rounds under kSearch. Normalized to 0 when opt is
  /// kHeuristic (the knob is dead there and must not split the cache).
  int search_passes = 0;
  bool verify = true;
  /// cost_model_fingerprint of CompileOptions::disk + ::machine.
  std::uint64_t cost_model_hash = 0;

  bool operator==(const PlanKey&) const = default;
  bool operator<(const PlanKey& o) const;

  /// Single 64-bit digest over every field (the printable identity).
  std::uint64_t digest() const noexcept;

  /// "plan-<digest hex> p=4 mem=1024 ..." — one line, greppable; what
  /// --hash prints and what protocol responses carry in "key".
  std::string to_string() const;
};

/// Builds the key for one analyzed program under the given options.
/// `options.memory_budget_elements` must already be resolved (apply
/// default_memory_budget first when the caller's budget is 0).
PlanKey make_plan_key(const hpf::BoundProgram& bound,
                      const compiler::CompileOptions& options);

/// Folds one named array's gathered (column-major) contents into a result
/// fingerprint. Shared by serve jobs and `oocc_compile --result-hash`, so
/// equal fingerprints mean bit-identical output bytes.
std::uint64_t hash_named_array(const std::string& name,
                               std::span<const double> data,
                               std::uint64_t h) noexcept;

}  // namespace oocc::serve
