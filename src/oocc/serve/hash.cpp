#include "oocc/serve/hash.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace oocc::serve {

std::uint64_t canonical_program_hash(const hpf::BoundProgram& bound) {
  std::ostringstream oss;
  oss << "nprocs=" << bound.nprocs << "\n";
  // std::map iteration gives a name-sorted, order-insensitive rendering of
  // the declarations; distributions print their kind (with a BLOCK-CYCLIC
  // block), axis and extents, and the statements carry parameter values.
  for (const auto& [name, info] : bound.arrays) {
    oss << "array " << name << " rank=" << info.rank << " " << info.rows
        << "x" << info.cols << " " << info.dist.to_string() << "\n";
  }
  for (const auto& stmt : bound.stmts) {
    oss << hpf::to_string(*stmt, 0);
  }
  return fnv1a64(oss.str());
}

std::int64_t default_memory_budget(const hpf::BoundProgram& bound) {
  std::int64_t largest = 0;
  for (const auto& [name, info] : bound.arrays) {
    largest = std::max(largest, info.dist.local_elements(0));
  }
  return largest / 4 +
         4 * (largest > 0 ? bound.arrays.begin()->second.rows : 1);
}

std::uint64_t cost_model_fingerprint(
    const io::DiskModel& disk,
    const sim::MachineCostModel& machine) noexcept {
  const double params[] = {disk.request_overhead_s,
                           disk.per_proc_bandwidth_Bps,
                           disk.aggregate_bandwidth_Bps,
                           machine.comm.send_overhead_s,
                           machine.comm.latency_s,
                           machine.comm.bandwidth_Bps,
                           machine.compute.seconds_per_flop};
  return fnv1a64(
      std::string_view(reinterpret_cast<const char*>(params), sizeof(params)));
}

bool PlanKey::operator<(const PlanKey& o) const {
  const auto tie = [](const PlanKey& k) {
    return std::tuple(k.program_hash, k.nprocs, k.memory_budget_elements,
                      static_cast<int>(k.memory_strategy), k.access_reorg,
                      k.storage_reorg, k.fuse, static_cast<int>(k.prefetch),
                      static_cast<int>(k.opt), k.search_passes, k.verify,
                      k.cost_model_hash);
  };
  return tie(*this) < tie(o);
}

std::uint64_t PlanKey::digest() const noexcept {
  char buf[192];
  const int n = std::snprintf(
      buf, sizeof(buf), "%016llx|%d|%lld|%d|%d|%d|%d|%d|%d|%d|%d|%016llx",
      static_cast<unsigned long long>(program_hash), nprocs,
      static_cast<long long>(memory_budget_elements),
      static_cast<int>(memory_strategy), access_reorg ? 1 : 0,
      storage_reorg ? 1 : 0, fuse ? 1 : 0, static_cast<int>(prefetch),
      static_cast<int>(opt), search_passes, verify ? 1 : 0,
      static_cast<unsigned long long>(cost_model_hash));
  return fnv1a64(std::string_view(buf, static_cast<std::size_t>(n)));
}

std::string PlanKey::to_string() const {
  std::ostringstream oss;
  char hex[24];
  std::snprintf(hex, sizeof(hex), "plan-%016llx",
                static_cast<unsigned long long>(digest()));
  oss << hex << " p=" << nprocs << " mem=" << memory_budget_elements
      << " split=" << compiler::memory_strategy_name(memory_strategy)
      << " access-reorg=" << (access_reorg ? "on" : "off")
      << " storage-reorg=" << (storage_reorg ? "on" : "off")
      << " fuse=" << (fuse ? "on" : "off")
      << " prefetch=" << compiler::prefetch_mode_name(prefetch)
      << " opt=" << compiler::opt_mode_name(opt);
  if (opt == compiler::OptMode::kSearch) {
    oss << " passes=" << search_passes;
  }
  oss << " verify=" << (verify ? "on" : "off");
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(cost_model_hash));
  oss << " cost=" << hex;
  return oss.str();
}

std::uint64_t hash_named_array(const std::string& name,
                               std::span<const double> data,
                               std::uint64_t h) noexcept {
  h = fnv1a64(name, h);
  return fnv1a64(
      std::string_view(reinterpret_cast<const char*>(data.data()),
                       data.size() * sizeof(double)),
      h);
}

PlanKey make_plan_key(const hpf::BoundProgram& bound,
                      const compiler::CompileOptions& options) {
  PlanKey key;
  key.program_hash = canonical_program_hash(bound);
  key.nprocs = bound.nprocs;
  key.memory_budget_elements = options.memory_budget_elements;
  key.memory_strategy = options.memory_strategy;
  key.access_reorg = options.enable_access_reorganization;
  key.storage_reorg = options.enable_storage_reorganization;
  key.fuse = options.enable_statement_fusion;
  key.prefetch = options.prefetch;
  key.opt = options.opt;
  // search_passes only shapes kSearch plans; under kHeuristic the knob is
  // dead, and folding it in would split the cache for identical plans.
  key.search_passes =
      options.opt == compiler::OptMode::kSearch ? options.search_passes : 0;
  key.verify = options.verify;
  key.cost_model_hash = cost_model_fingerprint(options.disk, options.machine);
  return key;
}

}  // namespace oocc::serve
