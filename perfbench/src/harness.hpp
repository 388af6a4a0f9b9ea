// The execution harness: one compiled sequence run on a fresh simulated
// machine, with set-up, the execute window and the output check timed and
// counted separately. Shared by the compute workloads and by serve_compile's
// direct references.
#pragma once

#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "oocc/exec/interp.hpp"
#include "oocc/io/io_stats.hpp"
#include "oocc/runtime/bufferpool.hpp"
#include "oocc/sim/machine.hpp"

namespace perfbench {

using ArrayMap =
    std::map<std::string, std::unique_ptr<oocc::runtime::OutOfCoreArray>>;
using Generator = std::function<double(std::int64_t, std::int64_t)>;

struct ExecSetup {
  std::span<const oocc::compiler::NodeProgram> plans;
  int nprocs = 1;
  std::map<std::string, Generator> inputs;  ///< arrays staged before the run
  std::int64_t stage_budget = 0;  ///< slab budget of staging and read-back
  std::int64_t pool_budget = 0;   ///< ExecOptions::budget_elements
  int max_iters = 1;              ///< stencil sweeps
  std::string primary_output;     ///< gathered when timing the gather
  bool time_gather = false;
  /// Runs on every rank after the execute region, in a second region whose
  /// accounting is not reported; `result` is the array holding the final
  /// state (the stencil ping-pong winner, otherwise primary_output).
  std::function<void(oocc::sim::SpmdContext&, ArrayMap&,
                     const std::string& result)>
      post;
};

struct Execution {
  double setup_s = 0.0;     ///< machine + arrays + staging, up to execute
  double init_s = 0.0;      ///< OutOfCoreArray::initialize, rank max
  double exec_max_s = 0.0;  ///< execute window, rank max
  double exec_min_s = 0.0;
  double exec_sum_s = 0.0;
  double gather_s = 0.0;    ///< gather_global of the result (rank max)
  double peak_rss_mb = 0.0; ///< process peak over set-up and execute
  oocc::sim::RunReport report;  ///< the execute region (staging excluded)
  oocc::io::IoStats io;         ///< every rank and array
  double rank0_requests = 0.0;  ///< rank 0's LAF requests
  oocc::runtime::SlabCacheStats cache;
  std::string result;
};

Execution execute_once(const ExecSetup& setup,
                       const std::filesystem::path& dir);

/// |priced - measured| / measured LAF requests of rank 0. The pricer models
/// one execution of each plan, which for a stencil is one sweep, so a
/// multi-sweep setup is measured on an extra single-sweep execution.
double price_error(const ExecSetup& setup, const std::vector<Execution>& runs,
                   double priced);

/// exec.*, runtime.*, io.* (counts and async) and sim.* metrics: medians
/// over the executions.
void report_exec_layers(Report& report, const std::vector<Execution>& runs);

/// io.ceiling_*: raw sequential LocalArrayFile rates in the shape of
/// `front`'s first slab loop, under the current device latency, and the
/// share of the execute window the runs' traffic would take at those rates.
void report_io_ceiling(Report& report,
                       const oocc::compiler::NodeProgram& front,
                       const std::vector<Execution>& runs);

/// The 3-statement elementwise chain (docs/examples/elementwise_chain.hpf
/// shape) at n x n over p processors.
std::string chain_source(std::int64_t n, int p);

}  // namespace perfbench
