// Shared pieces of the oocc benchmark program: run configuration, the metric
// report, timing and order statistics, seeded inputs and compile-layer
// timing. Workloads live in compute.cpp (chain, stencil, gaxpy) and
// serve.cpp (serve_compile); compile-layer timing lives in layers.cpp.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "oocc/compiler/lower.hpp"

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

inline double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

/// One invocation: `--workload --seed --seconds --trace`.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Metrics by name plus the operation tally behind fail_rate.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  void count_op(bool ok) {
    ++attempted_;
    if (!ok) {
      ++failed_;
    }
  }
  /// Context printed beside the result (build, sample counts, settings).
  void note(const std::string& key, const std::string& value) {
    notes_[key] = value;
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// The result line: {"correct","attempted","failed","metrics"}.
  std::string json() const;
  /// {"info": {...notes}} on one line.
  std::string info_json() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Linear-interpolation quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// a / b, or 0 when b is 0 (a ratio over an empty base).
inline double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

/// Deterministic input value in [lo, lo + span) for element (r, c).
double seeded_value(std::uint64_t seed, std::int64_t r, std::int64_t c,
                    double lo, double span);

/// Peak resident set of this process in MB since the last reset_peak_rss()
/// (VmHWM; the whole-process peak where the reset is unavailable).
double peak_rss_mb();
void reset_peak_rss();

/// Per-layer compile timings of one program (one pass through each public
/// compiler entry point, timed from outside).
struct CompileLayers {
  double parse_s = 0.0;
  double analyze_s = 0.0;
  double lower_s = 0.0;
  double annotate_s = 0.0;
  double verify_s = 0.0;
  double verify_events = 0.0;
  double price_s = 0.0;
  double priced_requests = 0.0;  ///< rank-0 LAF requests, cache modelled
  double search_s = 0.0;
  double search_priced = 0.0;
  bool ok = true;  ///< verifier found no violation

  void add(const CompileLayers& o);
};

/// Times parse, analyze, compile_sequence (verify off), annotate, verify,
/// price_sequence (cache modelled with `pool_budget`, 0 = plan budget) and,
/// when `search` is set, search_sequence.
CompileLayers time_compile_layers(const std::string& source,
                                  const oocc::compiler::CompileOptions& options,
                                  std::int64_t pool_budget, bool search);

/// Element-wise median of several CompileLayers samples.
CompileLayers median_layers(const std::vector<CompileLayers>& samples);

/// Sets the compile-layer metrics (hpf.*, compiler.* except price_error).
void report_compile_layers(Report& report, const CompileLayers& layers);

/// Workload entry points; each fills `report`.
void run_compute_workload(const RunConfig& cfg, Report& report);
void run_serve_workload(const RunConfig& cfg, Report& report);

}  // namespace perfbench
