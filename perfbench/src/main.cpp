// oocc_perfbench — one workload, one measurement, one result line.
//
//   oocc_perfbench --workload <chain|stencil|gaxpy|serve_compile>
//                  --seed <n> --seconds <s> --trace <0|1>
//
// Prints an {"info": ...} line (build, machine and settings) and, last, the
// result line {"correct","attempted","failed","metrics"}. --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer ones. perfbench/run.py
// builds this binary and runs it; README.md lists every metric.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"

extern char** environ;

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "oocc_perfbench: %s\nusage: oocc_perfbench --workload "
               "<chain|stencil|gaxpy|serve_compile> --seed <n> --seconds <s> "
               "--trace <0|1>\n",
               why);
  std::exit(2);
}

/// Refuses to measure anything but an optimized, uninstrumented build.
void require_release_build() {
  bool instrumented = false;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    !defined(NDEBUG)
  instrumented = true;
#endif
  if (instrumented || std::string(PERFBENCH_BUILD_TYPE) != "Release" ||
      std::string(PERFBENCH_SANITIZE) != "OFF") {
    std::fprintf(stderr,
                 "oocc_perfbench: refusing to report from a %s build "
                 "(sanitize=%s); configure perfbench/ as Release\n",
                 PERFBENCH_BUILD_TYPE, PERFBENCH_SANITIZE);
    std::exit(3);
  }
}

/// Drops every OOCC_* knob inherited from the caller, so each run sees the
/// library defaults plus what the workload sets itself.
void clear_oocc_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const char* eq = std::strchr(*e, '=');
    if (std::strncmp(*e, "OOCC_", 5) == 0 && eq != nullptr) {
      names.emplace_back(*e, static_cast<std::size_t>(eq - *e));
    }
  }
  for (const std::string& name : names) {
    unsetenv(name.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage(("missing value for " + arg).c_str());
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      cfg.workload = value;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      cfg.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (cfg.workload.empty() || !have_trace || cfg.seconds <= 0.0) {
    usage("--workload, --seconds > 0 and --trace 0|1 are required");
  }
  require_release_build();
  clear_oocc_environment();

  perfbench::Report report;
  if (cfg.workload == "serve_compile") {
    perfbench::run_serve_workload(cfg, report);
  } else {
    perfbench::run_compute_workload(cfg, report);
  }

  const char* delay = std::getenv("OOCC_HOST_IO_DELAY_US");
  report.note("workload", cfg.workload);
  report.note("seed", std::to_string(cfg.seed));
  report.note("trace", cfg.trace ? "1" : "0");
  report.note("seconds", std::to_string(cfg.seconds));
  report.note("build_type", PERFBENCH_BUILD_TYPE);
  report.note("compiler", PERFBENCH_COMPILER);
  report.note("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.note("io_delay_us", delay != nullptr ? delay : "0");
  report.note("operations", std::to_string(report.attempted()));
  std::printf("%s\n%s\n", report.info_json().c_str(), report.json().c_str());
  return 0;
}
