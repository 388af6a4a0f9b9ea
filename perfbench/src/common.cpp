#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace perfbench {

std::string Report::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << value
        << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

std::string Report::info_json() const {
  std::ostringstream out;
  out << "{\"info\": {";
  bool first = true;
  for (const auto& [key, value] : notes_) {
    out << (first ? "" : ", ") << "\"" << key << "\": \"" << value << "\"";
    first = false;
  }
  out << "}}";
  return out.str();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double seeded_value(std::uint64_t seed, std::int64_t r, std::int64_t c,
                    double lo, double span) {
  // splitmix64 over (seed, r, c).
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL +
                    static_cast<std::uint64_t>(r) * 0xbf58476d1ce4e5b9ULL +
                    static_cast<std::uint64_t>(c) * 0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return lo + span * static_cast<double>(z >> 11) * 0x1.0p-53;
}

void reset_peak_rss() {
  // Linux: writing 5 to clear_refs resets the VmHWM high-water mark.
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
