// Per-file I/O counters: the paper's two cost metrics (requests and bytes)
// plus the simulated time they induced. LocalArrayFile maintains one of
// these per array file and also mirrors the counts into the owning
// processor's sim::ProcStats. They count the traffic that reached the
// file; what the slab pool served from memory instead is counted once, in
// runtime::SlabCacheStats.
#pragma once

#include <cstdint>
#include <string>

namespace oocc::io {

struct IoStats {
  std::uint64_t read_requests = 0;   ///< contiguous extents read
  std::uint64_t write_requests = 0;  ///< contiguous extents written
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  double time_s = 0.0;  ///< simulated disk service time charged

  // Fault-tolerance activity (docs/fault-tolerance.md): transient faults
  // masked by the retry loop, shadow-journal records written by the
  // crash-consistent write-back path, and committed journal records
  // replayed by the recovery scan when the file was (re)opened.
  std::uint64_t retries = 0;
  std::uint64_t journal_writes = 0;
  std::uint64_t bytes_journaled = 0;
  std::uint64_t recoveries = 0;

  // Real-async activity (docs/async-io.md): section transfers whose
  // physical I/O ran on the AsyncEngine. Their requests/bytes are already
  // in the counters above (charged at submit); these count how many
  // transfers were in flight off the compute thread. Queue-depth and
  // overlap-seconds live in the engine's wall-clock counters
  // (sim::RunReport::async).
  std::uint64_t async_reads = 0;
  std::uint64_t async_writes = 0;

  std::uint64_t total_requests() const noexcept {
    return read_requests + write_requests;
  }
  std::uint64_t total_bytes() const noexcept {
    return bytes_read + bytes_written;
  }

  void merge(const IoStats& other) noexcept {
    read_requests += other.read_requests;
    write_requests += other.write_requests;
    bytes_read += other.bytes_read;
    bytes_written += other.bytes_written;
    time_s += other.time_s;
    retries += other.retries;
    journal_writes += other.journal_writes;
    bytes_journaled += other.bytes_journaled;
    recoveries += other.recoveries;
    async_reads += other.async_reads;
    async_writes += other.async_writes;
  }

  std::string summary() const;
};

}  // namespace oocc::io
