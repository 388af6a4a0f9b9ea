#include "oocc/io/io_stats.hpp"

#include <sstream>

namespace oocc::io {

std::string IoStats::summary() const {
  std::ostringstream oss;
  oss << "reads=" << read_requests << " writes=" << write_requests
      << " bytes_read=" << bytes_read << " bytes_written=" << bytes_written
      << " io_time=" << time_s << "s";
  if (retries + journal_writes + recoveries > 0) {
    oss << " retries=" << retries << " journal_writes=" << journal_writes
        << " bytes_journaled=" << bytes_journaled
        << " recoveries=" << recoveries;
  }
  if (async_reads + async_writes > 0) {
    oss << " async_reads=" << async_reads << " async_writes=" << async_writes;
  }
  return oss.str();
}

}  // namespace oocc::io
