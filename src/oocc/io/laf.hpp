// Local Array File (LAF) — §2.3 of the paper.
//
// Each processor's out-of-core local array (OCLA) lives in its own file on
// that processor's logical disk. The node program explicitly reads
// rectangular *sections* of the local array into in-core buffers (ICLAs)
// and writes them back. A section that is contiguous in the file's storage
// order costs one I/O request; a strided section costs one request per
// contiguous extent — this is exactly the distinction that makes the
// paper's row-slab / column-slab reorganization matter, and why the
// compiler also reorganizes on-disk storage (reorganize.hpp).
//
// Element type is double throughout the library.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "oocc/io/async_engine.hpp"
#include "oocc/io/disk_model.hpp"
#include "oocc/io/file_backend.hpp"
#include "oocc/io/io_stats.hpp"
#include "oocc/sim/machine.hpp"
#include "oocc/util/faults.hpp"

namespace oocc::io {

/// On-disk layout of the 2-D local array.
enum class StorageOrder {
  kColumnMajor,  ///< Fortran order: column slabs are contiguous
  kRowMajor      ///< transposed order: row slabs are contiguous
};

std::string_view storage_order_name(StorageOrder order) noexcept;

/// Half-open rectangular section [row0,row1) x [col0,col1) of a local array.
struct Section {
  std::int64_t row0 = 0;
  std::int64_t row1 = 0;
  std::int64_t col0 = 0;
  std::int64_t col1 = 0;

  std::int64_t rows() const noexcept { return row1 - row0; }
  std::int64_t cols() const noexcept { return col1 - col0; }
  std::int64_t elements() const noexcept { return rows() * cols(); }
  bool empty() const noexcept { return rows() <= 0 || cols() <= 0; }

  friend bool operator==(const Section&, const Section&) = default;

  /// True when the two rectangles share at least one element.
  bool overlaps(const Section& o) const noexcept {
    return row0 < o.row1 && o.row0 < row1 && col0 < o.col1 && o.col0 < col1;
  }
  /// True when `o` lies entirely inside this section.
  bool contains(const Section& o) const noexcept {
    return row0 <= o.row0 && o.row1 <= row1 && col0 <= o.col0 &&
           o.col1 <= col1;
  }
};

/// One contiguous byte range of the file backing part of a section.
struct Extent {
  std::uint64_t offset_bytes = 0;
  std::uint64_t length_bytes = 0;
};

/// One in-flight asynchronous section transfer (read_section_async /
/// write_section_async). The simulated cost was already charged at submit;
/// settle() waits for the physical transfer, charges its transient-retry
/// backoff, and rethrows the job's error (injected faults surface here with
/// the error codes of the synchronous calls).
struct AsyncHandle {
  AsyncEngine::Ticket ticket;
  /// Failed transient attempts recorded by the worker (attempt indices);
  /// their backoff is charged to the simulated clock at settle time.
  std::shared_ptr<std::vector<int>> retry_attempts;
};

/// Contiguous extents a section of a rows x cols local array costs in the
/// given storage order, from shape alone (no file needed). This is the
/// single statement of the coalescing rule: full-height column runs (resp.
/// full-width row runs) merge into one extent, partial runs cost one
/// extent per column (resp. row). LocalArrayFile's request counters and
/// the compiler's step pricer both use it.
std::uint64_t section_extent_count(const Section& s, std::int64_t rows,
                                   std::int64_t cols,
                                   StorageOrder order) noexcept;

/// A 2-D out-of-core local array stored in a host file with simulated disk
/// costs. All data operations take the owning processor's SpmdContext so
/// simulated time and the paper's request/byte metrics are charged to the
/// right processor.
///
/// Every section transfer has two halves. The simulated half charges the
/// extents (and a journaled write's shadow record) on the calling thread.
/// The physical half moves the bytes, runs the journal protocol and
/// retries transient faults; it touches no simulated state. The
/// synchronous calls run the physical half inline, the *_async calls run
/// the same routine on an engine worker, and both charge the recorded
/// retries' backoff when the transfer ends.
class LocalArrayFile {
 public:
  /// Creates (or opens) the LAF at `path` for a `rows` x `cols` local
  /// array in `order`, pre-extended so every section read is defined.
  /// Opening runs the crash-recovery scan: a committed write-back journal
  /// left by an interrupted journaled write (`path` + ".wal") is replayed,
  /// an uncommitted one discarded, so no section is ever half-applied.
  LocalArrayFile(const std::filesystem::path& path, std::int64_t rows,
                 std::int64_t cols, StorageOrder order, DiskModel disk);

  std::int64_t rows() const noexcept { return rows_; }
  std::int64_t cols() const noexcept { return cols_; }
  StorageOrder order() const noexcept { return order_; }
  const DiskModel& disk() const noexcept { return disk_; }
  const IoStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = IoStats{}; }

  /// Slab-cache accounting hooks (runtime::SlabBufferPool): a hit avoids
  /// traffic on this file but should stay visible next to its counters.
  void note_cache_hit(std::uint64_t bytes) noexcept {
    ++stats_.cache_hits;
    stats_.bytes_cache_hit += bytes;
  }
  void note_cache_miss() noexcept { ++stats_.cache_misses; }
  void note_cache_eviction() noexcept { ++stats_.cache_evictions; }
  void note_cache_writeback() noexcept { ++stats_.cache_writebacks; }
  FileBackend& backend() noexcept { return backend_; }

  /// Crash-consistent write-back: when enabled, every write_section first
  /// shadow-writes the section (payload in file-extent order + checksum)
  /// to the `.wal` sidecar, commits it with a marker record, applies it in
  /// place, then clears the journal. An injected crash (faults::Site::
  /// kCrash) between any two steps leaves the array recoverable: the open
  /// scan replays committed records and discards uncommitted ones. Off by
  /// default — journaling adds one disk request per write, which would
  /// break the priced == measured invariants of fault-free runs. Settle
  /// every async write before turning it off: the job uses the journal.
  void set_journaling(bool on);
  bool journaling() const noexcept { return journal_ != nullptr; }

  /// Bounded-retry policy masking transient faults on this file's reads
  /// and writes; backoff is charged to the simulated clock (the DiskModel
  /// request overhead is the default base).
  const faults::RetryPolicy& retry_policy() const noexcept { return retry_; }
  void set_retry_policy(const faults::RetryPolicy& policy) noexcept {
    retry_ = policy;
  }

  /// Whole-array section.
  Section full() const noexcept { return Section{0, rows_, 0, cols_}; }

  /// The contiguous extents a section occupies in this storage order
  /// (already coalesced). Exposed so the compiler's cost estimator and the
  /// tests can reason about request counts without doing I/O.
  std::vector<Extent> section_extents(const Section& s) const;

  /// Number of I/O requests a section transfer costs (== extent count).
  std::uint64_t section_request_count(const Section& s) const;

  /// Reads the section into `out`, which receives the data in
  /// *column-major section order*: out[(c-col0)*section_rows + (r-row0)].
  /// Charges one request per extent to the simulated clock, then any
  /// transient-retry backoff.
  void read_section(sim::SpmdContext& ctx, const Section& s,
                    std::span<double> out);

  /// Writes the section from `in` (same column-major section order).
  void write_section(sim::SpmdContext& ctx, const Section& s,
                     std::span<const double> in);

  /// Asynchronous counterparts: the extents (and shadow record) are
  /// charged here, on the compute thread, exactly as the synchronous calls
  /// charge them; retry backoff follows at settle(). The physical transfer
  /// runs on `engine`, FIFO per file — every submission against one
  /// LocalArrayFile runs in program order (a read never overtakes the
  /// write-back it must observe, and the journal protocol stays
  /// serialized), while transfers against *different* files overlap
  /// freely, like independent devices. `out` must stay valid until
  /// settle(); the write takes its payload by value.
  AsyncHandle read_section_async(sim::SpmdContext& ctx, AsyncEngine& engine,
                                 const Section& s, std::span<double> out);
  AsyncHandle write_section_async(sim::SpmdContext& ctx, AsyncEngine& engine,
                                  const Section& s, std::vector<double> in);

  /// Waits out an async transfer, charges deferred retry backoff, and
  /// rethrows the worker's exception (fault, crash, I/O error), if any.
  void settle(sim::SpmdContext& ctx, AsyncHandle& h);

  /// Fills the whole array with `value` (one streaming request).
  void fill(sim::SpmdContext& ctx, double value);

  /// Convenience: read/write the whole local array.
  void read_full(sim::SpmdContext& ctx, std::span<double> out) {
    read_section(ctx, full(), out);
  }
  void write_full(sim::SpmdContext& ctx, std::span<const double> in) {
    write_section(ctx, full(), in);
  }

 private:
  void validate_section(const Section& s) const;
  /// Simulated half of a transfer, on the compute thread: validates the
  /// section and the buffer's `elements`, then charges the extents and,
  /// for a journaled write, the shadow record. Returns the extents.
  std::vector<Extent> charge_section(sim::SpmdContext& ctx, const Section& s,
                                     std::size_t elements, bool is_read);
  /// Physical halves: move a section's extents between the file and the
  /// caller's buffer (column-major section order), staging row-major
  /// storage in `staging`. A write with a `journal` runs the WAL protocol
  /// around the in-place apply. Transient faults are retried under
  /// `policy`, each failed attempt recorded in `attempts`.
  void read_extents(const Section& s, const std::vector<Extent>& extents,
                    std::span<double> out, std::vector<double>& staging,
                    const faults::RetryPolicy& policy,
                    std::vector<int>& attempts);
  void write_extents(const Section& s, const std::vector<Extent>& extents,
                     std::span<const double> in, FileBackend* journal,
                     std::vector<double>& staging,
                     const faults::RetryPolicy& policy,
                     std::vector<int>& attempts);
  /// Runs `transfer` (a physical half inline, or a wait on its ticket),
  /// then charges each recorded attempt's backoff and rethrows the
  /// transfer's error, if any.
  template <typename Transfer>
  void finish(sim::SpmdContext& ctx, std::vector<int>& attempts,
              Transfer&& transfer);
  /// Open-time scan: replay a committed journal record, discard the rest.
  void recover_from_journal();
  std::filesystem::path journal_path() const;
  std::uint64_t element_offset(std::int64_t r, std::int64_t c) const noexcept {
    if (order_ == StorageOrder::kColumnMajor) {
      return static_cast<std::uint64_t>(c * rows_ + r);
    }
    return static_cast<std::uint64_t>(r * cols_ + c);
  }

  std::int64_t rows_;
  std::int64_t cols_;
  StorageOrder order_;
  DiskModel disk_;
  FileBackend backend_;
  IoStats stats_;
  std::vector<double> scratch_;  ///< staging of the inline transfers
  faults::RetryPolicy retry_ = faults::RetryPolicy::from_env();
  std::unique_ptr<FileBackend> journal_;  ///< non-null while journaling
};

}  // namespace oocc::io
