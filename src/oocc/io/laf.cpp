#include "oocc/io/laf.hpp"

#include <exception>

#include "oocc/util/hash.hpp"
#include "oocc/util/log.hpp"

namespace oocc::io {

namespace {
constexpr std::uint64_t kElem = sizeof(double);

// Write-back journal record layout: [WalHeader][payload][commit marker].
// The payload is the section's bytes in file-extent order (exactly what the
// apply step writes in place), so replay is a straight extent walk.
constexpr std::uint64_t kWalMagic = 0x4f4f43432d57414cULL;   // "OOCC-WAL"
constexpr std::uint64_t kWalCommit = 0x434f4d4d49542121ULL;  // "COMMIT!!"

struct WalHeader {
  std::uint64_t magic = 0;
  std::int64_t row0 = 0;
  std::int64_t row1 = 0;
  std::int64_t col0 = 0;
  std::int64_t col1 = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t checksum = 0;
};
static_assert(sizeof(WalHeader) == 56);

/// Runs `op`, masking transient faults with bounded retries. Each failed
/// attempt is only recorded in `attempts`, since the physical half of a
/// transfer touches no simulated state; LocalArrayFile::finish charges its
/// backoff. Exhausting the budget escalates to a permanent kIoError.
template <typename Op>
void with_retry(const faults::RetryPolicy& policy, std::vector<int>& attempts,
                Op&& op) {
  for (int attempt = 1;; ++attempt) {
    try {
      op();
      return;
    } catch (const Error& e) {
      if (e.code() != ErrorCode::kTransientIoError) {
        throw;
      }
      if (attempt >= policy.max_attempts) {
        OOCC_THROW(ErrorCode::kIoError,
                   "transient I/O fault persisted after "
                       << attempt << " attempts: " << e.what());
      }
      attempts.push_back(attempt);
    }
  }
}

/// Calls copy(rm, cm) for every element of a `rows` x `cols` section: `rm`
/// indexes its row-major image (a row-major file's payload), `cm` its
/// column-major image (the caller's buffer). A read scatters with it, a
/// write gathers; either way the row-major image is walked in order.
template <typename Copy>
void transpose(std::int64_t rows, std::int64_t cols, Copy&& copy) {
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      copy(static_cast<std::size_t>(r * cols + c),
           static_cast<std::size_t>(c * rows + r));
    }
  }
}

}  // namespace

std::string_view storage_order_name(StorageOrder order) noexcept {
  switch (order) {
    case StorageOrder::kColumnMajor:
      return "column-major";
    case StorageOrder::kRowMajor:
      return "row-major";
  }
  return "?";
}

LocalArrayFile::LocalArrayFile(const std::filesystem::path& path,
                               std::int64_t rows, std::int64_t cols,
                               StorageOrder order, DiskModel disk)
    : rows_(rows), cols_(cols), order_(order), disk_(disk), backend_(path) {
  OOCC_REQUIRE(rows >= 1 && cols >= 1,
               "local array must be non-empty, got " << rows << "x" << cols);
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols) *
      kElem;
  if (backend_.size() < bytes) {
    backend_.truncate(bytes);
  }
  recover_from_journal();
}

std::filesystem::path LocalArrayFile::journal_path() const {
  return std::filesystem::path(backend_.path().string() + ".wal");
}

void LocalArrayFile::set_journaling(bool on) {
  if (on && journal_ == nullptr) {
    journal_ = std::make_unique<FileBackend>(journal_path());
  } else if (!on) {
    journal_.reset();
  }
}

void LocalArrayFile::recover_from_journal() {
  const std::filesystem::path jpath = journal_path();
  std::error_code ec;
  if (!std::filesystem::exists(jpath, ec) || ec) {
    return;
  }
  FileBackend journal(jpath);
  const std::uint64_t size = journal.size();
  if (size == 0) {
    return;  // cleanly applied (or never used)
  }
  bool replayed = false;
  try {
    WalHeader h;
    if (size >= sizeof(WalHeader)) {
      journal.read_at(0, &h, sizeof(WalHeader));
      std::uint64_t marker = 0;
      if (h.magic == kWalMagic &&
          size >= sizeof(WalHeader) + h.payload_bytes + sizeof(marker)) {
        journal.read_at(sizeof(WalHeader) + h.payload_bytes, &marker,
                        sizeof(marker));
        if (marker == kWalCommit) {
          std::vector<char> payload(h.payload_bytes);
          journal.read_at(sizeof(WalHeader), payload.data(),
                          h.payload_bytes);
          const Section s{h.row0, h.row1, h.col0, h.col1};
          if (fnv1a(payload.data(), payload.size(), kFileChecksumSeed) ==
                  h.checksum &&
              static_cast<std::uint64_t>(s.elements()) * kElem ==
                  h.payload_bytes) {
            // Committed record: redo the in-place apply (idempotent — the
            // payload is exactly what a completed apply wrote).
            std::size_t off = 0;
            for (const Extent& e : section_extents(s)) {
              backend_.write_at(e.offset_bytes, payload.data() + off,
                                e.length_bytes);
              off += e.length_bytes;
            }
            replayed = true;
          }
        }
      }
    }
  } catch (const Error&) {
    // A torn or corrupt journal (crash mid shadow-write) carries an
    // uncommitted record: the pre-write array contents are intact, so the
    // record is simply discarded below.
  }
  journal.truncate(0);
  if (replayed) {
    ++stats_.recoveries;
    faults::FaultInjector::instance().note_recovery();
    OOCC_INFO("laf", "replayed committed write-back journal for "
                         << backend_.path());
  } else {
    OOCC_WARN("laf", "discarded uncommitted write-back journal for "
                         << backend_.path());
  }
}

void LocalArrayFile::validate_section(const Section& s) const {
  OOCC_CHECK(s.row0 >= 0 && s.row1 <= rows_ && s.col0 >= 0 && s.col1 <= cols_,
             ErrorCode::kOutOfRange,
             "section [" << s.row0 << "," << s.row1 << ")x[" << s.col0 << ","
                         << s.col1 << ") outside local array " << rows_ << "x"
                         << cols_);
  OOCC_CHECK(!s.empty(), ErrorCode::kInvalidArgument,
             "empty section [" << s.row0 << "," << s.row1 << ")x[" << s.col0
                               << "," << s.col1 << ")");
}

std::uint64_t section_extent_count(const Section& s, std::int64_t rows,
                                   std::int64_t cols,
                                   StorageOrder order) noexcept {
  if (s.empty()) {
    return 0;
  }
  if (order == StorageOrder::kColumnMajor) {
    return s.row0 == 0 && s.row1 == rows ? 1
                                         : static_cast<std::uint64_t>(s.cols());
  }
  return s.col0 == 0 && s.col1 == cols ? 1
                                       : static_cast<std::uint64_t>(s.rows());
}

std::vector<Extent> LocalArrayFile::section_extents(const Section& s) const {
  validate_section(s);
  std::vector<Extent> extents;
  if (order_ == StorageOrder::kColumnMajor) {
    if (s.row0 == 0 && s.row1 == rows_) {
      // Full columns are adjacent in the file: one coalesced extent.
      extents.push_back(Extent{element_offset(0, s.col0) * kElem,
                               static_cast<std::uint64_t>(s.elements()) *
                                   kElem});
    } else {
      extents.reserve(static_cast<std::size_t>(s.cols()));
      for (std::int64_t c = s.col0; c < s.col1; ++c) {
        extents.push_back(Extent{element_offset(s.row0, c) * kElem,
                                 static_cast<std::uint64_t>(s.rows()) * kElem});
      }
    }
  } else {
    if (s.col0 == 0 && s.col1 == cols_) {
      extents.push_back(Extent{element_offset(s.row0, 0) * kElem,
                               static_cast<std::uint64_t>(s.elements()) *
                                   kElem});
    } else {
      extents.reserve(static_cast<std::size_t>(s.rows()));
      for (std::int64_t r = s.row0; r < s.row1; ++r) {
        extents.push_back(Extent{element_offset(r, s.col0) * kElem,
                                 static_cast<std::uint64_t>(s.cols()) * kElem});
      }
    }
  }
  return extents;
}

std::uint64_t LocalArrayFile::section_request_count(const Section& s) const {
  validate_section(s);
  return section_extent_count(s, rows_, cols_, order_);
}

std::vector<Extent> LocalArrayFile::charge_section(sim::SpmdContext& ctx,
                                                   const Section& s,
                                                   std::size_t elements,
                                                   bool is_read) {
  validate_section(s);
  OOCC_REQUIRE(elements == static_cast<std::size_t>(s.elements()),
               (is_read ? "output" : "input")
                   << " buffer holds " << elements << " elements; section "
                   << "needs " << s.elements());
  std::vector<Extent> extents = section_extents(s);
  double time = 0.0;
  std::uint64_t bytes = 0;
  for (const Extent& e : extents) {
    time += disk_.request_time(static_cast<double>(e.length_bytes),
                               ctx.nprocs());
    bytes += e.length_bytes;
  }
  ctx.charge_io_time(time);
  stats_.time_s += time;
  auto& ps = ctx.stats();
  ps.io_requests += extents.size();
  if (is_read) {
    stats_.read_requests += extents.size();
    stats_.bytes_read += bytes;
    ps.io_bytes_read += bytes;
    return extents;
  }
  stats_.write_requests += extents.size();
  stats_.bytes_written += bytes;
  ps.io_bytes_written += bytes;
  if (journal_ != nullptr) {
    // The shadow record is one streaming request against the same disk.
    const double shadow = disk_.request_time(
        static_cast<double>(sizeof(WalHeader) + bytes + sizeof(kWalCommit)),
        ctx.nprocs());
    ctx.charge_io_time(shadow);
    stats_.time_s += shadow;
    ++stats_.journal_writes;
    stats_.bytes_journaled += bytes;
    ++ps.io_requests;
    ps.io_bytes_written += bytes;
  }
  return extents;
}

void LocalArrayFile::read_extents(const Section& s,
                                  const std::vector<Extent>& extents,
                                  std::span<double> out,
                                  std::vector<double>& staging,
                                  const faults::RetryPolicy& policy,
                                  std::vector<int>& attempts) {
  // Column-major extents follow column-major section order, so they land
  // in `out` directly; row-major ones are staged, then scattered.
  const bool direct = order_ == StorageOrder::kColumnMajor;
  if (!direct) {
    staging.resize(out.size());
  }
  char* bytes = reinterpret_cast<char*>(direct ? out.data() : staging.data());
  std::size_t off = 0;
  for (const Extent& e : extents) {
    with_retry(policy, attempts, [&] {
      backend_.read_at(e.offset_bytes, bytes + off, e.length_bytes);
    });
    off += static_cast<std::size_t>(e.length_bytes);
  }
  if (!direct) {
    transpose(s.rows(), s.cols(), [&](std::size_t rm, std::size_t cm) {
      out[cm] = staging[rm];
    });
  }
}

void LocalArrayFile::write_extents(const Section& s,
                                   const std::vector<Extent>& extents,
                                   std::span<const double> in,
                                   FileBackend* journal,
                                   std::vector<double>& staging,
                                   const faults::RetryPolicy& policy,
                                   std::vector<int>& attempts) {
  // The file holds the section as the concatenation of its extents.
  // Column-major section order already is that payload; row-major storage
  // gathers it into staging.
  if (order_ == StorageOrder::kRowMajor) {
    staging.resize(in.size());
    transpose(s.rows(), s.cols(), [&](std::size_t rm, std::size_t cm) {
      staging[rm] = in[cm];
    });
    in = staging;
  }
  const char* bytes = reinterpret_cast<const char*>(in.data());
  const std::uint64_t payload_bytes = in.size_bytes();
  const auto put = [&](FileBackend& file, std::uint64_t offset,
                       const void* data, std::size_t n) {
    with_retry(policy, attempts, [&] { file.write_at(offset, data, n); });
  };
  if (journal != nullptr) {
    // Shadow-write + commit, then apply in place from the same payload
    // bytes the journal holds, then clear. A crash at either point leaves
    // the old section (uncommitted record discarded on open) or the new
    // one (committed record replayed).
    auto& injector = faults::FaultInjector::instance();
    const WalHeader h{kWalMagic,     s.row0, s.row1, s.col0, s.col1,
                      payload_bytes,
                      fnv1a(bytes, payload_bytes, kFileChecksumSeed)};
    journal->truncate(0);
    put(*journal, 0, &h, sizeof(h));
    put(*journal, sizeof(h), bytes, payload_bytes);
    injector.check_crash("shadow",
                         "journal " + backend_.path().filename().string());
    put(*journal, sizeof(h) + payload_bytes, &kWalCommit, sizeof(kWalCommit));
    injector.check_crash("apply",
                         "write " + backend_.path().filename().string());
  }
  std::size_t off = 0;
  for (const Extent& e : extents) {
    put(backend_, e.offset_bytes, bytes + off, e.length_bytes);
    off += static_cast<std::size_t>(e.length_bytes);
  }
  if (journal != nullptr) {
    journal->truncate(0);
  }
}

template <typename Transfer>
void LocalArrayFile::finish(sim::SpmdContext& ctx, std::vector<int>& attempts,
                            Transfer&& transfer) {
  std::exception_ptr error;
  try {
    transfer();
  } catch (...) {
    error = std::current_exception();
  }
  // Backoff lands after the transfer's extent and shadow-record charges,
  // in attempt order, on either route.
  for (const int attempt : attempts) {
    const double backoff = retry_.backoff_s(attempt, disk_.request_overhead_s);
    ctx.charge_io_time(backoff);
    stats_.time_s += backoff;
    ++stats_.retries;
    ++ctx.stats().retries;
  }
  attempts.clear();
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

void LocalArrayFile::read_section(sim::SpmdContext& ctx, const Section& s,
                                  std::span<double> out) {
  const std::vector<Extent> extents =
      charge_section(ctx, s, out.size(), /*is_read=*/true);
  std::vector<int> attempts;
  finish(ctx, attempts, [&] {
    read_extents(s, extents, out, scratch_, retry_, attempts);
  });
}

void LocalArrayFile::write_section(sim::SpmdContext& ctx, const Section& s,
                                   std::span<const double> in) {
  const std::vector<Extent> extents =
      charge_section(ctx, s, in.size(), /*is_read=*/false);
  std::vector<int> attempts;
  finish(ctx, attempts, [&] {
    write_extents(s, extents, in, journal_.get(), scratch_, retry_, attempts);
  });
}

// The engine routes below run the same physical halves on a worker. Their
// stream key is the file itself: submissions against one LAF stay in
// program order (so a read never overtakes a write-back it must see);
// different files behave as independent devices and overlap. A worker
// stages in a job-local buffer, since scratch_ belongs to the compute
// thread.

AsyncHandle LocalArrayFile::read_section_async(sim::SpmdContext& ctx,
                                               AsyncEngine& engine,
                                               const Section& s,
                                               std::span<double> out) {
  std::vector<Extent> extents =
      charge_section(ctx, s, out.size(), /*is_read=*/true);
  ++stats_.async_reads;
  AsyncHandle h{{}, std::make_shared<std::vector<int>>()};
  h.ticket = engine.submit(this, [this, s, out, extents = std::move(extents),
                                  attempts = h.retry_attempts,
                                  policy = retry_] {
    std::vector<double> staging;
    read_extents(s, extents, out, staging, policy, *attempts);
  });
  return h;
}

AsyncHandle LocalArrayFile::write_section_async(sim::SpmdContext& ctx,
                                                AsyncEngine& engine,
                                                const Section& s,
                                                std::span<const double> in) {
  std::vector<Extent> extents =
      charge_section(ctx, s, in.size(), /*is_read=*/false);
  ++stats_.async_writes;
  AsyncHandle h{{}, std::make_shared<std::vector<int>>()};
  h.ticket = engine.submit(
      this, [this, s, in, extents = std::move(extents),
             journal = journal_.get(), attempts = h.retry_attempts,
             policy = retry_] {
        std::vector<double> staging;
        write_extents(s, extents, in, journal, staging, policy, *attempts);
      });
  return h;
}

void LocalArrayFile::settle(sim::SpmdContext& ctx, AsyncHandle& h) {
  std::vector<int> none;  // a default-constructed handle records nothing
  finish(ctx, h.retry_attempts != nullptr ? *h.retry_attempts : none,
         [&] { h.ticket.wait(); });
}

void LocalArrayFile::fill(sim::SpmdContext& ctx, double value) {
  std::vector<double> buf(static_cast<std::size_t>(rows_ * cols_), value);
  write_full(ctx, std::span<const double>(buf));
}

}  // namespace oocc::io
