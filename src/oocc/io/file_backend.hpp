// POSIX-file backend for Local Array Files, plus a RAII temporary directory.
//
// The simulated "disks" are backed by real host files: all data written by a
// simulated program physically round-trips through the file system, so
// functional correctness of the out-of-core runtime is genuinely exercised.
// Only the *cost* is modelled (by DiskModel); host speed is irrelevant.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>

namespace oocc::io {

/// Random-access file with pread/pwrite semantics. Movable, not copyable.
/// Every read/write consults the process-global faults::FaultInjector, so
/// a fault plan (OOCC_FAULTS / --faults=) can fail any operation
/// deterministically; EINTR/EAGAIN from the host are retried internally
/// and never surface as errors.
///
/// Concurrency: pread/pwrite carry their own file offset, so read_at /
/// write_at on one FileBackend are safe from multiple threads as long as
/// writes to overlapping byte ranges are externally ordered (the async
/// engine's per-stream FIFO provides that ordering); tests/async_test.cpp
/// pins this. Open/close/truncate are not thread-safe against concurrent
/// I/O on the same object.
///
/// OOCC_HOST_IO_DELAY_US (read at construction) adds an artificial host
/// sleep to every read_at/write_at request — a deterministic stand-in for
/// real disk latency so benches can demonstrate wall-clock overlap on
/// machines whose page cache makes file I/O near-free.
class FileBackend {
 public:
  /// Opens (creating if needed) the file at `path` for read/write.
  explicit FileBackend(const std::filesystem::path& path);
  ~FileBackend();

  FileBackend(FileBackend&& other) noexcept;
  FileBackend& operator=(FileBackend&& other) noexcept;
  FileBackend(const FileBackend&) = delete;
  FileBackend& operator=(const FileBackend&) = delete;

  const std::filesystem::path& path() const noexcept { return path_; }

  /// Reads exactly `bytes` at `offset`; throws Error(kIoError) on short
  /// reads (reading past EOF is a caller bug surfaced as an error).
  void read_at(std::uint64_t offset, void* data, std::size_t bytes);

  /// Writes exactly `bytes` at `offset`, extending the file as needed.
  void write_at(std::uint64_t offset, const void* data, std::size_t bytes);

  /// Current file size in bytes.
  std::uint64_t size() const;

  /// Pre-extends the file to `bytes` (zero-filled) so partial-slab reads of
  /// a not-yet-written array are well defined.
  void truncate(std::uint64_t bytes);

 private:
  void close() noexcept;

  std::filesystem::path path_;
  int fd_ = -1;
  std::uint32_t host_delay_us_ = 0;
};

/// Creates a unique directory under the system temp dir; removes it (and
/// all contents) on destruction. Used for Local Array Files in tests,
/// examples and benches.
class TempDir {
 public:
  /// `prefix` appears in the directory name for debuggability.
  explicit TempDir(const std::string& prefix = "oocc");
  ~TempDir();

  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::filesystem::path& path() const noexcept { return path_; }

  /// Path of a file inside the directory.
  std::filesystem::path file(const std::string& name) const {
    return path_ / name;
  }

 private:
  std::filesystem::path path_;
};

}  // namespace oocc::io
