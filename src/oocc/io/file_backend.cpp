#include "oocc/io/file_backend.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <system_error>
#include <thread>

#include "oocc/util/env.hpp"
#include "oocc/util/error.hpp"
#include "oocc/util/faults.hpp"
#include "oocc/util/log.hpp"

namespace oocc::io {

FileBackend::FileBackend(const std::filesystem::path& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  OOCC_CHECK(fd_ >= 0, ErrorCode::kIoError,
             "cannot open " << path << ": " << std::strerror(errno));
  const std::int64_t delay = env_int("OOCC_HOST_IO_DELAY_US", 0);
  host_delay_us_ = delay > 0 ? static_cast<std::uint32_t>(delay) : 0;
}

FileBackend::~FileBackend() { close(); }

FileBackend::FileBackend(FileBackend&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(other.fd_),
      host_delay_us_(other.host_delay_us_) {
  other.fd_ = -1;
}

FileBackend& FileBackend::operator=(FileBackend&& other) noexcept {
  if (this != &other) {
    close();
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    host_delay_us_ = other.host_delay_us_;
    other.fd_ = -1;
  }
  return *this;
}

void FileBackend::close() noexcept {
  if (fd_ >= 0) {
    if (::close(fd_) != 0) {
      // Destructor path; the write data is already out of our hands, but a
      // failing close (e.g. NFS deferred-error reporting) must not vanish.
      OOCC_WARN("io", "close failed on " << path_ << ": "
                                         << std::strerror(errno));
    }
    fd_ = -1;
  }
}

void FileBackend::read_at(std::uint64_t offset, void* data,
                          std::size_t bytes) {
  OOCC_CHECK(fd_ >= 0, ErrorCode::kIoError, "file " << path_ << " is closed");
  faults::FaultInjector::instance().check(
      faults::Site::kRead, "read " + path_.filename().string());
  if (host_delay_us_ > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(host_delay_us_));
  }
  std::size_t done = 0;
  while (done < bytes) {
    const ssize_t n =
        ::pread(fd_, static_cast<char*>(data) + done, bytes - done,
                static_cast<off_t>(offset + done));
    if (n < 0) {
      // EINTR/EAGAIN are not failures: the syscall was interrupted (or the
      // fd is briefly unready) and must simply be reissued. Conflating them
      // with EOF (n == 0) turned every signal delivery into a hard error.
      if (errno == EINTR || errno == EAGAIN) {
        continue;
      }
      OOCC_THROW(ErrorCode::kIoError,
                 "read failed on " << path_ << " at offset " << offset + done
                                   << ": " << std::strerror(errno));
    }
    OOCC_CHECK(n > 0, ErrorCode::kIoError,
               "short read on " << path_ << " at offset " << offset + done
                                << " (EOF)");
    done += static_cast<std::size_t>(n);
  }
}

void FileBackend::write_at(std::uint64_t offset, const void* data,
                           std::size_t bytes) {
  OOCC_CHECK(fd_ >= 0, ErrorCode::kIoError, "file " << path_ << " is closed");
  faults::FaultInjector::instance().check(
      faults::Site::kWrite, "write " + path_.filename().string());
  if (host_delay_us_ > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(host_delay_us_));
  }
  std::size_t done = 0;
  while (done < bytes) {
    const ssize_t n =
        ::pwrite(fd_, static_cast<const char*>(data) + done, bytes - done,
                 static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) {
        continue;
      }
      OOCC_THROW(ErrorCode::kIoError,
                 "write failed on " << path_ << " at offset " << offset + done
                                    << ": " << std::strerror(errno));
    }
    OOCC_CHECK(n > 0, ErrorCode::kIoError,
               "zero-length write on " << path_ << " at offset "
                                       << offset + done);
    done += static_cast<std::size_t>(n);
  }
}

std::uint64_t FileBackend::size() const {
  OOCC_CHECK(fd_ >= 0, ErrorCode::kIoError, "file " << path_ << " is closed");
  struct stat st {};
  OOCC_CHECK(::fstat(fd_, &st) == 0, ErrorCode::kIoError,
             "fstat failed on " << path_ << ": " << std::strerror(errno));
  return static_cast<std::uint64_t>(st.st_size);
}

void FileBackend::truncate(std::uint64_t bytes) {
  OOCC_CHECK(fd_ >= 0, ErrorCode::kIoError, "file " << path_ << " is closed");
  OOCC_CHECK(::ftruncate(fd_, static_cast<off_t>(bytes)) == 0,
             ErrorCode::kIoError,
             "ftruncate failed on " << path_ << ": " << std::strerror(errno));
}

TempDir::TempDir(const std::string& prefix) {
  const char* base = std::getenv("TMPDIR");
  std::filesystem::path dir = (base != nullptr && *base != '\0')
                                  ? std::filesystem::path(base)
                                  : std::filesystem::path("/tmp");
  std::string templ = (dir / (prefix + ".XXXXXX")).string();
  // mkdtemp mutates its argument in place.
  std::string buf = templ;
  OOCC_CHECK(::mkdtemp(buf.data()) != nullptr, ErrorCode::kIoError,
             "mkdtemp failed for " << templ << ": " << std::strerror(errno));
  path_ = buf;
}

TempDir::~TempDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
  if (ec) {
    // Destructor must not throw, but a leaked temp dir should at least be
    // visible — silent leaks fill /tmp on busy CI machines.
    OOCC_WARN("io", "failed to remove temp dir " << path_ << ": "
                                                 << ec.message());
  }
}

}  // namespace oocc::io
