#include "msoc/common/file_lock.hpp"

#include <cerrno>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "msoc/common/error.hpp"
#include "msoc/common/posix_io.hpp"

namespace msoc {

namespace {

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw Error(what + " " + path + ": " + std::strerror(errno));
}

// open/fsync EINTR policy is shared with fileio.cpp via posix_io.hpp;
// only the flock retry is specific to this file.
using posix_io::open_retry;

void flock_retry(int fd, int operation, const std::string& path) {
  int rc = -1;
  do {
    rc = ::flock(fd, operation);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    ::close(fd);
    fail("cannot lock", path);
  }
}

/// Locks `fd` (open on `path`) with `operation` when it is a regular
/// file and returns true; otherwise closes it and returns false: a
/// FIFO, device or directory holds no journal.
bool lock_if_regular(int fd, int operation, const std::string& path) {
  struct stat st{};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return false;
  }
  flock_retry(fd, operation, path);
  return true;
}

}  // namespace

// Both opens pass O_NONBLOCK: opening a FIFO would otherwise wait for
// its peer.  It changes nothing for a regular file.

std::optional<FileLock> FileLock::exclusive_if_regular(
    const std::string& path) {
  const int fd = open_retry(
      path.c_str(), O_RDWR | O_CREAT | O_NONBLOCK | O_CLOEXEC, 0644);
  if (fd < 0) {
    // A directory, or a socket, cannot be opened read/write at all.
    if (errno == EISDIR || errno == ENXIO) return std::nullopt;
    fail("cannot open", path);
  }
  if (!lock_if_regular(fd, LOCK_EX, path)) return std::nullopt;
  return FileLock(fd, path);
}

std::optional<FileLock> FileLock::shared_if_exists(const std::string& path) {
  const int fd = open_retry(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC, 0);
  if (fd < 0) {
    if (errno == ENOENT) return std::nullopt;
    fail("cannot open", path);
  }
  if (!lock_if_regular(fd, LOCK_SH, path)) return std::nullopt;
  return FileLock(fd, path);
}

FileLock::~FileLock() {
  // flock releases with the last close of the description.
  if (fd_ >= 0) ::close(fd_);
}

std::uint64_t FileLock::size() const {
  struct stat st{};
  if (::fstat(fd_, &st) != 0) fail("cannot stat", path_);
  return static_cast<std::uint64_t>(st.st_size);
}

std::string FileLock::read_all() const {
  std::string content(size(), '\0');
  std::size_t got = 0;
  while (got < content.size()) {
    const ssize_t n = ::pread(fd_, content.data() + got,
                              content.size() - got,
                              static_cast<off_t>(got));
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("read failed:", path_);
    }
    if (n == 0) break;  // shrunk under us; shorter content is the truth
    got += static_cast<std::size_t>(n);
  }
  content.resize(got);
  return content;
}

std::uint64_t FileLock::append_and_sync(std::string_view bytes) {
  std::uint64_t offset = size();
  write_at_and_sync(offset, bytes);
  return offset + bytes.size();
}

void FileLock::truncate(std::uint64_t new_size) {
  int rc = -1;
  do {
    rc = ::ftruncate(fd_, static_cast<off_t>(new_size));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) fail("truncate failed:", path_);
}

void FileLock::write_at_and_sync(std::uint64_t offset,
                                 std::string_view bytes) {
  std::size_t put = 0;
  while (put < bytes.size()) {
    const ssize_t n = ::pwrite(fd_, bytes.data() + put, bytes.size() - put,
                               static_cast<off_t>(offset + put));
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("write failed:", path_);
    }
    put += static_cast<std::size_t>(n);
  }
  if (!posix_io::fsync_retry(fd_)) fail("fsync failed:", path_);
}

FileLock::FileLock(FileLock&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), path_(std::move(other.path_)) {}

FileLock& FileLock::operator=(FileLock&& other) noexcept {
  if (this != &other) {
    this->~FileLock();
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
  }
  return *this;
}

}  // namespace msoc
