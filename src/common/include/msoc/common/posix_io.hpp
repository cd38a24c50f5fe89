#pragma once
// EINTR-retrying wrappers around the raw POSIX calls the durability
// layer leans on.  A signal-heavy process (the planning daemon fields
// SIGTERM/SIGCHLD, the stress harness SIGKILLs siblings) can have any
// slow syscall interrupted; open(2) and fsync(2) must simply be
// retried, never surfaced as a spurious flush failure.  file_lock.cpp
// and fileio.cpp share these so the retry policy lives in one place.
//
// close(2) is deliberately NOT wrapped: POSIX leaves the fd state
// unspecified after EINTR, and retrying risks closing a descriptor
// another thread just received.

#include <cerrno>
#include <fcntl.h>
#include <unistd.h>

namespace msoc::posix_io {

/// ::open retried through EINTR; returns the fd, or -1 with errno set
/// to the first non-EINTR failure.
inline int open_retry(const char* path, int flags, ::mode_t mode = 0) {
  int fd = -1;
  do {
    fd = ::open(path, flags, mode);  // NOLINT(cppcoreguidelines-pro-type-vararg)
  } while (fd < 0 && errno == EINTR);
  return fd;
}

/// ::fsync retried through EINTR; true on success, false with errno
/// set otherwise.
inline bool fsync_retry(int fd) {
  int rc = -1;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  return rc == 0;
}

}  // namespace msoc::posix_io
