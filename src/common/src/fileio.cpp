#include "msoc/common/fileio.hpp"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <sys/stat.h>
#include <unistd.h>

#include "msoc/common/error.hpp"
#include "msoc/common/posix_io.hpp"

namespace msoc {

namespace fs = std::filesystem;

namespace {

/// fsync of the temp file (when `sync`): rename durability is only as
/// good as the bytes it points at.
void fsync_file_or_throw(const fs::path& file) {
  const int fd =
      posix_io::open_retry(file.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0 || !posix_io::fsync_retry(fd)) {
    const int err = errno;
    if (fd >= 0) ::close(fd);
    throw Error("fsync failed: " + file.string() + ": " +
                std::strerror(err));
  }
  ::close(fd);
}

/// fsync of the parent directory after rename: the rename itself lives
/// in the DIRECTORY's data blocks, so until the directory is synced a
/// crash can roll the entry back to the old file — fatal for callers
/// (cache compaction) that drop the journal records a snapshot
/// supersedes as soon as write_file_atomic returns.
void fsync_directory_or_throw(const fs::path& dir) {
  const int fd =
      posix_io::open_retry(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0 || !posix_io::fsync_retry(fd)) {
    const int err = errno;
    if (fd >= 0) ::close(fd);
    throw Error("fsync failed for directory " + dir.string() + ": " +
                std::strerror(err));
  }
  ::close(fd);
}

/// Closes `fd` and reports `what` failing on `path` with `err`.
[[noreturn]] void fail_read(int fd, const char* what, const std::string& path,
                            int err) {
  if (fd >= 0) ::close(fd);
  throw ParseError(path, 0, std::string(what) + ": " + std::strerror(err));
}

/// The one whole-file reader: open, fstat, read to end of file.  With
/// `if_exists`, a missing path or one that is not a regular file is
/// nullopt; without it, both throw, except that a pipe or device is
/// read to its end (`--soc <(cat f.soc)`).
std::optional<std::string> read_whole(const std::string& path,
                                      bool if_exists) {
  // Open FIRST, classify AFTER: a stat-then-open pair races against
  // concurrent deleters (a file removed between the two calls) and
  // would throw where the contract says "absent is nullopt".
  const int fd = posix_io::open_retry(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (if_exists && (errno == ENOENT || errno == ENOTDIR)) {
      return std::nullopt;
    }
    fail_read(fd, "cannot open", path, errno);
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) fail_read(fd, "cannot stat", path, errno);
  if (if_exists && !S_ISREG(st.st_mode)) {
    ::close(fd);
    return std::nullopt;  // directory, FIFO, device: not a regular file
  }
  if (S_ISDIR(st.st_mode)) fail_read(fd, "cannot read", path, EISDIR);
  std::string content;
  content.reserve(static_cast<std::size_t>(st.st_size));
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof buffer);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_read(fd, "read failed", path, errno);
    }
    if (n == 0) break;
    content.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return content;
}

}  // namespace

std::optional<std::string> read_file_if_exists(const std::string& path) {
  return read_whole(path, /*if_exists=*/true);
}

std::string read_file(const std::string& path) {
  return *read_whole(path, /*if_exists=*/false);
}

void write_file_atomic(const std::string& path, const std::string& content,
                       bool sync) {
  // Unique per call (pid + per-process counter), so concurrent writers
  // (two sweep processes sharing one cache dir, or two threads in one)
  // never scribble on each other's temp file; last rename wins, both
  // outcomes are whole documents.
  static std::atomic<unsigned> counter{0};
  const fs::path target(path);
  std::error_code ec;
  const fs::path dir =
      target.has_parent_path() ? target.parent_path() : fs::path(".");
  std::ostringstream name;
  name << target.filename().string() << ".tmp." << ::getpid() << "."
       << counter.fetch_add(1);
  const fs::path temp = dir / name.str();
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) throw Error("cannot open temp file " + temp.string());
    out << content;
    out.flush();
    if (!out) {
      fs::remove(temp, ec);
      throw Error("write failed: " + temp.string());
    }
  }
  if (sync) {
    try {
      fsync_file_or_throw(temp);
    } catch (const Error&) {
      fs::remove(temp, ec);
      throw;
    }
  }
  fs::rename(temp, target, ec);
  if (ec) {
    std::error_code cleanup;
    fs::remove(temp, cleanup);
    throw Error("cannot rename " + temp.string() + " to " + path + ": " +
                ec.message());
  }
  // The new name is durable only once the parent directory is synced;
  // without this a crash after return can resurrect the old file even
  // though the caller saw the rename "succeed" and acted on it.
  if (sync) fsync_directory_or_throw(dir);
}

void ensure_directory(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) throw Error("cannot create directory " + path + ": " + ec.message());
  if (!fs::is_directory(path, ec) || ec) {
    throw Error(path + " exists but is not a directory");
  }
}

}  // namespace msoc
