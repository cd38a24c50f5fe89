#pragma once
// Advisory whole-file locking for artifacts shared between processes
// (the result-cache shard journals).  A FileLock owns an open
// descriptor plus a POSIX flock(2) on it: EXCLUSIVE for appenders and
// compactors, SHARED for replaying readers.  flock locks attach to the
// open file description, so two threads of one process locking through
// two FileLocks serialize exactly like two processes do, and the
// kernel drops the lock when a holder dies — a kill -9'd writer can
// never wedge the cache.

#include <cstdint>
#include <optional>
#include <string>

namespace msoc {

class FileLock {
 public:
  /// Opens (creating if missing) `path` read/write and takes an
  /// exclusive lock, blocking until granted.  Throws Error when the
  /// file cannot be opened.
  [[nodiscard]] static FileLock exclusive(const std::string& path);

  /// Opens `path` read-only under a shared lock, blocking until
  /// granted; nullopt when the file does not exist.  Throws Error on
  /// any other open failure.
  [[nodiscard]] static std::optional<FileLock> shared_if_exists(
      const std::string& path);

  FileLock(FileLock&& other) noexcept;
  FileLock& operator=(FileLock&& other) noexcept;
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;
  ~FileLock();  ///< Releases the lock and closes the descriptor.

  /// The locked descriptor (valid for the lifetime of the lock).
  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  // --- Byte-level I/O on the locked file (all throw Error). ---

  [[nodiscard]] std::uint64_t size() const;
  /// Whole-file read from offset 0.
  [[nodiscard]] std::string read_all() const;
  /// Appends `bytes` at the end and flushes them to stable storage
  /// (fsync) before returning.  Returns the file size after the write.
  std::uint64_t append_and_sync(std::string_view bytes);
  /// Truncates the file to `new_size` (used to drop a torn journal
  /// tail before appending after it).
  void truncate(std::uint64_t new_size);
  /// Overwrites `bytes` at `offset` (header rewrites) and fsyncs.
  void write_at_and_sync(std::uint64_t offset, std::string_view bytes);

 private:
  FileLock(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  int fd_ = -1;
  std::string path_;
};

}  // namespace msoc
