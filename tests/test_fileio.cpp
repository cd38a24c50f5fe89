#include "msoc/common/fileio.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>

#include "deadline_fifo.hpp"
#include "msoc/common/error.hpp"
#include "msoc/common/file_lock.hpp"

namespace msoc {
namespace {

namespace fs = std::filesystem;

/// Per-process scratch dir: gtest's TempDir is plain /tmp on Linux, so
/// concurrent suite runs (e.g. two build trees) must not share names.
std::string unique_dir(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("msoc_fileio_" + std::to_string(::getpid())) /
                       name;
  fs::remove_all(dir);
  return dir.string();
}

TEST(FileIo, ReadMissingFileReturnsNullopt) {
  EXPECT_EQ(read_file_if_exists("/no/such/file.json"), std::nullopt);
  EXPECT_THROW((void)read_file("/no/such/file.json"), Error);
}

TEST(FileIo, ReadDirectoryReturnsNullopt) {
  EXPECT_EQ(read_file_if_exists(::testing::TempDir()), std::nullopt);
}

TEST(FileIo, ReadFileThrowsForADirectory) {
  EXPECT_THROW((void)read_file(::testing::TempDir()), Error);
}

TEST(FileIo, ReadFileReadsAPipeToItsEnd) {
  // `msoc_plan --soc <(cat f.soc)` hands the planner a pipe.
  int fds[2] = {-1, -1};
  ASSERT_EQ(::pipe(fds), 0);
  const std::string content = "SocName piped\n";
  ASSERT_EQ(::write(fds[1], content.data(), content.size()),
            static_cast<ssize_t>(content.size()));
  ::close(fds[1]);
  EXPECT_EQ(read_file("/dev/fd/" + std::to_string(fds[0])), content);
  ::close(fds[0]);
}

TEST(FileIo, FifoIsAbsentWithoutWaitingForAWriter) {
  // A FIFO at a cache path reads as absent at once: opening one
  // read-only would wait for a writer.
  const std::string dir = unique_dir("fileio_fifo");
  ensure_directory(dir);
  const test::DeadlineFifo fifo(dir + "/pipe");
  ASSERT_TRUE(fifo.created());
  const auto started = std::chrono::steady_clock::now();
  EXPECT_EQ(read_file_if_exists(fifo.path()), std::nullopt);
  EXPECT_FALSE(FileLock::shared_if_exists(fifo.path()).has_value());
  EXPECT_LT(std::chrono::steady_clock::now() - started,
            test::DeadlineFifo::kDeadline)
      << "waited for a writer";
}

TEST(FileIo, ReadThroughNonDirectoryComponentReturnsNullopt) {
  // ENOTDIR, not just ENOENT: a path that descends THROUGH a regular
  // file is "absent" for lookup purposes, the same as a missing entry.
  const std::string dir = unique_dir("fileio_enotdir");
  ensure_directory(dir);
  write_file_atomic(dir + "/plain", "x");
  EXPECT_EQ(read_file_if_exists(dir + "/plain/below"), std::nullopt);
}

TEST(FileIo, ReadSpecialFileReturnsNullopt) {
  // Openable but not a regular file: classified by fstat AFTER the
  // open, so the answer cannot race a concurrent replace.
  EXPECT_EQ(read_file_if_exists("/dev/null"), std::nullopt);
}

TEST(FileIo, ReadRacesAConcurrentDeleterWithoutThrowing) {
  // The open-first contract: with a deleter flipping the file in and
  // out of existence, every read must come back either absent or as
  // the complete document — never a throw, never a partial read.
  const std::string dir = unique_dir("fileio_race");
  ensure_directory(dir);
  const std::string path = dir + "/contested.json";
  const std::string content(8192, 'z');
  std::atomic<bool> stop{false};
  std::thread deleter([&] {
    while (!stop.load()) {
      write_file_atomic(path, content);
      fs::remove(path);
    }
  });
  for (int i = 0; i < 2000; ++i) {
    const auto hit = read_file_if_exists(path);
    if (hit.has_value()) {
      EXPECT_EQ(*hit, content);
    }
  }
  stop.store(true);
  deleter.join();
}

TEST(FileIo, WriteReadRoundTrip) {
  const std::string dir = unique_dir("fileio_roundtrip");
  ensure_directory(dir);
  const std::string path = dir + "/doc.json";
  const std::string content = "line one\nline two\n\x01 binary-ish\n";
  write_file_atomic(path, content);
  EXPECT_EQ(read_file(path), content);
  EXPECT_EQ(read_file_if_exists(path), content);

  // Overwrite is atomic replacement, not append.
  write_file_atomic(path, "shorter");
  EXPECT_EQ(read_file(path), "shorter");
}

TEST(FileIo, SyncedWriteRoundTripsAndCleansUp) {
  // The durable path (temp fsync + rename + parent-directory fsync):
  // same observable contract as the fast path — whole document, no
  // temp droppings — plus it must not throw on an ordinary directory.
  const std::string dir = unique_dir("fileio_sync");
  ensure_directory(dir);
  const std::string path = dir + "/durable.json";
  write_file_atomic(path, "first", /*sync=*/true);
  write_file_atomic(path, "second", /*sync=*/true);
  EXPECT_EQ(read_file(path), "second");
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    ++files;
    EXPECT_EQ(entry.path().filename().string(), "durable.json");
  }
  EXPECT_EQ(files, 1u);
}

TEST(FileIo, AtomicWriteLeavesNoTempFiles) {
  const std::string dir = unique_dir("fileio_notemp");
  ensure_directory(dir);
  write_file_atomic(dir + "/a.json", "a");
  write_file_atomic(dir + "/a.json", "b");
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    ++files;
    EXPECT_EQ(entry.path().filename().string(), "a.json");
  }
  EXPECT_EQ(files, 1u);
}

TEST(FileIo, WriteIntoMissingDirectoryThrows) {
  const std::string dir = unique_dir("fileio_missing");
  EXPECT_THROW(write_file_atomic(dir + "/sub/doc.json", "x"), Error);
}

TEST(FileIo, EnsureDirectoryCreatesNestedAndIsIdempotent) {
  const std::string dir = unique_dir("fileio_nested");
  const std::string nested = dir + "/a/b/c";
  ensure_directory(nested);
  EXPECT_TRUE(fs::is_directory(nested));
  ensure_directory(nested);  // second call is a no-op
  EXPECT_TRUE(fs::is_directory(nested));
}

TEST(FileIo, EnsureDirectoryOverFileThrows) {
  const std::string dir = unique_dir("fileio_overfile");
  ensure_directory(dir);
  write_file_atomic(dir + "/taken", "x");
  EXPECT_THROW(ensure_directory(dir + "/taken"), Error);
}

}  // namespace
}  // namespace msoc
