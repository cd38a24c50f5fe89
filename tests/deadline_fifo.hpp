#pragma once
// A FIFO for tests of readers that must not wait on one.  Opening a
// FIFO read-only blocks until a writer appears, so a reader that gets
// this wrong would hang the suite.  Once kDeadline has passed, a helper
// thread keeps opening the write end, which releases any reader stuck
// in open(2); the test then fails on its timing check instead.

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

namespace msoc::test {

class DeadlineFifo {
 public:
  static constexpr std::chrono::seconds kDeadline{2};

  /// Makes the FIFO at `path`; check created() before using it.
  explicit DeadlineFifo(std::string path)
      : path_(std::move(path)),
        created_(::mkfifo(path_.c_str(), 0644) == 0),
        helper_([this] { release_after_deadline(); }) {}

  ~DeadlineFifo() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    wake_.notify_all();
    helper_.join();
  }

  DeadlineFifo(const DeadlineFifo&) = delete;
  DeadlineFifo& operator=(const DeadlineFifo&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] bool created() const { return created_; }

 private:
  void release_after_deadline() {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto done = [this] { return done_; };
    if (wake_.wait_for(lock, kDeadline, done)) return;
    // A non-blocking open of the write end fails at once while nobody
    // reads, so keep trying until the test is over.
    while (!wake_.wait_for(lock, std::chrono::milliseconds(10), done)) {
      const int fd = ::open(path_.c_str(), O_WRONLY | O_NONBLOCK | O_CLOEXEC);
      if (fd >= 0) ::close(fd);
    }
  }

  std::string path_;
  bool created_ = false;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool done_ = false;
  std::thread helper_;  ///< Last: starts once the rest is built.
};

}  // namespace msoc::test
