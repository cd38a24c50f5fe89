#include "msoc/common/net.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "msoc/common/error.hpp"
#include "msoc/common/journal.hpp"

namespace msoc::net {

const char* frame_status_name(FrameStatus status) noexcept {
  switch (status) {
    case FrameStatus::kOk: return "ok";
    case FrameStatus::kClosed: return "closed";
    case FrameStatus::kTruncated: return "truncated frame";
    case FrameStatus::kOversized: return "oversized frame";
    case FrameStatus::kBadChecksum: return "bad checksum";
  }
  return "unknown";
}

UnixSocket::~UnixSocket() { close(); }

UnixSocket::UnixSocket(UnixSocket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

UnixSocket& UnixSocket::operator=(UnixSocket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

void UnixSocket::send_frame(std::string_view payload) {
  send_encoded(encode_journal_record(payload));
}

UnixListener::~UnixListener() { close_and_unlink(); }

UnixListener::UnixListener(UnixListener&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), path_(std::move(other.path_)) {
  other.path_.clear();
}

UnixListener& UnixListener::operator=(UnixListener&& other) noexcept {
  if (this != &other) {
    close_and_unlink();
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    other.path_.clear();
  }
  return *this;
}

namespace {

[[noreturn]] void fail(const std::string& what, const std::string& where) {
  throw Error(what + " " + where + ": " + std::strerror(errno));
}

/// The sockaddr for `path`, rejecting paths the fixed-size sun_path
/// cannot hold (a silent truncation would bind somewhere else).
sockaddr_un make_address(const std::string& path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  require(path.size() < sizeof(address.sun_path),
          "socket path too long: " + path);
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  return address;
}

int socket_or_throw() {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) fail("cannot create socket for", "AF_UNIX");
  return fd;
}

/// u32/u64 little-endian readers, mirroring journal.cpp's encoders.
std::uint32_t get_u32le(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64le(const unsigned char* p) {
  std::uint64_t value = 0;
  for (int i = 7; i >= 0; --i) {
    value = (value << 8) | static_cast<std::uint64_t>(p[i]);
  }
  return value;
}

/// Reads exactly `size` bytes.  Returns the byte count actually read:
/// `size` on success, less on EOF.  Throws on hard errors.
std::size_t recv_exact(int fd, char* out, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, out + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("recv failed on", "socket");
    }
    if (n == 0) break;
    got += static_cast<std::size_t>(n);
  }
  return got;
}

}  // namespace

void UnixSocket::close() noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

std::optional<UnixSocket> UnixSocket::connect_if_listening(
    const std::string& path) {
  const sockaddr_un address = make_address(path);
  const int fd = socket_or_throw();
  int rc = -1;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                   sizeof address);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    const int err = errno;
    ::close(fd);
    // Absent path or a socket file nobody is accepting on: the caller
    // falls back to in-process planning.
    if (err == ENOENT || err == ENOTDIR || err == ECONNREFUSED) {
      return std::nullopt;
    }
    errno = err;
    fail("cannot connect to", path);
  }
  return UnixSocket(fd);
}

void UnixSocket::shutdown_and_drain(int timeout_ms) noexcept {
  if (fd_ < 0) return;
  ::shutdown(fd_, SHUT_WR);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  char scratch[4096];
  for (;;) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) break;
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    const int rc = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc == 0) break;
    const ssize_t n = ::recv(fd_, scratch, sizeof scratch, 0);
    if (n > 0) continue;
    if (n < 0 && errno == EINTR) continue;
    break;  // EOF or hard error: the peer is done.
  }
  close();
}

void UnixSocket::send_encoded(std::string_view frame) {
  require(valid(), "send on a closed socket");
  std::size_t put = 0;
  while (put < frame.size()) {
    // MSG_NOSIGNAL: a peer that vanished mid-reply must surface as an
    // Error on this thread, not SIGPIPE the whole daemon.
    const ssize_t n =
        ::send(fd_, frame.data() + put, frame.size() - put, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("send failed on", "socket");
    }
    put += static_cast<std::size_t>(n);
  }
}

FrameResult UnixSocket::recv_frame() {
  require(valid(), "recv_frame on a closed socket");
  FrameResult result;
  unsigned char header[kJournalRecordOverhead];
  const std::size_t header_got =
      recv_exact(fd_, reinterpret_cast<char*>(header), sizeof header);
  if (header_got == 0) {
    result.status = FrameStatus::kClosed;
    return result;
  }
  if (header_got < sizeof header) {
    result.status = FrameStatus::kTruncated;
    return result;
  }
  const std::uint32_t size = get_u32le(header);
  const std::uint64_t checksum = get_u64le(header + 4);
  if (size > kJournalMaxPayloadBytes) {
    // The length prefix itself is garbage; whatever follows cannot be
    // resynchronized.  The caller replies (best effort) and closes.
    result.status = FrameStatus::kOversized;
    return result;
  }
  std::string payload(size, '\0');
  if (recv_exact(fd_, payload.data(), payload.size()) < payload.size()) {
    result.status = FrameStatus::kTruncated;
    return result;
  }
  if (fnv1a64(payload) != checksum) {
    // Payload length was honored, so the NEXT frame still starts at
    // the right byte: a server can reply with an error and keep going.
    result.status = FrameStatus::kBadChecksum;
    return result;
  }
  result.status = FrameStatus::kOk;
  result.payload = std::move(payload);
  return result;
}

UnixListener UnixListener::bind_and_listen(const std::string& path,
                                           int backlog) {
  require(!path.empty(), "listener needs a socket path");
  const sockaddr_un address = make_address(path);
  // Probe an existing socket file: connect succeeding means a live
  // daemon owns the path; anything else is a stale leftover.
  if (::access(path.c_str(), F_OK) == 0) {
    if (UnixSocket::connect_if_listening(path).has_value()) {
      throw Error("another process is already serving on " + path);
    }
    ::unlink(path.c_str());
  }
  const int fd = socket_or_throw();
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&address),
             sizeof address) != 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    fail("cannot bind", path);
  }
  if (::listen(fd, backlog) != 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(path.c_str());
    errno = err;
    fail("cannot listen on", path);
  }
  return UnixListener(fd, path);
}

std::optional<UnixSocket> UnixListener::accept() {
  require(fd_ >= 0, "accept on a closed listener");
  int fd = -1;
  do {
    fd = ::accept(fd_, nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    if (errno == ECONNABORTED || errno == EAGAIN ||
        errno == EWOULDBLOCK) {
      return std::nullopt;  // peer gave up between connect and accept
    }
    fail("accept failed on", path_);
  }
  return UnixSocket(fd);
}

void UnixListener::close_and_unlink() noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  if (!path_.empty()) ::unlink(path_.c_str());
  path_.clear();
}

}  // namespace msoc::net
