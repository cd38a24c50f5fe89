#include "msoc/pland/server.hpp"

#include <cerrno>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include "msoc/common/error.hpp"
#include "msoc/common/json.hpp"

namespace msoc::pland {

namespace {

/// Transport-level ok=false envelope (planning-level errors are built
/// inside PlanService; these cover frames the service never saw).
std::string transport_error(const std::string& message) {
  return "{\"schema\":\"msoc-rpc-v1\",\"ok\":false,\"error\":\"" +
         json_escape(message) + "\"}";
}

}  // namespace

PlanServer::PlanServer(ServerConfig config)
    : config_(std::move(config)),
      service_(config_.cache_dir, config_.limits),
      listener_(net::UnixListener::bind_and_listen(config_.socket_path)),
      pool_(config_.threads) {
  int fds[2] = {-1, -1};
  if (::pipe(fds) != 0) throw Error("cannot create the daemon stop pipe");
  for (const int fd : fds) ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  stop_read_fd_ = fds[0];
  stop_write_fd_ = fds[1];
}

PlanServer::~PlanServer() {
  notify_stop();
  if (serve_thread_.joinable()) serve_thread_.join();
  if (stop_read_fd_ >= 0) ::close(stop_read_fd_);
  if (stop_write_fd_ >= 0) ::close(stop_write_fd_);
}

void PlanServer::notify_stop() noexcept {
  if (stop_write_fd_ < 0) return;
  // One byte is enough and never drained, so the pipe stays readable
  // for every poller at once; only ::write — async-signal-safe.
  const char byte = 0;
  [[maybe_unused]] const ssize_t n = ::write(stop_write_fd_, &byte, 1);
}

void PlanServer::stop_and_join() {
  notify_stop();
  if (serve_thread_.joinable()) serve_thread_.join();
}

ServerStats PlanServer::stats() const {
  ServerStats stats;
  stats.accepted = accepted_.load();
  stats.busy_rejected = busy_rejected_.load();
  stats.frame_errors = frame_errors_.load();
  return stats;
}

bool PlanServer::wait_readable(int fd) const {
  pollfd fds[2] = {{fd, POLLIN, 0}, {stop_read_fd_, POLLIN, 0}};
  for (;;) {
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return false;  // treat a broken poll as a stop; the loop exits
    }
    // Stop wins ties: a drain must not start reading a NEW request
    // that arrived in the same instant.
    if ((fds[1].revents & (POLLIN | POLLERR | POLLHUP)) != 0) return false;
    if ((fds[0].revents & (POLLIN | POLLERR | POLLHUP)) != 0) return true;
  }
}

void PlanServer::serve_connection(net::UnixSocket socket) {
  while (wait_readable(socket.fd())) {
    net::FrameResult frame = socket.recv_frame();
    switch (frame.status) {
      case net::FrameStatus::kClosed:
        return;
      case net::FrameStatus::kOk: {
        // Held for the write: an eviction may drop the memo's copy.
        const plan::PlanService::Frame reply =
            service_.handle_frame(frame.payload);
        socket.send_encoded(*reply);
        // A shutdown op drains the whole daemon, not just this
        // connection — but only after its own reply went out.
        if (service_.shutdown_requested()) {
          notify_stop();
          return;
        }
        break;
      }
      case net::FrameStatus::kBadChecksum:
        // Payload length was honored, so the stream is still on a
        // frame boundary: reply and keep serving.
        ++frame_errors_;
        socket.send_frame(transport_error(
            net::frame_status_name(frame.status)));
        break;
      case net::FrameStatus::kTruncated:
      case net::FrameStatus::kOversized:
        // The byte stream is unrecoverable; reply if the peer still
        // listens, then hang up.
        ++frame_errors_;
        try {
          socket.send_frame(transport_error(
              net::frame_status_name(frame.status)));
        } catch (const Error&) {
        }
        return;
    }
  }
}

void PlanServer::run() {
  while (wait_readable(listener_.fd())) {
    std::optional<net::UnixSocket> accepted = listener_.accept();
    if (!accepted.has_value()) continue;
    if (active_.load() >= config_.max_clients) {
      ++busy_rejected_;
      try {
        accepted->send_frame(transport_error(
            "daemon busy: " + std::to_string(config_.max_clients) +
            " clients already connected"));
      } catch (const Error&) {
      }
      // The rejected client is usually still sending its request;
      // closing now would reset the connection and destroy the busy
      // envelope before the client reads it.  Drain until the client
      // hangs up (bounded so a stalled peer cannot wedge the accept
      // loop).
      accepted->shutdown_and_drain(/*timeout_ms=*/1000);
      continue;
    }
    ++active_;
    ++accepted_;
    // shared_ptr: std::function must be copyable, UnixSocket is not.
    auto connection =
        std::make_shared<net::UnixSocket>(std::move(*accepted));
    pool_.submit([this, connection] {
      try {
        serve_connection(std::move(*connection));
      } catch (...) {
        // A connection dying (peer vanished mid-reply, etc.) must
        // never take the daemon down.
      }
      --active_;
    });
  }
  // Drain: stop accepting (and free the socket path for a successor),
  // let in-flight requests finish and reply, then join the queue.
  listener_.close_and_unlink();
  pool_.wait();
}

void PlanServer::start() {
  require(!serve_thread_.joinable(), "the server is already running");
  serve_thread_ = std::thread([this] { run(); });
}

}  // namespace msoc::pland
