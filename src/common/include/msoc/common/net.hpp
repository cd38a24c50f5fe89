#pragma once
// msoc-rpc-v1 transport: Unix-domain stream sockets carrying frames in
// the journal's record framing (msoc/common/journal.hpp):
//
//   [frame] u32 LE payload size | u64 LE FNV-1a(payload) | payload
//
// The framing kernel is shared with the msoc-cache-v4 WAL on purpose:
// one length-prefix + checksum format, one classifier for torn and
// corrupt byte streams, whether the bytes sit in a file or on a
// socket.  Payloads are JSON request/response envelopes (schema
// "msoc-rpc-v1", docs/formats.md); the transport never looks inside.
//
// recv_frame classifies failures instead of throwing so a server can
// keep the stream alive where the framing allows it: a bad checksum
// arrives with the stream still in sync (the payload was fully read)
// and earns an error reply; a truncated or oversized frame means the
// byte stream is unrecoverable and the connection should close.

#include <optional>
#include <string>
#include <string_view>

namespace msoc::net {

/// How one recv_frame attempt ended.
enum class FrameStatus {
  kOk,          ///< Whole checksum-valid frame read.
  kClosed,      ///< Clean EOF on a frame boundary.
  kTruncated,   ///< EOF inside a frame header or payload.
  kOversized,   ///< Length prefix above kJournalMaxPayloadBytes.
  kBadChecksum  ///< Payload read completely but the FNV-1a mismatched.
};

/// Human-readable tag for logs and error replies.
[[nodiscard]] const char* frame_status_name(FrameStatus status) noexcept;

struct FrameResult {
  FrameStatus status = FrameStatus::kClosed;
  std::string payload;  ///< Engaged only when status == kOk.
};

/// One connected stream endpoint; owns its fd.  Movable, not copyable.
class UnixSocket {
 public:
  UnixSocket() = default;
  explicit UnixSocket(int fd) : fd_(fd) {}
  ~UnixSocket();
  UnixSocket(UnixSocket&& other) noexcept;
  UnixSocket& operator=(UnixSocket&& other) noexcept;
  UnixSocket(const UnixSocket&) = delete;
  UnixSocket& operator=(const UnixSocket&) = delete;

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }
  void close() noexcept;

  /// Connects to a listening socket.  Returns nullopt when the path
  /// does not exist or nothing is accepting on it (the CLI's
  /// in-process fallback trigger); throws Error on other failures.
  [[nodiscard]] static std::optional<UnixSocket> connect_if_listening(
      const std::string& path);

  /// Frames `payload` and writes it with send_encoded().
  void send_frame(std::string_view payload);

  /// Writes bytes that already are one encoded frame
  /// (encode_journal_record output) as they are (blocking,
  /// EINTR-retried, SIGPIPE suppressed).  Throws Error when the peer is
  /// gone or writing fails.
  void send_encoded(std::string_view frame);

  /// Reads one frame (blocking).  Classifies stream-level problems in
  /// the result; throws Error only on hard I/O errors.
  [[nodiscard]] FrameResult recv_frame();

  /// Half-closes the write side, discards inbound bytes until the peer
  /// hangs up or `timeout_ms` elapses, then closes.  Required when a
  /// reply must reach a peer that may still be mid-send (the busy
  /// rejection): closing with unread request bytes queued resets the
  /// connection and destroys the reply before the peer reads it.
  void shutdown_and_drain(int timeout_ms) noexcept;

 private:
  int fd_ = -1;
};

/// A bound, listening Unix-domain socket; unlinks its path on close.
class UnixListener {
 public:
  ~UnixListener();
  UnixListener(UnixListener&& other) noexcept;
  UnixListener& operator=(UnixListener&& other) noexcept;
  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;

  /// Binds and listens on `path`.  An existing socket file is probed
  /// first: a live listener is an error (two daemons must not fight
  /// over one path), a stale file left by a crashed daemon is
  /// replaced.  Throws Error on failure.
  [[nodiscard]] static UnixListener bind_and_listen(const std::string& path,
                                                    int backlog = 64);

  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Accepts one pending connection; nullopt on transient failures
  /// (the caller polls and retries).  Throws Error when the listener
  /// itself is broken.
  [[nodiscard]] std::optional<UnixSocket> accept();

  /// Stops listening and removes the socket file (idempotent).
  void close_and_unlink() noexcept;

 private:
  UnixListener(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  int fd_ = -1;
  std::string path_;
};

}  // namespace msoc::net
