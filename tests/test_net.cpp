// msoc-rpc-v1 transport tests: frame round-trips over socketpairs,
// recv_frame's classification of every malformed byte stream the
// framing can distinguish, and the listener's stale-socket takeover.
// The adversarial cases write RAW bytes with one end held as a plain
// fd, so the tests control exactly what crosses the wire.

#include "msoc/common/net.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "msoc/common/error.hpp"
#include "msoc/common/journal.hpp"

namespace {

using msoc::encode_journal_record;
using msoc::Error;
using msoc::net::FrameResult;
using msoc::net::FrameStatus;
using msoc::net::UnixListener;
using msoc::net::UnixSocket;

/// A connected pair: `sock` wrapped for the API under test, `raw` kept
/// as a bare fd so tests can write malformed bytes.
struct Pair {
  UnixSocket sock;
  int raw = -1;

  Pair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    sock = UnixSocket(fds[0]);
    raw = fds[1];
  }
  ~Pair() {
    if (raw >= 0) ::close(raw);
  }
  void write_raw(const std::string& bytes) const {
    ASSERT_EQ(::send(raw, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
  }
  void close_raw() {
    ::close(raw);
    raw = -1;
  }
};

std::filesystem::path temp_socket_path(const char* name) {
  return std::filesystem::temp_directory_path() /
         (std::string("msoc_net_test_") + name + "_" +
          std::to_string(::getpid()) + ".sock");
}

TEST(NetFrame, RoundTripsPayloads) {
  Pair pair;
  UnixSocket peer(pair.raw);
  pair.raw = -1;

  pair.sock.send_frame("hello rpc");
  pair.sock.send_frame("");  // empty payloads are legal frames
  pair.sock.send_frame(std::string(100000, 'x'));

  FrameResult a = peer.recv_frame();
  ASSERT_EQ(a.status, FrameStatus::kOk);
  EXPECT_EQ(a.payload, "hello rpc");
  FrameResult b = peer.recv_frame();
  ASSERT_EQ(b.status, FrameStatus::kOk);
  EXPECT_EQ(b.payload, "");
  FrameResult c = peer.recv_frame();
  ASSERT_EQ(c.status, FrameStatus::kOk);
  EXPECT_EQ(c.payload, std::string(100000, 'x'));
}

TEST(NetFrame, PreEncodedFramesArriveAsTheirPayload) {
  // The daemon sends a memoized reply's stored frame as it is, as many
  // times as it is asked for.
  Pair pair;
  UnixSocket peer(pair.raw);
  pair.raw = -1;
  const std::string frame = msoc::encode_journal_record("stored reply");
  pair.sock.send_encoded(frame);
  pair.sock.send_encoded(frame);
  for (int i = 0; i < 2; ++i) {
    FrameResult result = peer.recv_frame();
    ASSERT_EQ(result.status, FrameStatus::kOk);
    EXPECT_EQ(result.payload, "stored reply");
  }
}

TEST(NetFrame, CleanCloseIsKClosed) {
  Pair pair;
  pair.close_raw();
  EXPECT_EQ(pair.sock.recv_frame().status, FrameStatus::kClosed);
}

TEST(NetFrame, TruncatedHeaderIsKTruncated) {
  Pair pair;
  pair.write_raw("\x05\x00");  // 2 of 12 header bytes
  pair.close_raw();
  EXPECT_EQ(pair.sock.recv_frame().status, FrameStatus::kTruncated);
}

TEST(NetFrame, TruncatedPayloadIsKTruncated) {
  Pair pair;
  const std::string frame = encode_journal_record("full payload here");
  pair.write_raw(frame.substr(0, frame.size() - 5));
  pair.close_raw();
  EXPECT_EQ(pair.sock.recv_frame().status, FrameStatus::kTruncated);
}

TEST(NetFrame, BadChecksumKeepsTheStreamInSync) {
  Pair pair;
  std::string frame = encode_journal_record("checksummed payload");
  frame.back() ^= 0x01;  // corrupt the payload, keep the length honest
  pair.write_raw(frame);
  pair.write_raw(encode_journal_record("next frame survives"));

  EXPECT_EQ(pair.sock.recv_frame().status, FrameStatus::kBadChecksum);
  FrameResult next = pair.sock.recv_frame();
  ASSERT_EQ(next.status, FrameStatus::kOk);
  EXPECT_EQ(next.payload, "next frame survives");
}

TEST(NetFrame, OversizedLengthIsKOversized) {
  Pair pair;
  // A length prefix above the journal bound: 12 header bytes claiming
  // ~4 GiB.  recv_frame must classify WITHOUT trying to read it.
  std::string header(12, '\0');
  header[0] = '\xff';
  header[1] = '\xff';
  header[2] = '\xff';
  header[3] = '\x7f';
  pair.write_raw(header);
  EXPECT_EQ(pair.sock.recv_frame().status, FrameStatus::kOversized);
}

TEST(NetListener, AcceptsAndEchoes) {
  const auto path = temp_socket_path("echo");
  std::filesystem::remove(path);
  UnixListener listener = UnixListener::bind_and_listen(path.string());

  std::thread client([&] {
    auto sock = UnixSocket::connect_if_listening(path.string());
    ASSERT_TRUE(sock.has_value());
    sock->send_frame("marco");
    FrameResult reply = sock->recv_frame();
    ASSERT_EQ(reply.status, FrameStatus::kOk);
    EXPECT_EQ(reply.payload, "polo");
  });

  std::optional<UnixSocket> conn = listener.accept();
  ASSERT_TRUE(conn.has_value());
  FrameResult request = conn->recv_frame();
  ASSERT_EQ(request.status, FrameStatus::kOk);
  EXPECT_EQ(request.payload, "marco");
  conn->send_frame("polo");
  client.join();

  listener.close_and_unlink();
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(NetListener, ConnectWithoutListenerIsNullopt) {
  const auto path = temp_socket_path("absent");
  std::filesystem::remove(path);
  EXPECT_FALSE(UnixSocket::connect_if_listening(path.string()).has_value());
}

TEST(NetListener, StaleSocketFileIsReplaced) {
  const auto path = temp_socket_path("stale");
  std::filesystem::remove(path);
  // A daemon killed with SIGKILL leaves its socket file behind with
  // nobody accepting: simulate by binding and closing WITHOUT unlink.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  std::strncpy(address.sun_path, path.c_str(),
               sizeof(address.sun_path) - 1);
  ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&address),
                   sizeof address),
            0);
  ::close(fd);
  ASSERT_TRUE(std::filesystem::exists(path));

  UnixListener listener = UnixListener::bind_and_listen(path.string());
  EXPECT_TRUE(std::filesystem::exists(path));
  listener.close_and_unlink();
}

TEST(NetListener, LivePathIsRefused) {
  const auto path = temp_socket_path("live");
  std::filesystem::remove(path);
  UnixListener listener = UnixListener::bind_and_listen(path.string());
  EXPECT_THROW(
      { (void)UnixListener::bind_and_listen(path.string()); }, Error);
  // Losing the bind fight must not have unlinked the winner's socket.
  EXPECT_TRUE(std::filesystem::exists(path));
  listener.close_and_unlink();
}

TEST(NetListener, OverlongPathIsRefused) {
  const std::string path(200, 'a');  // sun_path is ~108 bytes
  EXPECT_THROW({ (void)UnixListener::bind_and_listen(path); }, Error);
  EXPECT_THROW({ (void)UnixSocket::connect_if_listening(path); }, Error);
}

}  // namespace
