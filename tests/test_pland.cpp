// PlanServer tests: the daemon loop end-to-end over real Unix
// sockets — fuzzing the wire with malformed frames (the daemon must
// answer with error envelopes or hang up, never die), coalescing N
// concurrent identical clients into one evaluation, busy-bound
// backpressure, and the drain-on-shutdown contract.

#include "msoc/pland/server.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "msoc/common/error.hpp"
#include "msoc/common/journal.hpp"
#include "msoc/common/json.hpp"
#include "msoc/common/net.hpp"

namespace {

using msoc::encode_journal_record;
using msoc::JsonValue;
using msoc::parse_json;
using msoc::net::FrameResult;
using msoc::net::FrameStatus;
using msoc::net::UnixSocket;
using msoc::pland::PlanServer;
using msoc::pland::ServerConfig;

constexpr const char* kPing = R"({"schema":"msoc-rpc-v1","op":"ping"})";

std::string temp_socket(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("msoc_pland_test_") + name + "_" +
           std::to_string(::getpid()) + ".sock"))
      .string();
}

UnixSocket connect_or_die(const std::string& path) {
  auto socket = UnixSocket::connect_if_listening(path);
  EXPECT_TRUE(socket.has_value()) << "no daemon on " << path;
  return std::move(*socket);
}

/// One request-reply exchange on a fresh connection.
JsonValue call(const std::string& path, const std::string& request) {
  UnixSocket socket = connect_or_die(path);
  socket.send_frame(request);
  const FrameResult reply = socket.recv_frame();
  EXPECT_EQ(reply.status, FrameStatus::kOk);
  return parse_json(reply.payload, "daemon reply");
}

TEST(PlanServer, ServesPingAndStops) {
  ServerConfig config;
  config.socket_path = temp_socket("ping");
  config.threads = 2;
  PlanServer server(config);
  server.start();

  const JsonValue reply = call(config.socket_path, kPing);
  EXPECT_TRUE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("op").as_string(), "ping");

  server.stop_and_join();
  // The drain unlinked the socket: nothing is listening any more.
  EXPECT_FALSE(
      UnixSocket::connect_if_listening(config.socket_path).has_value());
}

TEST(PlanServer, MalformedFramesNeverKillTheDaemon) {
  ServerConfig config;
  config.socket_path = temp_socket("fuzz");
  config.threads = 2;
  PlanServer server(config);
  server.start();

  // (a) Valid frame, garbage JSON payload: error envelope, and the
  // SAME connection keeps serving.
  {
    UnixSocket socket = connect_or_die(config.socket_path);
    socket.send_frame("this is not json {{{");
    FrameResult reply = socket.recv_frame();
    ASSERT_EQ(reply.status, FrameStatus::kOk);
    EXPECT_FALSE(
        parse_json(reply.payload, "reply").at("ok").as_bool());
    socket.send_frame(kPing);
    reply = socket.recv_frame();
    ASSERT_EQ(reply.status, FrameStatus::kOk);
    EXPECT_TRUE(parse_json(reply.payload, "reply").at("ok").as_bool());
  }

  // (b) Bad checksum: the framing keeps the stream in sync, so the
  // daemon replies with an error and the connection survives.
  {
    UnixSocket socket = connect_or_die(config.socket_path);
    std::string frame = encode_journal_record(kPing);
    frame.back() ^= 0x40;
    ASSERT_EQ(::send(socket.fd(), frame.data(), frame.size(), 0),
              static_cast<ssize_t>(frame.size()));
    FrameResult reply = socket.recv_frame();
    ASSERT_EQ(reply.status, FrameStatus::kOk);
    EXPECT_FALSE(
        parse_json(reply.payload, "reply").at("ok").as_bool());
    socket.send_frame(kPing);
    reply = socket.recv_frame();
    ASSERT_EQ(reply.status, FrameStatus::kOk);
    EXPECT_TRUE(parse_json(reply.payload, "reply").at("ok").as_bool());
  }

  // (c) Oversized length prefix: error reply, then the daemon hangs up
  // (the stream cannot be resynchronized).
  {
    UnixSocket socket = connect_or_die(config.socket_path);
    std::string header(12, '\0');
    header[3] = '\x7f';  // ~2 GiB claimed payload
    ASSERT_EQ(::send(socket.fd(), header.data(), header.size(), 0),
              static_cast<ssize_t>(header.size()));
    const FrameResult reply = socket.recv_frame();
    ASSERT_EQ(reply.status, FrameStatus::kOk);
    EXPECT_FALSE(
        parse_json(reply.payload, "reply").at("ok").as_bool());
    EXPECT_EQ(socket.recv_frame().status, FrameStatus::kClosed);
  }

  // (d) Random garbage bytes, many rounds: whatever happens on that
  // connection, the daemon must still be alive afterwards.
  std::mt19937 rng(7);
  for (int round = 0; round < 16; ++round) {
    UnixSocket socket = connect_or_die(config.socket_path);
    std::string bytes(
        std::uniform_int_distribution<std::size_t>(1, 64)(rng), '\0');
    for (char& b : bytes) {
      b = static_cast<char>(
          std::uniform_int_distribution<int>(0, 255)(rng));
    }
    (void)::send(socket.fd(), bytes.data(), bytes.size(), 0);
    socket.close();
  }
  const JsonValue alive = call(config.socket_path, kPing);
  EXPECT_TRUE(alive.at("ok").as_bool());
  EXPECT_GT(server.stats().frame_errors, 0);

  server.stop_and_join();
}

TEST(PlanServer, ConcurrentIdenticalClientsShareOneEvaluation) {
  ServerConfig config;
  config.socket_path = temp_socket("coalesce");
  config.threads = 8;
  PlanServer server(config);
  server.start();

  const std::string request =
      R"({"schema":"msoc-rpc-v1","op":"frontier","bench":"d695m"})";
  constexpr int kClients = 6;
  std::vector<std::string> replies(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      UnixSocket socket = connect_or_die(config.socket_path);
      socket.send_frame(request);
      const FrameResult reply = socket.recv_frame();
      ASSERT_EQ(reply.status, FrameStatus::kOk);
      replies[static_cast<std::size_t>(i)] = reply.payload;
    });
  }
  for (std::thread& t : clients) t.join();

  for (int i = 1; i < kClients; ++i) {
    EXPECT_EQ(replies[static_cast<std::size_t>(i)], replies[0]);
  }
  EXPECT_TRUE(parse_json(replies[0], "reply").at("ok").as_bool());
  const msoc::plan::ServiceStats stats = server.service().stats();
  EXPECT_EQ(stats.evaluations, 1);
  EXPECT_EQ(stats.requests, kClients);
  EXPECT_EQ(stats.memo_hits + stats.coalesced, kClients - 1);

  server.stop_and_join();
}

TEST(PlanServer, BusyBoundRejectsWithAnEnvelope) {
  ServerConfig config;
  config.socket_path = temp_socket("busy");
  config.threads = 1;
  config.max_clients = 1;
  PlanServer server(config);
  server.start();

  // Occupy the single slot (a served ping proves the connection was
  // accepted and counted, not just queued in the listen backlog).
  UnixSocket holder = connect_or_die(config.socket_path);
  holder.send_frame(kPing);
  ASSERT_EQ(holder.recv_frame().status, FrameStatus::kOk);

  UnixSocket rejected = connect_or_die(config.socket_path);
  const FrameResult reply = rejected.recv_frame();
  ASSERT_EQ(reply.status, FrameStatus::kOk);
  const JsonValue envelope = parse_json(reply.payload, "busy reply");
  EXPECT_FALSE(envelope.at("ok").as_bool());
  EXPECT_NE(envelope.at("error").as_string().find("busy"),
            std::string::npos);
  EXPECT_EQ(rejected.recv_frame().status, FrameStatus::kClosed);
  EXPECT_EQ(server.stats().busy_rejected, 1);

  // Freeing the slot readmits clients.  Until the holder's handler
  // observes the close, retries may still be busy-rejected — and the
  // server closing a rejected connection can race our send into an
  // EPIPE — so anything short of a served ping means try again.
  holder.close();
  bool readmitted = false;
  for (int attempt = 0; attempt < 200 && !readmitted; ++attempt) {
    try {
      UnixSocket retry = connect_or_die(config.socket_path);
      retry.send_frame(kPing);
      const FrameResult pong = retry.recv_frame();
      readmitted = pong.status == FrameStatus::kOk &&
                   parse_json(pong.payload, "reply").at("ok").as_bool();
    } catch (const msoc::Error&) {
    }
    if (!readmitted) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_TRUE(readmitted) << "slot never freed";

  server.stop_and_join();
}

TEST(PlanServer, ShutdownOpRepliesThenDrains) {
  ServerConfig config;
  config.socket_path = temp_socket("shutdown");
  config.threads = 2;
  PlanServer server(config);
  server.start();

  UnixSocket socket = connect_or_die(config.socket_path);
  socket.send_frame(R"({"schema":"msoc-rpc-v1","op":"shutdown"})");
  const FrameResult reply = socket.recv_frame();
  ASSERT_EQ(reply.status, FrameStatus::kOk);
  EXPECT_TRUE(parse_json(reply.payload, "reply").at("ok").as_bool());

  // run() exits on its own — join the background thread and confirm
  // the socket path was torn down.
  server.stop_and_join();
  EXPECT_FALSE(
      UnixSocket::connect_if_listening(config.socket_path).has_value());
}

TEST(PlanServer, LiveSocketPathIsRefusedAtConstruction) {
  ServerConfig config;
  config.socket_path = temp_socket("conflict");
  PlanServer server(config);
  server.start();
  // Let the acceptor come up before probing the path.
  (void)call(config.socket_path, kPing);
  EXPECT_THROW({ PlanServer second(config); }, msoc::Error);
  server.stop_and_join();
}

}  // namespace
