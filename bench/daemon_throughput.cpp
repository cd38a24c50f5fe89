// msoc_pland request trajectory: cold evaluation, warm memo replay,
// concurrent coalescing — over a real Unix socket.
//
// Pins the daemon's deterministic counters for a fixed request stream
// so CI can gate them (tools/check_bench.py):
//
//   * cold     — the first frontier request must cost exactly ONE
//     service evaluation.
//   * warm     — kWarmRequests byte-identical repeats (each on a fresh
//     connection, like real clients) must all serve from the memo:
//     evaluations stays put, memo_hits counts every repeat, and every
//     reply is byte-identical to the cold one ("identical", a gated
//     flag).  The whole point of keeping the daemon resident is this
//     path: "warm_speedup_target_met" gates warm mean latency at >= 5x
//     faster than the cold evaluation.
//   * coalesce — kClients concurrent connections issuing one NEW
//     request must fold into ONE evaluation (single-flight); the other
//     replies are shared_replies, exact for the workload.
//
// Writes the counters as JSON (schema "msoc-bench-daemon-v1") and
// exits non-zero when any phase breaks its contract — the bench
// doubles as a correctness gate, like cache_contention.
//
// Usage: daemon_throughput [output.json] [socket_path]

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "msoc/common/net.hpp"
#include "msoc/pland/server.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using msoc::net::FrameResult;
using msoc::net::FrameStatus;
using msoc::net::UnixSocket;
using msoc::pland::PlanServer;
using msoc::pland::ServerConfig;

constexpr int kWarmRequests = 32;
constexpr int kClients = 6;
constexpr double kWarmSpeedupTarget = 5.0;

constexpr const char* kColdRequest =
    R"({"schema":"msoc-rpc-v1","op":"frontier","bench":"d695m",)"
    R"("widths":[16,24,32]})";
constexpr const char* kCoalesceRequest =
    R"({"schema":"msoc-rpc-v1","op":"frontier","bench":"d695m",)"
    R"("widths":[40,48]})";

double elapsed_ms(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

/// One request-reply exchange on a fresh connection — the shape real
/// msoc_plan --daemon clients have, so connection setup is measured.
std::string call(const std::string& socket_path,
                 const std::string& request) {
  auto socket = UnixSocket::connect_if_listening(socket_path);
  if (!socket.has_value()) {
    std::fprintf(stderr, "error: daemon not listening on %s\n",
                 socket_path.c_str());
    std::exit(1);
  }
  socket->send_frame(request);
  const FrameResult reply = socket->recv_frame();
  if (reply.status != FrameStatus::kOk) {
    std::fprintf(stderr, "error: broken reply frame\n");
    std::exit(1);
  }
  return reply.payload;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_daemon.json";
  const std::string socket_path =
      argc > 2 ? argv[2]
               : (std::filesystem::temp_directory_path() /
                  ("msoc_bench_daemon_" + std::to_string(::getpid()) +
                   ".sock"))
                     .string();

  ServerConfig config;
  config.socket_path = socket_path;
  config.threads = kClients + 2;
  PlanServer server(config);
  server.start();

  std::printf("msoc_pland request trajectory on %s\n", socket_path.c_str());

  // --- cold: the first request pays the full evaluation. ---
  const Clock::time_point cold_start = Clock::now();
  const std::string cold_reply = call(socket_path, kColdRequest);
  const double cold_wall_ms = elapsed_ms(cold_start);
  const long long cold_evaluations = server.service().stats().evaluations;
  std::printf("  cold     %8.2f ms  (%lld evaluation)\n", cold_wall_ms,
              cold_evaluations);

  // --- warm: identical repeats serve from the memo, byte-identically. ---
  bool identical = true;
  const Clock::time_point warm_start = Clock::now();
  for (int i = 0; i < kWarmRequests; ++i) {
    if (call(socket_path, kColdRequest) != cold_reply) identical = false;
  }
  const double warm_wall_ms = elapsed_ms(warm_start);
  const double warm_mean_ms = warm_wall_ms / kWarmRequests;
  const long long memo_hits = server.service().stats().memo_hits;
  const double speedup =
      warm_mean_ms > 0.0 ? cold_wall_ms / warm_mean_ms : 0.0;
  const bool target_met = speedup >= kWarmSpeedupTarget;
  std::printf("  warm     %8.2f ms  %d requests (%.3f ms each, %.1fx "
              "cold, identical=%s)\n",
              warm_wall_ms, kWarmRequests, warm_mean_ms, speedup,
              identical ? "yes" : "NO");

  // --- coalesce: concurrent clients, one NEW key, one evaluation. ---
  const long long evaluations_before = server.service().stats().evaluations;
  std::vector<std::string> replies(kClients);
  const Clock::time_point coalesce_start = Clock::now();
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        replies[static_cast<std::size_t>(i)] =
            call(socket_path, kCoalesceRequest);
      });
    }
    for (std::thread& t : clients) t.join();
  }
  const double coalesce_wall_ms = elapsed_ms(coalesce_start);
  const long long coalesce_evaluations =
      server.service().stats().evaluations - evaluations_before;
  bool replies_match = true;
  for (int i = 1; i < kClients; ++i) {
    if (replies[static_cast<std::size_t>(i)] != replies[0]) {
      replies_match = false;
    }
  }
  const long long shared_replies =
      replies_match ? kClients - coalesce_evaluations : 0;
  std::printf("  coalesce %8.2f ms  %d clients -> %lld evaluation(s), "
              "%lld shared replies\n",
              coalesce_wall_ms, kClients, coalesce_evaluations,
              shared_replies);

  server.stop_and_join();

  const bool ok = identical && replies_match && cold_evaluations == 1 &&
                  memo_hits == kWarmRequests && coalesce_evaluations == 1 &&
                  target_met;

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n  \"schema\": \"msoc-bench-daemon-v1\",\n"
      << "  \"cold\": {\"evaluations\": " << cold_evaluations
      << ", \"wall_ms\": " << cold_wall_ms << "},\n"
      << "  \"warm\": {\"requests\": " << kWarmRequests
      << ", \"memo_hits\": " << memo_hits
      << ", \"identical\": " << (identical ? "true" : "false")
      << ", \"wall_ms\": " << warm_wall_ms << "},\n"
      << "  \"coalesce\": {\"clients\": " << kClients
      << ", \"evaluations\": " << coalesce_evaluations
      << ", \"shared_replies\": " << shared_replies
      << ", \"wall_ms\": " << coalesce_wall_ms << "},\n"
      << "  \"speedup\": " << speedup << ",\n"
      << "  \"warm_speedup_target_met\": " << (target_met ? "true" : "false")
      << "\n}\n";
  out.close();
  std::printf("trajectory written to %s\n", out_path.c_str());
  return ok ? 0 : 1;
}
