// msoc_pland — long-running mixed-signal SOC test-planning daemon.
//
// Serves msoc-rpc-v1 requests (docs/formats.md) over a Unix-domain
// socket: the benchmark SOCs are loaded once, repeated requests hit an
// in-memory response memo, identical in-flight requests coalesce into
// one evaluation, and an optional --cache-dir shares one persistent
// msoc-cache-v4 store across every client.  `msoc_plan --daemon SOCKET`
// is the matching client.
//
// Usage:
//   msoc_pland --socket PATH [options]
//     --socket PATH    Unix-domain socket path to serve on (required)
//     --threads N      connection worker threads (default 0 = all cores)
//     --max-clients N  open-connection bound; clients past it get a
//                      busy reply (default 64)
//     --cache-dir DIR  shared persistent result cache (msoc-cache-v4)
//     --jobs-cap N     cap any request's evaluation threads (default 0
//                      = honor the client's jobs value)
//     --help           this text
//
// SIGTERM/SIGINT drain: in-flight requests finish and reply, then the
// socket file is removed and the daemon exits 0.  A client can also
// stop it with an {"op":"shutdown"} request.

#include <csignal>
#include <cstdio>
#include <limits>
#include <string>

#include "msoc/common/error.hpp"
#include "msoc/common/strings.hpp"
#include "msoc/pland/server.hpp"

namespace {

msoc::pland::PlanServer* g_server = nullptr;

extern "C" void handle_stop_signal(int) {
  // notify_stop is a one-byte pipe write: async-signal-safe.
  if (g_server != nullptr) g_server->notify_stop();
}

void print_usage() {
  std::puts(
      "msoc_pland — mixed-signal SOC test-planning daemon (msoc-rpc-v1)\n"
      "  --socket PATH    Unix-domain socket to serve on (required)\n"
      "  --threads N      connection worker threads (default 0 = all cores)\n"
      "  --max-clients N  open-connection bound; clients past it get a\n"
      "                   busy reply (default 64)\n"
      "  --cache-dir DIR  shared persistent result cache (msoc-cache-v4)\n"
      "  --jobs-cap N     cap any request's evaluation threads (default 0\n"
      "                   = honor the client's jobs value)\n"
      "  --help           this text\n"
      "Stop with SIGTERM/SIGINT (drains in-flight requests) or a client\n"
      "shutdown request: msoc_plan --daemon PATH --shutdown");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace msoc;
  try {
    pland::ServerConfig config;
    const auto value = [&](int& i, const char* flag) -> std::string {
      if (i + 1 >= argc) {
        throw InfeasibleError(std::string(flag) + " needs a value");
      }
      return argv[++i];
    };
    const auto int_value = [&](int& i, const char* flag, int lo) -> int {
      constexpr int hi = std::numeric_limits<int>::max();
      const auto v = parse_int(value(i, flag));
      require(v.has_value() && *v >= lo && *v <= hi,
              std::string(flag) + " needs an integer in [" +
                  std::to_string(lo) + ", " + std::to_string(hi) + "]");
      return static_cast<int>(*v);
    };
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        print_usage();
        return 0;
      } else if (arg == "--socket") {
        config.socket_path = value(i, "--socket");
      } else if (arg == "--threads") {
        config.threads = int_value(i, "--threads", 0);
      } else if (arg == "--max-clients") {
        config.max_clients = int_value(i, "--max-clients", 1);
      } else if (arg == "--cache-dir") {
        config.cache_dir = value(i, "--cache-dir");
      } else if (arg == "--jobs-cap") {
        config.limits.jobs_cap = int_value(i, "--jobs-cap", 0);
      } else {
        throw InfeasibleError("unknown argument: " + arg);
      }
    }
    require(!config.socket_path.empty(), "--socket is required");

    pland::PlanServer server(config);
    g_server = &server;
    struct sigaction action {};
    action.sa_handler = handle_stop_signal;
    ::sigaction(SIGTERM, &action, nullptr);
    ::sigaction(SIGINT, &action, nullptr);

    std::printf("msoc_pland: serving on %s (threads=%d, max-clients=%d%s%s)\n",
                server.socket_path().c_str(), server.thread_count(),
                config.max_clients,
                config.cache_dir.empty() ? "" : ", cache ",
                config.cache_dir.c_str());
    std::fflush(stdout);
    server.run();

    const pland::ServerStats transport = server.stats();
    const plan::ServiceStats service = server.service().stats();
    std::printf(
        "msoc_pland: drained; %lld connections (%lld busy-rejected, %lld "
        "frame errors), %lld requests (%lld evaluations, %lld memo hits, "
        "%lld coalesced, %lld errors)\n",
        transport.accepted, transport.busy_rejected, transport.frame_errors,
        service.requests, service.evaluations, service.memo_hits,
        service.coalesced, service.errors);
    g_server = nullptr;
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
