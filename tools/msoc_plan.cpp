// msoc_plan — command-line mixed-signal SOC test planner.
//
// Usage:
//   msoc_plan [options]
//     --soc FILE       ITC'02-style .soc description (default: built-in
//                      p93791m benchmark)
//     --bench NAME     built-in benchmark SOC instead of --soc
//                      (p93791m, d695m, p93791, d695)
//     --width N        TAM width (default 32; narrows --sweep/--frontier
//                      to one width)
//     --widths LIST    comma-separated TAM widths for --sweep/--frontier
//                      (default 16,24,32,48,64)
//     --max-power LIST comma-separated power budgets (0 = unconstrained;
//                      default: the SOC's MaxPower declaration).  A
//                      single plan takes one value; --sweep/--frontier
//                      accept a ladder and solve every (width, power)
//                      cell
//     --power-window CYCLES:LIMIT
//                      sliding-window power budget: every window of
//                      CYCLES cycles must average at most LIMIT power
//                      units (0 = unwindowed, overriding the SOC's
//                      PowerWindow declaration; default: inherit it)
//     --wt X           test-time weight w_T in [0,1] (default 0.5;
//                      w_A = 1 - w_T)
//     --exhaustive     evaluate every combination (default: Cost_Optimizer)
//     --epsilon X      heuristic elimination slack (default 0)
//     --jobs N         evaluation threads (default 1; 0 = all cores)
//     --sweep          run the benchmark sweep (SOCs x widths x weights)
//                      instead of a single plan
//     --frontier       enumerate the (width, time, cost) Pareto frontier
//                      through plan::FrontierEngine
//     --cache-dir DIR  persistent msoc-cache-v4 result cache for
//                      --sweep/--frontier
//     --cache-compact  fold the cache's shard journals into snapshot
//                      files; needs --cache-dir, runs standalone
//     --replan-from DIGEST
//                      incremental re-plan: diff the SOC against the
//                      cache store flushed for this digest (a previous
//                      revision) and re-pack only partitions whose
//                      per-core digests changed; needs --cache-dir and
//                      --sweep/--frontier
//     --json FILE      write results as JSON (msoc-sweep-v1..v4, or
//                      msoc-frontier-v1..v4 with --frontier)
//     --gantt          print the schedule as an ASCII Gantt chart
//     --csv FILE       export the schedule (or, with --sweep/--frontier,
//                      the result table) as CSV
//     --validate       replay the schedule through the cycle-level checker
//     --daemon PATH    route the request through the msoc_pland daemon
//                      listening on this Unix socket (msoc-rpc-v1);
//                      falls back to in-process planning when nothing
//                      is listening or the daemon is saturated.  The
//                      reply's JSON document is byte-identical to the
//                      in-process --json output
//     --ping           with --daemon: probe the daemon and exit
//     --shutdown       with --daemon: ask the daemon to drain and exit
//     --help           this text
//
// The planning flags become one plan::PlanRequest, validated once and
// run by plan::execute — in this process, or sent as its msoc-rpc-v1
// envelope to the daemon, which runs the same executor.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "msoc/common/error.hpp"
#include "msoc/common/fileio.hpp"
#include "msoc/common/json.hpp"
#include "msoc/common/net.hpp"
#include "msoc/common/parallel.hpp"
#include "msoc/common/strings.hpp"
#include "msoc/plan/request.hpp"
#include "msoc/plan/result_cache.hpp"
#include "msoc/soc/itc02.hpp"
#include "msoc/testsim/replay.hpp"

namespace {

using msoc::plan::PlanOp;
using msoc::plan::PlanRequest;

/// The planning request plus the flags that concern only this process:
/// where the SOC file is, where output goes, which daemon to ask.
struct Options {
  PlanRequest request;
  std::optional<std::string> soc_file;
  bool cache_compact = false;
  std::optional<std::string> cache_dir;
  std::optional<std::string> json_file;
  bool gantt = false;
  std::optional<std::string> csv_file;
  bool validate = false;
  std::optional<std::string> daemon;  ///< msoc_pland socket path.
  bool help = false;
};

void print_usage() {
  std::puts(
      "msoc_plan — mixed-signal SOC test planner (DATE'05 reproduction)\n"
      "  --soc FILE       .soc description (default: built-in p93791m)\n"
      "  --bench NAME     built-in benchmark SOC: p93791m, d695m, p93791,\n"
      "                   d695 (instead of --soc)\n"
      "  --width N        TAM width (default 32; narrows --sweep/--frontier\n"
      "                   to one width)\n"
      "  --widths LIST    comma-separated widths for --sweep/--frontier\n"
      "                   (default 16,24,32,48,64)\n"
      "  --max-power LIST comma-separated power budgets (0 = unconstrained;\n"
      "                   default: the SOC's MaxPower).  One value for a\n"
      "                   single plan; a ladder for --sweep/--frontier\n"
      "  --power-window CYCLES:LIMIT  sliding-window power budget: every\n"
      "                   CYCLES-cycle window averages at most LIMIT\n"
      "                   (0 = unwindowed; default: the SOC's PowerWindow)\n"
      "  --wt X           test-time weight w_T in [0,1] (default 0.5;\n"
      "                   w_A = 1 - w_T)\n"
      "  --exhaustive     exhaustive search instead of Cost_Optimizer\n"
      "  --epsilon X      heuristic elimination slack (default 0)\n"
      "  --jobs N         evaluation threads (default 1; 0 = all cores)\n"
      "  --sweep          benchmark sweep (SOCs x widths x weights)\n"
      "  --frontier       (width, time, cost) Pareto frontier in one run\n"
      "  --cache-dir DIR  persistent result cache (msoc-cache-v4) for\n"
      "                   --sweep/--frontier\n"
      "  --cache-compact  fold the cache's shard journals into snapshots\n"
      "                   (needs --cache-dir)\n"
      "  --replan-from DIGEST  incremental re-plan against the cache\n"
      "                   store of a previous SOC revision: only\n"
      "                   partitions with changed per-core digests are\n"
      "                   re-packed (needs --cache-dir)\n"
      "  --json FILE      write results as JSON (msoc-sweep-v1..v4;\n"
      "                   msoc-frontier-v1..v4 with --frontier)\n"
      "  --gantt          print an ASCII Gantt chart\n"
      "  --csv FILE       export schedule CSV (result table with\n"
      "                   --sweep/--frontier)\n"
      "  --validate       replay-check the schedule\n"
      "  --daemon PATH    route through the msoc_pland daemon on this\n"
      "                   Unix socket; in-process fallback when nothing\n"
      "                   is listening or the daemon is saturated\n"
      "  --ping           with --daemon: probe the daemon and exit\n"
      "  --shutdown       with --daemon: ask the daemon to drain and exit\n"
      "  --help           this text");
}

// Tokenizing only: a value that does not parse is rejected here; every
// range rule belongs to PlanRequest::validate().

std::int64_t int_arg(std::string_view text, const char* flag) {
  const auto v = msoc::parse_int(text);
  msoc::require(v.has_value(), std::string(flag) + " needs an integer");
  return *v;
}

double number_arg(std::string_view text, const char* flag) {
  const auto v = msoc::parse_double(text);
  msoc::require(v.has_value(), std::string(flag) + " needs a number");
  return *v;
}

template <typename Parse>
auto list_arg(const std::string& text, const char* flag, Parse parse) {
  std::vector<decltype(parse(std::string_view(), flag))> values;
  for (const std::string_view field : msoc::split_fields(text, ",")) {
    values.push_back(parse(field, flag));
  }
  return values;
}

Options parse_args(int argc, char** argv) {
  Options options;
  PlanRequest& request = options.request;
  const auto value = [&](int& i, const char* flag) -> std::string {
    if (i + 1 >= argc) {
      throw msoc::InfeasibleError(std::string(flag) + " needs a value");
    }
    return argv[++i];
  };
  const auto mode = [&](PlanOp op) {
    msoc::require(request.op == PlanOp::kPlan || request.op == op,
                  "--sweep, --frontier, --ping and --shutdown are mutually "
                  "exclusive");
    request.op = op;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") options.help = true;
    else if (arg == "--soc") options.soc_file = value(i, "--soc");
    else if (arg == "--bench") request.bench = value(i, "--bench");
    else if (arg == "--width") {
      request.width = int_arg(value(i, "--width"), "--width");
    } else if (arg == "--widths") {
      request.widths = list_arg(value(i, "--widths"), "--widths", int_arg);
    } else if (arg == "--max-power") {
      request.max_powers =
          list_arg(value(i, "--max-power"), "--max-power", number_arg);
    } else if (arg == "--power-window") {
      const std::string text = value(i, "--power-window");
      if (text == "0") {
        request.window_limit = 0.0;  // force-unwindowed
      } else {
        const std::size_t colon = text.find(':');
        msoc::require(colon != std::string::npos,
                      "--power-window needs CYCLES:LIMIT (or 0 = "
                      "unwindowed)");
        request.window_cycles =
            int_arg(std::string_view(text).substr(0, colon), "--power-window");
        request.window_limit = number_arg(
            std::string_view(text).substr(colon + 1), "--power-window");
      }
    } else if (arg == "--wt") {
      request.w_time = number_arg(value(i, "--wt"), "--wt");
    } else if (arg == "--exhaustive") request.exhaustive = true;
    else if (arg == "--epsilon") {
      request.epsilon = number_arg(value(i, "--epsilon"), "--epsilon");
    } else if (arg == "--jobs") {
      request.jobs = int_arg(value(i, "--jobs"), "--jobs");
    } else if (arg == "--sweep") mode(PlanOp::kSweep);
    else if (arg == "--frontier") mode(PlanOp::kFrontier);
    else if (arg == "--ping") mode(PlanOp::kPing);
    else if (arg == "--shutdown") mode(PlanOp::kShutdown);
    else if (arg == "--cache-compact") options.cache_compact = true;
    else if (arg == "--cache-dir") options.cache_dir = value(i, "--cache-dir");
    else if (arg == "--replan-from") {
      request.replan_from = value(i, "--replan-from");
    }
    else if (arg == "--json") options.json_file = value(i, "--json");
    else if (arg == "--gantt") options.gantt = true;
    else if (arg == "--csv") options.csv_file = value(i, "--csv");
    else if (arg == "--validate") options.validate = true;
    else if (arg == "--daemon") options.daemon = value(i, "--daemon");
    else {
      throw msoc::InfeasibleError("unknown argument: " + arg);
    }
  }
  const bool multi = request.op == PlanOp::kSweep ||
                     request.op == PlanOp::kFrontier;
  msoc::require(!(options.soc_file && request.bench),
                "--soc and --bench are mutually exclusive");
  msoc::require(!options.cache_compact ||
                    (request.op == PlanOp::kPlan && options.cache_dir),
                "--cache-compact is a standalone maintenance mode: it "
                "needs --cache-dir and no --sweep/--frontier");
  msoc::require(!options.cache_dir || multi || options.cache_compact,
                "--cache-dir needs --sweep, --frontier or --cache-compact");
  msoc::require(!(options.gantt || options.validate) ||
                    request.op == PlanOp::kPlan,
                "--gantt/--validate need a single plan");
  msoc::require(options.daemon.has_value() || request.planning(),
                "--ping/--shutdown need --daemon");
  msoc::require(!options.daemon ||
                    (!options.cache_dir && !options.cache_compact &&
                     !options.gantt && !options.validate),
                "--daemon handles --sweep/--frontier/plan requests only; "
                "drop --cache-dir/--cache-compact/--gantt/--validate "
                "(the daemon's cache is configured server-side)");
  request.validate();
  return options;
}

void write_file(const std::string& path, const std::string& content,
                const char* what) {
  std::ofstream out(path);
  msoc::require(static_cast<bool>(out),
                std::string("cannot open ") + what + " output " + path);
  out << content;
}

/// Runs this invocation against the daemon.  Returns the process exit
/// code, or -1 when the caller should fall back to in-process
/// planning: nothing is listening, or the daemon rejected the
/// connection as saturated ("daemon busy").  The fallback runs the
/// same executor on the same request, so callers lose availability
/// never correctness.
int run_daemon_mode(const Options& options) {
  using namespace msoc;
  const bool planning = options.request.planning();
  std::optional<net::UnixSocket> socket =
      net::UnixSocket::connect_if_listening(*options.daemon);
  if (!socket.has_value()) {
    if (!planning) {
      std::fprintf(stderr, "error: no daemon listening on %s\n",
                   options.daemon->c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "msoc_plan: no daemon listening on %s; planning "
                 "in-process\n",
                 options.daemon->c_str());
    return -1;
  }
  PlanRequest request = options.request;
  // The daemon may run in another directory (or namespace): ship the
  // .soc content itself, not the path.
  if (options.soc_file) request.soc_text = read_file(*options.soc_file);
  socket->send_frame(request.to_json());
  const net::FrameResult frame = socket->recv_frame();
  require(frame.status == net::FrameStatus::kOk,
          std::string("daemon reply unusable (") +
              net::frame_status_name(frame.status) + ")");
  const JsonValue reply = parse_json(frame.payload, "daemon reply");
  require(reply.at("schema").as_string() == "msoc-rpc-v1",
          "daemon reply has an unknown schema");
  if (!reply.at("ok").as_bool()) {
    const std::string& error = reply.at("error").as_string();
    // A saturated daemon is an availability condition, not a planning
    // failure: plan in-process instead of surfacing a hard error
    // (except for --ping/--shutdown, which are about the daemon
    // itself).
    if (planning && error.rfind("daemon busy", 0) == 0) {
      std::fprintf(stderr, "msoc_plan: %s; planning in-process\n",
                   error.c_str());
      return -1;
    }
    // A planning error is the executor's own text: print it as the
    // in-process run would.
    std::fprintf(stderr, "error: %s%s\n", planning ? "" : "daemon: ",
                 error.c_str());
    return 1;
  }
  if (!planning) {
    std::printf("daemon on %s is %s\n", options.daemon->c_str(),
                request.op == PlanOp::kPing ? "alive" : "draining");
    return 0;
  }
  const std::string& document = reply.at("document").as_string();
  if (options.json_file) {
    write_file(*options.json_file, document, "JSON");
    std::printf("results written to %s\n", options.json_file->c_str());
  } else {
    std::fputs(document.c_str(), stdout);
  }
  if (options.csv_file) {
    write_file(*options.csv_file, reply.at("csv").as_string(), "CSV");
    std::printf("result table written to %s\n", options.csv_file->c_str());
  }
  return 0;
}

int run_compact_mode(const Options& options) {
  using namespace msoc;
  plan::ResultCache cache(*options.cache_dir);
  const plan::CompactionStats stats = cache.compact();
  std::printf("cache-compact: %s\n", cache.directory().c_str());
  std::printf("  %d shard journals folded (%lld records), %d snapshots "
              "written\n",
              stats.shards_compacted, stats.records_folded,
              stats.snapshots_written);
  if (cache.corrupt_files() > 0) {
    std::printf("  %d corrupt artifacts ignored\n", cache.corrupt_files());
  }
  if (cache.torn_tails() > 0) {
    std::printf("  %lld torn journal tails recovered\n", cache.torn_tails());
  }
  return 0;
}

const char* algorithm_name(const PlanRequest& request) {
  return request.exhaustive.value_or(false) ? "exhaustive" : "Cost_Optimizer";
}

/// " P=<budget>" for a power-constrained cell, else empty.
std::string power_tag(double max_power, const char* format) {
  if (max_power <= 0.0) return "";
  char tag[32];
  std::snprintf(tag, sizeof tag, format, max_power);
  return tag;
}

std::string corrupt_tag(int corrupt_files) {
  if (corrupt_files <= 0) return "";
  return ", " + std::to_string(corrupt_files) + " corrupt files ignored";
}

int report_frontier(const Options& options,
                    const msoc::plan::FrontierResult& result,
                    const msoc::plan::ResultCache* cache) {
  const PlanRequest& request = options.request;
  // Duplicate rungs collapse: count the widths actually solved.
  std::set<int> widths;
  for (const msoc::plan::FrontierPoint& p : result.points) {
    widths.insert(p.tam_width);
  }
  const long long jobs = request.jobs.value_or(1);
  std::printf("frontier: SOC %s (digest %s), %zu widths, %s, w_T=%.2f, "
              "jobs=%lld\n",
              result.soc_name.c_str(), result.digest.c_str(), widths.size(),
              algorithm_name(request), result.w_time,
              jobs <= 0 ? msoc::hardware_jobs() : jobs);
  int failures = 0;
  for (const msoc::plan::FrontierPoint& p : result.points) {
    const std::string power = power_tag(p.max_power, "  P=%-8.6g");
    if (p.ok()) {
      std::printf("  W=%-3d%s  T=%8llu cycles  C=%8.2f  %-24s N=%-3d "
                  "hits=%-3d pruned=%-3d%s\n",
                  p.tam_width, power.c_str(),
                  static_cast<unsigned long long>(p.best.test_time),
                  p.best.total, p.best.label.c_str(), p.evaluations,
                  p.cache_hits, p.pruned, p.pareto ? "  *" : "");
    } else {
      ++failures;
      std::printf("  W=%-3d%s  infeasible: %s\n", p.tam_width, power.c_str(),
                  p.error.c_str());
    }
  }
  std::printf("TAM-optimizer evaluations: %d (cache hits %d, pruned %d, "
              "%d combinations/width)\n",
              result.evaluations, result.cache_hits, result.pruned,
              result.points.empty() ? 0
                                    : result.points.front().total_combinations);
  if (!result.replanned_from.empty()) {
    std::printf("replan: baseline %s, %d results spliced, %d dirty "
                "partitions\n",
                result.replanned_from.c_str(), result.reused,
                result.dirty_partitions);
  } else if (request.replan_from) {
    std::printf("replan: baseline %s unusable, planned cold\n",
                request.replan_from->c_str());
  }
  std::printf("test-time frontier is %s across widths\n",
              result.time_monotone ? "monotone non-increasing"
                                   : "NOT monotone (packer anomaly)");
  if (cache != nullptr) {
    std::printf("cache: %s (%lld hits, %lld new results%s)\n",
                cache->directory().c_str(), cache->hits(), cache->records(),
                corrupt_tag(cache->corrupt_files()).c_str());
  }
  if (failures == static_cast<int>(result.points.size())) {
    std::fprintf(stderr, "error: every frontier width was infeasible\n");
    return 1;
  }
  return 0;
}

int report_sweep(const msoc::plan::SweepResult& result) {
  int cases = 0;
  int failures = 0;
  result.for_each_case([&](const msoc::plan::FrontierResult& series,
                           const msoc::plan::FrontierPoint& p) {
    ++cases;
    const std::string power = power_tag(p.max_power, " P=%-8.6g");
    if (p.ok()) {
      std::printf("  %-10s W=%-3d%s w_T=%.2f  C=%8.2f  %-24s %6.1f ms\n",
                  series.soc_name.c_str(), p.tam_width, power.c_str(),
                  series.w_time, p.best.total, p.best.label.c_str(),
                  p.wall_ms);
    } else {
      ++failures;
      std::printf("  %-10s W=%-3d%s w_T=%.2f  infeasible: %s\n",
                  series.soc_name.c_str(), p.tam_width, power.c_str(),
                  series.w_time, p.error.c_str());
    }
  });
  std::printf("sweep finished in %.1f ms (%d infeasible of %d cases)\n",
              result.total_wall_ms, failures, cases);
  if (!result.replanned_from.empty()) {
    std::printf("replan: baseline %s, %d results spliced, %d dirty "
                "partitions\n",
                result.replanned_from.c_str(), result.reused,
                result.dirty_partitions);
  }
  if (result.cache_used) {
    std::printf("cache: %lld hits, %lld new results%s\n", result.cache_hits,
                result.cache_records,
                corrupt_tag(result.cache_corrupt_files).c_str());
  }
  if (failures == cases) {
    std::fprintf(stderr, "error: every sweep case was infeasible\n");
    return 1;
  }
  return 0;
}

void report_plan(const Options& options, const msoc::soc::Soc& soc,
                 const msoc::plan::SweepResult& single) {
  const msoc::plan::FrontierResult& series = single.series.front();
  const msoc::plan::FrontierPoint& p = series.points.front();
  const std::string power = power_tag(p.max_power, "; max power %g");
  char window_note[64] = "";
  if (p.window_cycles > 0) {
    std::snprintf(window_note, sizeof window_note, "; window %g/%llu cycles",
                  p.window_limit,
                  static_cast<unsigned long long>(p.window_cycles));
  }
  std::printf("SOC %s: %zu digital, %zu analog cores; TAM width %d%s%s; "
              "w_T=%.2f w_A=%.2f; %s; jobs %d\n",
              soc.name().c_str(), soc.digital_count(), soc.analog_count(),
              p.tam_width, power.c_str(), window_note, series.w_time,
              1.0 - series.w_time, algorithm_name(options.request),
              single.jobs);
  std::printf("\nplan: %s\n", p.best.label.c_str());
  std::printf("  C = %.2f  (C_time = %.2f, C_A = %.2f)\n", p.best.total,
              p.best.c_time, p.best.c_area);
  std::printf("  test time %llu cycles; %d of %d combinations evaluated\n",
              static_cast<unsigned long long>(p.best.test_time),
              p.evaluations, p.total_combinations);
}

int run_in_process(const Options& options) {
  using namespace msoc;
  const PlanRequest& request = options.request;
  std::vector<soc::Soc> socs;
  if (options.soc_file) {
    socs.push_back(soc::load_soc_file(*options.soc_file));
  } else {
    for (const std::string& name : request.bench_names()) {
      socs.push_back(plan::make_builtin_soc(name));
    }
  }
  std::optional<plan::ResultCache> cache;
  if (options.cache_dir) cache.emplace(*options.cache_dir);
  const plan::PlanOutcome outcome =
      plan::execute(request, socs, cache ? &*cache : nullptr);
  if (request.op == PlanOp::kSweep) {
    // The thread count the sweep resolved, as its document reports it.
    std::printf("sweep: %zu SOCs (%s, jobs=%d%s%s)\n", socs.size(),
                algorithm_name(request), outcome.sweep->jobs,
                cache ? ", cache " : "",
                cache ? cache->directory().c_str() : "");
  }

  int status = 0;
  if (request.op == PlanOp::kFrontier) {
    status = report_frontier(options, *outcome.frontier,
                             cache ? &*cache : nullptr);
  } else if (request.op == PlanOp::kSweep) {
    status = report_sweep(*outcome.sweep);
  } else {
    report_plan(options, socs.front(), *outcome.sweep);
  }
  if (options.json_file) {
    write_file(*options.json_file, outcome.document, "JSON");
    std::printf("results written to %s\n", options.json_file->c_str());
  }
  if (options.csv_file) {
    write_file(*options.csv_file, outcome.csv, "CSV");
    std::printf("%s written to %s\n",
                outcome.schedule ? "schedule" : "result table",
                options.csv_file->c_str());
  }
  if (options.gantt) {
    std::putchar('\n');
    std::fputs(tam::render_gantt(*outcome.schedule).c_str(), stdout);
  }
  if (options.validate) {
    const testsim::ReplayReport report =
        testsim::replay(socs.front(), *outcome.schedule);
    std::printf("%s\n", report.summary().c_str());
    if (!report.clean()) return 2;
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace msoc;
  try {
    const Options options = parse_args(argc, argv);
    if (options.help) {
      print_usage();
      return 0;
    }
    if (options.cache_compact) return run_compact_mode(options);
    if (options.daemon) {
      const int exit_code = run_daemon_mode(options);
      if (exit_code >= 0) return exit_code;
      // Nothing listening, or busy: the same request, in-process.
    }
    return run_in_process(options);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
