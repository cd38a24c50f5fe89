// PlanService tests: envelope validation, the PlanRequest round trip
// the CLI and the daemon share, byte-identity of served documents
// against the engines they wrap, the response memo, and the
// single-flight coalescing contract (N identical concurrent requests,
// ONE evaluation).  Everything runs in-process — the socket transport
// has its own suites (test_net, test_pland).

#include "msoc/plan/service.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "msoc/common/error.hpp"
#include "msoc/common/json.hpp"
#include "msoc/plan/frontier.hpp"
#include "msoc/plan/request.hpp"
#include "msoc/soc/benchmarks.hpp"
#include "msoc/soc/digest.hpp"

namespace {

using msoc::JsonValue;
using msoc::parse_json;
using msoc::plan::PlanOp;
using msoc::plan::PlanRequest;
using msoc::plan::PlanService;
using msoc::plan::ServiceLimits;
using msoc::plan::ServiceStats;

/// Zeroes the wall-clock fields — the only nondeterministic bytes in
/// any planning document (mirrors the golden corpus normalization).
std::string normalize(const std::string& document) {
  static const std::regex wall("\"(total_)?wall_ms\": -?[0-9.eE+-]+");
  return std::regex_replace(document, wall, "\"$1wall_ms\": 0");
}

/// A reply envelope with its document's wall-clock values zeroed: the
/// bytes any service must produce for the request.
std::string stable(const std::string& reply) {
  static const std::regex wall(R"(\\"(total_)?wall_ms\\": -?[0-9.eE+-]+)");
  return std::regex_replace(reply, wall, R"(\"$1wall_ms\": 0)");
}

JsonValue reply_of(PlanService& service, const std::string& request) {
  return parse_json(service.handle(request), "service reply");
}

TEST(PlanService, PingAndShutdownEnvelopes) {
  PlanService service;
  const JsonValue ping =
      reply_of(service, R"({"schema":"msoc-rpc-v1","op":"ping"})");
  EXPECT_TRUE(ping.at("ok").as_bool());
  EXPECT_EQ(ping.at("op").as_string(), "ping");
  EXPECT_FALSE(service.shutdown_requested());

  const JsonValue shutdown =
      reply_of(service, R"({"schema":"msoc-rpc-v1","op":"shutdown"})");
  EXPECT_TRUE(shutdown.at("ok").as_bool());
  EXPECT_TRUE(service.shutdown_requested());
}

TEST(PlanService, MalformedRequestsBecomeErrorEnvelopes) {
  PlanService service;
  const std::vector<std::string> bad = {
      "not json at all",
      "{\"schema\":\"msoc-rpc-v1\"}",                    // no op
      R"({"schema":"msoc-rpc-v2","op":"ping"})",         // wrong schema
      R"({"schema":"msoc-rpc-v1","op":"launch"})",       // unknown op
      R"({"schema":"msoc-rpc-v1","op":"plan","bench":"p99999"})",
      R"({"schema":"msoc-rpc-v1","op":"plan","width":0})",
      R"({"schema":"msoc-rpc-v1","op":"plan","wt":1.5})",
      R"({"schema":"msoc-rpc-v1","op":"plan","max_powers":[100,200]})",
      R"({"schema":"msoc-rpc-v1","op":"plan","bench":"d695m","soc_text":"x"})",
      R"({"schema":"msoc-rpc-v1","op":"plan","replan_from":"ab"})",
  };
  for (const std::string& request : bad) {
    const JsonValue reply = reply_of(service, request);
    EXPECT_FALSE(reply.at("ok").as_bool()) << request;
    EXPECT_FALSE(reply.at("error").as_string().empty()) << request;
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.errors, static_cast<long long>(bad.size()));
  EXPECT_EQ(stats.evaluations, 0);  // none of these reached an engine
}

TEST(PlanService, FrontierDocumentMatchesTheEngine) {
  PlanService service;
  const JsonValue reply = reply_of(
      service,
      R"({"schema":"msoc-rpc-v1","op":"frontier","bench":"d695m",)"
      R"("widths":[16,32]})");
  ASSERT_TRUE(reply.at("ok").as_bool());

  const msoc::soc::Soc soc = msoc::soc::make_d695m();
  msoc::plan::FrontierOptions options;
  options.widths = {16, 32};
  msoc::plan::FrontierEngine engine(soc, options);
  const msoc::plan::FrontierResult expected = engine.run();

  EXPECT_EQ(normalize(reply.at("document").as_string()),
            normalize(expected.to_json()));
  // The CSV carries a raw wall_ms column; compare its stable header.
  const std::string csv = reply.at("csv").as_string();
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            expected.to_csv().substr(0, expected.to_csv().find('\n')));
}

TEST(PlanService, StatsCountUnwritableCacheShards) {
  // d695m's shard path taken by a regular file: the request still
  // succeeds, and the stats cache block gains flush_errors, which a
  // clean cache leaves out.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("msoc_service_unwritable_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string shard =
      msoc::soc::digest_hex(msoc::soc::make_d695m()).substr(0, 2);
  std::ofstream(dir / shard).put('x');
  const std::string request =
      R"({"schema":"msoc-rpc-v1","op":"frontier","bench":"d695m",)"
      R"("widths":[16]})";
  const std::string kStats = R"({"schema":"msoc-rpc-v1","op":"stats"})";

  PlanService service(dir.string());
  EXPECT_TRUE(reply_of(service, request).at("ok").as_bool());
  EXPECT_NE(service.handle(kStats).find(R"(,"flush_errors":1})"),
            std::string::npos)
      << service.handle(kStats);

  PlanService clean((dir / "clean").string());
  EXPECT_TRUE(reply_of(clean, request).at("ok").as_bool());
  EXPECT_EQ(clean.handle(kStats).find("flush_errors"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(PlanService, RepeatedRequestHitsTheMemoBitIdentically) {
  PlanService service;
  const std::string request =
      R"({"schema":"msoc-rpc-v1","op":"plan","bench":"d695m","width":16})";
  const std::string first = service.handle(request);
  const std::string second = service.handle(request);
  // Byte-identical INCLUDING wall_ms: the memo pins the first reply.
  EXPECT_EQ(first, second);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 2);
  EXPECT_EQ(stats.evaluations, 1);
  EXPECT_EQ(stats.memo_hits, 1);
  EXPECT_EQ(stats.plan_requests, 2);
}

TEST(PlanService, MemoHitsServeTheBytesOfAFreshService) {
  const std::string request =
      R"({"schema":"msoc-rpc-v1","op":"plan","bench":"d695m","width":16})";
  // The same fields in another order and spacing: one canonical key.
  const std::string reformatted =
      R"( { "width" : 16, "bench" : "d695m", "op" : "plan",)"
      R"( "schema" : "msoc-rpc-v1" } )";
  const std::string other =
      R"({"schema":"msoc-rpc-v1","op":"plan","bench":"d695m","width":32})";
  const auto fresh = [](const std::string& r) {
    PlanService service;
    return service.handle(r);
  };
  const std::string expected = stable(fresh(request));
  const std::string expected_other = stable(fresh(other));
  ASSERT_NE(expected.find("\"ok\":true"), std::string::npos) << expected;
  ASSERT_NE(expected.find(R"(\"wall_ms\": 0,)"), std::string::npos)
      << expected;

  ServiceLimits limits;
  limits.memo_capacity = 1;
  PlanService service("", limits);
  const std::string first = service.handle(request);
  EXPECT_EQ(stable(first), expected);
  EXPECT_EQ(service.handle(request), first);      // exact bytes
  EXPECT_EQ(service.handle(reformatted), first);  // canonical key, new alias
  EXPECT_EQ(service.handle(reformatted), first);  // exact bytes of the alias
  EXPECT_EQ(service.handle(request), first);      // canonical key again
  EXPECT_EQ(stable(service.handle(other)), expected_other);  // evicts
  // The evicted entry's alias left the index with it: re-evaluated.
  const std::string again = service.handle(request);
  EXPECT_EQ(stable(again), expected);
  EXPECT_EQ(service.handle(reformatted), again);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 8);
  EXPECT_EQ(stats.evaluations, 3);
  EXPECT_EQ(stats.memo_hits, 5);
  EXPECT_EQ(stats.plan_requests, 8);
  EXPECT_EQ(stats.coalesced, 0);
  EXPECT_EQ(stats.errors, 0);
}

TEST(PlanService, ExactBytesHitsCountLikeCanonicalHits) {
  const std::string frontier =
      R"({"schema":"msoc-rpc-v1","op":"frontier","bench":"d695m",)"
      R"("widths":[16]})";
  const std::string sweep =
      R"({"schema":"msoc-rpc-v1","op":"sweep","bench":"d695m",)"
      R"("widths":[16],"wt":0.5})";
  const std::string sweep_reformatted =
      R"({"wt":0.5,"widths":[ 16 ],"bench":"d695m","op":"sweep",)"
      R"("schema":"msoc-rpc-v1"})";
  const std::string ping = R"({"schema":"msoc-rpc-v1","op":"ping"})";
  const std::vector<std::string> sequence = {
      frontier, frontier,          sweep, ping,  frontier,
      sweep,    sweep_reformatted, ping,  sweep, "not json"};

  PlanService service;
  for (const std::string& request : sequence) (void)service.handle(request);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 10);
  EXPECT_EQ(stats.evaluations, 2);
  EXPECT_EQ(stats.memo_hits, 5);
  EXPECT_EQ(stats.frontier_requests, 3);
  EXPECT_EQ(stats.sweep_requests, 4);
  EXPECT_EQ(stats.plan_requests, 0);
  EXPECT_EQ(stats.errors, 1);
  EXPECT_EQ(stats.coalesced, 0);

  // Without a memo every repeat plans again.
  ServiceLimits limits;
  limits.memo_capacity = 0;
  PlanService memoless("", limits);
  for (const std::string& request : sequence) (void)memoless.handle(request);
  stats = memoless.stats();
  EXPECT_EQ(stats.requests, 10);
  EXPECT_EQ(stats.evaluations, 7);
  EXPECT_EQ(stats.memo_hits, 0);
  EXPECT_EQ(stats.frontier_requests, 3);
  EXPECT_EQ(stats.sweep_requests, 4);
}

TEST(PlanService, ExactBytesHitsRaceEvictions) {
  // Three keys through a two-entry memo from four threads: exact-bytes
  // hits, alias replacements and evictions interleave.  Run it under
  // ThreadSanitizer (the CI job selects this suite).
  const std::vector<std::string> requests = {
      R"({"schema":"msoc-rpc-v1","op":"plan","bench":"d695m","width":16})",
      R"({"schema":"msoc-rpc-v1","op":"plan","bench":"d695m","width":24})",
      R"({"schema":"msoc-rpc-v1","op":"plan","bench":"d695m","width":32})",
      R"({"width":16,"op":"plan","bench":"d695m","schema":"msoc-rpc-v1"})",
  };
  std::vector<std::string> expected;
  for (const std::string& request : requests) {
    PlanService fresh;
    expected.push_back(stable(fresh.handle(request)));
  }
  ServiceLimits limits;
  limits.memo_capacity = 2;
  PlanService service("", limits);
  constexpr int kThreads = 4;
  constexpr int kRounds = 24;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i) {
        const std::size_t k =
            static_cast<std::size_t>(t + i) % requests.size();
        if (stable(service.handle(requests[k])) != expected[k]) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, kThreads * kRounds);
  EXPECT_EQ(stats.plan_requests, kThreads * kRounds);
  EXPECT_EQ(stats.evaluations + stats.memo_hits + stats.coalesced,
            kThreads * kRounds);
  EXPECT_EQ(stats.errors, 0);
}

TEST(PlanService, ConcurrentIdenticalRequestsCoalesceToOneEvaluation) {
  PlanService service;
  const std::string request =
      R"({"schema":"msoc-rpc-v1","op":"frontier","bench":"d695m"})";
  constexpr int kClients = 8;
  std::vector<std::string> replies(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back(
        [&service, &request, &replies, i] {
          replies[static_cast<std::size_t>(i)] = service.handle(request);
        });
  }
  for (std::thread& t : clients) t.join();

  for (int i = 1; i < kClients; ++i) {
    EXPECT_EQ(replies[static_cast<std::size_t>(i)], replies[0]);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, kClients);
  EXPECT_EQ(stats.evaluations, 1);  // the coalescing contract
  EXPECT_EQ(stats.memo_hits + stats.coalesced, kClients - 1);
  EXPECT_EQ(stats.errors, 0);
}

TEST(PlanService, SocTextPlansAndMemoizesByContent) {
  PlanService service;
  // Two envelopes, same .soc content: the second must memo-hit.
  const std::string soc_text =
      "SocName tiny\n"
      "Module 1 core1\n"
      "  Inputs 8\n"
      "  Outputs 8\n"
      "  ScanChains 2\n"
      "  Patterns 10\n"
      "AnalogModule A \"amp\"\n"
      "  Test G FLow 1e6 FHigh 1e6 FSample 8e6 Cycles 2000 Width 2 "
      "Resolution 8\n"
      "AnalogModule B \"buffer\"\n"
      "  Test SR FLow 2e6 FHigh 2e6 FSample 8e6 Cycles 3000 Width 2 "
      "Resolution 8\n";
  const std::string request =
      R"({"schema":"msoc-rpc-v1","op":"plan","width":16,"soc_text":")" +
      msoc::json_escape(soc_text) + "\"}";
  const JsonValue first = reply_of(service, request);
  ASSERT_TRUE(first.at("ok").as_bool())
      << first.at("error").as_string();
  EXPECT_NE(first.at("document").as_string().find("\"soc\": \"tiny\""),
            std::string::npos);
  (void)service.handle(request);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.evaluations, 1);
  EXPECT_EQ(stats.memo_hits, 1);
}

TEST(PlanService, EvaluationErrorsAreNotMemoized) {
  PlanService service;
  const std::string request =
      R"({"schema":"msoc-rpc-v1","op":"plan","soc_text":"garbage content"})";
  const JsonValue first = reply_of(service, request);
  EXPECT_FALSE(first.at("ok").as_bool());
  const JsonValue second = reply_of(service, request);
  EXPECT_FALSE(second.at("ok").as_bool());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.evaluations, 2);  // an error never serves from memo
  EXPECT_EQ(stats.errors, 2);
  EXPECT_EQ(stats.memo_hits, 0);
}

TEST(PlanService, JobsCapBoundsTheReportedFanout) {
  ServiceLimits limits;
  limits.jobs_cap = 2;
  PlanService service("", limits);
  const JsonValue reply = reply_of(
      service,
      R"({"schema":"msoc-rpc-v1","op":"plan","bench":"d695m","jobs":64})");
  ASSERT_TRUE(reply.at("ok").as_bool());
  const JsonValue document =
      parse_json(reply.at("document").as_string(), "plan document");
  EXPECT_EQ(document.at("jobs").as_number(), 2.0);
}

TEST(PlanService, StatsReplyReportsTheSharedCache) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "msoc_service_cache_test";
  std::filesystem::remove_all(dir);
  {
    PlanService service(dir.string());
    ASSERT_NE(service.cache(), nullptr);
    (void)service.handle(
        R"({"schema":"msoc-rpc-v1","op":"frontier","bench":"d695m",)"
        R"("widths":[16]})");
    const JsonValue stats = reply_of(
        service, R"({"schema":"msoc-rpc-v1","op":"stats"})");
    ASSERT_TRUE(stats.at("ok").as_bool());
    EXPECT_EQ(stats.at("evaluations").as_number(), 1.0);
    const JsonValue& cache = stats.at("cache");
    EXPECT_EQ(cache.at("directory").as_string(), dir.string());
    EXPECT_EQ(cache.at("corrupt_files").as_number(), 0.0);
    EXPECT_GT(cache.at("records").as_number(), 0.0);
  }
  // A second service over the same directory sees the flushed store:
  // the same request becomes pure cache hits (zero optimizer runs show
  // up as evaluations in the DOCUMENT; the service evaluates once).
  {
    PlanService service(dir.string());
    const JsonValue reply = reply_of(
        service,
        R"({"schema":"msoc-rpc-v1","op":"frontier","bench":"d695m",)"
        R"("widths":[16]})");
    ASSERT_TRUE(reply.at("ok").as_bool());
    const JsonValue document =
        parse_json(reply.at("document").as_string(), "frontier document");
    EXPECT_EQ(document.at("evaluations").as_number(), 0.0);
    EXPECT_GT(document.at("cache_hits").as_number(), 0.0);
  }
  std::filesystem::remove_all(dir);
}

TEST(PlanService, CachelessSweepMatchesDefaultBenchmarkDocument) {
  PlanService service;
  const JsonValue reply = reply_of(
      service,
      R"({"schema":"msoc-rpc-v1","op":"sweep","bench":"d695m",)"
      R"("widths":[16,32],"wt":0.5})");
  ASSERT_TRUE(reply.at("ok").as_bool());
  const JsonValue document =
      parse_json(reply.at("document").as_string(), "sweep document");
  // Cacheless service must keep emitting the cacheless v1 schema —
  // that is the byte-identity contract with standalone msoc_plan.
  EXPECT_EQ(document.at("schema").as_string(), "msoc-sweep-v1");
  EXPECT_EQ(document.at("cases").as_array().size(), 2u);
}

/// A random VALID request: every field independently absent or present,
/// values drawn across each field's whole range (awkward doubles,
/// integers at the range ends, strings over every byte value).
PlanRequest random_request(std::mt19937_64& rng) {
  const auto coin = [&] { return (rng() & 1u) == 0; };
  const auto pick = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  const auto real = [&](double hi) {
    static const double kAwkward[] = {0.0, 0.1, 1.0 / 3.0, 1e-300, 0.5, 1.0};
    if (coin()) return kAwkward[pick(0, 5)] * hi;
    return std::uniform_real_distribution<double>(0.0, hi)(rng);
  };
  const auto text = [&] {
    std::string out(static_cast<std::size_t>(pick(0, 40)), ' ');
    for (char& c : out) c = static_cast<char>(pick(0, 255));
    return out;
  };
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();

  PlanRequest r;
  r.op = static_cast<PlanOp>(pick(0, 5));
  if (coin()) {
    static const char* kBenches[] = {"p93791m", "d695m", "p93791", "d695"};
    r.bench = kBenches[pick(0, 3)];
  } else if (coin()) {
    r.soc_text = text();
  }
  if (coin()) {
    r.width = coin() ? kIntMax : pick(1, 128);
  } else if (r.op != PlanOp::kPlan && coin()) {
    r.widths.emplace();
    for (std::int64_t i = pick(1, 5); i > 0; --i) {
      r.widths->push_back(coin() ? kIntMax : pick(1, 128));
    }
  }
  if (coin()) {
    r.max_powers.emplace();
    const std::int64_t rungs = r.op == PlanOp::kPlan ? 1 : pick(1, 4);
    for (std::int64_t i = 0; i < rungs; ++i) {
      r.max_powers->push_back(real(1e6));
    }
  }
  if (coin()) {
    if (coin()) {
      r.window_limit = 0.0;
    } else {
      r.window_limit = 1e-3 + real(1e4);
      r.window_cycles = coin() ? std::int64_t{1} << 53 : pick(1, 1 << 20);
    }
  }
  if (coin()) r.w_time = real(1.0);
  if (coin()) r.exhaustive = coin();
  if (coin()) r.epsilon = real(10.0);
  if (coin()) r.jobs = coin() ? kIntMax : pick(0, 64);
  if (r.op == PlanOp::kSweep || r.op == PlanOp::kFrontier) {
    if (coin()) r.replan_from = text();
  }
  return r;
}

TEST(PlanRequest, JsonRoundTripIsTheIdentity) {
  std::mt19937_64 rng(20050307);
  for (int i = 0; i < 2000; ++i) {
    const PlanRequest request = random_request(rng);
    ASSERT_NO_THROW(request.validate()) << request.to_json();
    const std::string json = request.to_json();
    const PlanRequest decoded = PlanRequest::from_json(json);
    ASSERT_EQ(decoded, request) << json;
    EXPECT_EQ(decoded.to_json(), json);
  }
}

TEST(PlanRequest, MemoKeySeparatesRequests) {
  PlanRequest a;
  a.op = PlanOp::kFrontier;
  a.soc_text = "SocName one\n";
  PlanRequest b = a;
  b.soc_text = "SocName two\n";
  // Requests that differ only in soc_text have different keys: the key
  // carries the text itself, so no two texts can collide.
  EXPECT_NE(a.to_json(), b.to_json());
  EXPECT_NE(a.to_json().find("SocName one"), std::string::npos);
  b = a;
  b.epsilon = 0.0;  // an explicit default is a different request
  EXPECT_NE(a.to_json(), b.to_json());
}

TEST(PlanService, RejectsExactlyWhatValidateRejects) {
  // The daemon decodes the envelope and runs the same validate(): its
  // error text is validate()'s, word for word.
  std::vector<PlanRequest> bad(5);
  bad[0].width = 4294967328;  // would wrap to 32 as an int
  bad[1].op = PlanOp::kSweep;
  bad[1].widths = std::vector<std::int64_t>{16, 4294967328};
  bad[2].jobs = 4294967297;
  bad[3].window_limit = 400.0;
  bad[3].window_cycles = (std::int64_t{1} << 53) + 2;
  bad[4].widths = std::vector<std::int64_t>{16};  // a plan solves one width
  PlanService service;
  for (const PlanRequest& request : bad) {
    std::string expected;
    try {
      request.validate();
    } catch (const msoc::Error& e) {
      expected = e.what();
    }
    ASSERT_FALSE(expected.empty()) << request.to_json();
    const JsonValue reply = reply_of(service, request.to_json());
    EXPECT_FALSE(reply.at("ok").as_bool());
    EXPECT_EQ(reply.at("error").as_string(), expected);
  }
  EXPECT_EQ(service.stats().evaluations, 0);
}

TEST(PlanService, WindowLengthsPastIntMaxPlan) {
  // Cycles are 64-bit: a window longer than INT_MAX cycles is a valid
  // request on the daemon exactly as on the command line.
  PlanService service;
  const JsonValue reply = reply_of(
      service,
      R"({"schema":"msoc-rpc-v1","op":"plan","bench":"d695m","width":16,)"
      R"("window_limit":400,"window_cycles":3000000000})");
  ASSERT_TRUE(reply.at("ok").as_bool()) << reply.at("error").as_string();
  EXPECT_NE(reply.at("document").as_string().find(
                "\"window_cycles\": 3000000000"),
            std::string::npos);
}

}  // namespace
