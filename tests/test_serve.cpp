// The wave-serve daemon: protocol parsing (defensive JSON, typed field
// validation), the request/response loop over a real AF_UNIX socket,
// bounded admission with shedding and opt-in degradation, and the
// accounting identity every admitted request resolves into exactly one
// outcome counter.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "fuzz_util.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve_test_util.h"
#include "wave/serve.h"

namespace ws = wave::serve;
using serve_test::ServerFixture;

// ---- defensive JSON ---------------------------------------------------------

TEST(ServeJson, ParsesTheProtocolSubset) {
  ws::JsonValue v;
  std::string error;
  ASSERT_TRUE(parse_json(
      R"({"id":"r1","n":-2.5e3,"t":true,"s":"a\n\u0041","list":[1,2]})", v,
      error))
      << error;
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("id")->text, "r1");
  EXPECT_EQ(v.find("n")->number, -2500.0);
  EXPECT_TRUE(v.find("t")->boolean);
  EXPECT_EQ(v.find("s")->text, "a\nA");
  EXPECT_EQ(v.find("list")->items.size(), 2u);
  EXPECT_EQ(v.find("nope"), nullptr);
}

TEST(ServeJson, RejectsHostileInputWithPositionedErrors) {
  ws::JsonValue v;
  std::string error;
  // A depth bomb far past the bound must fail parsing, not the stack.
  std::string bomb(100, '[');
  EXPECT_FALSE(parse_json(bomb, v, error));
  EXPECT_NE(error.find("too deep"), std::string::npos) << error;

  for (const char* bad : {
           "",                       // nothing
           "{\"a\":1} trailing",     // trailing garbage
           "{\"a\":}",               // missing value
           "{\"a\" 1}",              // missing colon
           "\"unterminated",         // unterminated string
           "\"bad\\q escape\"",      // unknown escape
           "\"\\ud800\"",            // lone surrogate
           "nul",                    // truncated keyword
           "{\"a\":1,}",             // trailing comma
       }) {
    EXPECT_FALSE(parse_json(bad, v, error)) << bad;
    EXPECT_NE(error.find("offset"), std::string::npos) << error;
  }
}

TEST(ServeJson, NumberRenderingRoundTripsBits) {
  for (double d : {12260.344656000001, 1.0 / 3.0, 0.0, -6.25e-3}) {
    std::string out;
    ws::append_json_number(out, d);
    ws::JsonValue v;
    std::string error;
    ASSERT_TRUE(parse_json(out, v, error)) << out;
    EXPECT_EQ(v.number, d) << out;  // exact: %.17g round-trips doubles
  }
}

// ---- request parsing --------------------------------------------------------

TEST(ServeProtocol, ParsesAFullEvalRequest) {
  ws::Request r;
  std::string error;
  ASSERT_TRUE(ws::parse_request(
      R"({"id":"e1","op":"eval","machine":"xt4-dual","workload":"wavefront",)"
      R"("engine":"sim","processors":64,"iterations":2,"deadline_ms":250,)"
      R"("grid_n":8,"grid_m":8,"wg":0.25,"degrade":true,)"
      R"("params":{"alpha":0.5}})",
      r, error))
      << error;
  EXPECT_EQ(r.id, "e1");
  EXPECT_EQ(r.op, ws::Request::Op::Eval);
  EXPECT_EQ(r.machine, "xt4-dual");
  EXPECT_EQ(r.engine, "sim");
  EXPECT_TRUE(r.expensive());
  EXPECT_EQ(r.processors, 64);
  EXPECT_EQ(r.grid_n, 8);
  EXPECT_EQ(r.grid_m, 8);
  EXPECT_EQ(r.wg, 0.25);
  EXPECT_EQ(r.deadline_ms, 250.0);
  EXPECT_TRUE(r.degrade);
  ASSERT_EQ(r.params.size(), 1u);
  EXPECT_EQ(r.params[0].first, "alpha");
}

TEST(ServeProtocol, RejectsBadRequestsNamingTheField) {
  struct Case {
    const char* line;
    const char* needle;  // must appear in the diagnostic
  };
  for (const Case& c : std::vector<Case>{
           {R"({"op":"fly"})", "op"},
           {R"({"id":7,"op":"ping"})", "id"},
           {R"({"op":"eval","processors":"many"})", "processors"},
           {R"({"op":"eval","processors":2.5})", "processors"},
           {R"({"op":"eval","engine":"magic"})", "engine"},
           {R"({"op":"eval","deadline_ms":-5})", "deadline_ms"},
           // 1e308 ms is finite but would overflow the ms->us cast: the
           // parser must bound deadlines, not just sign-check them.
           {R"({"op":"eval","deadline_ms":1e308})", "deadline_ms"},
           {R"({"op":"eval","deadline_ms":86400001})", "deadline_ms"},
           {R"({"op":"eval","degrade":"yes"})", "degrade"},
           {R"({"op":"eval","params":{"a":"b"}})", "param 'a'"},
           {R"([1,2,3])", "object"},
           // Present shape fields are in domain, never silently defaulted.
           {R"({"op":"eval","processors":0})", "processors"},
           {R"({"op":"eval","processors":-5})", "processors"},
           {R"({"op":"eval","iterations":-2})", "iterations"},
           {R"({"op":"eval","grid_n":0,"grid_m":4})", "grid_n"},
           {R"({"op":"eval","grid_n":4,"grid_m":-1})", "grid_m"},
           {R"({"op":"eval","grid_n":16})", "grid_m"},
           {R"({"op":"eval","grid_m":16})", "grid_n"},
           {R"({"op":"eval","wg":0})", "wg"},
           {R"({"op":"eval","wg":-0.5})", "wg"},
       }) {
    ws::Request r;
    std::string error;
    EXPECT_FALSE(ws::parse_request(c.line, r, error)) << c.line;
    EXPECT_NE(error.find(c.needle), std::string::npos)
        << c.line << " -> " << error;
  }
}

namespace {

/// Every number in `v`, depth first.
void collect_numbers(const ws::JsonValue& v, std::vector<double>& out) {
  if (v.is_number()) out.push_back(v.number);
  for (const auto& member : v.members) collect_numbers(member.second, out);
  for (const auto& item : v.items) collect_numbers(item, out);
}

}  // namespace

TEST(ServeJsonFuzz, SeededMutantsParseOrFailWithPosition) {
  // Valid eval, ping and stats lines, mutated by byte flips, truncations
  // and duplicated or deleted lines. Each mutant must parse or fail with a
  // message (positioned, for the JSON layer), and every number it yields
  // must survive the protocol's render and re-parse with the same bits.
  const std::vector<std::string> originals = {
      R"({"id":"e1","op":"eval","machine":"xt4-dual","workload":"wavefront",)"
      R"("engine":"sim","processors":64,"iterations":2,"deadline_ms":250,)"
      R"("grid_n":8,"grid_m":8,"wg":0.25,"degrade":true,)"
      R"("params":{"alpha":0.5,"beta":-6.25e-3}})",
      R"({"id":"p1","op":"ping"})",
      R"({"id":"s1","op":"stats"})",
  };
  wave::common::Rng rng(20083);
  int parsed = 0, rejected = 0, numbers = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string text = fuzz_test::mutate(originals[i % 3], rng);
    ws::JsonValue v;
    std::string error;
    if (ws::parse_json(text, v, error)) {
      ++parsed;
      std::vector<double> values;
      collect_numbers(v, values);
      for (const double d : values) {
        ++numbers;
        std::string rendered;
        ws::append_json_number(rendered, d);
        ws::JsonValue back;
        ASSERT_TRUE(ws::parse_json(rendered, back, error)) << rendered;
        ASSERT_TRUE(back.is_number()) << rendered;
        EXPECT_EQ(std::memcmp(&back.number, &d, sizeof d), 0) << rendered;
      }
    } else {
      ++rejected;
      EXPECT_EQ(error.rfind("offset ", 0), 0u) << text << " -> " << error;
    }
    ws::Request r;
    error.clear();
    if (!ws::parse_request(text, r, error))
      EXPECT_FALSE(error.empty()) << text;
  }
  // The mutator must exercise both outcomes and reach the numbers.
  EXPECT_GT(parsed, 100);
  EXPECT_GT(rejected, 100);
  EXPECT_GT(numbers, 200);
}

// ---- the live server --------------------------------------------------------

TEST(ServeServer, AnswersPingEvalAndCachesRepeats) {
  ServerFixture f;
  EXPECT_TRUE(f.call(R"({"id":"p","op":"ping"})").ok);

  const ws::Response first =
      f.call(R"({"id":"a","op":"eval","processors":256})");
  ASSERT_TRUE(first.ok) << first.raw;
  EXPECT_GT(first.time_us, 0.0);
  const ws::Response second =
      f.call(R"({"id":"b","op":"eval","processors":256})");
  ASSERT_TRUE(second.ok);
  // The repeat is a cache hit and the rendered payload is byte-identical
  // modulo the echoed id.
  std::string a = first.raw, b = second.raw;
  a.replace(a.find("\"a\""), 3, "\"x\"");
  b.replace(b.find("\"b\""), 3, "\"x\"");
  EXPECT_EQ(a, b);
  EXPECT_EQ(f.cache_stat("hits"), 1.0);
}

TEST(ServeServer, MetricsOpReturnsParseablePrometheusText) {
  ServerFixture f;
  ASSERT_TRUE(f.call(R"({"id":"p","op":"ping"})").ok);
  ASSERT_TRUE(f.call(R"({"id":"a","op":"eval","processors":64})").ok);
  ASSERT_TRUE(f.call(R"({"id":"b","op":"eval","processors":64})").ok);

  const ws::Response r = f.call(R"({"id":"mx","op":"metrics"})");
  ASSERT_TRUE(r.ok) << r.raw;

  // The response is one JSON object whose "metrics" member carries the
  // exposition text — re-parse the raw line with the protocol parser so
  // the escaping round-trips exactly.
  ws::JsonValue root;
  std::string error;
  ASSERT_TRUE(parse_json(r.raw, root, error)) << error;
  const ws::JsonValue* metrics = root.find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_TRUE(metrics->is_string());
  const std::string& text = metrics->text;

  // One scrape covers both registries: the daemon's per-op latency and
  // admission instruments, and the EvalService's per-shard cache
  // histograms (disjoint name sets, concatenated exposition).
  for (const char* required :
       {"# TYPE serve_op_eval_latency_us histogram",
        "serve_op_eval_latency_us_count 2", "serve_op_ping_latency_us_count",
        "serve_shed_total 0", "serve_watchdog_fires_total 0",
        "service_shard0_hit_latency_us", "_bucket{le=\"+Inf\"}"}) {
    EXPECT_NE(text.find(required), std::string::npos)
        << "missing: " << required;
  }
  // Every non-comment line is `name[{labels}] value` — the metric name
  // stops at a space or a label brace, and no stray JSON escapes survive
  // the round-trip.
  std::istringstream lines(text);
  std::string line;
  int samples = 0;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    ASSERT_NE(line.rfind(' '), std::string::npos) << line;
    const auto name_end = line.find_first_not_of(
        "abcdefghijklmnopqrstuvwxyz0123456789_");
    ASSERT_NE(name_end, std::string::npos) << line;
    EXPECT_TRUE(line[name_end] == ' ' || line[name_end] == '{') << line;
    EXPECT_EQ(line.find('\\'), std::string::npos) << line;
    ++samples;
  }
  EXPECT_GT(samples, 10);
}

TEST(ServeServer, StatsCarriesUptimeAndPerOpLatencySummaries) {
  ServerFixture f;
  ASSERT_TRUE(f.call(R"({"id":"a","op":"eval","processors":64})").ok);

  const ws::Response r = f.call(R"({"id":"st","op":"stats"})");
  ASSERT_TRUE(r.ok) << r.raw;
  ws::JsonValue root;
  std::string error;
  ASSERT_TRUE(parse_json(r.raw, root, error)) << error;

  const ws::JsonValue* serve = root.find("serve");
  ASSERT_NE(serve, nullptr);
  const ws::JsonValue* uptime = serve->find("uptime_ms");
  ASSERT_NE(uptime, nullptr);
  EXPECT_GE(uptime->number, 0.0);

  const ws::JsonValue* latency = root.find("latency");
  ASSERT_NE(latency, nullptr);
  const ws::JsonValue* eval = latency->find("eval");
  ASSERT_NE(eval, nullptr) << r.raw;
  EXPECT_DOUBLE_EQ(eval->find("count")->number, 1.0);
  EXPECT_GT(eval->find("p99_us")->number, 0.0);
}

TEST(ServeServer, MalformedOversizedAndUnknownRequestsGetStructuredErrors) {
  wave::ServeOptions options;
  options.max_request_bytes = 256;
  ServerFixture f(options);

  ws::Response r = f.call("not json at all");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error_code, "invalid_request");

  r = f.call(R"({"id":"u","op":"teleport"})");
  EXPECT_EQ(r.error_code, "invalid_request");

  // An oversized line is rejected once and fully discarded; the next
  // request on the same connection still works.
  r = f.call("{\"id\":\"big\",\"pad\":\"" + std::string(500, 'x') + "\"}");
  EXPECT_EQ(r.error_code, "invalid_request");
  EXPECT_TRUE(f.call(R"({"id":"after","op":"ping"})").ok);

  // Out-of-domain shape fields are a request error, not P = 1.
  r = f.call(
      R"({"id":"d","op":"eval","processors":-5,"iterations":-2,"grid_n":16})");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error_code, "invalid_request");

  r = f.call(R"({"id":"m","op":"eval","machine":"no-such-machine"})");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error_code, "not_found");
  EXPECT_NE(r.error_message.find("no-such-machine"), std::string::npos);
}

TEST(ServeServer, ShedsDesOverloadAndDegradesOptIns) {
  wave::ServeOptions options;
  options.workers = 1;
  options.des_queue_limit = 1;
  ServerFixture f(options);

  // Occupy the worker and the single DES slot with slow simulation runs,
  // then race in more DES requests: without degrade they are shed with a
  // retry hint; with degrade they come back analytic, flagged. The pause
  // between the two occupiers lets the worker dequeue the first, so the
  // second deterministically takes the one DES slot instead of racing the
  // worker's wakeup and getting shed itself.
  ASSERT_TRUE(f.client
                  .send_line("{\"id\":\"slow0\",\"op\":\"eval\","
                             "\"engine\":\"sim\",\"processors\":1024,"
                             "\"iterations\":2}")
                  .is_ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(f.client
                  .send_line("{\"id\":\"slow1\",\"op\":\"eval\","
                             "\"engine\":\"sim\",\"processors\":1024,"
                             "\"iterations\":2}")
                  .is_ok());
  int shed = 0, degraded = 0, completed = 0;
  for (int i = 0; i < 8; ++i) {
    const bool opt_in = (i % 2) == 1;
    ASSERT_TRUE(f.client
                    .send_line("{\"id\":\"r" + std::to_string(i) +
                               "\",\"op\":\"eval\",\"engine\":\"sim\","
                               "\"processors\":64" +
                               (opt_in ? ",\"degrade\":true" : "") + "}")
                    .is_ok());
  }
  for (int i = 0; i < 10; ++i) {
    auto reply = f.client.read_line();
    ASSERT_TRUE(reply.ok()) << reply.status().to_string();
    auto response = ws::Client::parse_response(reply.value());
    ASSERT_TRUE(response.ok());
    if (response.value().degraded) {
      ++degraded;
    } else if (response.value().ok) {
      ++completed;
    } else {
      EXPECT_EQ(response.value().error_code, "shed") << response.value().raw;
      EXPECT_GT(response.value().retry_after_ms, 0u) << response.value().raw;
      ++shed;
    }
  }
  EXPECT_GT(shed, 0);
  EXPECT_GT(degraded, 0);
  EXPECT_GE(completed, 2);  // at least the two occupiers finish

  const wave::ServeStats stats = f.server->stats();
  EXPECT_EQ(stats.shed, static_cast<std::uint64_t>(shed));
  EXPECT_EQ(stats.degraded, static_cast<std::uint64_t>(degraded));
}

TEST(ServeServer, NonReadingFloodClientCannotStallTheService) {
  // One worker, wedged for 60 s on the first dequeue (interruptible at
  // shutdown), and a one-slot DES queue: every further DES request is
  // shed. The flood client sends thousands of them and never reads a
  // reply, so the shed responses overflow its socket buffer. The
  // regression this guards: responses used to be sent with blocking
  // send() while holding queue_mutex, so this exact client wedged every
  // admission and dequeue in the daemon.
  wave::ServeOptions options;
  options.workers = 1;
  options.des_queue_limit = 1;
  wave::serve::FaultPlan::Spec spec;
  spec.stall_worker_permille = 1000;
  spec.stall_ms = 60000;
  ServerFixture f(options, spec);

  ws::Client flood;
  ASSERT_TRUE(flood.connect(f.options.socket_path).is_ok());
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(flood
                    .send_line("{\"id\":\"f" + std::to_string(i) +
                               "\",\"op\":\"eval\",\"engine\":\"sim\","
                               "\"processors\":64}")
                    .is_ok());
  }

  // A well-behaved client must still get through: pings (reader path),
  // and an admitted eval whose deadline the watchdog answers — together
  // they prove neither queue_mutex nor watch_mutex is wedged.
  ws::Client good;
  ASSERT_TRUE(good.connect(f.options.socket_path).is_ok());
  const auto pong = good.call(R"({"id":"g","op":"ping"})");
  ASSERT_TRUE(pong.ok()) << pong.status().to_string();
  EXPECT_TRUE(pong.value().ok);
  const auto expired = good.call(
      R"({"id":"ge","op":"eval","processors":128,"deadline_ms":300})");
  ASSERT_TRUE(expired.ok()) << expired.status().to_string();
  EXPECT_EQ(expired.value().error_code, "deadline_exceeded")
      << expired.value().raw;
  EXPECT_GT(f.server->stats().shed, 4000u);
}

TEST(ServeServer, AccountingIdentityHoldsAtIdle) {
  ServerFixture f;
  // A mixed bag of outcomes: ok, cache hit, invalid, eval error.
  f.call(R"({"id":"1","op":"ping"})");
  f.call(R"({"id":"2","op":"eval","processors":64})");
  f.call(R"({"id":"3","op":"eval","processors":64})");
  f.call("garbage");
  f.call(R"({"id":"4","op":"eval","machine":"missing"})");
  f.call(R"({"id":"5","op":"stats"})");

  const wave::ServeStats s = f.server->stats();
  EXPECT_EQ(s.requests, 6u);
  EXPECT_EQ(s.requests, s.ok + s.degraded + s.shed + s.deadline_exceeded +
                            s.invalid + s.eval_errors +
                            s.snapshot_write_failures);
  EXPECT_EQ(s.invalid, 1u);
  EXPECT_EQ(s.eval_errors, 1u);
}

TEST(ServeServer, StopIsIdempotentAndDropsTheSocket) {
  ServerFixture f;
  EXPECT_TRUE(f.accepts_connections());
  f.server->stop();
  f.server->stop();  // second stop is a no-op
  // The socket file is gone; a fresh client cannot connect.
  EXPECT_FALSE(f.accepts_connections());
}

TEST(ServeServer, ShutdownOpReleasesWait) {
  ServerFixture f;
  ASSERT_TRUE(f.call(R"({"id":"q","op":"shutdown"})").ok);
  f.server->wait();  // must return promptly instead of blocking forever
  f.server->stop();
  EXPECT_FALSE(f.accepts_connections());
}
