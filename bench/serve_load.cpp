// Open-loop load generator for the wave-serve daemon.
//
// Starts an in-process serve::Server (the same code path the daemon
// runs), then drives it in three phases:
//
//   1. capacity probe — a short closed-loop burst of distinct-then-
//      repeated analytic queries measures the sustainable hit-path rate
//      on THIS machine;
//   2. open-loop measurement — an independent sender thread issues
//      analytic queries at 50% of the probed capacity on a fixed
//      schedule (never waiting for responses, so queueing delay is
//      measured, not hidden — the open-loop property), while a receiver
//      thread records per-request latency; reports throughput, p50, p99;
//   3. overload burst — a flood of expensive DES requests against a
//      tiny DES queue, half opting into degradation: reports the shed
//      and degrade rates.
//
//   serve_load [--quick] [--out=FILE] [--against=BASE]
//
// Prints the flat "key": value JSON (and writes it to --out), then gates:
//   - the overload burst must shed and degrade (both rates > 0) on any
//     machine — a rate of 0 means bounded admission or the degrade path
//     broke;
//   - with --against, the output of an earlier `serve_load --quick --out`
//     on the same runner (CI measures the base ref first): throughput
//     >= 0.5x and p99 <= 4x BASE's. Only on >= 8 hardware threads; with
//     fewer the daemon measurement is the scheduler's, and the gate says
//     SKIPPED.
// Exits 1 when a gate fails, 2 on bad flags or an unreadable BASE.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/statistics.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/server.h"
#include "wave/context.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string eval_line(const std::string& id, int processors, bool expensive,
                      bool degrade) {
  std::string line = "{\"id\":\"" + id + "\",\"op\":\"eval\",\"processors\":" +
                     std::to_string(processors);
  if (expensive) line += ",\"engine\":\"sim\"";
  if (degrade) line += ",\"degrade\":true";
  line += "}";
  return line;
}

/// The throughput and p99 of an earlier run's --out file.
struct Reference {
  double throughput_qps = 0.0;
  double p99_us = 0.0;
};

bool load_reference(const std::string& path, Reference& ref) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  wave::serve::JsonValue doc;
  std::string error;
  if (!in || !wave::serve::parse_json(text.str(), doc, error)) {
    std::fprintf(stderr, "serve_load: cannot read %s%s%s\n", path.c_str(),
                 error.empty() ? "" : ": ", error.c_str());
    return false;
  }
  const wave::serve::JsonValue* tput = doc.find("serve_throughput_qps");
  const wave::serve::JsonValue* p99 = doc.find("serve_p99_us");
  if (tput == nullptr || !tput->is_number() || p99 == nullptr ||
      !p99->is_number()) {
    std::fprintf(stderr,
                 "serve_load: %s lacks serve_throughput_qps/serve_p99_us\n",
                 path.c_str());
    return false;
  }
  ref.throughput_qps = tput->number;
  ref.p99_us = p99->number;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path, against_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--against=", 10) == 0) {
      against_path = argv[i] + 10;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--out=FILE] [--against=BASE]\n",
                   argv[0]);
      return 2;
    }
  }
  Reference base;
  if (!against_path.empty() && !load_reference(against_path, base)) return 2;

  const double probe_seconds = quick ? 0.25 : 1.0;
  const double measure_seconds = quick ? 1.0 : 4.0;
  const int overload_requests = quick ? 32 : 128;
  const int hardware_threads =
      std::max(1u, std::thread::hardware_concurrency());
  const int workers = std::min(4, hardware_threads);

  wave::Context ctx;
  wave::ServeOptions options;
  options.socket_path =
      "/tmp/wave_serve_load_" + std::to_string(::getpid()) + ".sock";
  options.workers = workers;
  options.des_queue_limit = 2;  // tiny on purpose: phase 3 must overload it
  options.analytic_queue_limit = 65536;  // open-loop backlog must be admitted
  wave::serve::Server server(ctx, options);
  if (const wave::Status started = server.start(); !started.is_ok()) {
    std::fprintf(stderr, "serve_load: %s\n", started.to_string().c_str());
    return 1;
  }

  // ---- phase 1: closed-loop capacity probe (cache-hit path) -------------
  wave::serve::Client probe;
  if (!probe.connect(server.socket_path()).is_ok()) {
    std::fprintf(stderr, "serve_load: cannot connect probe client\n");
    return 1;
  }
  // Warm a small working set, then hammer it closed-loop.
  const int working_set = 32;
  for (int i = 0; i < working_set; ++i)
    (void)probe.call(eval_line("warm" + std::to_string(i), i + 2, false, false));
  std::uint64_t probed = 0;
  const Clock::time_point probe_start = Clock::now();
  while (seconds_since(probe_start) < probe_seconds) {
    const int p = static_cast<int>(probed % working_set) + 2;
    if (!probe.call(eval_line("p" + std::to_string(probed), p, false, false))
             .ok()) {
      std::fprintf(stderr, "serve_load: probe request failed\n");
      return 1;
    }
    ++probed;
  }
  const double capacity_qps =
      static_cast<double>(probed) / seconds_since(probe_start);

  // ---- phase 2: open-loop measurement at 50% of probed capacity ---------
  const double target_qps = std::max(100.0, capacity_qps * 0.5);
  const auto period = std::chrono::nanoseconds(
      static_cast<long long>(1e9 / target_qps));
  const std::size_t planned = static_cast<std::size_t>(
      std::max(1.0, target_qps * measure_seconds));

  wave::serve::Client stream;
  if (!stream.connect(server.socket_path()).is_ok()) {
    std::fprintf(stderr, "serve_load: cannot connect stream client\n");
    return 1;
  }
  std::vector<Clock::time_point> sent_at(planned);
  std::vector<double> latencies_us;
  latencies_us.reserve(planned);
  std::atomic<bool> send_failed{false};

  const Clock::time_point open_start = Clock::now();
  std::thread sender([&] {
    // Fixed schedule relative to the start — an open-loop sender never
    // slows down because the server queued up; late is late.
    for (std::size_t i = 0; i < planned; ++i) {
      std::this_thread::sleep_until(open_start + period * i);
      sent_at[i] = Clock::now();
      const int p = static_cast<int>(i % working_set) + 2;
      if (!stream.send_line(eval_line(std::to_string(i), p, false, false))
               .is_ok()) {
        send_failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  });
  for (std::size_t received = 0; received < planned; ++received) {
    if (send_failed.load(std::memory_order_relaxed)) break;
    auto reply = stream.read_line();
    if (!reply.ok()) break;
    auto response = wave::serve::Client::parse_response(reply.value());
    if (!response.ok() || !response.value().ok) continue;
    const std::size_t i = std::strtoull(response.value().id.c_str(), nullptr, 10);
    if (i < planned)
      latencies_us.push_back(std::chrono::duration<double, std::micro>(
                                 Clock::now() - sent_at[i])
                                 .count());
  }
  sender.join();
  const double open_elapsed = seconds_since(open_start);
  const double throughput_qps =
      static_cast<double>(latencies_us.size()) / open_elapsed;
  const wave::common::Percentiles lat = wave::common::percentiles(latencies_us);

  // ---- phase 3: DES overload burst --------------------------------------
  // One connection floods expensive requests far past the DES bound
  // (limit 2); even ids opt into degradation. Shed and degraded responses
  // return immediately, the few admitted DES evals complete in-order.
  wave::serve::Client burst;
  if (!burst.connect(server.socket_path()).is_ok()) {
    std::fprintf(stderr, "serve_load: cannot connect burst client\n");
    return 1;
  }
  for (int i = 0; i < overload_requests; ++i) {
    const bool degrade = (i % 2) == 0;
    if (!burst
             .send_line(eval_line("b" + std::to_string(i), 16 + (i % 8),
                                  true, degrade))
             .is_ok()) {
      std::fprintf(stderr, "serve_load: burst send failed\n");
      return 1;
    }
  }
  std::uint64_t burst_ok = 0, burst_shed = 0, burst_degraded = 0;
  for (int i = 0; i < overload_requests; ++i) {
    auto reply = burst.read_line();
    if (!reply.ok()) break;
    auto response = wave::serve::Client::parse_response(reply.value());
    if (!response.ok()) continue;
    if (response.value().degraded)
      ++burst_degraded;
    else if (response.value().ok)
      ++burst_ok;
    else if (response.value().error_code == "shed")
      ++burst_shed;
  }
  const double shed_rate =
      static_cast<double>(burst_shed) / overload_requests;
  const double degrade_rate =
      static_cast<double>(burst_degraded) / overload_requests;

  probe.close();
  stream.close();
  burst.close();
  server.stop();

  std::string json = "{\n";
  auto field = [&json](const char* key, double value, bool last = false) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "  \"%s\": %.6g%s\n", key, value,
                  last ? "" : ",");
    json += buf;
  };
  field("serve_workers", workers);
  field("hardware_threads", hardware_threads);
  field("serve_capacity_qps", capacity_qps);
  field("serve_offered_qps", target_qps);
  field("serve_throughput_qps", throughput_qps);
  field("serve_p50_us", lat.p50);
  field("serve_p99_us", lat.p99);
  field("serve_answered", static_cast<double>(latencies_us.size()));
  field("serve_overload_requests", overload_requests);
  field("serve_overload_completed", static_cast<double>(burst_ok));
  field("serve_shed_rate", shed_rate);
  field("serve_degrade_rate", degrade_rate, true);
  json += "}\n";

  std::fputs(json.c_str(), stdout);
  if (!out_path.empty()) {
    std::FILE* out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "serve_load: cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fputs(json.c_str(), out);
    std::fclose(out);
  }

  bool pass = shed_rate > 0.0 && degrade_rate > 0.0;
  std::printf("overload: shed_rate %.3g, degrade_rate %.3g (both must be "
              "> 0) %s\n",
              shed_rate, degrade_rate, pass ? "ok" : "FAIL");
  if (!against_path.empty()) {
    constexpr int kMinHardwareThreads = 8;
    const double tput_ratio = throughput_qps / base.throughput_qps;
    const double p99_ratio = lat.p99 / base.p99_us;
    if (hardware_threads >= kMinHardwareThreads) {
      const bool ok = tput_ratio >= 0.5 && p99_ratio <= 4.0;
      std::printf("vs %s: throughput %.4gx (min 0.5x), p99 %.4gx (max 4x) "
                  "%s\n",
                  against_path.c_str(), tput_ratio, p99_ratio,
                  ok ? "ok" : "FAIL");
      pass = pass && ok;
    } else {
      std::printf("vs %s: throughput %.4gx, p99 %.4gx — SKIPPED: %d "
                  "hardware thread(s), the gate needs %d\n",
                  against_path.c_str(), tput_ratio, p99_ratio,
                  hardware_threads, kMinHardwareThreads);
    }
  }
  std::printf("%s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
