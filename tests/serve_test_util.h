// Shared helpers for the wave-serve test suites (tests/test_serve*.cpp):
// unique socket/snapshot paths per test process and a tiny RAII wrapper
// that starts a Server and connects a Client to it.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>

#include <unistd.h>

#include "serve/client.h"
#include "serve/faults.h"
#include "serve/json.h"
#include "serve/server.h"
#include "wave/context.h"

namespace serve_test {

/// A /tmp path unique to this process and call (AF_UNIX paths must stay
/// under ~100 bytes, so keep it short).
inline std::string unique_path(const char* suffix) {
  static std::atomic<int> counter{0};
  return "/tmp/wave_t" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + suffix;
}

/// Starts a Server over a fresh Context on a unique socket and connects
/// one Client; fails the test on any setup error.
struct ServerFixture {
  wave::Context ctx;
  wave::serve::FaultPlan faults;
  wave::ServeOptions options;
  wave::serve::Server* server = nullptr;
  wave::serve::Client client;

  explicit ServerFixture(wave::ServeOptions opts = {},
                         wave::serve::FaultPlan::Spec fault_spec = {})
      : faults(fault_spec), options(std::move(opts)) {
    if (options.socket_path.empty())
      options.socket_path = unique_path(".sock");
    server = new wave::serve::Server(ctx, options, &faults);
    const wave::Status started = server->start();
    EXPECT_TRUE(started.is_ok()) << started.to_string();
    const wave::Status connected = client.connect(options.socket_path);
    EXPECT_TRUE(connected.is_ok()) << connected.to_string();
  }

  ~ServerFixture() {
    client.close();
    delete server;  // ~Server stops and joins
    std::remove(options.socket_path.c_str());
    // Snapshot files are deliberately left alone: restart tests reuse
    // them across fixtures and remove them at the end themselves.
  }

  wave::serve::Response call(const std::string& line) {
    auto response = client.call(line);
    EXPECT_TRUE(response.ok()) << response.status().to_string();
    return response.ok() ? response.value() : wave::serve::Response{};
  }

  /// One counter of the `stats` op's "cache" object ("hits", "misses", ...).
  double cache_stat(const char* name) {
    const wave::serve::Response r = call(R"({"id":"c","op":"stats"})");
    wave::serve::JsonValue root;
    std::string error;
    EXPECT_TRUE(wave::serve::parse_json(r.raw, root, error)) << error;
    const wave::serve::JsonValue* cache = root.find("cache");
    const wave::serve::JsonValue* value = cache ? cache->find(name) : nullptr;
    EXPECT_NE(value, nullptr) << r.raw;
    return value ? value->number : -1.0;
  }

  /// True when a fresh client can connect to the server's socket.
  bool accepts_connections() const {
    wave::serve::Client probe;
    return probe.connect(options.socket_path).is_ok();
  }
};

}  // namespace serve_test
