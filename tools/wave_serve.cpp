// wave-serve: the fault-tolerant evaluation daemon (docs/SERVING.md).
//
// Daemon mode (default) serves the line protocol on an AF_UNIX socket
// until a client sends {"op":"shutdown"} or the process gets SIGINT /
// SIGTERM; client mode (--client) connects, forwards stdin lines, and
// prints each response — enough for shell smoke tests without a JSON
// toolchain:
//
//   wave_serve --socket=/tmp/wave.sock --snapshot=/tmp/wave.snap &
//   echo '{"id":"1","op":"eval","processors":256}' | \
//       wave_serve --socket=/tmp/wave.sock --client
//
// The --fault-* flags arm the deterministic fault-injection plan
// (src/serve/faults.h) for chaos experiments against a live daemon.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <thread>

#include <unistd.h>

#include "common/cli.h"
#include "serve/client.h"
#include "serve/faults.h"
#include "serve/server.h"
#include "wave/context.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket=PATH [options]\n"
               "\n"
               "daemon options:\n"
               "  --workers=N             worker threads (default 2; 0 = all cores)\n"
               "  --shards=N              cache shards (default: worker count)\n"
               "  --cache-capacity=N      cached scenarios across shards (default 65536)\n"
               "  --analytic-queue=N      analytic admission bound (default 1024)\n"
               "  --des-queue=N           DES admission bound (default 8)\n"
               "  --retry-after-ms=N      shed backoff hint base (default 50)\n"
               "  --default-deadline-ms=N deadline for requests without one (default: none)\n"
               "  --snapshot=PATH         cache snapshot file (load at start, write on op)\n"
               "  --machines=DIR          add every *.cfg in DIR to the catalog\n"
               "\n"
               "fault injection (chaos experiments; see docs/SERVING.md):\n"
               "  --fault-seed=N --fault-slow-permille=N --fault-slow-ms=N\n"
               "  --fault-stall-permille=N --fault-stall-ms=N --fault-fail-snapshots=N\n"
               "\n"
               "client mode:\n"
               "  --client                forward stdin lines, print responses\n",
               argv0);
  return 2;
}

// SIGINT/SIGTERM handling via self-pipe: the handler only writes a byte;
// a helper thread blocked on the read end does the actual stop().
int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  const char byte = 's';
  (void)!::write(g_signal_pipe[1], &byte, 1);
}

bool parse_flag(const char* arg, const char* name, std::string& out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  out = arg + len + 1;
  return true;
}

/// A value that is not wholly an integer is fatal, naming the flag.
bool parse_flag(const char* arg, const char* name, long& out) {
  std::string text;
  if (!parse_flag(arg, name, text)) return false;
  const auto value = wave::common::parse_int(text);
  if (!value || *value < std::numeric_limits<long>::min() ||
      *value > std::numeric_limits<long>::max()) {
    std::fprintf(stderr, "wave_serve: %s expects an integer, got '%s'\n",
                 name, text.c_str());
    std::exit(2);
  }
  out = static_cast<long>(*value);
  return true;
}

int run_client(const std::string& socket_path) {
  wave::serve::Client client;
  const wave::Status connected = client.connect(socket_path);
  if (!connected.is_ok()) {
    std::fprintf(stderr, "wave_serve: %s\n", connected.to_string().c_str());
    return 1;
  }
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    const wave::Status sent = client.send_line(line);
    if (!sent.is_ok()) {
      std::fprintf(stderr, "wave_serve: %s\n", sent.to_string().c_str());
      return 1;
    }
    auto reply = client.read_line();
    if (!reply.ok()) {
      std::fprintf(stderr, "wave_serve: %s\n",
                   reply.status().to_string().c_str());
      return 1;
    }
    std::printf("%s\n", reply.value().c_str());
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  wave::ServeOptions options;
  wave::serve::FaultPlan::Spec fault_spec;
  bool any_faults = false;
  bool client_mode = false;
  std::string machines_dir;
  long value = 0;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string text;
    if (parse_flag(arg, "--socket", options.socket_path)) continue;
    if (parse_flag(arg, "--snapshot", options.snapshot_path)) continue;
    if (parse_flag(arg, "--machines", machines_dir)) continue;
    if (parse_flag(arg, "--workers", value)) {
      options.workers = static_cast<int>(value);
      continue;
    }
    if (parse_flag(arg, "--shards", value)) {
      options.shards = static_cast<int>(value);
      continue;
    }
    if (parse_flag(arg, "--cache-capacity", value)) {
      options.cache_capacity = static_cast<std::size_t>(value);
      continue;
    }
    if (parse_flag(arg, "--analytic-queue", value)) {
      options.analytic_queue_limit = static_cast<std::size_t>(value);
      continue;
    }
    if (parse_flag(arg, "--des-queue", value)) {
      options.des_queue_limit = static_cast<std::size_t>(value);
      continue;
    }
    if (parse_flag(arg, "--retry-after-ms", value)) {
      options.retry_after_ms = static_cast<std::uint32_t>(value);
      continue;
    }
    if (parse_flag(arg, "--default-deadline-ms", value)) {
      options.default_deadline_ms = static_cast<std::uint32_t>(value);
      continue;
    }
    if (parse_flag(arg, "--fault-seed", value)) {
      fault_spec.seed = static_cast<std::uint64_t>(value);
      any_faults = true;
      continue;
    }
    if (parse_flag(arg, "--fault-slow-permille", value)) {
      fault_spec.slow_eval_permille = static_cast<std::uint32_t>(value);
      any_faults = true;
      continue;
    }
    if (parse_flag(arg, "--fault-slow-ms", value)) {
      fault_spec.slow_eval_ms = static_cast<std::uint32_t>(value);
      any_faults = true;
      continue;
    }
    if (parse_flag(arg, "--fault-stall-permille", value)) {
      fault_spec.stall_worker_permille = static_cast<std::uint32_t>(value);
      any_faults = true;
      continue;
    }
    if (parse_flag(arg, "--fault-stall-ms", value)) {
      fault_spec.stall_ms = static_cast<std::uint32_t>(value);
      any_faults = true;
      continue;
    }
    if (parse_flag(arg, "--fault-fail-snapshots", value)) {
      fault_spec.fail_snapshot_writes = static_cast<std::uint32_t>(value);
      any_faults = true;
      continue;
    }
    if (std::strcmp(arg, "--client") == 0) {
      client_mode = true;
      continue;
    }
    std::fprintf(stderr, "wave_serve: unknown flag %s\n", arg);
    return usage(argv[0]);
  }

  if (options.socket_path.empty()) return usage(argv[0]);
  if (client_mode) return run_client(options.socket_path);

  wave::Context ctx;
  if (!machines_dir.empty()) {
    const wave::Status added = ctx.add_machine_dir(machines_dir);
    if (!added.is_ok()) {
      std::fprintf(stderr, "wave_serve: %s\n", added.to_string().c_str());
      return 1;
    }
  }

  wave::serve::FaultPlan faults(fault_spec);
  wave::serve::Server server(ctx, options,
                             any_faults ? &faults : nullptr);
  const wave::Status started = server.start();
  if (!started.is_ok()) {
    std::fprintf(stderr, "wave_serve: %s\n", started.to_string().c_str());
    return 1;
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "wave_serve: pipe() failed\n");
    return 1;
  }
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::thread signal_thread([&server] {
    char byte = 0;
    if (::read(g_signal_pipe[0], &byte, 1) == 1 && byte == 's')
      server.stop();  // releases wait() below
  });

  std::fprintf(stderr, "wave-serve: listening on %s (%d workers)\n",
               options.socket_path.c_str(), options.workers);
  server.wait();
  server.stop();

  // Unblock the signal thread if no signal arrived (shutdown came over
  // the protocol instead).
  const char byte = 'q';
  (void)!::write(g_signal_pipe[1], &byte, 1);
  signal_thread.join();
  ::close(g_signal_pipe[0]);
  ::close(g_signal_pipe[1]);

  const wave::ServeStats stats = server.stats();
  std::fprintf(stderr,
               "wave-serve: exiting — %llu requests (%llu ok, %llu degraded, "
               "%llu shed, %llu deadline_exceeded, %llu invalid, %llu eval "
               "errors)\n",
               static_cast<unsigned long long>(stats.requests),
               static_cast<unsigned long long>(stats.ok),
               static_cast<unsigned long long>(stats.degraded),
               static_cast<unsigned long long>(stats.shed),
               static_cast<unsigned long long>(stats.deadline_exceeded),
               static_cast<unsigned long long>(stats.invalid),
               static_cast<unsigned long long>(stats.eval_errors));
  return 0;
}
