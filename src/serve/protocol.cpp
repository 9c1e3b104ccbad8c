#include "serve/protocol.h"

#include <cmath>
#include <utility>

#include "serve/json.h"
#include "wave/context.h"

namespace wave::serve {

std::string to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kInvalidRequest: return "invalid_request";
    case ErrorCode::kNotFound: return "not_found";
    case ErrorCode::kInvalidArgument: return "invalid_argument";
    case ErrorCode::kDeadlineExceeded: return "deadline_exceeded";
    case ErrorCode::kShed: return "shed";
    case ErrorCode::kSnapshotFailed: return "snapshot_failed";
    case ErrorCode::kInternal: return "internal";
  }
  return "internal";
}

namespace {

/// Field readers: each checks the JSON type and reports the offending
/// field by name, so a client sees "field 'processors' must be a number",
/// not a parse position.
struct Fields {
  const JsonValue& root;
  std::string error;

  bool read_string(const char* name, std::string& out) {
    const JsonValue* v = root.find(name);
    if (v == nullptr) return true;
    if (!v->is_string()) {
      error = std::string("field '") + name + "' must be a string";
      return false;
    }
    out = v->text;
    return true;
  }

  bool read_number(const char* name, double& out) {
    const JsonValue* v = root.find(name);
    if (v == nullptr) return true;
    if (!v->is_number()) {
      error = std::string("field '") + name + "' must be a number";
      return false;
    }
    out = v->number;
    return true;
  }

  bool read_int(const char* name, int& out) {
    const JsonValue* v = root.find(name);
    if (v == nullptr) return true;
    if (!v->is_number() || v->number != std::floor(v->number) ||
        v->number < -2147483648.0 || v->number > 2147483647.0) {
      error = std::string("field '") + name + "' must be an integer";
      return false;
    }
    out = static_cast<int>(v->number);
    return true;
  }

  bool read_bool(const char* name, bool& out) {
    const JsonValue* v = root.find(name);
    if (v == nullptr) return true;
    if (!v->is_bool()) {
      error = std::string("field '") + name + "' must be a boolean";
      return false;
    }
    out = v->boolean;
    return true;
  }
};

}  // namespace

bool parse_request(const std::string& line, Request& out, std::string& error) {
  JsonValue root;
  if (!parse_json(line, root, error)) return false;
  if (!root.is_object()) {
    error = "request must be a JSON object";
    return false;
  }
  out = Request{};
  Fields f{root, {}};

  if (!f.read_string("id", out.id)) {
    error = f.error;
    return false;
  }

  std::string op = "eval";
  if (!f.read_string("op", op)) {
    error = f.error;
    return false;
  }
  if (op == "eval") out.op = Request::Op::Eval;
  else if (op == "stats") out.op = Request::Op::Stats;
  else if (op == "snapshot") out.op = Request::Op::Snapshot;
  else if (op == "ping") out.op = Request::Op::Ping;
  else if (op == "metrics") out.op = Request::Op::Metrics;
  else if (op == "shutdown") out.op = Request::Op::Shutdown;
  else {
    error = "unknown op '" + op +
            "' (expected eval, stats, snapshot, ping, metrics or shutdown)";
    return false;
  }

  const bool ok =
      f.read_string("machine", out.machine) &&
      f.read_string("workload", out.workload) &&
      f.read_string("comm_model", out.comm_model) &&
      f.read_string("app", out.app) &&
      f.read_string("engine", out.engine) &&
      f.read_number("wg", out.wg) &&
      f.read_number("nx", out.nx) &&
      f.read_number("ny", out.ny) &&
      f.read_number("nz", out.nz) &&
      f.read_int("processors", out.processors) &&
      f.read_int("grid_n", out.grid_n) &&
      f.read_int("grid_m", out.grid_m) &&
      f.read_int("iterations", out.iterations) &&
      f.read_bool("validate", out.validate) &&
      f.read_number("deadline_ms", out.deadline_ms) &&
      f.read_bool("degrade", out.degrade);
  if (!ok) {
    error = f.error;
    return false;
  }

  // Present shape fields must be in domain, never silently defaulted.
  const std::pair<const char*, int> counts[] = {
      {"processors", out.processors},
      {"grid_n", out.grid_n},
      {"grid_m", out.grid_m},
      {"iterations", out.iterations}};
  for (const auto& [name, value] : counts) {
    if (root.find(name) != nullptr && value < 1) {
      error = std::string("field '") + name + "' must be >= 1";
      return false;
    }
  }
  if ((root.find("grid_n") == nullptr) != (root.find("grid_m") == nullptr)) {
    error = "fields 'grid_n' and 'grid_m' must come together";
    return false;
  }
  if (root.find("wg") != nullptr && !(out.wg > 0.0)) {
    error = "field 'wg' must be > 0";
    return false;
  }
  if (out.engine != "model" && out.engine != "sim") {
    error = "field 'engine' must be \"model\" or \"sim\"";
    return false;
  }
  if (out.deadline_ms < 0 || !std::isfinite(out.deadline_ms) ||
      out.deadline_ms > kMaxDeadlineMs) {
    error = "field 'deadline_ms' must be a number in [0, " +
            std::to_string(static_cast<long long>(kMaxDeadlineMs)) + "]";
    return false;
  }

  if (const JsonValue* params = root.find("params")) {
    if (!params->is_object()) {
      error = "field 'params' must be an object of name -> number";
      return false;
    }
    for (const auto& [name, value] : params->members) {
      if (!value.is_number()) {
        error = "param '" + name + "' must be a number";
        return false;
      }
      out.params.emplace_back(name, value.number);
    }
  }
  return true;
}

Query query_from(const Context& ctx, const Request& request) {
  Query q = ctx.query();
  if (!request.machine.empty()) q.machine(request.machine);
  if (!request.workload.empty()) q.workload(request.workload);
  if (!request.comm_model.empty()) q.comm_model(request.comm_model);
  if (!request.app.empty()) q.app(request.app);
  if (request.wg > 0) q.wg(request.wg);
  if (request.nx > 0 || request.ny > 0 || request.nz > 0)
    q.problem(request.nx, request.ny, request.nz);
  if (request.processors > 0) q.processors(request.processors);
  if (request.grid_n > 0 && request.grid_m > 0)
    q.grid(request.grid_n, request.grid_m);
  if (request.iterations > 0) q.iterations(request.iterations);
  q.engine(request.engine == "sim" ? Engine::Simulation : Engine::Model);
  if (request.validate) q.validate();
  for (const auto& [name, value] : request.params) q.param(name, value);
  return q;
}

namespace {

void append_field(std::string& out, const char* name) {
  if (out.back() != '{') out.push_back(',');
  append_json_string(out, name);
  out.push_back(':');
}

void append_id(std::string& out, const std::string& id) {
  append_field(out, "id");
  append_json_string(out, id);
}

}  // namespace

std::string render_result(const std::string& id, const Result& result,
                          bool degraded) {
  std::string out = "{";
  append_id(out, id);
  out += ",\"ok\":true";
  if (degraded) out += ",\"degraded\":true";
  out += ",\"result\":{";
  append_json_string(out, "workload");
  out.push_back(':');
  append_json_string(out, result.workload);
  append_field(out, "machine");
  append_json_string(out, result.machine);
  append_field(out, "comm_model");
  append_json_string(out, result.comm_model);
  append_field(out, "processors");
  out += std::to_string(result.processors);
  append_field(out, "engine");
  append_json_string(out, to_string(result.engine));
  append_field(out, "time_us");
  append_json_number(out, result.time_us);
  append_field(out, "comm_us");
  append_json_number(out, result.comm_us);
  if (result.validated) {
    append_field(out, "model_us");
    append_json_number(out, result.model_us);
    append_field(out, "sim_us");
    append_json_number(out, result.sim_us);
    append_field(out, "divergence_pct");
    append_json_number(out, result.divergence_pct);
    append_field(out, "within_tolerance");
    out += result.within_tolerance ? "true" : "false";
  }
  append_field(out, "terms");
  out.push_back('{');
  bool first = true;
  for (const auto& [name, value] : result.terms) {
    if (!first) out.push_back(',');
    first = false;
    append_json_string(out, name);
    out.push_back(':');
    append_json_number(out, value);
  }
  out += "}}}";
  return out;
}

std::string render_error(const std::string& id, ErrorCode code,
                         const std::string& message,
                         std::uint32_t retry_after_ms) {
  std::string out = "{";
  append_id(out, id);
  out += ",\"ok\":false,\"error\":{\"code\":";
  append_json_string(out, to_string(code));
  out += ",\"message\":";
  append_json_string(out, message);
  if (retry_after_ms > 0)
    out += ",\"retry_after_ms\":" + std::to_string(retry_after_ms);
  out += "}}";
  return out;
}

std::string render_pong(const std::string& id) {
  std::string out = "{";
  append_id(out, id);
  out += ",\"ok\":true,\"pong\":true}";
  return out;
}

std::string render_ok(const std::string& id,
                      const std::vector<std::pair<std::string, double>>&
                          extra_fields) {
  std::string out = "{";
  append_id(out, id);
  out += ",\"ok\":true";
  for (const auto& [name, value] : extra_fields) {
    out.push_back(',');
    append_json_string(out, name);
    out.push_back(':');
    append_json_number(out, value);
  }
  out.push_back('}');
  return out;
}

std::string render_stats(const std::string& id, const ServeStats& serve,
                         const EvalService::Stats& cache,
                         const MetricsSnapshot& metrics) {
  auto u64 = [](std::string& out, const char* name, std::uint64_t value) {
    append_field(out, name);
    out += std::to_string(value);
  };
  std::string out = "{";
  append_id(out, id);
  out += ",\"ok\":true,\"serve\":{";
  append_field(out, "uptime_ms");
  append_json_number(out, serve.uptime_ms);
  u64(out, "connections", serve.connections);
  u64(out, "requests", serve.requests);
  u64(out, "ok", serve.ok);
  u64(out, "degraded", serve.degraded);
  u64(out, "shed", serve.shed);
  u64(out, "deadline_exceeded", serve.deadline_exceeded);
  u64(out, "invalid", serve.invalid);
  u64(out, "eval_errors", serve.eval_errors);
  u64(out, "cancelled_evals", serve.cancelled_evals);
  u64(out, "snapshots_written", serve.snapshots_written);
  u64(out, "snapshot_write_failures", serve.snapshot_write_failures);
  u64(out, "restored_entries", serve.restored_entries);
  append_field(out, "snapshot_load_failed");
  out += serve.snapshot_load_failed ? "true" : "false";
  out += "},\"cache\":{";
  u64(out, "hits", cache.hits);
  u64(out, "misses", cache.misses);
  u64(out, "errors", cache.errors);
  u64(out, "resets", cache.resets);
  u64(out, "imported", cache.imported);
  u64(out, "size", cache.size);
  u64(out, "capacity", cache.capacity);
  u64(out, "shards", cache.shards);
  // Per-op latency summaries from the registry's serve_op_*_latency_us
  // histograms ("eval", "ping", ...): count and bucket-resolution
  // percentiles, so a dashboard reads tail latency without scraping the
  // full Prometheus text.
  out += "},\"latency\":{";
  bool first = true;
  for (const MetricsSnapshot::Histogram& h : metrics.histograms) {
    constexpr const char* kPrefix = "serve_op_";
    constexpr const char* kSuffix = "_latency_us";
    const std::size_t prefix_len = std::string(kPrefix).size();
    const std::size_t suffix_len = std::string(kSuffix).size();
    if (h.name.size() <= prefix_len + suffix_len) continue;
    if (h.name.compare(0, prefix_len, kPrefix) != 0) continue;
    if (h.name.compare(h.name.size() - suffix_len, suffix_len, kSuffix) != 0)
      continue;
    const std::string op =
        h.name.substr(prefix_len, h.name.size() - prefix_len - suffix_len);
    if (!first) out.push_back(',');
    first = false;
    append_json_string(out, op);
    out += ":{\"count\":" + std::to_string(h.count);
    out += ",\"p50_us\":";
    append_json_number(out, h.p50);
    out += ",\"p99_us\":";
    append_json_number(out, h.p99);
    out.push_back('}');
  }
  out += "}}";
  return out;
}

std::string render_metrics(const std::string& id,
                           const std::string& prometheus_text) {
  std::string out = "{";
  append_id(out, id);
  out += ",\"ok\":true,\"metrics\":";
  append_json_string(out, prometheus_text);
  out.push_back('}');
  return out;
}

}  // namespace wave::serve
