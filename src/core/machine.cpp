#include "core/machine.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "loggp/registry.h"
#include "topology/grid.h"

namespace wave::core {

MachineConfig MachineConfig::xt4_with_cores(int cores, int buses) {
  WAVE_EXPECTS_MSG(cores >= 1, "need at least one core per node");
  // Arrange the cores as close to square as possible, with the taller side
  // vertical so that 2 cores -> 1x2 and 8 cores -> 2x4, matching Table 6.
  const topo::Grid shape = topo::closest_to_square(cores);
  MachineConfig m;
  // Appended piece by piece: GCC 12 reports a false -Wrestrict on
  // `"literal" + std::to_string(...)` concatenations.
  m.name = "xt4-";
  m.name += std::to_string(cores);
  m.name += "core";
  if (buses > 1) {
    m.name += '-';
    m.name += std::to_string(buses);
    m.name += "bus";
  }
  m.cx = shape.m();
  m.cy = shape.n();
  m.buses_per_node = buses;
  m.validate();
  return m;
}

std::shared_ptr<const loggp::CommModel> MachineConfig::make_comm_model(
    const loggp::CommModelRegistry& registry) const {
  loggp::CommModelOptions options;
  options.bus_sharers = bus_sharers();
  return registry.make(comm_model, loggp, options);
}

namespace {

[[noreturn]] void config_fail(const std::string& source, int line,
                              const std::string& what) {
  std::ostringstream os;
  os << source;
  if (line > 0) os << ":" << line;
  os << ": " << what;
  throw ConfigError(os.str());
}

std::string trim(const std::string& s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin])))
    ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1])))
    --end;
  return s.substr(begin, end - begin);
}

double parse_number(const std::string& source, int line,
                    const std::string& key, const std::string& value) {
  std::size_t consumed = 0;
  double out = 0.0;
  try {
    out = std::stod(value, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  if (consumed != value.size())
    config_fail(source, line,
                "value of '" + key + "' is not a number: '" + value + "'");
  return out;
}

/// LogGP latencies, gaps and overheads. "nan", "inf" and negative values
/// all parse as doubles, but any of them silently poisons every derived
/// prediction (a NaN G makes every time NaN; a negative o makes times go
/// backwards) — so the physical-parameter keys reject them right here,
/// with the same file:line diagnostics as any other config error.
double parse_param(const std::string& source, int line, const std::string& key,
                   const std::string& value) {
  const double out = parse_number(source, line, key, value);
  if (!std::isfinite(out))
    config_fail(source, line,
                "value of '" + key + "' must be finite, got '" + value + "'");
  if (out < 0.0)
    config_fail(source, line, "value of '" + key +
                                  "' must be non-negative, got '" + value +
                                  "'");
  return out;
}

int parse_int(const std::string& source, int line, const std::string& key,
              const std::string& value) {
  const double d = parse_number(source, line, key, value);
  // Range-check before converting: an out-of-range double-to-int cast is
  // undefined behaviour, not a recoverable error.
  if (!(d >= static_cast<double>(std::numeric_limits<int>::min()) &&
        d <= static_cast<double>(std::numeric_limits<int>::max())) ||
      d != std::floor(d))
    config_fail(source, line,
                "value of '" + key + "' must be an integer: '" + value + "'");
  return static_cast<int>(d);
}

bool parse_bool(const std::string& source, int line, const std::string& key,
                const std::string& value) {
  if (value == "true" || value == "1" || value == "yes") return true;
  if (value == "false" || value == "0" || value == "no") return false;
  config_fail(source, line,
              "value of '" + key + "' is not a boolean (true/false): '" +
                  value + "'");
}

/// Formats a parameter without losing precision (round-trip guarantee).
std::string format_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  // Prefer the shortest representation that parses back exactly.
  for (int precision = 1; precision < 17; ++precision) {
    char shorter[64];
    std::snprintf(shorter, sizeof shorter, "%.*g", precision, value);
    // strtod, not stod: a shortening that lands in the subnormal range
    // (2e-308 for 2.3e-308) is a mismatch to skip, not an exception.
    if (std::strtod(shorter, nullptr) == value) return shorter;
  }
  return buf;
}

/// One config key: how to parse it into a MachineConfig and how to
/// serialize it back. The single source of truth driving
/// parse_machine_config, write_machine_config and the required-key check,
/// so a new parameter is added in exactly one place.
struct KeySpec {
  const char* key;
  bool required;
  std::function<void(MachineConfig&, const std::string& source, int line,
                     const std::string& value)>
      set;
  std::function<std::string(const MachineConfig&)> get;
};

const std::vector<KeySpec>& key_specs() {
  auto off = [](const char* key, double loggp::OffNodeParams::* field,
                bool required) {
    return KeySpec{
        key, required,
        [key, field](MachineConfig& m, const std::string& src, int line,
                     const std::string& v) {
          m.loggp.off.*field = parse_param(src, line, key, v);
        },
        [field](const MachineConfig& m) {
          return format_number(m.loggp.off.*field);
        }};
  };
  auto on = [](const char* key, double loggp::OnChipParams::* field) {
    return KeySpec{
        key, true,
        [key, field](MachineConfig& m, const std::string& src, int line,
                     const std::string& v) {
          m.loggp.on.*field = parse_param(src, line, key, v);
        },
        [field](const MachineConfig& m) {
          return format_number(m.loggp.on.*field);
        }};
  };
  auto whole = [](const char* key, int MachineConfig::* field) {
    return KeySpec{
        key, false,
        [key, field](MachineConfig& m, const std::string& src, int line,
                     const std::string& v) {
          m.*field = parse_int(src, line, key, v);
        },
        [field](const MachineConfig& m) { return std::to_string(m.*field); }};
  };
  static const std::vector<KeySpec> specs = {
      {"name", false,
       [](MachineConfig& m, const std::string&, int, const std::string& v) {
         m.name = v;
       },
       [](const MachineConfig& m) { return m.name; }},
      {"comm_model", false,
       [](MachineConfig& m, const std::string&, int, const std::string& v) {
         m.comm_model = v;
       },
       [](const MachineConfig& m) { return m.comm_model; }},
      whole("cx", &MachineConfig::cx),
      whole("cy", &MachineConfig::cy),
      whole("buses_per_node", &MachineConfig::buses_per_node),
      {"synchronization_terms", false,
       [](MachineConfig& m, const std::string& src, int line,
          const std::string& v) {
         m.synchronization_terms =
             parse_bool(src, line, "synchronization_terms", v);
       },
       [](const MachineConfig& m) {
         return std::string(m.synchronization_terms ? "true" : "false");
       }},
      {"eager_limit_bytes", false,
       [](MachineConfig& m, const std::string& src, int line,
          const std::string& v) {
         m.loggp.eager_limit_bytes =
             parse_int(src, line, "eager_limit_bytes", v);
       },
       [](const MachineConfig& m) {
         return std::to_string(m.loggp.eager_limit_bytes);
       }},
      off("off.G", &loggp::OffNodeParams::G, true),
      off("off.L", &loggp::OffNodeParams::L, true),
      off("off.o", &loggp::OffNodeParams::o, true),
      off("off.oh", &loggp::OffNodeParams::oh, false),
      off("off.sync", &loggp::OffNodeParams::sync, false),
      on("on.Gcopy", &loggp::OnChipParams::Gcopy),
      on("on.Gdma", &loggp::OnChipParams::Gdma),
      on("on.o", &loggp::OnChipParams::o),
      on("on.ocopy", &loggp::OnChipParams::ocopy),
  };
  return specs;
}

}  // namespace

MachineConfig parse_machine_config(const std::string& text,
                                   const std::string& source,
                                   const loggp::CommModelRegistry& registry) {
  // Every recognized key writes through its KeySpec; anything not in the
  // table is a hard error, so typos can't silently become defaults.
  MachineConfig m;
  m.loggp = loggp::MachineParams{};  // all-zero: required keys must appear

  std::map<std::string, int> seen;  // key -> first line
  std::istringstream is(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(is, raw)) {
    ++line_no;
    const std::size_t hash = raw.find('#');
    const std::string line =
        trim(hash == std::string::npos ? raw : raw.substr(0, hash));
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos)
      config_fail(source, line_no,
                  "expected 'key = value', got '" + line + "'");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) config_fail(source, line_no, "empty key");
    const KeySpec* spec = nullptr;
    for (const KeySpec& candidate : key_specs())
      if (candidate.key == key) {
        spec = &candidate;
        break;
      }
    if (spec == nullptr)
      config_fail(source, line_no,
                  "unknown machine-config key '" + key + "'");
    const auto [prev, inserted] = seen.emplace(key, line_no);
    if (!inserted)
      config_fail(source, line_no,
                  "duplicate key '" + key + "' (first set on line " +
                      std::to_string(prev->second) + ")");
    spec->set(m, source, line_no, value);
  }

  std::string missing;
  for (const KeySpec& spec : key_specs())
    if (spec.required && !seen.count(spec.key))
      missing += (missing.empty() ? "" : ", ") + std::string(spec.key);
  if (!missing.empty())
    config_fail(source, 0, "missing required key(s): " + missing);

  try {
    registry.require(m.comm_model);
  } catch (const common::unknown_name_error& e) {
    config_fail(source, seen.count("comm_model") ? seen["comm_model"] : 0,
                e.what());
  }
  try {
    m.validate();
  } catch (const std::exception& e) {
    config_fail(source, 0, e.what());
  }
  return m;
}

MachineConfig load_machine_config(const std::string& path,
                                  const loggp::CommModelRegistry& registry) {
  std::ifstream in(path);
  if (!in) throw ConfigError(path + ": cannot open machine config");
  std::ostringstream body;
  body << in.rdbuf();
  MachineConfig m = parse_machine_config(body.str(), path, registry);
  if (m.name.empty()) {
    // Default the display name to the file stem: "machines/sp2.cfg" -> "sp2".
    std::string stem = path;
    const std::size_t slash = stem.find_last_of("/\\");
    if (slash != std::string::npos) stem = stem.substr(slash + 1);
    const std::size_t dot = stem.find_last_of('.');
    if (dot != std::string::npos && dot > 0) stem = stem.substr(0, dot);
    m.name = stem;
  }
  return m;
}

std::string write_machine_config(const MachineConfig& machine) {
  std::ostringstream os;
  for (const KeySpec& spec : key_specs())
    os << spec.key << " = " << spec.get(machine) << "\n";
  return os.str();
}

}  // namespace wave::core
