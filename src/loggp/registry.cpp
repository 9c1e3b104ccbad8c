#include "loggp/registry.h"

#include "common/contracts.h"
#include "loggp/backends.h"

namespace wave::loggp {

CommModelRegistry::CommModelRegistry() {
  add("loggp", "the paper's LogGP closed forms (Table 1)",
      [](const MachineParams& p, const CommModelOptions&) {
        return std::make_unique<LogGpModel>(p);
      });
  add("loggps",
      "LogGP plus per-rendezvous synchronization overhead off.sync",
      [](const MachineParams& p, const CommModelOptions&) {
        return std::make_unique<LogGpsModel>(p);
      });
  add("contention",
      "LogGP with every shared-bus DMA window derated by the node's "
      "bus sharers",
      [](const MachineParams& p, const CommModelOptions& o) {
        return std::make_unique<BusContentionModel>(p, o.bus_sharers);
      });
}

void CommModelRegistry::add(const std::string& name,
                            const std::string& description,
                            CommModelFactory factory) {
  WAVE_EXPECTS_MSG(!name.empty(), "comm-model name must be non-empty");
  // Names appear as machines/*.cfg values and CLI flag values: keep them
  // single config-safe tokens.
  WAVE_EXPECTS_MSG(name.find_first_of("# \t\r\n=") == std::string::npos,
                   "comm-model name must be a single token without "
                   "whitespace, '#' or '='");
  WAVE_EXPECTS_MSG(factory != nullptr, "comm-model factory must be callable");
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Entry& e : entries_)
    WAVE_EXPECTS_MSG(e.info.name != name,
                     "comm model '" + name + "' is already registered");
  entries_.push_back(Entry{{name, description}, std::move(factory)});
}

bool CommModelRegistry::contains(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Entry& e : entries_)
    if (e.info.name == name) return true;
  return false;
}

std::unique_ptr<CommModel> CommModelRegistry::make(
    const std::string& name, const MachineParams& params,
    const CommModelOptions& options) const {
  CommModelFactory factory;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const Entry& e : entries_)
      if (e.info.name == name) {
        factory = e.factory;
        break;
      }
  }
  // Validate against *this* registry — registries are instance-scoped
  // now, and consulting the singleton here would miss (or wrongly
  // accept) names registered elsewhere.
  if (!factory) require_comm_model(*this, name);  // throws: not registered
  return factory(params, options);
}

std::vector<CommModelInfo> CommModelRegistry::list() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<CommModelInfo> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.info);
  return out;
}

std::vector<std::string> comm_model_names(const CommModelRegistry& registry) {
  std::vector<std::string> out;
  for (const CommModelInfo& info : registry.list()) out.push_back(info.name);
  return out;
}

std::string comm_model_names_joined(const CommModelRegistry& registry) {
  std::string out;
  for (const std::string& n : comm_model_names(registry))
    out += (out.empty() ? "" : ", ") + n;
  return out;
}

void require_comm_model(const CommModelRegistry& registry,
                        const std::string& name) {
  WAVE_EXPECTS_MSG(registry.contains(name),
                   "unknown comm model '" + name + "' (registered: " +
                       comm_model_names_joined(registry) + ")");
}

}  // namespace wave::loggp
