#include "wave/context.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "common/registry.h"
#include "core/machine.h"
#include "loggp/registry.h"
#include "workloads/registry.h"
#include "workloads/workload.h"

namespace wave {

namespace {

/// Catalog-name rule: machine names must be config-safe (they round-trip
/// through machines/*.cfg) and unambiguous against path resolution.
bool looks_like_path(const std::string& spec) {
  return spec.find('/') != std::string::npos ||
         spec.find('\\') != std::string::npos ||
         (spec.size() > 4 && spec.compare(spec.size() - 4, 4, ".cfg") == 0);
}

template <typename T>
std::vector<EntryInfo> entries_of(const common::Registry<T>& registry) {
  std::vector<EntryInfo> out;
  for (const auto& e : registry.list())
    out.push_back(EntryInfo{e.name, e.description});
  return out;
}

}  // namespace

struct Context::Impl {
  loggp::CommModelRegistry comm;
  workloads::WorkloadRegistry workloads;

  struct MachineEntry {
    std::string name;
    std::string source;  // "preset" or the config file path
    core::MachineConfig config;
  };
  std::vector<MachineEntry> machines;

  const MachineEntry* find_machine(const std::string& name) const {
    for (const MachineEntry& e : machines)
      if (e.name == name) return &e;
    return nullptr;
  }

  Status add_machine(core::MachineConfig config, std::string source,
                     bool may_shadow_preset) {
    try {
      config.validate();
    } catch (const std::exception& e) {
      return Status::invalid_argument(e.what());
    }
    if (config.name.empty())
      return Status::invalid_argument(
          "catalog machines need a name (set `name = ...` in the config)");
    for (MachineEntry& e : machines) {
      if (e.name != config.name) continue;
      // A machines/*.cfg is the runtime-authoritative calibration: it may
      // shadow the compiled-in preset of the same name (the shipped
      // configs match the presets exactly, see tests/test_machine_config).
      // Any other collision — including code registration reusing a
      // preset name — is a caller mistake.
      if (e.source == "preset" && may_shadow_preset) {
        e.source = std::move(source);
        e.config = std::move(config);
        return Status::ok();
      }
      return Status::already_exists("machine '" + config.name +
                                    "' is already in the catalog");
    }
    machines.push_back(
        MachineEntry{config.name, std::move(source), std::move(config)});
    return Status::ok();
  }
};

Context::Context() : impl_(std::make_unique<Impl>()) {
  impl_->add_machine(core::MachineConfig::xt4_dual_core(), "preset", false);
  impl_->add_machine(core::MachineConfig::xt4_single_core(), "preset", false);
  impl_->add_machine(core::MachineConfig::sp2_single_core(), "preset", false);
}

Context::~Context() = default;
Context::Context(Context&&) noexcept = default;
Context& Context::operator=(Context&&) noexcept = default;

Query Context::query() const { return Query(this); }
Study Context::study() const { return Study(this); }
Optimize Context::optimize() const { return Optimize(this); }

std::vector<EntryInfo> Context::workloads() const {
  return entries_of(impl_->workloads);
}

std::vector<EntryInfo> Context::comm_models() const {
  return entries_of(impl_->comm);
}

std::vector<EntryInfo> Context::machines() const {
  std::vector<EntryInfo> out;
  for (const auto& e : impl_->machines)
    out.push_back(EntryInfo{e.name, e.source});
  return out;
}

bool Context::has_workload(const std::string& name) const {
  return impl_->workloads.contains(name);
}

bool Context::has_comm_model(const std::string& name) const {
  return impl_->comm.contains(name);
}

bool Context::has_machine(const std::string& name) const {
  return impl_->find_machine(name) != nullptr;
}

Status Context::add_machine_file(const std::string& path) {
  try {
    return impl_->add_machine(core::load_machine_config(path, impl_->comm),
                              path, /*may_shadow_preset=*/true);
  } catch (const core::ConfigError& e) {
    return Status::invalid_argument(e.what());
  } catch (const std::exception& e) {
    return Status::internal(e.what());
  }
}

Status Context::add_machine_dir(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec))
    return Status::not_found("'" + dir + "' is not a readable directory");
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".cfg")
      paths.push_back(entry.path().string());
  }
  if (ec) return Status::internal("scanning '" + dir + "': " + ec.message());
  // Directory iteration order is filesystem-defined; sort so catalogs (and
  // --list-machines output) are reproducible.
  std::sort(paths.begin(), paths.end());
  for (const std::string& path : paths) {
    if (Status s = add_machine_file(path); !s.is_ok()) return s;
  }
  return Status::ok();
}

Status Context::register_workload(
    std::shared_ptr<const workloads::Workload> workload) {
  // Only a taken name is kAlreadyExists; a null workload or a malformed
  // name is a bad value.
  const bool taken = workload != nullptr && has_workload(workload->name());
  try {
    impl_->workloads.add(std::move(workload));
    return Status::ok();
  } catch (const common::contract_error& e) {
    return taken ? Status::already_exists(e.what())
                 : Status::invalid_argument(e.what());
  } catch (const std::exception& e) {
    return Status::internal(e.what());
  }
}

Status Context::add_machine(const core::MachineConfig& machine) {
  return impl_->add_machine(machine, "registered",
                            /*may_shadow_preset=*/false);
}

loggp::CommModelRegistry& Context::comm_model_registry() {
  return impl_->comm;
}
const loggp::CommModelRegistry& Context::comm_model_registry() const {
  return impl_->comm;
}
workloads::WorkloadRegistry& Context::workload_registry() {
  return impl_->workloads;
}
const workloads::WorkloadRegistry& Context::workload_registry() const {
  return impl_->workloads;
}

core::MachineConfig Context::resolve_machine(
    const std::string& name_or_path) const {
  if (const auto* entry = impl_->find_machine(name_or_path))
    return entry->config;
  if (looks_like_path(name_or_path))
    return core::load_machine_config(name_or_path, impl_->comm);
  std::string catalog;
  for (const auto& e : impl_->machines)
    catalog += (catalog.empty() ? "" : ", ") + e.name;
  throw common::unknown_name_error("unknown machine '" + name_or_path +
                                   "' (catalog: " + catalog +
                                   "; or pass a machines/*.cfg path)");
}

}  // namespace wave
