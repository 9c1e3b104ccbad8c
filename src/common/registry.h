// The one name registry behind every runtime choice of the plug-and-play
// model: a study swaps the communication submodel or the application by
// name (a machines/*.cfg value, a --comm-model/--workload flag, a
// SweepGrid axis) and the same pipeline evaluates it.
// loggp::CommModelRegistry and workloads::WorkloadRegistry are this
// template plus their built-in entries.
#pragma once

#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/contracts.h"

namespace wave::common {

/// Thrown when a lookup names nothing registered. The facade maps this
/// type, and only this type, to kNotFound.
class unknown_name_error : public contract_error {
 public:
  using contract_error::contract_error;
};

/// @brief Named values in registration order.
///
/// Names are config-safe tokens: non-empty and free of whitespace, '#',
/// '=' and ',' (so they survive machines/*.cfg values and comma-separated
/// flag lists). Thread-safe: lookups may run concurrently from
/// BatchRunner workers, and registration may race with lookups.
template <typename T>
class Registry {
 public:
  struct Entry {
    std::string name;
    std::string description;  ///< one line: what the entry models
    T value;
  };

  /// @param kind what an entry is, for messages ("comm model").
  explicit Registry(std::string kind) : kind_(std::move(kind)) {}

  /// @brief Registers `value` under `name`.
  /// @throws contract_error when the name breaks the rule above or is
  ///   taken, or when `value` is null.
  void add(const std::string& name, std::string description, T value) {
    WAVE_EXPECTS_MSG(
        !name.empty() && name.find_first_of("# \t\r\n=,") == std::string::npos,
        kind_ + " name '" + name +
            "' must be a single non-empty token without whitespace, '#', "
            "'=' or ','");
    WAVE_EXPECTS_MSG(static_cast<bool>(value),
                     kind_ + " '" + name + "' must not be null");
    const std::lock_guard<std::mutex> lock(mutex_);
    WAVE_EXPECTS_MSG(find(name) == nullptr,
                     kind_ + " '" + name + "' is already registered");
    entries_.push_back(Entry{name, std::move(description), std::move(value)});
  }

  bool contains(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return find(name) != nullptr;
  }

  /// @brief The value registered under `name`.
  /// @throws unknown_name_error listing the registered names otherwise.
  T get(const std::string& name) const {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (const Entry* e = find(name)) return e->value;
    }
    throw_unknown(name);
  }

  /// @brief No-op when `name` is registered.
  /// @throws unknown_name_error listing the registered names otherwise.
  void require(const std::string& name) const {
    if (!contains(name)) throw_unknown(name);
  }

  std::vector<Entry> list() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return entries_;
  }

  std::vector<std::string> names() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    for (const Entry& e : entries_) out.push_back(e.name);
    return out;
  }

  /// @brief The names joined as "a, b, c".
  std::string names_joined() const {
    std::string out;
    for (const std::string& n : names()) out += (out.empty() ? "" : ", ") + n;
    return out;
  }

 private:
  const Entry* find(const std::string& name) const {
    for (const Entry& e : entries_)
      if (e.name == name) return &e;
    return nullptr;
  }

  [[noreturn]] void throw_unknown(const std::string& name) const {
    throw unknown_name_error("unknown " + kind_ + " '" + name +
                             "' (registered: " + names_joined() + ")");
  }

  std::string kind_;
  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
};

}  // namespace wave::common
