// common::Registry, the one name registry behind CommModelRegistry and
// WorkloadRegistry: the shared name rule, the typed unknown-name error,
// and registration racing lookups.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/registry.h"
#include "loggp/backends.h"
#include "loggp/registry.h"
#include "workloads/registry.h"
#include "workloads/workload.h"

namespace wl = wave::loggp;
namespace ww = wave::workloads;

namespace {

std::unique_ptr<wl::CommModel> make_loggp(const wl::MachineParams& p,
                                          const wl::CommModelOptions&) {
  return std::make_unique<wl::LogGpModel>(p);
}

/// A registrable workload that only carries a name.
class NamedWorkload : public ww::Workload {
 public:
  explicit NamedWorkload(std::string name) : name_(std::move(name)) {}
  const std::string& name() const override { return name_; }
  const std::string& description() const override { return name_; }
  double tolerance() const override { return 1.0; }
  ww::ModelOutput predict(const wave::core::MachineConfig&,
                          const wl::CommModel&,
                          const ww::WorkloadInputs&) const override {
    return {1.0, 0.0, {}};
  }
  ww::SimOutput simulate(const ww::SimMachine&,
                         const ww::WorkloadInputs&) const override {
    return {};
  }

 private:
  std::string name_;
};

}  // namespace

TEST(Registry, NameRule) {
  // Names travel as machines/*.cfg values and comma-separated flag
  // lists (--comm-models=a,b), so both registries apply one rule.
  for (const char* bad : {"", "a b", "a\tb", "a#b", "a=b", "a,b"}) {
    wl::CommModelRegistry comm;
    EXPECT_THROW(comm.add(bad, "bad name", make_loggp),
                 wave::common::contract_error)
        << "comm model '" << bad << "'";
    EXPECT_FALSE(comm.contains(bad)) << bad;
    ww::WorkloadRegistry workloads;
    EXPECT_THROW(workloads.add(std::make_shared<NamedWorkload>(bad)),
                 wave::common::contract_error)
        << "workload '" << bad << "'";
    EXPECT_FALSE(workloads.contains(bad)) << bad;
  }
  wl::CommModelRegistry comm;
  comm.add("my-model_2.1", "good name", make_loggp);
  EXPECT_TRUE(comm.contains("my-model_2.1"));
  ww::WorkloadRegistry workloads;
  workloads.add(std::make_shared<NamedWorkload>("my-model_2.1"));
  EXPECT_TRUE(workloads.contains("my-model_2.1"));
}

TEST(Registry, UnknownNameIsItsOwnErrorType) {
  const wl::CommModelRegistry comm;
  try {
    comm.require("telepathy");
    FAIL() << "expected unknown_name_error";
  } catch (const wave::common::unknown_name_error& e) {
    EXPECT_STREQ(e.what(),
                 "unknown comm model 'telepathy' "
                 "(registered: loggp, loggps, contention)");
  }
  const ww::WorkloadRegistry workloads;
  EXPECT_THROW(workloads.get("nope"), wave::common::unknown_name_error);
  // A taken name is a contract violation, not a failed lookup.
  wl::CommModelRegistry fresh;
  try {
    fresh.add("loggp", "dup", make_loggp);
    FAIL() << "expected contract_error";
  } catch (const wave::common::unknown_name_error&) {
    FAIL() << "a duplicate is not an unknown name";
  } catch (const wave::common::contract_error&) {
  }
}

TEST(RegistryConcurrency, AddRacesLookups) {
  wl::CommModelRegistry registry;
  constexpr int kAdds = 64;
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&registry, &done] {
      std::size_t seen = 0;
      while (!done.load(std::memory_order_acquire)) {
        EXPECT_TRUE(registry.contains("loggp"));
        EXPECT_NE(registry.get("contention"), nullptr);
        const auto entries = registry.list();
        // Registration only appends: a reader never sees the list shrink.
        EXPECT_GE(entries.size(), seen);
        seen = entries.size();
        // Whatever is listed is fully registered.
        EXPECT_TRUE(registry.contains(entries.back().name));
      }
    });
  }
  std::thread writer([&registry, &done] {
    for (int i = 0; i < kAdds; ++i)
      registry.add("race-" + std::to_string(i), "added under load",
                   make_loggp);
    done.store(true, std::memory_order_release);
  });
  writer.join();
  for (std::thread& r : readers) r.join();

  const std::vector<std::string> names = registry.names();
  ASSERT_EQ(names.size(), 3u + kAdds);
  for (int i = 0; i < kAdds; ++i)
    EXPECT_EQ(names[3 + i], "race-" + std::to_string(i));
}
