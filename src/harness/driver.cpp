#include "harness/driver.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "harness/realworld.hpp"
#include "harness/scale.hpp"

namespace dapes::harness {

ProtocolDriverRegistry::ProtocolDriverRegistry() {
  add(ProtocolNames::kDapes, run_dapes_trial);
  add(ProtocolNames::kBithoc, run_bithoc_trial);
  add(ProtocolNames::kEkta, run_ekta_trial);
  for (int scenario = 1; scenario <= 3; ++scenario) {
    const char* name = scenario == 1   ? ProtocolNames::kRealWorldCarrier
                       : scenario == 2 ? ProtocolNames::kRealWorldRepository
                                       : ProtocolNames::kRealWorldMoving;
    add(name, [scenario](const ScenarioParams& params) {
      return run_realworld_trial(scenario, params);
    });
  }
  add(ProtocolNames::kScaleField, run_dapes_trial);
  add(ProtocolNames::kScaleMedium, run_medium_stress_trial);
}

ProtocolDriverRegistry& ProtocolDriverRegistry::instance() {
  static ProtocolDriverRegistry registry;
  return registry;
}

void ProtocolDriverRegistry::add(const std::string& name,
                                 ProtocolDriver::TrialFn run) {
  if (find(name) != nullptr) {
    throw std::invalid_argument("duplicate protocol driver: " + name);
  }
  drivers_.emplace_back(name, std::move(run));
}

const ProtocolDriver* ProtocolDriverRegistry::find(
    const std::string& name) const {
  for (const ProtocolDriver& d : drivers_) {
    if (d.name() == name) return &d;
  }
  return nullptr;
}

const ProtocolDriver& ProtocolDriverRegistry::get(
    const std::string& name) const {
  const ProtocolDriver* driver = find(name);
  if (driver == nullptr) {
    std::ostringstream msg;
    msg << "unknown protocol driver \"" << name << "\"; registered:";
    for (const auto& n : names()) msg << " " << n;
    throw std::out_of_range(msg.str());
  }
  return *driver;
}

std::vector<std::string> ProtocolDriverRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(drivers_.size());
  for (const ProtocolDriver& d : drivers_) out.push_back(d.name());
  std::sort(out.begin(), out.end());
  return out;
}

TrialResult run_trial(const ProtocolDriver& driver,
                      const ScenarioParams& params) {
  return driver.run_trial(params);
}

TrialResult run_trial(const std::string& driver_name,
                      const ScenarioParams& params) {
  return run_trial(ProtocolDriverRegistry::instance().get(driver_name),
                   params);
}

}  // namespace dapes::harness
