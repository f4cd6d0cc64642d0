/// @file
/// Protocol drivers: the pluggable unit of the experiment engine.
///
/// A ProtocolDriver runs one simulated trial of one protocol stack on the
/// shared topology. Drivers are registered under well-known string names
/// (Envoy-style: "dapes", "bithoc", "ekta", "realworld.carrier", ...) so
/// benches, sweeps and examples select protocols by name instead of linking
/// against per-protocol entry points. New protocols plug in by registering
/// a driver; nothing in the engine enumerates protocols.
///
/// Drivers must be stateless with respect to trials: run_trial is const and
/// may be called concurrently from many threads (TrialRunner), so all trial
/// state must live inside the trial function.
#pragma once

#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "harness/scenario.hpp"

namespace dapes::harness {

/// One pluggable protocol stack: a registry name and the function that
/// runs one trial of it. The function must be thread-safe: every trial
/// builds its own Scheduler/Medium/Rng world from `params`.
class ProtocolDriver {
 public:
  /// Runs one trial, fully determined by its params (including the seed).
  using TrialFn = std::function<TrialResult(const ScenarioParams&)>;

  /// A driver named @p name that runs trials through @p run.
  ProtocolDriver(std::string name, TrialFn run)
      : name_(std::move(name)), run_(std::move(run)) {}

  /// Well-known registry name ("dapes", "bithoc", ...).
  const std::string& name() const { return name_; }

  /// Run one trial, fully determined by `params` (including params.seed).
  TrialResult run_trial(const ScenarioParams& params) const {
    return run_(params);
  }

 private:
  std::string name_;
  TrialFn run_;
};

/// Well-known driver names. New drivers should follow the dotted-suffix
/// convention for families ("realworld.carrier").
struct ProtocolNames {
  static constexpr const char* kDapes = "dapes";    ///< full DAPES stack
  static constexpr const char* kBithoc = "bithoc";  ///< BitHoc baseline
  static constexpr const char* kEkta = "ekta";      ///< EKTA baseline
  /// Fig. 10 data mule carrying between clusters.
  static constexpr const char* kRealWorldCarrier = "realworld.carrier";
  /// Fig. 10 stationary repository variant.
  static constexpr const char* kRealWorldRepository = "realworld.repository";
  /// Fig. 10 moving-peers variant.
  static constexpr const char* kRealWorldMoving = "realworld.moving";
  /// Scale family: full stack at growing node counts.
  static constexpr const char* kScaleField = "scale.field";
  /// Scale family: medium-only stress (no NDN stack).
  static constexpr const char* kScaleMedium = "scale.medium";
  /// Channel family: log-distance loss sweep.
  static constexpr const char* kLossSweep = "loss.sweep";
  /// Channel family: mixed-range radios.
  static constexpr const char* kHeteroRadio = "hetero.radio";
  /// Open-membership family: churn, crashes, flash crowds and liars.
  static constexpr const char* kChurnSwarm = "churn.swarm";
};

/// String-keyed driver registry. The built-in drivers above are registered
/// on first use; extensions may add their own before running experiments.
/// Registration is not synchronized against concurrent lookups — register
/// everything up front, before fanning trials out.
class ProtocolDriverRegistry {
 public:
  /// The process-wide registry.
  static ProtocolDriverRegistry& instance();

  /// Register a stateless trial function under `name`. Throws
  /// std::invalid_argument on a duplicate name. References returned by
  /// get() and find() stay valid across later registrations.
  void add(const std::string& name, ProtocolDriver::TrialFn run);

  /// Lookup; throws std::out_of_range naming the missing driver and
  /// listing the registered ones.
  const ProtocolDriver& get(const std::string& name) const;

  /// Lookup; nullptr when absent.
  const ProtocolDriver* find(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> names() const;

 private:
  ProtocolDriverRegistry();

  /// A deque, so registering never moves an already-registered driver.
  std::deque<ProtocolDriver> drivers_;
};

/// The engine's single-trial entry point: runs `driver` once with `params`.
TrialResult run_trial(const ProtocolDriver& driver,
                      const ScenarioParams& params);

/// Name-based convenience (registry lookup + run_trial).
TrialResult run_trial(const std::string& driver_name,
                      const ScenarioParams& params);

}  // namespace dapes::harness
