/// @file
/// Parallel trial execution.
///
/// Every trial owns its own Scheduler/Medium/Rng, so N trials are
/// embarrassingly parallel. TrialRunner fans a batch of trials out over a
/// std::thread pool; trial i always runs with seed
/// common::derive_seed(params.seed, i), so the result vector is bit-identical
/// regardless of thread count or scheduling — `--jobs 8` reproduces
/// `--jobs 1` exactly (see EXPERIMENTS.md "Seed derivation"). The interior
/// of each trial is the serial event loop on one thread.
#pragma once

#include <functional>
#include <vector>

#include "harness/driver.hpp"
#include "harness/scenario.hpp"

namespace dapes::harness {

/// Fans independent trials out over a std::thread pool; results are
/// bit-identical for any thread count (see file comment).
class TrialRunner {
 public:
  /// jobs <= 0 means "all hardware threads".
  explicit TrialRunner(int jobs = 0);

  /// Worker threads this runner uses.
  int jobs() const { return jobs_; }

  /// Run `trials` independent trials of `driver`. Trial i uses seed
  /// derive_seed(params.seed, i); results are ordered by trial index.
  std::vector<TrialResult> run(const ProtocolDriver& driver,
                               const ScenarioParams& params, int trials) const;

  /// Registry-name convenience.
  std::vector<TrialResult> run(const std::string& driver_name,
                               const ScenarioParams& params, int trials) const;

  /// Low-level fan-out used by Sweep: invoke fn(i) for every i in [0, n)
  /// across the pool. fn must be thread-safe and must not depend on
  /// execution order. The first exception thrown by any fn is rethrown
  /// after all workers join.
  void for_each_index(size_t n, const std::function<void(size_t)>& fn) const;

 private:
  int jobs_;
};

}  // namespace dapes::harness
