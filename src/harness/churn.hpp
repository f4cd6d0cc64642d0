/// @file
/// Open-membership scenario family: the Fig. 7 DAPES world with node
/// lifecycle as a simulated event (src/sim/faults.hpp).
///
/// Like the channel families this is a parameter preset over
/// `run_dapes_trial`, not a new world: every TrialResult metric, sweep
/// axis and determinism guarantee composes with it. `bench_churn` is the
/// canonical sweep; EXPERIMENTS.md documents the axes.
#pragma once

#include "harness/scenario.hpp"

namespace dapes::harness {

/// One churn.swarm trial: the full DAPES stack under the fault knobs of
/// `params.faults` (Poisson leave/join churn, crash+restart outages,
/// flash crowds, bitmap liars) with open-membership peer hygiene: an RPF
/// knowledge TTL of twice the neighbor TTL and stale-claim demotion
/// after 3 retry rounds, each applied only when the caller left it off.
/// Registered under ProtocolNames::kChurnSwarm.
TrialResult run_churn_swarm_trial(const ScenarioParams& params);

}  // namespace dapes::harness
