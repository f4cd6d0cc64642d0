/// @file
/// Reproduction of the real-world feasibility study (paper §VI-E, Fig. 8,
/// Table I) as scripted simulations.
///
/// The paper ran five MacBooks outdoors (50 m WiFi range) through three
/// scenarios; we script the same choreography with WaypointMobility:
///   1. carrier   — A produces; D fetches from A and physically carries
///                  the collection to B's and C's network segments;
///   2. repository — C produces; a stationary repo downloads from C, then
///                  A and B download from the repo simultaneously;
///   3. moving    — A produces; A, B, C, D all move around an
///                  infrastructure-free area with intermittent mutual
///                  connectivity and occasional multi-hop moments.
///
/// Table I's system-load numbers (memory, context switches, system calls,
/// page faults) are modeled proxies derived from protocol state and event
/// counts — see EXPERIMENTS.md for the exact formulas and the rationale.
#pragma once

#include "harness/scenario.hpp"

namespace dapes::harness {

/// Run scenario 1/2/3 of Fig. 8 as an engine trial (the ScenarioParams
/// radio/workload/peer fields apply; the Fig. 7 population fields are
/// ignored — the cast is scripted). download_time_s is the time the *last*
/// peer finishes (Table I), not the Fig. 9/10 mean. This is what the
/// "realworld.*" protocol drivers in the registry call.
TrialResult run_realworld_trial(int scenario, const ScenarioParams& params);

}  // namespace dapes::harness
