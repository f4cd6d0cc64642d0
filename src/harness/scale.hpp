/// @file
/// The scale.field scenario family: the Fig. 7 DAPES world swept along the
/// node-count axis instead of the WiFi-range axis.
///
/// The paper evaluates on a 44-node field; this family grows that field to
/// hundreds or thousands of nodes while holding node *density* constant —
/// the field side scales with sqrt(n), and the four population classes
/// (stationary repositories, mobile downloaders, pure forwarders, DAPES
/// intermediates) keep their 4:20:10:10 Fig. 7 proportions. Density is the
/// quantity that keeps per-node contact rates comparable across the sweep,
/// so the axis isolates how the *system* scales rather than how crowded
/// the channel gets.
///
/// A scale.field trial is `run_dapes_trial` on the resized params; the
/// registry keeps the name "scale.field" for it. Callers pick the mobility
/// model (random direction / random waypoint / group) and the medium
/// implementation (spatial grid vs the brute-force reference) through
/// ScenarioParams. bench_scale is the canonical sweep over it.
///
/// The axis reaches 10 000 nodes (a ~1.4 km field at Fig. 7 density);
/// apply_scale is closed-form in n, so nothing special happens at that
/// size — but trials there are wall-clock expensive, so bench_scale runs
/// the 10k point as a single-trial baseline on a reduced sim horizon
/// rather than with multi-trial aggregation.
#pragma once

#include "harness/scenario.hpp"

namespace dapes::harness {

/// Population of the paper's Fig. 7 field; the reference point of the
/// scale axis (44 nodes on a 300 m x 300 m field).
inline constexpr int kFig7Nodes = 44;

/// Resize `p` to `total_nodes` nodes at constant density: Fig. 7
/// population proportions, field side scaled by sqrt(n / 44). Intended as
/// a SweepAxis::apply function (axis label "nodes"). Counts below the
/// four-class minimum (1 repository, 2 mobile downloaders) are clamped.
void apply_scale(ScenarioParams& p, double total_nodes);

/// One scale.medium trial: the same scaled field, but driving the medium
/// directly — every node broadcasts fixed-size frames through a CSMA
/// radio at a fixed offered load, and a 20 Hz strategy tick recomputes
/// every node's neighborhood density (Medium::degree_of), with
/// no NDN stack on top. This isolates the subsystem the spatial grid
/// replaced: on the full DAPES stack the per-delivery protocol work
/// (PIT/CS lookups, crypto) dominates trial time, so the medium-bound
/// trial is where the O(n^2) -> O(n * density) win is visible. All
/// traffic decisions are independent of delivery outcomes, so the
/// deterministic outputs are bit-identical between the grid and the
/// brute-force reference. Registered under ProtocolNames::kScaleMedium.
TrialResult run_medium_stress_trial(const ScenarioParams& params);

}  // namespace dapes::harness
