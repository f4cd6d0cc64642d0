/// @file
/// Channel-realism scenario families: the Fig. 7 DAPES world re-run under
/// non-ideal PHY conditions the paper's unit-disk channel cannot express.
///
/// Both families run the full DAPES stack (`run_dapes_trial`) — they are
/// parameter presets, not new worlds — so every TrialResult metric and
/// every sweep axis (WiFi range, node count via `apply_scale`, ...)
/// composes with them. `bench_channel` is the canonical sweep.
#pragma once

#include "harness/scenario.hpp"

namespace dapes::harness {

/// One loss.sweep trial: the DAPES stack under the log-distance channel
/// (path-loss exponent / shadowing sigma / reception-curve softness come
/// from `params.channel`). A params.channel still at the "unit-disk"
/// default is upgraded to "log-distance" so the family is meaningful even
/// with no explicit channel configuration. Registered under
/// ProtocolNames::kLossSweep.
TrialResult run_loss_sweep_trial(const ScenarioParams& params);

/// One hetero.radio trial: mixed-range radios — an evenly spread
/// `params.hetero_range_fraction` of the nodes run radios with half the
/// nominal range. A negative (unset) fraction defaults to 0.5 — half
/// the field on half-range radios; an explicit 0 is honored as the
/// all-full-range baseline. Composes with any
/// channel model; under log-distance the short radios also transmit
/// proportionally less power (the nominal range is the power proxy).
/// Registered under ProtocolNames::kHeteroRadio.
TrialResult run_hetero_radio_trial(const ScenarioParams& params);

}  // namespace dapes::harness
