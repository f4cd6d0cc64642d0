/// @file
/// The paper's trial aggregation: an interpolated percentile.
///
/// The paper reports the 90th percentile over ten trials; benches default
/// to fewer trials for turnaround but use the same aggregation (the
/// Sweep engine's `SweepMetric::percentile`).
#pragma once

#include <vector>

namespace dapes::harness {

/// Interpolated percentile (p in [0,100]) of a sample vector.
double percentile(std::vector<double> values, double p);

}  // namespace dapes::harness
