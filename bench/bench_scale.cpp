// Scale bench: the scale.* scenario families swept 44 -> 10000 nodes at
// constant node density (field side grows with sqrt(n); Fig. 7 population
// proportions throughout — see src/harness/scale.hpp).
//
// Unlike the figure benches this one is hand-rolled over the TrialRunner
// rather than run_sweep: every series shares the *same* derived seed per
// (node count, trial), so the grid-vs-brute pairs run bit-identical
// workloads. That makes the committed baseline double as an equivalence
// proof — `dapes+grid+waypoint` and `dapes+brute+waypoint` (and the
// `medium+*` pair) must agree on every deterministic metric, differing
// only in `trial_wall_s`.
//
// Two series groups:
//   dapes+*      — the full DAPES stack (scale.field). Protocol work
//                  (PIT/CS lookups, crypto) dominates its trial time, so
//                  the grid shows up as a modest win here.
//   medium+*     — the medium-bound stress family (scale.medium):
//                  broadcast beacons + 20 Hz neighborhood-density sweeps,
//                  no NDN stack. This isolates what the spatial grid
//                  replaced; the brute-force O(n^2) blowup (and the >=5x
//                  grid speedup from ~500 nodes) is measured on this pair.
//
// Not every series runs at every x. The 10k point is single-trial, runs
// on a reduced sim horizon, and only for the two cheap grid series.
// Skipped cells are written as 0.0 and each skip is logged at WARN
// through common/logging (the reduced-trial 10k note logs at INFO; dial
// --log-level info to see it), so a 0.0 in the output is always
// accounted for rather than a silent truncation.
//
// BENCH_scale.json is the committed baseline (`--trials 1 --jobs 1
// --format json`); absolute wall timings are machine-dependent, the
// tracked quantity is the medium+brute : medium+grid ratio. `--no-wall`
// drops trial_wall_s for byte-for-byte determinism diffs (CI compares
// --jobs 1 vs 4).
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "harness/metrics.hpp"
#include "harness/scale.hpp"
#include "harness/trial_runner.hpp"

using namespace dapes;

namespace {

constexpr double kBigN = 10000;
// The 10k single-trial point runs on a shortened horizon: at Fig. 7
// density a 180 s horizon costs hours of wall clock on one core, and the
// per-event cost the point measures is stable well before 60 s.
constexpr double kBigNLimitS = 60.0;

struct SeriesDef {
  const char* label;
  const char* driver;
  // Largest node count this series runs at; cells above it are skipped
  // (0.0 in the output, logged to stderr).
  double max_nodes;
  std::function<void(harness::ScenarioParams&)> configure;
};

}  // namespace

int main(int argc, char** argv) {
  auto args = bench::BenchArgs::parse(argc, argv);

  harness::ScenarioParams base = args.scenario();
  base.files = 1;
  if (!args.paper_scale) base.file_size_bytes = 16 * 1024;
  base.sim_limit_s = args.quick ? 60.0 : 180.0;
  const double stress_limit_s = args.quick ? 10.0 : 30.0;

  const std::vector<double> xs =
      args.quick ? std::vector<double>{44, 120}
                 : std::vector<double>{44, 100, 200, 500, 1000, kBigN};

  const std::vector<SeriesDef> series = {
      {"dapes+grid+waypoint", harness::ProtocolNames::kScaleField, kBigN,
       [](harness::ScenarioParams& p) {
         p.mobility = harness::MobilityKind::kRandomWaypoint;
       }},
      {"dapes+grid+group", harness::ProtocolNames::kScaleField, 1000,
       [](harness::ScenarioParams& p) {
         p.mobility = harness::MobilityKind::kGroup;
       }},
      {"dapes+brute+waypoint", harness::ProtocolNames::kScaleField, 1000,
       [](harness::ScenarioParams& p) {
         p.mobility = harness::MobilityKind::kRandomWaypoint;
         p.brute_force_medium = true;
       }},
      {"medium+grid", harness::ProtocolNames::kScaleMedium, kBigN,
       [stress_limit_s](harness::ScenarioParams& p) {
         p.mobility = harness::MobilityKind::kRandomWaypoint;
         p.sim_limit_s = stress_limit_s;
       }},
      {"medium+brute", harness::ProtocolNames::kScaleMedium, 1000,
       [stress_limit_s](harness::ScenarioParams& p) {
         p.mobility = harness::MobilityKind::kRandomWaypoint;
         p.sim_limit_s = stress_limit_s;
         p.brute_force_medium = true;
       }},
  };

  std::vector<harness::SweepMetric> metrics;
  if (!args.no_wall) metrics.push_back(harness::trial_wall_metric());
  metrics.push_back(harness::download_time_metric());
  metrics.push_back(harness::transmissions_k_metric());
  metrics.push_back(harness::completion_metric());

  // Open the sink first: a bad --out path should fail before the sweep
  // burns minutes of trials (same contract as BenchArgs::run).
  std::FILE* f = stdout;
  if (!args.out.empty()) {
    f = std::fopen(args.out.c_str(), "w");
    if (f == nullptr) {
      DAPES_LOG_ERROR("bench_scale") << "cannot open --out file " << args.out;
      return 1;
    }
  }

  const size_t trials = static_cast<size_t>(args.trials);
  auto series_runs = [&](size_t si, size_t xi) {
    return xs[xi] <= series[si].max_nodes;
  };
  // The 10k point is a single-trial baseline regardless of --trials.
  auto cell_trials = [&](size_t xi) -> size_t {
    return xs[xi] >= kBigN ? 1 : trials;
  };

  const size_t n_cells = series.size() * xs.size();
  std::vector<std::vector<harness::TrialResult>> raw(
      n_cells, std::vector<harness::TrialResult>(trials));

  harness::TrialRunner runner(args.jobs);
  runner.for_each_index(n_cells * trials, [&](size_t task) {
    const size_t cell = task / trials;
    const size_t trial = task % trials;
    const size_t si = cell / xs.size();
    const size_t xi = cell % xs.size();
    if (!series_runs(si, xi) || trial >= cell_trials(xi)) return;

    harness::ScenarioParams p = base;
    harness::apply_scale(p, xs[xi]);
    series[si].configure(p);
    if (xs[xi] >= kBigN) p.sim_limit_s = std::min(p.sim_limit_s, kBigNLimitS);
    // Seed by (x, trial) only — shared across series, so grid/brute
    // cells run identical workloads.
    p.seed = common::derive_seed(common::derive_seed(args.seed, xi), trial);
    // Per-task trace file, named by grid position (never by thread).
    p.trace = trace::with_path_suffix(
        p.trace, ".c" + std::to_string(cell) + ".t" + std::to_string(trial));
    raw[cell][trial] = harness::run_trial(series[si].driver, p);
  });

  harness::SweepResult result;
  result.title = "scale: trial cost vs node count (grid vs brute force)";
  result.x_label = "nodes";
  result.y_unit = "seconds";
  result.xs = xs;
  for (const auto& s : series) result.series_labels.push_back(s.label);
  for (const auto& m : metrics) result.metric_labels.push_back(m.label);
  result.values.resize(metrics.size());
  for (size_t m = 0; m < metrics.size(); ++m) {
    result.values[m].resize(series.size());
    for (size_t si = 0; si < series.size(); ++si) {
      result.values[m][si].resize(xs.size());
      for (size_t xi = 0; xi < xs.size(); ++xi) {
        if (!series_runs(si, xi)) {
          result.values[m][si][xi] = 0.0;
          if (m == 0) {
            DAPES_LOG_WARN("bench_scale")
                << "skipping " << series[si].label << " at " << xs[xi]
                << " nodes (series runs up to " << series[si].max_nodes
                << "); cell written as 0.0";
          }
          continue;
        }
        const size_t take = cell_trials(xi);
        std::vector<double> samples;
        samples.reserve(take);
        const auto& cell = raw[si * xs.size() + xi];
        for (size_t t = 0; t < take; ++t) {
          samples.push_back(metrics[m].value(cell[t]));
        }
        if (m == 0 && take < trials) {
          DAPES_LOG_INFO("bench_scale")
              << series[si].label << " at " << xs[xi] << " nodes ran " << take
              << "/" << trials << " trials (single-trial 10k point, sim "
              << "horizon <= " << kBigNLimitS << " s)";
        }
        result.values[m][si][xi] =
            harness::aggregate_metric(metrics[m], std::move(samples));
      }
    }
  }

  harness::write_sweep(result, args.format, f);
  if (f != stdout) std::fclose(f);
  return 0;
}
