#include "sim/faults.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <utility>

#include "trace/trace.hpp"

namespace dapes::sim {

namespace {

/// Stream-family tag of the fault layer ("falt"), parallel to the
/// channel layer's "chan"/"shad" tags: the base of every fault draw,
/// derived from the trial seed.
constexpr uint64_t kFaultTag = 0x66616c74ULL;

uint64_t stream_base(uint64_t trial_seed) {
  return common::derive_seed(trial_seed, kFaultTag);
}

/// Outage duration for crashed nodes (seconds); the restart is skipped
/// (the crash becomes permanent) if it would land past the sim limit.
constexpr double kRestartDelayS = 30.0;
/// When the flash-crowd wave starts, and the window its arrivals spread
/// uniformly over (seconds).
constexpr double kFlashCrowdAtS = 60.0;
constexpr double kFlashCrowdWindowS = 10.0;
/// Departures pause while the removable pool is at or below this
/// fraction of its initial size (the swarm never empties out).
constexpr double kMinAliveFraction = 0.25;

/// Inverse-CDF exponential inter-arrival draw at @p rate_hz (> 0).
double exp_draw(common::Rng& rng, double rate_hz) {
  return -std::log(1.0 - rng.uniform01()) / rate_hz;
}

TimePoint at_seconds(double s) {
  return TimePoint{static_cast<int64_t>(s * 1e6)};
}

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLeave:
      return "leave";
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kRestart:
      return "restart";
    case FaultKind::kJoin:
      return "join";
  }
  return "?";
}

FaultPlan FaultPlan::compile(const FaultParams& params,
                             const Population& population, double sim_limit_s,
                             uint64_t trial_seed) {
  FaultPlan plan;
  const uint64_t base = stream_base(trial_seed);
  // One derived stream per process, so adding (say) a flash crowd never
  // shifts the leave draws — the axes stay independent, like the
  // channel layer's per-frame vs per-link streams.
  common::Rng leave_rng(common::derive_seed(base, 1));
  common::Rng crash_rng(common::derive_seed(base, 2));
  common::Rng flash_rng(common::derive_seed(base, 3));
  common::Rng join_rng(common::derive_seed(base, 4));

  // Flash-crowd wave: arrivals uniform over the window, consuming the
  // latent pool from the front. Slots are consumed even when a draw
  // lands past the limit so the join stream below starts at a position
  // independent of the limit.
  size_t latent_used = 0;
  const size_t flash =
      std::min(static_cast<size_t>(std::max(0, params.flash_crowd_size)),
               population.latent.size());
  for (size_t i = 0; i < flash; ++i) {
    const double when =
        kFlashCrowdAtS + flash_rng.uniform(0.0, kFlashCrowdWindowS);
    if (when < sim_limit_s) {
      plan.events_.push_back({at_seconds(when), FaultKind::kJoin,
                              population.latent[latent_used]});
    }
    ++latent_used;
  }

  // Poisson admissions drain the rest of the latent pool in order.
  if (params.join_rate_hz > 0.0) {
    double t = kWarmupS;
    while (latent_used < population.latent.size()) {
      t += exp_draw(join_rng, params.join_rate_hz);
      if (t >= sim_limit_s) break;
      plan.events_.push_back({at_seconds(t), FaultKind::kJoin,
                              population.latent[latent_used++]});
    }
  }

  // Departure walk over the removable pool. The pool is kept sorted so
  // the victim index draw means the same node regardless of insertion
  // history; crash victims re-enter at their restart and become
  // eligible again. Admitted latent nodes deliberately do not join the
  // pool: flash-crowd arrivals stay for the trial, which keeps the walk
  // a function of the initial population alone.
  if (params.leave_rate_hz > 0.0 && !population.removable.empty()) {
    std::vector<uint32_t> pool = population.removable;
    std::sort(pool.begin(), pool.end());
    const size_t min_alive = static_cast<size_t>(
        std::ceil(kMinAliveFraction * static_cast<double>(pool.size())));
    // Restart times are t + kRestartDelayS with t monotone, so a FIFO
    // holds them in order.
    std::deque<std::pair<double, uint32_t>> restarts;
    auto process_restarts = [&](double upto) {
      while (!restarts.empty() && restarts.front().first <= upto) {
        const uint32_t node = restarts.front().second;
        restarts.pop_front();
        pool.insert(std::upper_bound(pool.begin(), pool.end(), node), node);
      }
    };

    double t = kWarmupS;
    while (t < sim_limit_s) {
      process_restarts(t);
      if (pool.size() <= min_alive) {
        // Departure floor reached: nothing can leave until a crashed
        // node comes back.
        if (restarts.empty()) break;
        t = restarts.front().first;
        continue;
      }
      t += exp_draw(leave_rng,
                    params.leave_rate_hz * static_cast<double>(pool.size()));
      if (t >= sim_limit_s) break;
      process_restarts(t);
      if (pool.size() <= min_alive) continue;
      const size_t idx = static_cast<size_t>(
          leave_rng.next_below(static_cast<uint64_t>(pool.size())));
      const uint32_t victim = pool[idx];
      pool.erase(pool.begin() + static_cast<ptrdiff_t>(idx));
      const bool crash =
          params.crash_fraction > 0.0 && crash_rng.chance(params.crash_fraction);
      if (crash) {
        plan.events_.push_back({at_seconds(t), FaultKind::kCrash, victim});
        const double back = t + kRestartDelayS;
        if (back < sim_limit_s) {
          plan.events_.push_back(
              {at_seconds(back), FaultKind::kRestart, victim});
          restarts.emplace_back(back, victim);
        }
        // A restart past the limit makes the crash permanent.
      } else {
        plan.events_.push_back({at_seconds(t), FaultKind::kLeave, victim});
      }
    }
  }

  std::sort(plan.events_.begin(), plan.events_.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              if (a.at.us != b.at.us) return a.at.us < b.at.us;
              if (a.kind != b.kind) return a.kind < b.kind;
              return a.target < b.target;
            });
  return plan;
}

std::vector<uint32_t> FaultPlan::pick_adversaries(
    const FaultParams& params, const std::vector<uint32_t>& candidates,
    uint64_t trial_seed) {
  const double fraction = std::clamp(params.adversarial_fraction, 0.0, 1.0);
  const size_t k = static_cast<size_t>(
      std::floor(fraction * static_cast<double>(candidates.size())));
  if (k == 0) return {};
  std::vector<uint32_t> picked = candidates;
  common::Rng rng(common::derive_seed(stream_base(trial_seed), 5));
  rng.shuffle(picked);
  picked.resize(k);
  std::sort(picked.begin(), picked.end());
  return picked;
}

size_t FaultPlan::admitted_joins() const {
  size_t joins = 0;
  for (const FaultEvent& ev : events_) {
    if (ev.kind == FaultKind::kJoin) ++joins;
  }
  return joins;
}

void FaultPlan::install(Scheduler& sched, ApplyFn apply) const {
  if (events_.empty()) return;
  auto shared = std::make_shared<ApplyFn>(std::move(apply));
  for (const FaultEvent& ev : events_) {
    sched.schedule_at(ev.at, [shared, ev] {
      DAPES_TRACE_EVENT(trace::EventType::kFaultInject, ev.target,
                        static_cast<uint64_t>(ev.kind));
      (*shared)(ev);
    });
  }
}

}  // namespace dapes::sim
