#include "harness/churn.hpp"

namespace dapes::harness {

namespace {

/// Open-membership peer hygiene of the churn.swarm family: without
/// time-based knowledge expiry and stale-claim demotion, bitmaps of
/// departed (or lying) peers poison rarity estimates forever. Only knobs
/// still at their "off" defaults are upgraded, so sweeps can pin them.
void apply_churn_peer_defaults(ScenarioParams& p) {
  if (p.peer.knowledge_ttl.us == 0) {
    p.peer.knowledge_ttl = core::kNeighborTtl * 2;
  }
  if (p.peer.stale_retry_limit == 0) p.peer.stale_retry_limit = 3;
}

}  // namespace

TrialResult run_churn_swarm_trial(const ScenarioParams& params) {
  ScenarioParams p = params;
  apply_churn_peer_defaults(p);
  return run_dapes_trial(p);
}

}  // namespace dapes::harness
