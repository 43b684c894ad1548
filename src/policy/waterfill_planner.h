/**
 * @file
 * `waterfill`: nvPAX-style constrained-optimization cut split.
 *
 * The split is the exact solution of a small quadratic program,
 *
 *     min  Σ w_i · cut_i² / 2
 *     s.t. Σ cut_i = C,   0 ≤ cut_i ≤ h_i
 *
 * where h_i is the cappable headroom above the hard floor (SLA min cap
 * for servers, contractual floor for children) and w_i is a priority
 * weight: heavier weight → quadratically more expensive to cut. The
 * KKT conditions give cut_i = clamp(λ / w_i, 0, h_i) for a single
 * water level λ, found by monotone bisection (64 iterations, the same
 * idiom as the arena planner's level search). Servers weight by
 * priority group (group g costs 1 + g); children weight offenders
 * (power above quota) at 1 and innocents at 4, a soft version of
 * punish-offender-first — innocents *can* be cut when the offenders'
 * headroom runs out, but at four times the marginal cost.
 *
 * Unlike three_band, every server with headroom shares the cut (the
 * level spreads it smoothly instead of draining the hottest bucket
 * first), so per-server cuts are smaller at equal total — the nvPAX
 * trade: more servers slightly slowed instead of a few heavily capped.
 *
 * Stateless and allocation-free: scratch lives in the caller's
 * CappingWorkspace (headroom in ws.headroom, weights in ws.stage,
 * per-item cuts in ws.cuts). Pinned bit-identical to the by-value
 * oracle in policy/reference.h.
 */
#ifndef DYNAMO_POLICY_WATERFILL_PLANNER_H_
#define DYNAMO_POLICY_WATERFILL_PLANNER_H_

#include "policy/capping_policy.h"

namespace dynamo::policy {

/** `waterfill`: weighted QP water-fill with SLA floors. */
class WaterfillPlanner final : public CappingPolicy
{
  public:
    /** Marginal-cost weight of cutting an innocent (in-quota) child. */
    static constexpr double kInnocentWeight = 4.0;

    PolicyKind kind() const override { return PolicyKind::kWaterfill; }

    void PlanServerCuts(const std::vector<ServerPowerInfo>& servers,
                        Watts cut, const PolicyContext& ctx,
                        CappingWorkspace& ws,
                        CappingPlan* plan) override;

    void PlanChildLimits(const std::vector<ChildPowerInfo>& children,
                         Watts cut, const PolicyContext& ctx,
                         CappingWorkspace& ws,
                         OffenderPlan* plan) override;
};

}  // namespace dynamo::policy

#endif  // DYNAMO_POLICY_WATERFILL_PLANNER_H_
