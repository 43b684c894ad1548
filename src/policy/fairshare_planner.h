/**
 * @file
 * `fairshare`: FastCap-style proportional-fairness cut split.
 *
 * Every item absorbs cut in proportion to its priority-weighted
 * cappable headroom, so relative slowdown is equalized across the
 * roster instead of concentrated on the hottest bucket: a server
 * drawing twice the cappable power gives up twice the watts, and all
 * servers in a group see roughly the same fractional squeeze. Server
 * weights fall with priority (group g shares at 1 / (1 + g), so lower
 * groups absorb proportionally more); children weight offenders at 2×
 * an innocent's share.
 *
 * Floors clip: when an item's proportional share exceeds its
 * remaining headroom it saturates at the floor and drops out, and the
 * unplaced remainder is redistributed proportionally over the still-
 * active items (at most n rounds — each round saturates at least one
 * item or ends the split). Stateless, allocation-free (scratch in the
 * caller's CappingWorkspace), and pinned bit-identical to the
 * by-value oracle in policy/reference.h.
 */
#ifndef DYNAMO_POLICY_FAIRSHARE_PLANNER_H_
#define DYNAMO_POLICY_FAIRSHARE_PLANNER_H_

#include "policy/capping_policy.h"

namespace dynamo::policy {

/** `fairshare`: weighted proportional split with floor redistribution. */
class FairSharePlanner final : public CappingPolicy
{
  public:
    /** Share multiplier for over-quota children. */
    static constexpr double kOffenderWeight = 2.0;

    PolicyKind kind() const override { return PolicyKind::kFairShare; }

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

#endif  // DYNAMO_POLICY_FAIRSHARE_PLANNER_H_
