/**
 * @file
 * `predictive`: Holt-style demand prediction over the arena planner.
 *
 * A purely reactive controller caps against the *last* reading; when
 * demand is still climbing the cut is already stale by the time RAPL
 * settles, the next cycle caps again, and near the uncap threshold the
 * controller flaps. This brain keeps a per-roster-slot Holt
 * (level + slope) exponential smoother updated on every valid cycle
 * and, when the predicted next-window aggregate exceeds the measured
 * one, widens the requested cut by the difference before delegating
 * the *split* to the paper's arena planner.
 *
 * The widening is one-sided by design: the effective cut is
 * `cut + max(0, predicted − measured)`, never less than the reactive
 * cut. Under-cutting on an optimistic forecast could leave the breaker
 * above its limit (and would violate the chaos auditor's
 * satisfied ⇒ planned ≥ cut rule); over-cutting merely lands deeper in
 * the hysteresis band, which is exactly the anti-flap effect wanted.
 *
 * State is keyed by roster index and resets whenever the roster size
 * changes (reconfiguration); all updates are plain double arithmetic
 * in roster order, so journals stay byte-identical across --threads.
 */
#ifndef DYNAMO_POLICY_PREDICTIVE_PLANNER_H_
#define DYNAMO_POLICY_PREDICTIVE_PLANNER_H_

#include "policy/capping_policy.h"

namespace dynamo::policy {

/** `predictive`: EWMA/slope forecast widening the reactive cut. */
class PredictivePlanner final : public CappingPolicy
{
  public:
    /** Level smoothing factor (weight of the newest reading). */
    static constexpr double kAlpha = 0.5;

    /** Trend smoothing factor. */
    static constexpr double kBeta = 0.3;

    PolicyKind kind() const override { return PolicyKind::kPredictive; }

    bool WantsObservations() const override { return true; }

    void ObserveServers(const std::vector<ServerPowerInfo>& servers,
                        const PolicyContext& ctx) override;

    void ObserveChildren(const std::vector<ChildPowerInfo>& children,
                         const PolicyContext& ctx) override;

    void PlanServerCuts(const std::vector<ServerPowerInfo>& servers,
                        Watts cut, const PolicyContext& ctx,
                        CappingWorkspace& ws,
                        CappingPlan* plan) override;

    void PlanChildLimits(const std::vector<ChildPowerInfo>& children,
                         Watts cut, const PolicyContext& ctx,
                         CappingWorkspace& ws,
                         OffenderPlan* plan) override;

    void Reset() override;

    /** Forecast state (level/slope per slot, both levels). */
    void Snapshot(Archive& ar) const override;

  private:
    /** Leaf-level forecast, one slot per roster index. */
    std::vector<double> level_;
    std::vector<double> slope_;

    /** Upper-level forecast, one slot per fresh-child index. */
    std::vector<double> child_level_;
    std::vector<double> child_slope_;
};

}  // namespace dynamo::policy

#endif  // DYNAMO_POLICY_PREDICTIVE_PLANNER_H_
