/**
 * @file
 * By-value reference oracles for every capping planner.
 *
 * Each oracle is a plain, allocation-happy implementation of the same
 * math with the same floating-point operation order as the optimized
 * planner it pins, so equivalence tests can use exact EXPECT_EQ on
 * every double — any drift between a planner and its oracle (reordered
 * sums, a "clever" refactor changing rounding) fails loudly instead of
 * silently invalidating recorded journals. Not for production use:
 * these allocate per call (per-group array copies, a std::map for
 * priority grouping, rebuilt active sets in the water-fill).
 *
 * The arena planner (three_band) is pinned by the clarity-first
 * originals of BucketedEvenCut / ComputeCappingPlan /
 * ComputeOffenderPlan; waterfill and fairshare by their by-value
 * solvers; predictive by its forecast (the split itself is the arena
 * planner's).
 */
#ifndef DYNAMO_POLICY_REFERENCE_H_
#define DYNAMO_POLICY_REFERENCE_H_

#include <vector>

#include "common/units.h"
#include "policy/capping_policy.h"

namespace dynamo::policy::reference {

/** Original ComputeCappingPlan (allocates per call). */
CappingPlan ComputeCappingPlan(const std::vector<ServerPowerInfo>& servers,
                               Watts total_power_cut,
                               Watts bucket_size = 20.0);

/** Original ComputeOffenderPlan. */
OffenderPlan ComputeOffenderPlan(const std::vector<ChildPowerInfo>& children,
                                 Watts total_power_cut,
                                 Watts bucket_size = 2000.0);

/** Original BucketedEvenCut. */
std::vector<Watts> BucketedEvenCut(const std::vector<Watts>& powers,
                                   const std::vector<Watts>& floors, Watts cut,
                                   Watts bucket_size);

/** Oracle for WaterfillPlanner::PlanServerCuts. */
CappingPlan WaterfillServerPlan(const std::vector<ServerPowerInfo>& servers,
                                Watts cut);

/** Oracle for WaterfillPlanner::PlanChildLimits. */
OffenderPlan WaterfillChildPlan(const std::vector<ChildPowerInfo>& children,
                                Watts cut);

/** Oracle for FairSharePlanner::PlanServerCuts. */
CappingPlan FairShareServerPlan(const std::vector<ServerPowerInfo>& servers,
                                Watts cut);

/** Oracle for FairSharePlanner::PlanChildLimits. */
OffenderPlan FairShareChildPlan(const std::vector<ChildPowerInfo>& children,
                                Watts cut);

/**
 * Oracle for the PredictivePlanner forecast: feed it the same power
 * sequences and it reproduces the brain's Holt state and cut widening
 * bit for bit. The brain then delegates the split to the arena
 * planner, so PredictivePlanner::PlanServerCuts must equal
 * ComputeCappingPlan(servers, WidenedCut(powers, cut)) exactly.
 */
struct HoltForecast
{
    std::vector<double> level;
    std::vector<double> slope;

    /** One observation pass (mirrors the brain's per-cycle update). */
    void Observe(const std::vector<double>& powers);

    /** cut + max(0, predicted aggregate − measured aggregate). */
    Watts WidenedCut(const std::vector<double>& powers, Watts cut) const;
};

}  // namespace dynamo::policy::reference

#endif  // DYNAMO_POLICY_REFERENCE_H_
