#include "policy/waterfill_planner.h"

namespace dynamo::policy {
namespace {

/**
 * Solve cut_i = clamp(λ / w_i, 0, h_i) with Σ cut_i = cut by water-
 * level bisection. Headroom in ws.headroom[0..n), weights in
 * ws.stage[0..n); per-item cuts land in ws.cuts. Returns the total
 * allocated (index-order sum; ≥ cut unless headroom saturates).
 *
 * NOTE: the by-value oracle in reference.cc mirrors this loop
 * structure operation for operation — keep them in lockstep.
 */
double
SolveWaterfill(std::size_t n, Watts cut, CappingWorkspace& ws)
{
    double total_headroom = 0.0;
    for (std::size_t i = 0; i < n; ++i) total_headroom += ws.headroom[i];
    if (total_headroom <= cut) {
        // Floors saturate: everyone is cut to its floor.
        for (std::size_t i = 0; i < n; ++i) ws.cuts[i] = ws.headroom[i];
        return total_headroom;
    }
    double lo = 0.0;
    double hi = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double top = ws.stage[i] * ws.headroom[i];
        if (top > hi) hi = top;
    }
    // Invariant: allocated(hi) >= cut (true initially: at the top
    // level every item sits at its headroom and total_headroom > cut).
    for (int iter = 0; iter < 64 && hi - lo > 1e-9; ++iter) {
        const double mid = 0.5 * (lo + hi);
        double alloc = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const double c = mid / ws.stage[i];
            alloc += c < ws.headroom[i] ? c : ws.headroom[i];
        }
        if (alloc < cut) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    double planned = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double c = hi / ws.stage[i];
        ws.cuts[i] = c < ws.headroom[i] ? c : ws.headroom[i];
        planned += ws.cuts[i];
    }
    return planned;
}

}  // namespace

void
WaterfillPlanner::PlanServerCuts(
    const std::vector<ServerPowerInfo>& servers, Watts cut,
    const PolicyContext&, CappingWorkspace& ws, CappingPlan* plan)
{
    plan->assignments.clear();
    plan->planned_cut = 0.0;
    const std::size_t n = servers.size();
    if (n == 0 || cut <= 0.0) {
        plan->satisfied = cut <= 0.0;
        return;
    }
    ws.Prepare(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double h = servers[i].power - servers[i].sla_min_cap;
        ws.headroom[i] = h > 0.0 ? h : 0.0;
        double w = 1.0 + static_cast<double>(servers[i].priority_group);
        if (w < 1.0) w = 1.0;
        ws.stage[i] = w;
    }
    const double planned = SolveWaterfill(n, cut, ws);
    plan->satisfied = planned >= cut;
    for (std::size_t i = 0; i < n; ++i) {
        if (ws.cuts[i] <= 0.0) continue;
        CapAssignment assignment;
        assignment.index = i;
        assignment.cap = servers[i].power - ws.cuts[i];
        assignment.cut = ws.cuts[i];
        plan->planned_cut += ws.cuts[i];
        plan->assignments.push_back(std::move(assignment));
    }
}

void
WaterfillPlanner::PlanChildLimits(
    const std::vector<ChildPowerInfo>& children, Watts cut,
    const PolicyContext&, CappingWorkspace& ws, OffenderPlan* plan)
{
    plan->limits.clear();
    plan->planned_cut = 0.0;
    const std::size_t n = children.size();
    if (n == 0 || cut <= 0.0) {
        plan->satisfied = cut <= 0.0;
        return;
    }
    ws.Prepare(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double h = children[i].power - children[i].floor;
        ws.headroom[i] = h > 0.0 ? h : 0.0;
        ws.stage[i] =
            children[i].power > children[i].quota ? 1.0 : kInnocentWeight;
    }
    const double planned = SolveWaterfill(n, cut, ws);
    plan->satisfied = planned >= cut;
    for (std::size_t i = 0; i < n; ++i) {
        if (ws.cuts[i] <= 0.0) continue;
        ChildLimit limit;
        limit.index = i;
        limit.contractual_limit = children[i].power - ws.cuts[i];
        limit.cut = ws.cuts[i];
        plan->planned_cut += ws.cuts[i];
        plan->limits.push_back(std::move(limit));
    }
}

}  // namespace dynamo::policy
