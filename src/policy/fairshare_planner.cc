#include "policy/fairshare_planner.h"

namespace dynamo::policy {
namespace {

/**
 * Weighted proportional split with floor redistribution. Headroom in
 * ws.headroom[0..n), weights in ws.stage[0..n); per-item cuts land in
 * ws.cuts. `*satisfied` reports whether the full cut fits within the
 * floors. Returns the total allocated (index-order sum).
 *
 * NOTE: the by-value oracle in reference.cc mirrors this loop
 * structure operation for operation — keep them in lockstep.
 */
double
SolveFairShare(std::size_t n, Watts cut, CappingWorkspace& ws,
               bool* satisfied)
{
    double total_headroom = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        ws.cuts[i] = 0.0;
        total_headroom += ws.headroom[i];
    }
    *satisfied = total_headroom >= cut;
    if (total_headroom <= cut) {
        // Floors saturate: everyone is cut to its floor.
        for (std::size_t i = 0; i < n; ++i) ws.cuts[i] = ws.headroom[i];
        return total_headroom;
    }
    ws.active.clear();
    for (std::size_t i = 0; i < n; ++i) {
        if (ws.headroom[i] > 0.0) {
            ws.active.push_back(static_cast<std::uint32_t>(i));
        }
    }
    double remaining = cut;
    // Each round either clips at least one item at its floor (and
    // drops it from the active set) or places the full remainder, so
    // n + 1 rounds always suffice.
    for (std::size_t round = 0;
         round <= n && remaining > 1e-12 && !ws.active.empty(); ++round) {
        double basis = 0.0;
        for (const std::uint32_t idx : ws.active) {
            basis += ws.stage[idx] * (ws.headroom[idx] - ws.cuts[idx]);
        }
        if (basis <= 0.0) break;
        bool clipped = false;
        double given = 0.0;
        ws.items.clear();  // survivors for the next round
        for (const std::uint32_t idx : ws.active) {
            const double room = ws.headroom[idx] - ws.cuts[idx];
            double share = remaining * (ws.stage[idx] * room) / basis;
            if (share >= room) {
                share = room;
                clipped = true;
            } else {
                ws.items.push_back(idx);
            }
            ws.cuts[idx] += share;
            given += share;
        }
        remaining -= given;
        ws.active.swap(ws.items);
        // No clip means every share fit: the split is complete up to
        // rounding residue, which stays unallocated (harmlessly small
        // against the auditor's SLA epsilon).
        if (!clipped) break;
    }
    double planned = 0.0;
    for (std::size_t i = 0; i < n; ++i) planned += ws.cuts[i];
    return planned;
}

}  // namespace

void
FairSharePlanner::PlanServerCuts(
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
        double group = static_cast<double>(servers[i].priority_group);
        if (group < 0.0) group = 0.0;
        ws.stage[i] = 1.0 / (1.0 + group);
    }
    bool satisfied = false;
    SolveFairShare(n, cut, ws, &satisfied);
    plan->satisfied = satisfied;
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
FairSharePlanner::PlanChildLimits(
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
            children[i].power > children[i].quota ? kOffenderWeight : 1.0;
    }
    bool satisfied = false;
    SolveFairShare(n, cut, ws, &satisfied);
    plan->satisfied = satisfied;
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
