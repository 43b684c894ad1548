// Policy-lab brain tests: every brain's allocation-free planner is
// pinned *bit-identical* to its by-value reference oracle
// (policy/reference.h) — exact EXPECT_EQ on doubles, shared
// workspace across iterations, same discipline as the arena
// equivalence tests. Plus the name registry / factory round-trip and
// the three_band brain's delegation to the arena planner.
#include "policy/capping_policy.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "policy/reference.h"
#include "policy/predictive_planner.h"

namespace dynamo::policy {
namespace {

std::vector<ServerPowerInfo>
RandomServers(Rng& rng, std::size_t n, int groups)
{
    std::vector<ServerPowerInfo> servers;
    servers.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        ServerPowerInfo info;
        info.power = rng.Uniform(80.0, 450.0);
        info.priority_group = static_cast<int>(rng.UniformInt(
            static_cast<std::uint64_t>(groups)));
        info.sla_min_cap = rng.Uniform(40.0, 120.0);
        servers.push_back(std::move(info));
    }
    return servers;
}

std::vector<ChildPowerInfo>
RandomChildren(Rng& rng, std::size_t n)
{
    std::vector<ChildPowerInfo> children;
    children.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        ChildPowerInfo info;
        info.quota = rng.Uniform(50'000.0, 200'000.0);
        info.power = info.quota * rng.Uniform(0.7, 1.4);
        info.floor = info.quota * rng.Uniform(0.3, 0.7);
        children.push_back(std::move(info));
    }
    return children;
}

void
ExpectSamePlan(const CappingPlan& got, const CappingPlan& want)
{
    EXPECT_EQ(got.satisfied, want.satisfied);
    EXPECT_EQ(got.planned_cut, want.planned_cut);
    ASSERT_EQ(got.assignments.size(), want.assignments.size());
    for (std::size_t i = 0; i < got.assignments.size(); ++i) {
        EXPECT_EQ(got.assignments[i].index, want.assignments[i].index) << i;
        EXPECT_EQ(got.assignments[i].cap, want.assignments[i].cap) << i;
        EXPECT_EQ(got.assignments[i].cut, want.assignments[i].cut) << i;
    }
}

void
ExpectSamePlan(const OffenderPlan& got, const OffenderPlan& want)
{
    EXPECT_EQ(got.satisfied, want.satisfied);
    EXPECT_EQ(got.planned_cut, want.planned_cut);
    ASSERT_EQ(got.limits.size(), want.limits.size());
    for (std::size_t i = 0; i < got.limits.size(); ++i) {
        EXPECT_EQ(got.limits[i].index, want.limits[i].index) << i;
        EXPECT_EQ(got.limits[i].contractual_limit,
                  want.limits[i].contractual_limit)
            << i;
        EXPECT_EQ(got.limits[i].cut, want.limits[i].cut) << i;
    }
}

PolicyContext
ServerContext()
{
    PolicyContext ctx;
    ctx.bucket_size = 20.0;
    return ctx;
}

PolicyContext
ChildContext()
{
    PolicyContext ctx;
    ctx.bucket_size = 2000.0;
    return ctx;
}

// --- Name registry and factory ---------------------------------------

TEST(PolicyRegistry, NamesRoundTripThroughParse)
{
    for (PolicyKind kind : AllPolicyKinds()) {
        PolicyKind parsed = PolicyKind::kThreeBand;
        ASSERT_TRUE(ParsePolicyKind(PolicyKindName(kind), &parsed))
            << PolicyKindName(kind);
        EXPECT_EQ(parsed, kind);
    }
}

TEST(PolicyRegistry, UnknownNameLeavesOutputUntouched)
{
    PolicyKind parsed = PolicyKind::kWaterfill;
    EXPECT_FALSE(ParsePolicyKind("three-band", &parsed));  // not the token
    EXPECT_FALSE(ParsePolicyKind("", &parsed));
    EXPECT_FALSE(ParsePolicyKind("PREDICTIVE", &parsed));  // case-sensitive
    EXPECT_EQ(parsed, PolicyKind::kWaterfill);
}

TEST(PolicyRegistry, FactoryProducesTheRequestedBrain)
{
    for (PolicyKind kind : AllPolicyKinds()) {
        const auto brain = MakeCappingPolicy(kind);
        ASSERT_NE(brain, nullptr);
        EXPECT_EQ(brain->kind(), kind);
    }
}

// --- three_band: delegation to the arena planner ----------------------

TEST(ThreeBandPlanner, MatchesArenaPlannerExactly)
{
    const auto brain = MakeCappingPolicy(PolicyKind::kThreeBand);
    CappingWorkspace ws;
    CappingWorkspace arena_ws;
    CappingPlan plan;
    CappingPlan want;
    Rng rng(0x3b);
    for (int round = 0; round < 20; ++round) {
        const std::size_t n = 1 + rng.UniformInt(50);
        const auto servers = RandomServers(rng, n, 3);
        Watts total = 0.0;
        for (const auto& s : servers) total += s.power;
        const Watts cut = total * rng.Uniform(0.05, 0.8);

        PolicyContext ctx = ServerContext();
        brain->PlanServerCuts(servers, cut, ctx, ws, &plan);
        ComputeCappingPlan(servers, cut, ctx.bucket_size, arena_ws, &want);
        ExpectSamePlan(plan, want);
    }
}

TEST(ThreeBandPlanner, ChildPlanMatchesOffenderPlannerExactly)
{
    const auto brain = MakeCappingPolicy(PolicyKind::kThreeBand);
    CappingWorkspace ws;
    CappingWorkspace arena_ws;
    OffenderPlan plan;
    OffenderPlan want;
    Rng rng(0x3c);
    for (int round = 0; round < 20; ++round) {
        const std::size_t n = 1 + rng.UniformInt(20);
        const auto children = RandomChildren(rng, n);
        Watts total = 0.0;
        for (const auto& c : children) total += c.power;
        const Watts cut = total * rng.Uniform(0.02, 0.5);

        PolicyContext ctx = ChildContext();
        brain->PlanChildLimits(children, cut, ctx, ws, &plan);
        ComputeOffenderPlan(children, cut, ctx.bucket_size, arena_ws, &want);
        ExpectSamePlan(plan, want);
    }
}

// --- waterfill: exact-FP equivalence with its oracle -------------------

TEST(WaterfillPlanner, ServerPlanMatchesOracleExactly)
{
    const auto brain = MakeCappingPolicy(PolicyKind::kWaterfill);
    CappingWorkspace ws;  // shared: allocation-free reuse must not leak
    CappingPlan plan;
    Rng rng(0xf111);
    for (int round = 0; round < 40; ++round) {
        const std::size_t n = 1 + rng.UniformInt(60);
        const int groups = 1 + static_cast<int>(rng.UniformInt(4));
        const auto servers = RandomServers(rng, n, groups);
        Watts total = 0.0;
        for (const auto& s : servers) total += s.power;
        // From trivial to unsatisfiable (forces the saturation branch).
        const Watts cut = total * rng.Uniform(0.01, 0.95);

        const CappingPlan want = reference::WaterfillServerPlan(servers, cut);
        brain->PlanServerCuts(servers, cut, ServerContext(), ws, &plan);
        ExpectSamePlan(plan, want);
    }
}

TEST(WaterfillPlanner, ChildPlanMatchesOracleExactly)
{
    const auto brain = MakeCappingPolicy(PolicyKind::kWaterfill);
    CappingWorkspace ws;
    OffenderPlan plan;
    Rng rng(0xf112);
    for (int round = 0; round < 40; ++round) {
        const std::size_t n = 1 + rng.UniformInt(24);
        const auto children = RandomChildren(rng, n);
        Watts total = 0.0;
        for (const auto& c : children) total += c.power;
        const Watts cut = total * rng.Uniform(0.01, 0.7);

        const OffenderPlan want = reference::WaterfillChildPlan(children, cut);
        brain->PlanChildLimits(children, cut, ChildContext(), ws, &plan);
        ExpectSamePlan(plan, want);
    }
}

TEST(WaterfillPlanner, RespectsSlaFloorsAndCoversCutWhenFeasible)
{
    const auto brain = MakeCappingPolicy(PolicyKind::kWaterfill);
    CappingWorkspace ws;
    CappingPlan plan;
    Rng rng(0xf113);
    for (int round = 0; round < 20; ++round) {
        const auto servers = RandomServers(rng, 30, 3);
        Watts headroom = 0.0;
        for (const auto& s : servers) {
            headroom += std::max(0.0, s.power - s.sla_min_cap);
        }
        const Watts cut = headroom * 0.6;  // feasible by construction
        brain->PlanServerCuts(servers, cut, ServerContext(), ws, &plan);
        EXPECT_TRUE(plan.satisfied);
        EXPECT_GE(plan.planned_cut, cut - 1e-6);
        for (const auto& a : plan.assignments) {
            EXPECT_GE(a.cap, servers[a.index].sla_min_cap - 1e-9) << a.index;
            EXPECT_GT(a.cut, 0.0);
        }
    }
}

// --- fairshare: exact-FP equivalence with its oracle -------------------

TEST(FairSharePlanner, ServerPlanMatchesOracleExactly)
{
    const auto brain = MakeCappingPolicy(PolicyKind::kFairShare);
    CappingWorkspace ws;
    CappingPlan plan;
    Rng rng(0xfa1);
    for (int round = 0; round < 40; ++round) {
        const std::size_t n = 1 + rng.UniformInt(60);
        const int groups = 1 + static_cast<int>(rng.UniformInt(4));
        const auto servers = RandomServers(rng, n, groups);
        Watts total = 0.0;
        for (const auto& s : servers) total += s.power;
        const Watts cut = total * rng.Uniform(0.01, 0.95);

        const CappingPlan want = reference::FairShareServerPlan(servers, cut);
        brain->PlanServerCuts(servers, cut, ServerContext(), ws, &plan);
        ExpectSamePlan(plan, want);
    }
}

TEST(FairSharePlanner, ChildPlanMatchesOracleExactly)
{
    const auto brain = MakeCappingPolicy(PolicyKind::kFairShare);
    CappingWorkspace ws;
    OffenderPlan plan;
    Rng rng(0xfa2);
    for (int round = 0; round < 40; ++round) {
        const std::size_t n = 1 + rng.UniformInt(24);
        const auto children = RandomChildren(rng, n);
        Watts total = 0.0;
        for (const auto& c : children) total += c.power;
        const Watts cut = total * rng.Uniform(0.01, 0.7);

        const OffenderPlan want = reference::FairShareChildPlan(children, cut);
        brain->PlanChildLimits(children, cut, ChildContext(), ws, &plan);
        ExpectSamePlan(plan, want);
    }
}

TEST(FairSharePlanner, NeverContractsChildBelowFloor)
{
    const auto brain = MakeCappingPolicy(PolicyKind::kFairShare);
    CappingWorkspace ws;
    OffenderPlan plan;
    Rng rng(0xfa3);
    for (int round = 0; round < 20; ++round) {
        const auto children = RandomChildren(rng, 12);
        Watts total = 0.0;
        for (const auto& c : children) total += c.power;
        brain->PlanChildLimits(children, total * 0.9, ChildContext(), ws,
                               &plan);
        for (const auto& l : plan.limits) {
            EXPECT_GE(l.contractual_limit, children[l.index].floor - 1e-9)
                << l.index;
        }
    }
}

// --- predictive: Holt forecast equivalence -----------------------------

TEST(PredictivePlanner, PlanEqualsArenaPlanOfOracleWidenedCut)
{
    PredictivePlanner brain;
    reference::HoltForecast oracle;
    CappingWorkspace ws;
    CappingWorkspace arena_ws;
    CappingPlan plan;
    CappingPlan want;
    Rng rng(0x9d);

    auto servers = RandomServers(rng, 24, 3);
    std::vector<double> powers(servers.size());
    PolicyContext ctx = ServerContext();

    for (int cycle = 0; cycle < 30; ++cycle) {
        // Drift every server's power (an upward trend half the time,
        // so the widening branch actually fires).
        for (std::size_t i = 0; i < servers.size(); ++i) {
            servers[i].power *= rng.Uniform(0.97, 1.06);
            powers[i] = servers[i].power;
        }
        Watts total = 0.0;
        for (const auto& s : servers) total += s.power;
        ctx.aggregated = total;

        brain.ObserveServers(servers, ctx);
        oracle.Observe(powers);

        const Watts cut = total * rng.Uniform(0.05, 0.4);
        brain.PlanServerCuts(servers, cut, ctx, ws, &plan);

        const Watts widened = oracle.WidenedCut(powers, cut);
        EXPECT_GE(widened, cut);  // never cuts less than reactive
        ComputeCappingPlan(servers, widened, ctx.bucket_size, arena_ws,
                           &want);
        ExpectSamePlan(plan, want);
    }
}

TEST(PredictivePlanner, ForecastResetsOnRosterSizeChange)
{
    PredictivePlanner brain;
    reference::HoltForecast oracle;
    CappingWorkspace ws;
    CappingWorkspace arena_ws;
    CappingPlan plan;
    CappingPlan want;
    Rng rng(0x9e);
    PolicyContext ctx = ServerContext();

    auto servers = RandomServers(rng, 16, 2);
    std::vector<double> powers;
    for (int cycle = 0; cycle < 6; ++cycle) {
        powers.resize(servers.size());
        for (std::size_t i = 0; i < servers.size(); ++i) {
            servers[i].power *= rng.Uniform(0.98, 1.05);
            powers[i] = servers[i].power;
        }
        brain.ObserveServers(servers, ctx);
        oracle.Observe(powers);
        if (cycle == 3) {
            // Reconfiguration: roster shrinks; both forecasters reset.
            servers.resize(10);
            oracle = reference::HoltForecast{};
        }
    }
    Watts total = 0.0;
    for (const auto& s : servers) total += s.power;
    const Watts cut = total * 0.2;
    brain.PlanServerCuts(servers, cut, ctx, ws, &plan);
    powers.resize(servers.size());
    for (std::size_t i = 0; i < servers.size(); ++i) {
        powers[i] = servers[i].power;
    }
    ComputeCappingPlan(servers, oracle.WidenedCut(powers, cut),
                       ctx.bucket_size, arena_ws, &want);
    ExpectSamePlan(plan, want);
}

TEST(PredictivePlanner, ResetDropsForecastState)
{
    PredictivePlanner brain;
    CappingWorkspace ws;
    CappingWorkspace arena_ws;
    CappingPlan plan;
    CappingPlan want;
    Rng rng(0x9f);
    PolicyContext ctx = ServerContext();

    auto servers = RandomServers(rng, 12, 2);
    // Build up a rising trend, then Reset: the next plan must equal
    // the plain reactive plan (no widening from stale slope).
    for (int cycle = 0; cycle < 5; ++cycle) {
        for (auto& s : servers) s.power *= 1.08;
        brain.ObserveServers(servers, ctx);
    }
    brain.Reset();
    Watts total = 0.0;
    for (const auto& s : servers) total += s.power;
    const Watts cut = total * 0.25;
    brain.PlanServerCuts(servers, cut, ctx, ws, &plan);
    ComputeCappingPlan(servers, cut, ctx.bucket_size, arena_ws, &want);
    ExpectSamePlan(plan, want);
}

}  // namespace
}  // namespace dynamo::policy
