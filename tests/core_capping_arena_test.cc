// Equivalence tests pinning the allocation-free capping paths to the
// original implementations (policy/reference.h), plus edge
// cases for the shared BucketedEvenCut primitive. The optimized code
// must be *bit-identical* — same iteration order, same floating-point
// operation order — so every comparison below is exact (EXPECT_EQ on
// doubles), not approximate.
#include "policy/capping_policy.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "policy/reference.h"

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
        // Mix offenders (power > quota) and compliant children.
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

TEST(CappingArenaEquivalence, CappingPlanMatchesReferenceAcrossBucketSizes)
{
    // 0 is pure water-fill within each priority group.
    const Watts fixed_buckets[] = {0.0, 10.0, 20.0, 30.0};
    CappingWorkspace ws;  // deliberately shared across all iterations
    CappingPlan plan;
    Rng rng(0xcafe);
    for (int round = 0; round < 40; ++round) {
        const std::size_t n = 1 + rng.UniformInt(60);
        const int groups = 1 + static_cast<int>(rng.UniformInt(4));
        const auto servers = RandomServers(rng, n, groups);

        Watts total = 0.0;
        for (const auto& s : servers) total += s.power;
        // Cuts from trivial to unsatisfiable.
        const Watts cut = total * rng.Uniform(0.01, 0.9);
        const Watts random_bucket = rng.Uniform(5.0, 40.0);

        for (Watts bucket : fixed_buckets) {
            const CappingPlan want =
                reference::ComputeCappingPlan(servers, cut, bucket);
            ComputeCappingPlan(servers, cut, bucket, ws, &plan);
            ExpectSamePlan(plan, want);
        }
        const CappingPlan want =
            reference::ComputeCappingPlan(servers, cut, random_bucket);
        ComputeCappingPlan(servers, cut, random_bucket, ws, &plan);
        ExpectSamePlan(plan, want);
        ExpectSamePlan(ComputeCappingPlan(servers, cut, random_bucket), want);
    }
}

TEST(CappingArenaEquivalence, OffenderPlanMatchesReference)
{
    CappingWorkspace ws;
    OffenderPlan plan;
    Rng rng(0xbeef);
    for (int round = 0; round < 40; ++round) {
        const std::size_t n = 1 + rng.UniformInt(24);
        const auto children = RandomChildren(rng, n);
        Watts total = 0.0;
        for (const auto& c : children) total += c.power;
        const Watts cut = total * rng.Uniform(0.01, 0.6);
        const Watts bucket = rng.Uniform(500.0, 5000.0);

        const OffenderPlan want =
            reference::ComputeOffenderPlan(children, cut, bucket);
        ComputeOffenderPlan(children, cut, bucket, ws, &plan);
        ExpectSamePlan(plan, want);

        const OffenderPlan by_value =
            ComputeOffenderPlan(children, cut, bucket);
        ExpectSamePlan(by_value, want);
    }
}

TEST(CappingArenaEquivalence, WorkspaceReuseDoesNotLeakStateBetweenCalls)
{
    // A big call followed by a small one: stale entries in the arena
    // beyond the small call's item count must not influence the result.
    CappingWorkspace ws;
    CappingPlan plan;
    Rng rng(3);
    const auto big = RandomServers(rng, 64, 3);
    ComputeCappingPlan(big, 5000.0, 20.0, ws, &plan);

    const auto small = RandomServers(rng, 3, 1);
    const CappingPlan want = reference::ComputeCappingPlan(small, 120.0, 20.0);
    ComputeCappingPlan(small, 120.0, 20.0, ws, &plan);
    ExpectSamePlan(plan, want);
}

// --- BucketedEvenCut edge cases (each pinned to the reference too) ---

void
ExpectSameCuts(const std::vector<Watts>& powers,
               const std::vector<Watts>& floors, Watts cut, Watts bucket)
{
    const std::vector<Watts> want =
        reference::BucketedEvenCut(powers, floors, cut, bucket);
    const std::vector<Watts> got = BucketedEvenCut(powers, floors, cut, bucket);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], want[i]) << i;
    }

    CappingWorkspace ws;
    BucketedEvenCut(powers, floors, cut, bucket, ws);
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(ws.cuts[i], want[i]) << i;
    }
}

TEST(BucketedEvenCutEdges, EmptyInputYieldsEmptyCuts)
{
    ExpectSameCuts({}, {}, 100.0, 20.0);
    EXPECT_TRUE(BucketedEvenCut({}, {}, 100.0, 20.0).empty());
}

TEST(BucketedEvenCutEdges, CutExceedingHeadroomClampsToFloors)
{
    const std::vector<Watts> powers = {300.0, 250.0, 180.0};
    const std::vector<Watts> floors = {150.0, 140.0, 120.0};
    // Total headroom is 320 W; ask for far more.
    ExpectSameCuts(powers, floors, 10'000.0, 20.0);

    const auto cuts = BucketedEvenCut(powers, floors, 10'000.0, 20.0);
    for (std::size_t i = 0; i < cuts.size(); ++i) {
        // Every server is driven exactly to its floor, never below.
        EXPECT_DOUBLE_EQ(powers[i] - cuts[i], floors[i]) << i;
    }
}

TEST(BucketedEvenCutEdges, AllAtSlaFloorAllocatesNothing)
{
    const std::vector<Watts> powers = {150.0, 140.0, 120.0};
    const std::vector<Watts> floors = {150.0, 140.0, 120.0};
    ExpectSameCuts(powers, floors, 500.0, 20.0);

    const auto cuts = BucketedEvenCut(powers, floors, 500.0, 20.0);
    for (const Watts c : cuts) EXPECT_EQ(c, 0.0);
}

TEST(BucketedEvenCutEdges, BucketWiderThanPowerSpreadActsAsOneBucket)
{
    // Spread is 30 W; a 500 W bucket puts everyone in the top bucket,
    // so the cut is water-filled evenly across all servers at once.
    const std::vector<Watts> powers = {310.0, 300.0, 290.0, 280.0};
    const std::vector<Watts> floors = {100.0, 100.0, 100.0, 100.0};
    ExpectSameCuts(powers, floors, 200.0, 500.0);

    const auto cuts = BucketedEvenCut(powers, floors, 200.0, 500.0);
    Watts total = 0.0;
    for (const Watts c : cuts) total += c;
    EXPECT_NEAR(total, 200.0, 1e-6);
    // One bucket, ample headroom everywhere: the cut splits evenly
    // across all servers (200 W / 4 = 50 W each) in a single round.
    for (std::size_t i = 0; i < cuts.size(); ++i) {
        EXPECT_NEAR(cuts[i], 50.0, 1e-9) << i;
    }
}

TEST(BucketedEvenCutEdges, RandomizedInputsMatchReference)
{
    Rng rng(0xfeed);
    for (int round = 0; round < 60; ++round) {
        const std::size_t n = 1 + rng.UniformInt(50);
        std::vector<Watts> powers;
        std::vector<Watts> floors;
        for (std::size_t i = 0; i < n; ++i) {
            powers.push_back(rng.Uniform(50.0, 500.0));
            // Occasionally floor >= power (no headroom at all).
            floors.push_back(rng.Bernoulli(0.1) ? powers.back()
                                                : rng.Uniform(20.0, 200.0));
        }
        Watts total = 0.0;
        for (const Watts p : powers) total += p;
        const Watts cut = total * rng.Uniform(0.0, 0.8);
        const Watts bucket = rng.Bernoulli(0.15) ? 0.0 : rng.Uniform(1.0, 100.0);
        ExpectSameCuts(powers, floors, cut, bucket);
    }
}

}  // namespace
}  // namespace dynamo::policy
