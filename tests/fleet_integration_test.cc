// End-to-end integration tests: full fleet + Dynamo under the paper's
// scenarios, including the headline safety property (Dynamo prevents
// breaker trips that occur without it).
#include "fleet/fleet.h"

#include <gtest/gtest.h>

#include "common/units.h"
#include "fleet/scenarios.h"
#include "telemetry/event_log.h"

namespace dynamo::fleet {
namespace {

FleetSpec
SurgeRowSpec(bool with_dynamo)
{
    FleetSpec spec;
    spec.scope = FleetScope::kRpp;
    spec.topology.rpp_rated = 127.5e3;
    spec.servers_per_rpp = 580;
    spec.mix = ServiceMix::Single(workload::ServiceType::kWeb);
    spec.diurnal_amplitude = 0.0;
    spec.with_dynamo = with_dynamo;
    spec.seed = 13;
    return spec;
}

TEST(FleetIntegration, BuildsRequestedShape)
{
    FleetSpec spec;
    spec.scope = FleetScope::kSb;
    spec.topology.rpps_per_sb = 3;
    spec.servers_per_rpp = 20;
    Fleet fleet(spec);
    EXPECT_EQ(fleet.servers().size(), 60u);
    EXPECT_EQ(fleet.dynamo()->leaf_controllers().size(), 3u);
    EXPECT_EQ(fleet.dynamo()->upper_controllers().size(), 1u);
    EXPECT_GT(fleet.TotalPower(), 0.0);
}

TEST(FleetIntegration, ServiceMixProportionsRespected)
{
    FleetSpec spec;
    spec.scope = FleetScope::kRpp;
    spec.servers_per_rpp = 440;
    spec.mix = ServiceMix::FrontEndRow();  // 200 web / 200 cache / 40 feed
    Fleet fleet(spec);
    EXPECT_EQ(fleet.ServersOf(workload::ServiceType::kWeb).size(), 200u);
    EXPECT_EQ(fleet.ServersOf(workload::ServiceType::kCache).size(), 200u);
    EXPECT_EQ(fleet.ServersOf(workload::ServiceType::kNewsfeed).size(), 40u);
}

TEST(FleetIntegration, DeterministicAcrossRuns)
{
    FleetSpec spec = SurgeRowSpec(true);
    Fleet a(spec);
    Fleet b(spec);
    a.RunFor(Minutes(10));
    b.RunFor(Minutes(10));
    EXPECT_DOUBLE_EQ(a.TotalPower(), b.TotalPower());
}

TEST(FleetIntegration, SurgeWithoutDynamoTripsBreaker)
{
    Fleet fleet(SurgeRowSpec(/*with_dynamo=*/false));
    ScriptLoadTest(&fleet.scenario(), Minutes(5), Minutes(3), Minutes(40), 2.0);
    fleet.RunFor(Minutes(50));
    EXPECT_GE(fleet.outage_count(), 1u);
    EXPECT_FALSE(fleet.root().IsEnergized());
}

TEST(FleetIntegration, SurgeWithDynamoPreventsOutage)
{
    // The same overload with Dynamo active: capping holds the row
    // below its breaker limit and nothing trips (Table I, row 1).
    Fleet fleet(SurgeRowSpec(/*with_dynamo=*/true));
    ScriptLoadTest(&fleet.scenario(), Minutes(5), Minutes(3), Minutes(40), 2.0);
    fleet.RunFor(Minutes(50));
    EXPECT_EQ(fleet.outage_count(), 0u);
    EXPECT_TRUE(fleet.root().IsEnergized());
    EXPECT_GE(fleet.event_log()->CountOf(telemetry::EventKind::kCapStart), 1u);
}

TEST(FleetIntegration, CappedPowerStaysNearTargetDuringSurge)
{
    Fleet fleet(SurgeRowSpec(true));
    ScriptLoadTest(&fleet.scenario(), Minutes(5), Minutes(3), Minutes(40), 2.0);
    fleet.RunFor(Minutes(20));
    const Watts limit = fleet.root().rated_power();
    EXPECT_LE(fleet.TotalPower(), limit);
    EXPECT_GE(fleet.TotalPower(), 0.85 * limit);  // not over-throttled
}

TEST(FleetIntegration, UncapsAfterSurgeEnds)
{
    Fleet fleet(SurgeRowSpec(true));
    ScriptLoadTest(&fleet.scenario(), Minutes(5), Minutes(3), Minutes(15), 2.0);
    fleet.RunFor(Minutes(45));
    EXPECT_GE(fleet.event_log()->CountOf(telemetry::EventKind::kUncap), 1u);
    for (const auto& srv : fleet.servers()) EXPECT_FALSE(srv->capped());
}

TEST(FleetIntegration, OutageRecoveryScenarioHandledAtSbLevel)
{
    // Fig. 12: SB-level surge to ~1.3x of daily peak during recovery.
    FleetSpec spec;
    spec.scope = FleetScope::kSb;
    spec.topology.rpps_per_sb = 4;
    spec.topology.sb_rated = 430e3;
    spec.topology.quota_fill = 0.9;
    spec.servers_per_rpp = 520;
    spec.mix = ServiceMix::Single(workload::ServiceType::kWeb);
    spec.diurnal_amplitude = 0.0;
    spec.seed = 29;
    Fleet fleet(spec);
    ScriptOutageRecovery(&fleet.scenario(), Minutes(10), 1.5, Minutes(90));
    fleet.RunFor(Minutes(120));
    EXPECT_EQ(fleet.outage_count(), 0u);
    // The SB-level upper controller coordinated at least one cap.
    EXPECT_GE(fleet.event_log()->CappingEpisodes("ctl:sb0"), 1u);
}

TEST(FleetIntegration, SensorlessServersStillControlled)
{
    FleetSpec spec = SurgeRowSpec(true);
    spec.sensorless_fraction = 0.15;
    Fleet fleet(spec);
    ScriptLoadTest(&fleet.scenario(), Minutes(5), Minutes(3), Minutes(20), 2.0);
    fleet.RunFor(Minutes(30));
    EXPECT_EQ(fleet.outage_count(), 0u);
}

TEST(FleetIntegration, RpcFailuresToleratedWithinThreshold)
{
    FleetSpec spec = SurgeRowSpec(true);
    Fleet fleet(spec);
    fleet.transport().failures().SetDefaultFailureProbability(0.10);
    ScriptLoadTest(&fleet.scenario(), Minutes(5), Minutes(3), Minutes(20), 2.0);
    fleet.RunFor(Minutes(30));
    // 10 % pull failures < 20 % threshold: control continues safely.
    EXPECT_EQ(fleet.outage_count(), 0u);
    EXPECT_GT(fleet.dynamo()->leaf_controllers()[0]->estimated_readings(), 0u);
}

TEST(FleetIntegration, ServersUnderFindsSubtree)
{
    FleetSpec spec;
    spec.scope = FleetScope::kSb;
    spec.topology.rpps_per_sb = 2;
    spec.servers_per_rpp = 10;
    Fleet fleet(spec);
    EXPECT_EQ(fleet.ServersUnder("sb0").size(), 20u);
    EXPECT_EQ(fleet.ServersUnder("sb0/rpp1").size(), 10u);
    EXPECT_TRUE(fleet.ServersUnder("nope").empty());
}

TEST(FleetIntegration, PullCyclesCostWellUnderOneKernelEventPerRead)
{
    // Structural guard on the per-pull event bill: every pull cycle is
    // one transport fan-out, whose kernel events are per distinct
    // latency ms rather than per server. A slide back to per-call
    // events (about 3 per read) fails this deterministic count, where
    // a wall-clock gate would only see noise.
    FleetSpec spec;
    spec.scope = FleetScope::kSb;
    spec.topology.rpps_per_sb = 4;
    spec.servers_per_rpp = 250;
    Fleet fleet(spec);
    ASSERT_EQ(fleet.servers().size(), 1000u);
    fleet.RunFor(Seconds(30));

    ASSERT_NE(fleet.metrics(), nullptr);
    const double reads = static_cast<double>(
        fleet.metrics()->GetCounter("agent.reads")->value());
    ASSERT_GE(reads, 9 * 1000.0);  // ten 3 s cycles, minus the first
    const double events = static_cast<double>(fleet.sim().events_executed());
    EXPECT_LE(events, 0.25 * reads)
        << events / reads << " kernel events per agent read";
}

}  // namespace
}  // namespace dynamo::fleet
