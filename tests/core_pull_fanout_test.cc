// Controller-level tests of the pull fan-out: a leaf pulling its agents
// through SimTransport's one-operation fan-out must reach exactly the
// decisions, retry counts and retry-jitter stream positions it reaches
// with one Call per agent (PerItemTransport), including the >20 %
// invalid-aggregation rule and stale-cycle abandonment of retry chains.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/archive.h"
#include "common/units.h"
#include "core/agent.h"
#include "core/controller_builder.h"
#include "core/deployment.h"
#include "core/leaf_controller.h"
#include "per_item_transport.h"
#include "power/device.h"
#include "rpc/transport.h"
#include "server/sim_server.h"
#include "sim/simulation.h"
#include "telemetry/event_log.h"

namespace dynamo::core {
namespace {

workload::LoadProcessParams
SteadyLoad(double util)
{
    workload::LoadProcessParams p;
    p.base_util = util;
    p.ou_sigma = 0.0;
    p.spike_rate_per_hour = 0.0;
    return p;
}

/** Ten web servers under one RPP leaf, over transport type `T`. */
template <typename T>
class PullRig
{
  public:
    PullRig()
        : transport(sim, 5),
          device("rpp0", power::DeviceLevel::kRpp, 10000.0, 10000.0)
    {
        for (int i = 0; i < 10; ++i) {
            server::SimServer::Config sc;
            sc.name = "s" + std::to_string(i);
            sc.service = workload::ServiceType::kWeb;
            sc.seed = 700 + static_cast<std::uint64_t>(i);
            servers.push_back(
                std::make_unique<server::SimServer>(sc, SteadyLoad(0.5)));
            device.AttachLoad(servers.back().get());
            agents.push_back(std::make_unique<DynamoAgent>(
                sim, transport, *servers.back(),
                Deployment::AgentEndpoint(servers.back()->name())));
        }
        ControllerBuilder builder(sim, transport);
        builder.Endpoint("ctl:rpp0").ForDevice(device).Log(&log);
        for (const auto& srv : servers) builder.Agent(AgentInfoFor(*srv));
        controller = builder.BuildLeaf();
        controller->Activate();
    }

    /** Hard-partition (or heal) the first `n` agents. */
    void Partition(int n, bool down)
    {
        for (int i = 0; i < n; ++i) {
            transport.failures().SetEndpointDown("agent:s" + std::to_string(i),
                                                 down);
        }
    }

    /** Full leaf decision state (caches, FSM, retry-jitter stream). */
    std::string State() const
    {
        Archive ar;
        controller->Snapshot(ar);
        return ar.bytes();
    }

    /** Draws taken from the controller's retry-jitter stream. */
    std::uint64_t RetryDraws() const
    {
        // Controller::Snapshot ends with the retry RNG's draw count.
        Archive ar;
        controller->Controller::Snapshot(ar);
        ArchiveReader tail(std::string_view(ar.bytes()).substr(ar.size() - 8));
        return tail.U64();
    }

    sim::Simulation sim;
    T transport;
    power::PowerDevice device;
    telemetry::EventLog log;
    std::vector<std::unique_ptr<server::SimServer>> servers;
    std::vector<std::unique_ptr<DynamoAgent>> agents;
    std::unique_ptr<LeafController> controller;
};

using FanOutRig = PullRig<rpc::SimTransport>;
using PerItemRig = PullRig<rpc::PerItemTransport>;

TEST(PullFanOut, InvalidAggregationRuleMatchesPerItemPulls)
{
    FanOutRig fan;
    PerItemRig ref;
    // 2 of 10 down is exactly 20 %: still valid (the rule is "> 20 %").
    fan.Partition(2, true);
    ref.Partition(2, true);
    fan.sim.RunFor(Seconds(10));
    ref.sim.RunFor(Seconds(10));
    EXPECT_TRUE(fan.controller->last_valid());
    EXPECT_EQ(fan.controller->last_failure_count(), 2u);
    EXPECT_EQ(fan.controller->invalid_aggregations(), 0u);

    // 3 of 10 is 30 %: invalid, alarm instead of action.
    fan.Partition(3, true);
    ref.Partition(3, true);
    fan.sim.RunFor(Seconds(10));
    ref.sim.RunFor(Seconds(10));
    EXPECT_FALSE(fan.controller->last_valid());
    EXPECT_EQ(fan.controller->last_failure_count(), 3u);
    EXPECT_GT(fan.controller->invalid_aggregations(), 0u);

    EXPECT_EQ(fan.controller->invalid_aggregations(),
              ref.controller->invalid_aggregations());
    EXPECT_EQ(fan.State(), ref.State());
    EXPECT_EQ(fan.log.CountOf(telemetry::EventKind::kAlarm),
              ref.log.CountOf(telemetry::EventKind::kAlarm));
}

TEST(PullFanOut, RetryCountAndJitterStreamMatchPerItemPulls)
{
    FanOutRig fan;
    PerItemRig ref;
    // Per-attempt failures of both kinds: prompt errors feed the retry
    // chain within milliseconds, blackholes only at the per-attempt
    // timeout.
    fan.transport.failures().SetDefaultFailureProbability(0.3);
    ref.transport.failures().SetDefaultFailureProbability(0.3);
    fan.sim.RunFor(Minutes(1));
    ref.sim.RunFor(Minutes(1));

    EXPECT_GT(fan.controller->retries_issued(), 10u);
    EXPECT_EQ(fan.controller->retries_issued(),
              ref.controller->retries_issued());
    // Every retry draws its backoff jitter exactly once.
    EXPECT_EQ(fan.RetryDraws(), fan.controller->retries_issued());
    EXPECT_EQ(fan.RetryDraws(), ref.RetryDraws());
    EXPECT_EQ(fan.State(), ref.State());
    EXPECT_EQ(fan.transport.calls_issued(), ref.transport.calls_issued());
    EXPECT_EQ(fan.transport.calls_failed(), ref.transport.calls_failed());
    // The point of the fan-out: far fewer kernel events for the same run.
    EXPECT_LT(fan.sim.events_executed(), ref.sim.events_executed());
}

TEST(PullFanOut, StaleCycleAbandonsRetryChains)
{
    FanOutRig fan;
    PerItemRig ref;
    // Every pull fails promptly, so each agent's retry chain is live
    // when the controller crashes 40 ms into its first cycle (the first
    // cycle starts at one pull period, 3 s).
    fan.Partition(10, true);
    ref.Partition(10, true);
    fan.sim.RunFor(3040);
    ref.sim.RunFor(3040);
    const std::uint64_t retries = fan.controller->retries_issued();
    const std::uint64_t calls = fan.transport.calls_issued();
    EXPECT_GT(retries, 0u);
    EXPECT_LT(retries, 20u);  // chains not finished: 2 retries x 10 agents

    fan.controller->Crash();
    ref.controller->Crash();
    fan.sim.RunFor(Seconds(5));
    ref.sim.RunFor(Seconds(5));
    // No retry fires after the cycle moved on, no aggregation either.
    EXPECT_EQ(fan.controller->retries_issued(), retries);
    EXPECT_EQ(fan.transport.calls_issued(), calls);
    EXPECT_EQ(fan.controller->aggregations(), 0u);
    EXPECT_EQ(fan.controller->invalid_aggregations(), 0u);
    EXPECT_EQ(fan.State(), ref.State());
    EXPECT_EQ(ref.transport.calls_issued(), calls);
}

TEST(PullFanOut, ControllerDestroyedMidCycleIsNeverCalledBack)
{
    // A promotion can destroy a controller while its pulls, their
    // retry chains and its aggregation timer are still pending. The
    // late completions must not reach the freed controller (the
    // sanitizer builds turn a violation into a failure).
    FanOutRig fan;
    fan.Partition(3, true);  // live retry chains as well as responses
    fan.sim.RunFor(3002);
    ASSERT_GT(fan.sim.pending_events(), 0u);
    fan.controller.reset();
    fan.sim.RunFor(Seconds(5));
    EXPECT_EQ(fan.sim.pending_events(), 0u);
}

}  // namespace
}  // namespace dynamo::core
