// Tests for hierarchical decision traces: the TraceLog ring, and the
// parent/child linkage from an upper controller's offender decision
// down to the leaf capping decisions taken under its contract.
#include "telemetry/trace.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/units.h"
#include "core/controller_builder.h"
#include "core/agent.h"
#include "core/deployment.h"
#include "core/leaf_controller.h"
#include "core/upper_controller.h"
#include "policy/reference.h"
#include "power/device.h"
#include "rpc/transport.h"
#include "server/sim_server.h"
#include "sim/simulation.h"
#include "telemetry/event_log.h"
#include "telemetry/metrics.h"

namespace dynamo::telemetry {
namespace {

TraceSpan
MakeSpan(SpanId parent = kNoSpan)
{
    TraceSpan span;
    span.parent = parent;
    span.source = "ctl:test";
    span.band = TraceBand::kCap;
    return span;
}

TEST(TraceLog, AppendsDenseIds)
{
    TraceLog log;
    EXPECT_EQ(log.Append(MakeSpan()), 1u);
    EXPECT_EQ(log.Append(MakeSpan()), 2u);
    EXPECT_EQ(log.Append(MakeSpan()), 3u);
    EXPECT_EQ(log.size(), 3u);
    EXPECT_EQ(log.first_id(), 1u);
    EXPECT_EQ(log.next_id(), 4u);
    EXPECT_EQ(log.total_appended(), 3u);
    EXPECT_EQ(log.evicted(), 0u);
}

TEST(TraceLog, RingEvictsOldestAndFindStaysCorrect)
{
    TraceLog log(/*capacity=*/4);
    for (int i = 0; i < 10; ++i) log.Append(MakeSpan());
    EXPECT_EQ(log.size(), 4u);
    EXPECT_EQ(log.evicted(), 6u);
    EXPECT_EQ(log.first_id(), 7u);
    EXPECT_EQ(log.total_appended(), 10u);

    EXPECT_EQ(log.Find(6), nullptr);   // evicted
    EXPECT_EQ(log.Find(11), nullptr);  // not yet appended
    const TraceSpan* span = log.Find(8);
    ASSERT_NE(span, nullptr);
    EXPECT_EQ(span->id, 8u);
}

TEST(TraceLog, ChildrenOfFollowsParentLinks)
{
    TraceLog log;
    const SpanId upper = log.Append(MakeSpan());
    const SpanId leaf_a = log.Append(MakeSpan(upper));
    const SpanId leaf_b = log.Append(MakeSpan(upper));
    log.Append(MakeSpan());  // unrelated root

    const auto children = log.ChildrenOf(upper);
    ASSERT_EQ(children.size(), 2u);
    EXPECT_EQ(children[0]->id, leaf_a);
    EXPECT_EQ(children[1]->id, leaf_b);
    EXPECT_TRUE(log.ChildrenOf(leaf_b).empty());
}

TEST(TraceLog, ClearKeepsIdsIncreasing)
{
    TraceLog log;
    log.Append(MakeSpan());
    log.Append(MakeSpan());
    log.Clear();
    EXPECT_EQ(log.size(), 0u);
    EXPECT_EQ(log.first_id(), kNoSpan);
    EXPECT_EQ(log.Append(MakeSpan()), 3u);
}

TEST(TraceTransition, NamesBandChanges)
{
    TraceSpan span;
    span.band = TraceBand::kCap;
    span.was_capping = false;
    EXPECT_EQ(TraceTransitionName(span), "settled->capping");
    span.was_capping = true;
    EXPECT_EQ(TraceTransitionName(span), "capping->capping");
    span.band = TraceBand::kUncap;
    EXPECT_EQ(TraceTransitionName(span), "capping->released");
    span.band = TraceBand::kHold;
    EXPECT_EQ(TraceTransitionName(span), "capping->held");
    span.band = TraceBand::kNone;
    EXPECT_EQ(TraceTransitionName(span), "capping->capping");
}

workload::LoadProcessParams
SteadyLoad(double util)
{
    workload::LoadProcessParams p;
    p.base_util = util;
    p.ou_sigma = 0.0;
    p.spike_rate_per_hour = 0.0;
    return p;
}

/**
 * The upper-controller worked example (SB over two RPPs, rpp0 over
 * quota) with telemetry attached, so upper decisions issue contracts
 * and the leaf caps under them.
 */
class TracedRig
{
  public:
    TracedRig(Watts sb_rated, Watts rpp_quota, int servers_rpp0,
              int servers_rpp1)
        : transport(sim, 6),
          sb("sb0", power::DeviceLevel::kSb, sb_rated, sb_rated)
    {
        transport.AttachMetrics(&metrics);
        rpp0 = sb.AddChild(std::make_unique<power::PowerDevice>(
            "rpp0", power::DeviceLevel::kRpp, 3000.0, rpp_quota));
        rpp1 = sb.AddChild(std::make_unique<power::PowerDevice>(
            "rpp1", power::DeviceLevel::kRpp, 3000.0, rpp_quota));
        MakeRow(*rpp0, servers_rpp0, 0);
        MakeRow(*rpp1, servers_rpp1, 100);

        upper = core::ControllerBuilder(sim, transport)
                    .Endpoint("ctl:sb0")
                    .ForDevice(sb)
                    .Child("ctl:rpp0")
                    .Child("ctl:rpp1")
                    .Log(&log)
                    .Telemetry(&metrics, &traces)
                    .BuildUpper();
        upper->Activate();
    }

    void MakeRow(power::PowerDevice& rpp, int n, int seed_base)
    {
        for (int i = 0; i < n; ++i) {
            server::SimServer::Config config;
            config.name = rpp.name() + "/s" + std::to_string(i);
            config.service = workload::ServiceType::kWeb;
            config.seed = 200 + static_cast<std::uint64_t>(seed_base + i);
            servers.push_back(
                std::make_unique<server::SimServer>(config, SteadyLoad(0.6)));
            rpp.AttachLoad(servers.back().get());
            agents.push_back(std::make_unique<core::DynamoAgent>(
                sim, transport, *servers.back(),
                core::Deployment::AgentEndpoint(servers.back()->name())));
            agents.back()->AttachMetrics(&metrics);
        }
        core::ControllerBuilder builder(sim, transport);
        builder.Endpoint(core::Deployment::ControllerEndpoint(rpp.name()))
            .ForDevice(rpp)
            .Log(&log)
            .Telemetry(&metrics, &traces);
        for (power::PowerLoad* load : rpp.loads()) {
            builder.Agent(
                core::AgentInfoFor(*static_cast<server::SimServer*>(load)));
        }
        leaves.push_back(builder.BuildLeaf());
        leaves.back()->Activate();
    }

    sim::Simulation sim;
    rpc::SimTransport transport;
    power::PowerDevice sb;
    power::PowerDevice* rpp0 = nullptr;
    power::PowerDevice* rpp1 = nullptr;
    EventLog log;
    MetricsRegistry metrics;
    TraceLog traces;
    std::vector<std::unique_ptr<server::SimServer>> servers;
    std::vector<std::unique_ptr<core::DynamoAgent>> agents;
    std::vector<std::unique_ptr<core::LeafController>> leaves;
    std::unique_ptr<core::UpperController> upper;
};

TEST(DecisionTraces, UpperCapSpanRecordsOffenderSplit)
{
    TracedRig rig(/*sb_rated=*/3500.0, /*rpp_quota=*/1750.0, 10, 6);
    rig.sim.RunFor(Minutes(1));
    ASSERT_TRUE(rig.upper->capping());

    const TraceSpan* upper_span = nullptr;
    for (const TraceSpan& span : rig.traces.spans()) {
        if (span.kind == SpanKind::kUpperDecision &&
            span.band == TraceBand::kCap) {
            upper_span = &span;
            break;
        }
    }
    ASSERT_NE(upper_span, nullptr);
    EXPECT_EQ(upper_span->source, "ctl:sb0");
    EXPECT_GT(upper_span->measured, upper_span->threshold);
    EXPECT_GT(upper_span->cut, 0.0);
    ASSERT_EQ(upper_span->allocs.size(), 2u);

    // rpp0 is the offender and absorbs the whole cut; rpp1 is innocent.
    const TraceAllocation* offender = nullptr;
    const TraceAllocation* innocent = nullptr;
    for (const TraceAllocation& alloc : upper_span->allocs) {
        (alloc.offender ? offender : innocent) = &alloc;
    }
    ASSERT_NE(offender, nullptr);
    ASSERT_NE(innocent, nullptr);
    EXPECT_EQ(offender->target, "ctl:rpp0");
    EXPECT_GT(offender->power, offender->quota);
    EXPECT_GT(offender->cut, 0.0);
    EXPECT_DOUBLE_EQ(innocent->cut, 0.0);
}

TEST(DecisionTraces, LeafDecisionsLinkBackToUpperContractSpan)
{
    TracedRig rig(3500.0, 1750.0, 10, 6);
    rig.sim.RunFor(Minutes(2));
    ASSERT_TRUE(rig.upper->capping());
    ASSERT_TRUE(rig.leaves[0]->capping());

    // Find the upper cap decision and the leaf cap decisions taken
    // under the contract it issued.
    SpanId upper_id = kNoSpan;
    for (const TraceSpan& span : rig.traces.spans()) {
        if (span.kind == SpanKind::kUpperDecision &&
            span.band == TraceBand::kCap) {
            upper_id = span.id;
            break;
        }
    }
    ASSERT_NE(upper_id, kNoSpan);

    const auto children = rig.traces.ChildrenOf(upper_id);
    ASSERT_FALSE(children.empty());
    for (const TraceSpan* leaf_span : children) {
        EXPECT_EQ(leaf_span->kind, SpanKind::kLeafDecision);
        EXPECT_EQ(leaf_span->source, "ctl:rpp0");
        EXPECT_EQ(leaf_span->parent, upper_id);
        if (leaf_span->band != TraceBand::kCap) continue;
        // The leaf span carries the full plan: per-group split and the
        // per-server RAPL caps, each at or above its SLA floor.
        EXPECT_FALSE(leaf_span->groups.empty());
        ASSERT_FALSE(leaf_span->allocs.empty());
        for (const TraceAllocation& alloc : leaf_span->allocs) {
            EXPECT_GE(alloc.limit_sent, alloc.floor - 1e-9);
            EXPECT_GE(alloc.bucket, 0);
        }
    }
}

TEST(DecisionTraces, ZeroBucketLeafWaterFillsAndRecordsNoBucket)
{
    // bucket_w = 0 is the pure water-fill split. Fixed readings from
    // scripted agents make every cycle's roster known, so each cap span
    // can be checked against the water-fill oracle bit for bit; its
    // bucket index is "n/a" rather than power / 0.
    sim::Simulation sim;
    rpc::SimTransport transport(sim, 7);
    power::PowerDevice rpp("rpp0", power::DeviceLevel::kRpp, 2000.0, 2000.0);
    core::LeafController::Config config;
    config.bucket_size = 0.0;
    TraceLog traces;
    core::ControllerBuilder builder(sim, transport);
    builder.Endpoint("ctl:rpp0").ForDevice(rpp).LeafConfig(config).Telemetry(
        nullptr, &traces);
    std::vector<policy::ServerPowerInfo> roster;
    for (int i = 0; i < 10; ++i) {
        policy::ServerPowerInfo info;
        info.power = 180.0 + 15.0 * i;  // 2475 W in all
        info.priority_group = i % 3 == 0 ? 1 : 0;
        info.sla_min_cap = 150.0;
        roster.push_back(info);
        const std::string endpoint = "agent:f" + std::to_string(i);
        transport.Register(endpoint, [info](const rpc::Payload& request) {
            if (std::any_cast<api::PowerReadRequest>(&request) != nullptr) {
                api::PowerReadResult read;
                read.power = info.power;
                return rpc::Payload(read);
            }
            return rpc::Payload(api::CapResult{});
        });
        builder.Agent(core::AgentInfo{endpoint, workload::ServiceType::kWeb,
                                      info.priority_group, info.sla_min_cap,
                                      info.power});
    }
    auto leaf = builder.BuildLeaf();
    leaf->Activate();
    sim.RunFor(Seconds(30));
    ASSERT_TRUE(leaf->capping());

    std::size_t cap_spans = 0;
    for (const TraceSpan& span : traces.spans()) {
        if (span.kind != SpanKind::kLeafDecision ||
            span.band != TraceBand::kCap) {
            continue;
        }
        ++cap_spans;
        const policy::CappingPlan want =
            policy::reference::ComputeCappingPlan(roster, span.cut, 0.0);
        EXPECT_EQ(span.planned_cut, want.planned_cut);
        EXPECT_EQ(span.satisfied, want.satisfied);
        ASSERT_EQ(span.allocs.size(), want.assignments.size());
        for (std::size_t k = 0; k < want.assignments.size(); ++k) {
            const policy::CapAssignment& a = want.assignments[k];
            const TraceAllocation& alloc = span.allocs[k];
            EXPECT_EQ(alloc.target, "agent:f" + std::to_string(a.index));
            EXPECT_EQ(alloc.cut, a.cut);
            EXPECT_EQ(alloc.limit_sent, a.cap);
            EXPECT_EQ(alloc.bucket, -1);
        }
    }
    EXPECT_GT(cap_spans, 3u);
}

TEST(DecisionTraces, ControllerMetricsCountDecisions)
{
    TracedRig rig(3500.0, 1750.0, 10, 6);
    rig.sim.RunFor(Minutes(2));

    MetricsRegistry& m = rig.metrics;
    EXPECT_GT(m.GetCounter("upper.cycles")->value(), 0u);
    EXPECT_GT(m.GetCounter("upper.caps")->value(), 0u);
    EXPECT_GT(m.GetCounter("leaf.cycles")->value(), 0u);
    EXPECT_GT(m.GetCounter("leaf.caps")->value(), 0u);
    EXPECT_GT(m.GetCounter("agent.reads")->value(), 0u);
    EXPECT_GT(m.GetCounter("agent.caps")->value(), 0u);
    EXPECT_GT(m.GetCounter("rpc.calls")->value(), 0u);
    EXPECT_GT(m.GetHistogram("leaf.cycle_us")->count(), 0u);
    EXPECT_GT(m.GetHistogram("leaf.cut_w")->count(), 0u);
}

}  // namespace
}  // namespace dynamo::telemetry
