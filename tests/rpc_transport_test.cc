// Unit tests for the simulated RPC transport: delivery, latency,
// failure injection, timeouts, crash-while-in-flight semantics.
#include "rpc/transport.h"

#include <ostream>
#include <stdexcept>

#include "common/archive.h"
#include "per_item_transport.h"
#include "telemetry/metrics.h"
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace dynamo::rpc {
namespace {

struct Echo
{
    int value;
};

class TransportTest : public ::testing::Test
{
  protected:
    sim::Simulation sim_;
    SimTransport transport_{sim_, 42};
};

TEST_F(TransportTest, DeliversRequestAndResponse)
{
    transport_.Register("svc", [](const Payload& req) {
        return Echo{std::any_cast<Echo>(req).value * 2};
    });
    int result = 0;
    transport_.Call(
        "svc", Echo{21},
        [&](const Payload& resp) { result = std::any_cast<Echo>(resp).value; },
        [&](const std::string&) { FAIL() << "unexpected error"; });
    sim_.RunUntil(1000);
    EXPECT_EQ(result, 42);
}

TEST_F(TransportTest, ResponseArrivesLater)
{
    transport_.Register("svc", [](const Payload&) { return Echo{1}; });
    SimTime response_time = -1;
    transport_.Call(
        "svc", Echo{0},
        [&](const Payload&) { response_time = sim_.Now(); },
        [](const std::string&) {});
    EXPECT_EQ(response_time, -1);  // asynchronous
    sim_.RunUntil(1000);
    EXPECT_GT(response_time, 0);
}

TEST_F(TransportTest, UnregisteredEndpointFails)
{
    std::string reason;
    transport_.Call(
        "missing", Echo{0}, [](const Payload&) { FAIL(); },
        [&](const std::string& r) { reason = r; });
    sim_.RunUntil(1000);
    EXPECT_EQ(reason, "connection failed");
    EXPECT_EQ(transport_.calls_failed(), 1u);
}

TEST_F(TransportTest, UnregisterStopsService)
{
    transport_.Register("svc", [](const Payload&) { return Echo{1}; });
    EXPECT_TRUE(transport_.IsRegistered("svc"));
    transport_.Unregister("svc");
    EXPECT_FALSE(transport_.IsRegistered("svc"));
    bool failed = false;
    transport_.Call(
        "svc", Echo{0}, [](const Payload&) { FAIL(); },
        [&](const std::string&) { failed = true; });
    sim_.RunUntil(1000);
    EXPECT_TRUE(failed);
}

TEST_F(TransportTest, CrashWhileInFlightYieldsTimeout)
{
    transport_.Register("svc", [](const Payload&) { return Echo{1}; });
    std::string reason;
    transport_.Call(
        "svc", Echo{0}, [](const Payload&) { FAIL(); },
        [&](const std::string& r) { reason = r; }, /*timeout_ms=*/100);
    // Unregister before the request latency elapses: the request is
    // dropped on the floor and the caller learns only via timeout.
    transport_.Unregister("svc");
    sim_.RunUntil(1000);
    EXPECT_EQ(reason, "timeout");
}

TEST_F(TransportTest, EndpointDownAlwaysFails)
{
    transport_.Register("svc", [](const Payload&) { return Echo{1}; });
    transport_.failures().SetEndpointDown("svc", true);
    int errors = 0;
    for (int i = 0; i < 10; ++i) {
        transport_.Call(
            "svc", Echo{0}, [](const Payload&) { FAIL(); },
            [&](const std::string&) { ++errors; });
    }
    sim_.RunUntil(10000);
    EXPECT_EQ(errors, 10);

    transport_.failures().SetEndpointDown("svc", false);
    bool ok = false;
    transport_.Call(
        "svc", Echo{0}, [&](const Payload&) { ok = true; },
        [](const std::string&) {});
    sim_.RunUntil(20000);
    EXPECT_TRUE(ok);
}

TEST_F(TransportTest, FailureProbabilityRoughlyRespected)
{
    transport_.Register("svc", [](const Payload&) { return Echo{1}; });
    transport_.failures().SetEndpointFailureProbability("svc", 0.5);
    int ok = 0;
    int err = 0;
    for (int i = 0; i < 400; ++i) {
        transport_.Call(
            "svc", Echo{0}, [&](const Payload&) { ++ok; },
            [&](const std::string&) { ++err; }, /*timeout_ms=*/50);
        sim_.RunFor(100);
    }
    EXPECT_GT(ok, 120);
    EXPECT_GT(err, 120);
    EXPECT_EQ(ok + err, 400);
}

TEST_F(TransportTest, DefaultFailureProbabilityAppliesToAll)
{
    transport_.Register("a", [](const Payload&) { return Echo{1}; });
    transport_.failures().SetDefaultFailureProbability(1.0);
    bool failed = false;
    transport_.Call(
        "a", Echo{0}, [](const Payload&) { FAIL(); },
        [&](const std::string&) { failed = true; }, /*timeout_ms=*/50);
    sim_.RunUntil(1000);
    EXPECT_TRUE(failed);
}

TEST_F(TransportTest, PerEndpointOverrideBeatsDefault)
{
    transport_.Register("a", [](const Payload&) { return Echo{1}; });
    transport_.failures().SetDefaultFailureProbability(1.0);
    transport_.failures().SetEndpointFailureProbability("a", 0.0);
    bool ok = false;
    transport_.Call(
        "a", Echo{0}, [&](const Payload&) { ok = true; },
        [](const std::string&) { FAIL(); });
    sim_.RunUntil(1000);
    EXPECT_TRUE(ok);

    // Clearing the override restores the default.
    transport_.failures().ClearEndpointFailureProbability("a");
    bool failed = false;
    transport_.Call(
        "a", Echo{0}, [](const Payload&) {},
        [&](const std::string&) { failed = true; }, /*timeout_ms=*/50);
    sim_.RunUntil(2000);
    EXPECT_TRUE(failed);
}

TEST_F(TransportTest, ExactlyOneContinuationPerCall)
{
    transport_.Register("svc", [](const Payload&) { return Echo{1}; });
    int continuations = 0;
    for (int i = 0; i < 100; ++i) {
        transport_.Call(
            "svc", Echo{0}, [&](const Payload&) { ++continuations; },
            [&](const std::string&) { ++continuations; }, /*timeout_ms=*/5);
        // Tiny timeout races the response path; either way exactly one
        // continuation must fire.
    }
    sim_.RunUntil(10000);
    EXPECT_EQ(continuations, 100);
    EXPECT_EQ(transport_.calls_issued(), 100u);
    EXPECT_EQ(transport_.calls_succeeded() + transport_.calls_failed(), 100u);
}

TEST_F(TransportTest, HandlerReregistrationThrows)
{
    transport_.Register("svc", [](const Payload&) { return Echo{1}; });
    EXPECT_THROW(
        transport_.Register("svc", [](const Payload&) { return Echo{2}; }),
        std::logic_error);
    // The original handler survives the rejected registration.
    int value = 0;
    transport_.Call(
        "svc", Echo{0},
        [&](const Payload& resp) { value = std::any_cast<Echo>(resp).value; },
        [](const std::string&) {});
    sim_.RunUntil(1000);
    EXPECT_EQ(value, 1);
}

TEST_F(TransportTest, UnregisterThenRegisterHandsOver)
{
    transport_.Register("svc", [](const Payload&) { return Echo{1}; });
    transport_.Unregister("svc");
    transport_.Register("svc", [](const Payload&) { return Echo{2}; });
    int value = 0;
    transport_.Call(
        "svc", Echo{0},
        [&](const Payload& resp) { value = std::any_cast<Echo>(resp).value; },
        [](const std::string&) {});
    sim_.RunUntil(1000);
    EXPECT_EQ(value, 2);
}

TEST_F(TransportTest, CallBatchDeliversAllItemsInOrder)
{
    std::vector<int> seen;
    transport_.Register("svc", [&](const Payload& req) {
        seen.push_back(std::any_cast<Echo>(req).value);
        return Echo{0};
    });
    SimTime delivered_at = -1;
    transport_.Register("other", [&](const Payload&) {
        delivered_at = sim_.Now();
        return Echo{0};
    });

    std::vector<BatchItem> batch;
    const EndpointId svc = transport_.Resolve("svc");
    const EndpointId other = transport_.Resolve("other");
    for (int i = 0; i < 5; ++i) batch.push_back({svc, Echo{i}});
    batch.push_back({other, Echo{99}});
    EXPECT_EQ(transport_.CallBatch(std::move(batch)), 6u);
    EXPECT_TRUE(seen.empty());  // asynchronous, like Call

    sim_.RunUntil(1000);
    // Strict FIFO in item order — per-item jitter can never reorder a
    // batch the way independent Calls could.
    EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_GT(delivered_at, 0);
    EXPECT_EQ(transport_.calls_issued(), 6u);
    EXPECT_EQ(transport_.calls_succeeded(), 6u);
    EXPECT_EQ(transport_.calls_failed(), 0u);
}

TEST_F(TransportTest, CallBatchCountsUnregisteredAndFailedItems)
{
    int delivered = 0;
    transport_.Register("up", [&](const Payload&) {
        ++delivered;
        return Echo{0};
    });
    transport_.Register("down", [](const Payload&) { return Echo{0}; });
    transport_.failures().SetEndpointDown("down", true);

    std::vector<BatchItem> batch;
    batch.push_back({transport_.Resolve("up"), Echo{1}});
    batch.push_back({transport_.Resolve("down"), Echo{2}});
    batch.push_back({transport_.Resolve("missing"), Echo{3}});
    batch.push_back({transport_.Resolve("up"), Echo{4}});
    EXPECT_EQ(transport_.CallBatch(std::move(batch)), 4u);
    sim_.RunUntil(1000);

    // Bad items drop individually; good ones around them still land.
    EXPECT_EQ(delivered, 2);
    EXPECT_EQ(transport_.calls_issued(), 4u);
    EXPECT_EQ(transport_.calls_succeeded(), 2u);
    EXPECT_EQ(transport_.calls_failed(), 2u);
}

TEST_F(TransportTest, CallBatchObserverSeesEveryItem)
{
    transport_.Register("svc", [](const Payload&) { return Echo{0}; });
    std::vector<EndpointId> observed;
    transport_.set_call_observer(
        [&](EndpointId id, CallFate, SimTime) { observed.push_back(id); });

    const EndpointId svc = transport_.Resolve("svc");
    std::vector<BatchItem> batch;
    for (int i = 0; i < 3; ++i) batch.push_back({svc, Echo{i}});
    transport_.CallBatch(std::move(batch));

    // Fates are decided (and observed) at issue time, one per item, so
    // replay digests fold the full stream exactly as with Call.
    EXPECT_EQ(observed, (std::vector<EndpointId>{svc, svc, svc}));
    sim_.RunUntil(1000);
    EXPECT_EQ(observed.size(), 3u);
}

TEST_F(TransportTest, EmptyCallBatchIsANoOp)
{
    EXPECT_EQ(transport_.CallBatch({}), 0u);
    sim_.RunUntil(100);
    EXPECT_EQ(transport_.calls_issued(), 0u);
}

// ---------------------------------------------------------------------------
// CallFanOut. SimTransport schedules a fan-out as a handful of kernel
// events; every item must still see exactly what one Call per target
// would give it. PerItemTransport is that per-item reference, on the
// same latency and fault streams.
// ---------------------------------------------------------------------------

/** One fan-out continuation firing. */
struct Fired
{
    SimTime time = 0;
    std::size_t item = 0;
    bool ok = false;
    std::string reason;
    int payload = 0;

    bool operator==(const Fired&) const = default;
};

void
PrintTo(const Fired& f, std::ostream* os)
{
    *os << "{t=" << f.time << " item=" << f.item << " "
        << (f.ok ? "ok " + std::to_string(f.payload) : f.reason) << "}";
}

/** Echo handler of endpoint `e`: the reply encodes request and server. */
RequestHandler
EchoFrom(int e)
{
    return [e](const Payload& req) {
        return Echo{std::any_cast<Echo>(req).value * 100 + e};
    };
}

/** A transport under test recording one callback trace per fan-out. */
template <typename T>
struct FanOutRig
{
    explicit FanOutRig(SimTransport::Options options = {})
        : transport(sim, 77, options)
    {
    }

    void Issue(const std::vector<EndpointId>& targets, int request,
               SimTime timeout)
    {
        const std::size_t fan = traces.size();
        traces.emplace_back();
        transport.CallFanOut(
            targets, Echo{request},
            [this, fan](std::size_t i, const Payload& resp) {
                traces[fan].push_back(
                    {sim.Now(), i, true, "", std::any_cast<Echo>(resp).value});
            },
            [this, fan](std::size_t i, const std::string& reason) {
                traces[fan].push_back({sim.Now(), i, false, reason, 0});
            },
            timeout);
    }

    std::string Snapshot() const
    {
        Archive ar;
        transport.Snapshot(ar);
        return ar.bytes();
    }

    sim::Simulation sim;
    T transport;
    std::vector<std::vector<Fired>> traces;
};

/**
 * Seeded random fan-outs with every fault class: a down endpoint, a
 * failure probability (prompt failures and blackholes), a slow
 * responder whose extra latency exceeds every timeout, a never-
 * registered endpoint, endpoints crashing mid-flight and coming back,
 * overlapping fan-outs, and timeouts short enough that responses and
 * prompt failures land on the deadline ms.
 */
template <typename Rig>
void
RunFanOutScript(Rig& rig, std::uint64_t seed)
{
    constexpr int kEndpoints = 10;
    std::vector<EndpointId> ids;
    for (int e = 0; e < kEndpoints; ++e) {
        ids.push_back(rig.transport.Resolve("ep" + std::to_string(e)));
    }
    // ep9 never registers.
    for (int e = 0; e + 1 < kEndpoints; ++e) {
        rig.transport.Register(ids[e], EchoFrom(e));
    }
    FailureInjector& faults = rig.transport.failures();
    faults.SetEndpointDown(ids[1], true);
    faults.SetEndpointExtraLatency(ids[2], 40);
    faults.SetDefaultFailureProbability(0.2);

    Rng script(seed);
    SimTime t = 0;
    for (int round = 0; round < 80; ++round) {
        t += 1 + static_cast<SimTime>(script.UniformInt(12));
        std::vector<EndpointId> targets(1 + script.UniformInt(16));
        for (EndpointId& id : targets) id = ids[script.UniformInt(kEndpoints)];
        const SimTime timeout = 4 + static_cast<SimTime>(script.UniformInt(12));
        rig.sim.ScheduleAt(t, [&rig, targets, round, timeout]() {
            rig.Issue(targets, round, timeout);
        });
        if (script.Bernoulli(0.25)) {
            const int e = 3 + static_cast<int>(script.UniformInt(6));
            const EndpointId id = ids[e];
            const SimTime crash = t + static_cast<SimTime>(script.UniformInt(6));
            rig.sim.ScheduleAt(crash,
                               [&rig, id]() { rig.transport.Unregister(id); });
            rig.sim.ScheduleAt(crash + 15, [&rig, id, e]() {
                if (!rig.transport.IsRegistered(id)) {
                    rig.transport.Register(id, EchoFrom(e));
                }
            });
        }
    }
    rig.sim.RunUntil(t + 1000);
}

TEST(FanOutDifferential, MatchesPerItemCallsUnderEveryFaultClass)
{
    SimTransport::Options options;
    options.request_latency = {1, 6};
    options.response_latency = {1, 6};
    std::size_t ok = 0;
    std::size_t timeouts = 0;
    std::size_t failures = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        FanOutRig<SimTransport> fan(options);
        FanOutRig<PerItemTransport> ref(options);
        RunFanOutScript(fan, seed);
        RunFanOutScript(ref, seed);

        ASSERT_EQ(fan.traces.size(), ref.traces.size());
        for (std::size_t f = 0; f < fan.traces.size(); ++f) {
            EXPECT_EQ(fan.traces[f], ref.traces[f])
                << "seed " << seed << " fan-out " << f;
            for (const Fired& fired : ref.traces[f]) {
                if (fired.ok) ++ok;
                else if (fired.reason == "timeout") ++timeouts;
                else ++failures;
            }
        }
        EXPECT_EQ(fan.Snapshot(), ref.Snapshot()) << "seed " << seed;
        EXPECT_EQ(fan.sim.Now(), ref.sim.Now());
        EXPECT_LT(fan.sim.events_executed(), ref.sim.events_executed());
    }
    // The script really exercised every ending.
    EXPECT_GT(ok, 100u);
    EXPECT_GT(timeouts, 100u);
    EXPECT_GT(failures, 100u);
}

TEST(FanOutDifferential, ResponseOnTheDeadlineMsTimesOut)
{
    // 3 ms there + 2 ms back lands every response on the 5 ms deadline:
    // the timeout wins, as it does for a single Call.
    SimTransport::Options options;
    options.request_latency = {3, 0};
    options.response_latency = {2, 0};
    FanOutRig<SimTransport> fan(options);
    FanOutRig<PerItemTransport> ref(options);
    int handled = 0;
    for (auto* transport : {static_cast<SimTransport*>(&fan.transport),
                            static_cast<SimTransport*>(&ref.transport)}) {
        transport->Register("a", [&handled](const Payload&) {
            ++handled;
            return Echo{1};
        });
    }
    const std::vector<EndpointId> targets = {fan.transport.Resolve("a"),
                                             fan.transport.Resolve("a")};
    fan.Issue(targets, 0, 5);
    ref.Issue(targets, 0, 5);
    fan.sim.RunUntil(100);
    ref.sim.RunUntil(100);

    const std::vector<Fired> want = {{5, 0, false, "timeout", 0},
                                     {5, 1, false, "timeout", 0}};
    EXPECT_EQ(fan.traces[0], want);
    EXPECT_EQ(ref.traces[0], want);
    EXPECT_EQ(handled, 4);  // handlers still ran on both rigs
}

TEST(FanOutDifferential, DeadlineInterleavesWithSameMsDeliveries)
{
    // Requests arrive on the deadline ms: each live item's timeout
    // fires before its own delivery, and a prompt failure at that ms
    // keeps its place in item order.
    SimTransport::Options options;
    options.request_latency = {5, 0};
    options.response_latency = {1, 0};
    FanOutRig<SimTransport> fan(options);
    FanOutRig<PerItemTransport> ref(options);
    for (auto* transport : {static_cast<SimTransport*>(&fan.transport),
                            static_cast<SimTransport*>(&ref.transport)}) {
        transport->Register("live", EchoFrom(0));
        transport->Register("down", EchoFrom(1));
        transport->failures().SetEndpointDown("down", true);
    }
    const EndpointId live = fan.transport.Resolve("live");
    const EndpointId down = fan.transport.Resolve("down");
    ASSERT_EQ(ref.transport.Resolve("live"), live);
    const std::vector<EndpointId> targets = {live, down, live};
    fan.Issue(targets, 0, 5);
    ref.Issue(targets, 0, 5);
    fan.sim.RunUntil(100);
    ref.sim.RunUntil(100);

    const std::vector<Fired> want = {{5, 0, false, "timeout", 0},
                                     {5, 1, false, "connection failed", 0},
                                     {5, 2, false, "timeout", 0}};
    EXPECT_EQ(fan.traces[0], want);
    EXPECT_EQ(ref.traces[0], want);
    EXPECT_EQ(fan.Snapshot(), ref.Snapshot());
}

TEST(FanOutDifferential, EventBillIsPerDistinctMsNotPerItem)
{
    SimTransport::Options options;
    options.request_latency = {2, 0};
    options.response_latency = {2, 0};
    FanOutRig<SimTransport> fan(options);
    FanOutRig<PerItemTransport> ref(options);
    fan.transport.Register("a", EchoFrom(0));
    ref.transport.Register("a", EchoFrom(0));
    const std::vector<EndpointId> targets(100, fan.transport.Resolve("a"));
    fan.Issue(targets, 1, 50);
    ref.Issue(targets, 1, 50);
    fan.sim.RunUntil(100);
    ref.sim.RunUntil(100);

    EXPECT_EQ(fan.traces[0], ref.traces[0]);
    ASSERT_EQ(fan.traces[0].size(), 100u);
    // One delivery, one completion, one (idle) deadline event — against
    // a timeout, a delivery and a response per item.
    EXPECT_EQ(fan.sim.events_executed(), 3u);
    EXPECT_EQ(ref.sim.events_executed(), 300u);
    EXPECT_EQ(fan.transport.calls_issued(), 100u);
    EXPECT_EQ(fan.transport.calls_succeeded(), 100u);
}

TEST(FanOutDifferential, EmptyFanOutIsANoOp)
{
    FanOutRig<SimTransport> fan;
    fan.Issue({}, 0, 10);
    fan.sim.RunUntil(100);
    EXPECT_TRUE(fan.traces[0].empty());
    EXPECT_EQ(fan.transport.calls_issued(), 0u);
    EXPECT_EQ(fan.sim.events_executed(), 0u);
}

// ---------------------------------------------------------------------------
// Error/timeout accounting. These counters were once conflated (every
// failed call bumped the timeout counter); the tests below pin the
// split so `rpc.errors` and `rpc.timeouts` stay distinct fault
// signals — a fleet drowning in connection failures must not read as
// a latency problem on dashboards.
// ---------------------------------------------------------------------------

TEST_F(TransportTest, PromptFailureCountsErrorNotTimeout)
{
    telemetry::MetricsRegistry metrics;
    transport_.AttachMetrics(&metrics);
    transport_.Register("svc", [](const Payload&) { return Echo{1}; });
    transport_.failures().SetEndpointDown("svc", true);

    std::string reason;
    transport_.Call(
        "svc", Echo{0}, [](const Payload&) { FAIL(); },
        [&](const std::string& r) { reason = r; }, /*timeout_ms=*/100);
    sim_.RunUntil(1000);

    EXPECT_EQ(reason, "connection failed");
    EXPECT_EQ(transport_.calls_errored(), 1u);
    EXPECT_EQ(transport_.calls_timed_out(), 0u);
    EXPECT_EQ(transport_.calls_failed(), 1u);
    EXPECT_EQ(metrics.GetCounter("rpc.errors")->value(), 1u);
    EXPECT_EQ(metrics.GetCounter("rpc.timeouts")->value(), 0u);
    EXPECT_EQ(metrics.GetCounter("rpc.failed")->value(), 1u);
}

TEST_F(TransportTest, BlackholeCountsTimeoutNotError)
{
    telemetry::MetricsRegistry metrics;
    transport_.AttachMetrics(&metrics);
    transport_.Register("svc", [](const Payload&) { return Echo{1}; });

    std::string reason;
    transport_.Call(
        "svc", Echo{0}, [](const Payload&) { FAIL(); },
        [&](const std::string& r) { reason = r; }, /*timeout_ms=*/100);
    // Unregister while the request is in flight: the call is
    // blackholed and the caller only learns via its deadline.
    transport_.Unregister("svc");
    sim_.RunUntil(1000);

    EXPECT_EQ(reason, "timeout");
    EXPECT_EQ(transport_.calls_timed_out(), 1u);
    EXPECT_EQ(transport_.calls_errored(), 0u);
    EXPECT_EQ(transport_.calls_failed(), 1u);
    EXPECT_EQ(metrics.GetCounter("rpc.timeouts")->value(), 1u);
    EXPECT_EQ(metrics.GetCounter("rpc.errors")->value(), 0u);
    EXPECT_EQ(metrics.GetCounter("rpc.failed")->value(), 1u);
}

TEST_F(TransportTest, FailedIsAlwaysErrorsPlusTimeouts)
{
    transport_.Register("up", [](const Payload&) { return Echo{1}; });
    transport_.Register("doomed", [](const Payload&) { return Echo{1}; });
    transport_.failures().SetEndpointDown("doomed", true);

    for (int i = 0; i < 5; ++i) {
        transport_.Call(
            "doomed", Echo{0}, [](const Payload&) { FAIL(); },
            [](const std::string&) {}, /*timeout_ms=*/100);
        transport_.Call(
            "missing", Echo{0}, [](const Payload&) { FAIL(); },
            [](const std::string&) {}, /*timeout_ms=*/100);
    }
    for (int i = 0; i < 3; ++i) {
        transport_.Call(
            "up", Echo{0}, [](const Payload&) {},
            [](const std::string&) {}, /*timeout_ms=*/1);  // too tight
    }
    sim_.RunUntil(10000);

    EXPECT_EQ(transport_.calls_errored(), 10u);
    EXPECT_EQ(transport_.calls_timed_out(), 3u);
    EXPECT_EQ(transport_.calls_failed(),
              transport_.calls_errored() + transport_.calls_timed_out());
    EXPECT_EQ(transport_.calls_issued(),
              transport_.calls_succeeded() + transport_.calls_failed());
}

TEST(LatencyModel, SampleWithinBounds)
{
    Rng rng(1);
    LatencyModel model{10, 5};
    for (int i = 0; i < 1000; ++i) {
        const SimTime l = model.Sample(rng);
        EXPECT_GE(l, 10);
        EXPECT_LE(l, 15);
    }
}

TEST(LatencyModel, ZeroJitterIsConstant)
{
    Rng rng(1);
    LatencyModel model{7, 0};
    for (int i = 0; i < 10; ++i) EXPECT_EQ(model.Sample(rng), 7);
}

}  // namespace
}  // namespace dynamo::rpc
