/**
 * @file
 * Tests for the sharded parallel fleet: partition arithmetic, the
 * cross-shard contract path (window W+1 visibility), proxy-served
 * reads, and the headline determinism property — the same seed must
 * produce a byte-identical DYNJRNL1 journal at every thread count.
 */
#include "fleet/sharding.h"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fleet/sharded_scenarios.h"
#include "replay/journal.h"
#include "replay/scenario.h"
#include "telemetry/metrics.h"

namespace dynamo::fleet {
namespace {

/** 9 leaves -> 2 shards (8 + 1): the smallest cross-shard fleet. */
constexpr std::size_t kTwoShardServers = 9 * kShardServersPerLeaf;

TEST(ShardPlan, PartitionsByLeafSubtree)
{
    const ShardPlan plan = ShardPlan::For(100'000);
    EXPECT_EQ(plan.n_leaves, 417u);
    EXPECT_EQ(plan.n_sbs, 53u);
    EXPECT_EQ(plan.n_msbs, 14u);
    ASSERT_EQ(plan.shards.size(), 53u);
    EXPECT_EQ(plan.shards[0].first_leaf, 0u);
    EXPECT_EQ(plan.shards[0].last_leaf, 8u);
    EXPECT_EQ(plan.shards[52].first_leaf, 416u);
    EXPECT_EQ(plan.shards[52].last_leaf, 417u);
    EXPECT_EQ(plan.shard_of_leaf(7), 0u);
    EXPECT_EQ(plan.shard_of_leaf(8), 1u);

    // Single-SB fleets get one shard and no MSB tier.
    const ShardPlan small = ShardPlan::For(1000);
    EXPECT_EQ(small.n_leaves, 5u);
    EXPECT_EQ(small.n_sbs, 1u);
    EXPECT_EQ(small.n_msbs, 0u);
}

TEST(ShardedFleet, UppersAggregateThroughProxies)
{
    ShardedFleetConfig config;
    config.n_servers = kTwoShardServers;
    config.threads = 2;
    ShardedFleet fleet(config);
    ASSERT_EQ(fleet.shard_count(), 2u);

    // Window 0: leaves aggregate locally; proxies still report the
    // cold state, so SB pulls come back unavailable.
    fleet.RunWindows(1);
    EXPECT_GT(fleet.reads_proxied(), 0u);
    EXPECT_FALSE(fleet.sb(0).last_valid());

    // Window 1 runs against barrier-0 snapshots: both SBs now see
    // valid child power regardless of which shard hosts the leaf.
    fleet.RunWindows(1);
    EXPECT_TRUE(fleet.sb(0).last_valid());
    EXPECT_TRUE(fleet.sb(1).last_valid());
    EXPECT_GT(fleet.sb(0).last_aggregated_power(), 0.0);
    EXPECT_GT(fleet.sb(1).last_aggregated_power(), 0.0);
    EXPECT_GT(fleet.events_executed(), 0u);
}

TEST(ShardedFleet, ContractIssuedInWindowWIsVisibleAtWPlusOne)
{
    ShardedFleetConfig config;
    config.n_servers = kTwoShardServers;
    config.threads = 4;
    ShardedFleet fleet(config);

    // Exercise both shard placements: leaf 0 (shard 0) and leaf 8
    // (shard 1, alone behind the second SB).
    for (const std::size_t target_leaf : {std::size_t{0}, std::size_t{8}}) {
        ASSERT_FALSE(fleet.leaf(target_leaf).contractual_limit());
        const Watts limit = 0.5 * fleet.leaf(target_leaf).physical_limit();

        // The injected call is delivered to the proxy during the next
        // window (window W): the proxy acks and mailboxes it.
        fleet.InjectContract(target_leaf, limit);
        const std::uint64_t forwarded_before = fleet.contracts_forwarded();
        fleet.RunWindows(1);
        EXPECT_EQ(fleet.contracts_forwarded(), forwarded_before + 1);

        // End of window W: the barrier has re-issued the update on the
        // owning shard's transport, but its delivery event has not run
        // -> the leaf must NOT see the contract yet.
        EXPECT_EQ(fleet.mailbox_pending(fleet.plan().shard_of_leaf(
                      target_leaf)),
                  0u);
        EXPECT_FALSE(fleet.leaf(target_leaf).contractual_limit());

        // Window W+1: the contract lands.
        fleet.RunWindows(1);
        ASSERT_TRUE(fleet.leaf(target_leaf).contractual_limit());
        EXPECT_DOUBLE_EQ(*fleet.leaf(target_leaf).contractual_limit(),
                         limit);

        // Lifting follows the same one-window path.
        fleet.InjectContract(target_leaf, std::nullopt);
        fleet.RunWindows(1);
        EXPECT_TRUE(fleet.leaf(target_leaf).contractual_limit());
        fleet.RunWindows(1);
        EXPECT_FALSE(fleet.leaf(target_leaf).contractual_limit());
    }
    EXPECT_GE(fleet.mailbox_delivered(), 4u);
}

TEST(ShardedFleet, BatchedMailboxDeliveryKeepsCountsAndVisibility)
{
    // Regression pin for the batched barrier re-issue: several
    // contracts queued for ONE shard in one window must all be
    // delivered (exact count, no drops, no duplicates) and must all
    // obey the W+1 visibility contract, exactly as the old per-message
    // Call path did.
    ShardedFleetConfig config;
    config.n_servers = kTwoShardServers;
    config.threads = 2;
    ShardedFleet fleet(config);

    // Leaves 0..3 all live on shard 0 -> one four-message batch.
    const std::vector<std::size_t> targets = {0, 1, 2, 3};
    std::vector<Watts> limits;
    for (const std::size_t l : targets) {
        const Watts limit = 0.5 * fleet.leaf(l).physical_limit();
        limits.push_back(limit);
        fleet.InjectContract(l, limit);
    }

    const std::uint64_t forwarded_before = fleet.contracts_forwarded();
    const std::uint64_t delivered_before = fleet.mailbox_delivered();
    fleet.RunWindows(1);  // window W: proxy acks + mailboxes all four

    EXPECT_EQ(fleet.contracts_forwarded(), forwarded_before + targets.size());
    EXPECT_EQ(fleet.mailbox_delivered(), delivered_before + targets.size());
    EXPECT_EQ(fleet.mailbox_pending(0), 0u);
    for (const std::size_t l : targets) {
        EXPECT_FALSE(fleet.leaf(l).contractual_limit())
            << "leaf " << l << " saw its contract before W+1";
    }

    fleet.RunWindows(1);  // window W+1: the whole batch lands
    for (std::size_t i = 0; i < targets.size(); ++i) {
        ASSERT_TRUE(fleet.leaf(targets[i]).contractual_limit())
            << "leaf " << targets[i] << " never got its contract";
        EXPECT_DOUBLE_EQ(*fleet.leaf(targets[i]).contractual_limit(),
                         limits[i]);
    }
}

TEST(ShardedFleet, BarrierProfileAccountsStagesAndExportsMetrics)
{
    ShardedFleetConfig config;
    config.n_servers = kTwoShardServers;
    config.threads = 2;
    config.record_journal = true;
    config.checkpoint_every = 1;  // every barrier runs the parallel stage
    ShardedFleet fleet(config);
    fleet.InjectContract(0, 0.5 * fleet.leaf(0).physical_limit());
    fleet.RunWindows(3);

    const BarrierProfile profile = fleet.barrier_profile();
    EXPECT_EQ(profile.windows, 3u);
    EXPECT_GT(profile.window_run_s, 0.0);
    EXPECT_GT(profile.barrier_total_s, 0.0);
    // First barrier publishes every leaf (sentinel diff), so at least
    // one full fleet's worth of snapshots crossed.
    EXPECT_GE(profile.proxy_leaves_published, 9u);
    EXPECT_GE(profile.mailbox_messages, 1u);
    EXPECT_GT(profile.checkpoint_s, 0.0);
    EXPECT_GT(profile.serial_share(), 0.0);
    EXPECT_LT(profile.serial_share(), 1.0);

    telemetry::MetricsRegistry registry;
    fleet.PublishBarrierProfile(&registry);
    EXPECT_DOUBLE_EQ(registry.GetGauge("barrier.total_s")->value(),
                     profile.barrier_total_s);
    EXPECT_DOUBLE_EQ(registry.GetGauge("barrier.serial_share")->value(),
                     profile.serial_share());
    EXPECT_EQ(registry.GetCounter("barrier.windows")->value(), 3u);
    EXPECT_EQ(registry.GetCounter("barrier.proxy_leaves_published")->value(),
              profile.proxy_leaves_published);
    fleet.PublishBarrierProfile(nullptr);  // must be a safe no-op
}

TEST(ShardedFleet, OverflowingReconfigTargetIndexIsInvalidArgument)
{
    // An index too wide for unsigned long used to escape as
    // std::out_of_range from std::stoul; it must surface as the same
    // invalid_argument every other malformed target produces.
    ShardedFleetConfig config;
    config.n_servers = 1000;
    ShardedFleet fleet(config);
    const std::string huge = "rpp99999999999999999999999999";
    EXPECT_THROW(fleet.ScheduleReconfig(1, ReconfigTxn().AddServers(huge, 1)),
                 std::invalid_argument);
    EXPECT_THROW(
        fleet.ScheduleReconfig(
            1, ReconfigTxn().PromoteUpper("sb88888888888888888888888888")),
        std::invalid_argument);
}

/** Run a journaled fleet and return the encoded journal bytes. */
std::string
JournalBytes(std::size_t n_servers, std::uint64_t seed, std::size_t threads,
             std::uint64_t windows)
{
    ShardedFleetConfig config;
    config.n_servers = n_servers;
    config.threads = threads;
    config.seed = seed;
    config.record_journal = true;
    config.checkpoint_every = 2;
    config.scenario = "equivalence";
    ShardedFleet fleet(config);
    fleet.RunWindows(windows);
    return replay::EncodeJournal(fleet.journal());
}

TEST(ShardedFleet, JournalIsByteIdenticalAcrossThreadCounts)
{
    const std::string baseline =
        JournalBytes(kTwoShardServers, /*seed=*/1234, /*threads=*/1,
                     /*windows=*/4);
    ASSERT_FALSE(baseline.empty());

    // The journal must have real content to make the comparison
    // meaningful: 4 cycle records and 2 checkpoints with state bytes.
    const replay::Journal decoded = replay::DecodeJournal(baseline);
    ASSERT_EQ(decoded.cycles.size(), 4u);
    ASSERT_EQ(decoded.checkpoints.size(), 2u);
    EXPECT_FALSE(decoded.checkpoints[0].state.empty());

    for (const std::size_t threads : {2, 4, 8}) {
        EXPECT_EQ(JournalBytes(kTwoShardServers, 1234, threads, 4), baseline)
            << "journal diverged at threads=" << threads;
    }
}

/**
 * The canonical sharded reconfiguration storm over the 9-leaf / 2-SB
 * fleet: growth, a cross-SB re-parent, an upper promotion combined
 * with a leaf bounce, then a decommission.
 */
void
ScheduleStorm(ShardedFleet& fleet)
{
    fleet.ScheduleReconfig(1, ReconfigTxn().AddServers("rpp0", 24));
    fleet.ScheduleReconfig(2, ReconfigTxn().Reparent("rpp8", "sb0"));
    fleet.ScheduleReconfig(
        3, ReconfigTxn().PromoteUpper("sb0").RestartController("rpp1"));
    fleet.ScheduleReconfig(4, ReconfigTxn().RemoveSubtree("rpp7"));
}

TEST(ShardedFleet, ReconfigCommitsAtScheduledBarrier)
{
    ShardedFleetConfig config;
    config.n_servers = kTwoShardServers;
    config.threads = 2;
    ShardedFleet fleet(config);
    ScheduleStorm(fleet);

    fleet.RunWindows(1);  // barrier 0: nothing scheduled yet
    EXPECT_EQ(fleet.spec_epoch(), 0u);

    fleet.RunWindows(1);  // barrier 1: growth commits
    EXPECT_EQ(fleet.spec_epoch(), 1u);
    EXPECT_EQ(fleet.reconfigs_applied(), 1u);

    fleet.RunWindows(1);  // barrier 2: rpp8 re-homed onto sb0
    EXPECT_EQ(fleet.spec_epoch(), 2u);
    EXPECT_EQ(fleet.sb(0).child_count(), 9u);
    EXPECT_EQ(fleet.sb(1).child_count(), 0u);

    fleet.RunWindows(1);  // barrier 3: sb0 promoted, rpp1 bounced
    EXPECT_EQ(fleet.spec_epoch(), 3u);
    EXPECT_TRUE(fleet.sb(0).active());
    EXPECT_EQ(fleet.sb(0).child_count(), 9u);
    EXPECT_TRUE(fleet.leaf(1).active());

    fleet.RunWindows(1);  // barrier 4: rpp7 decommissioned
    EXPECT_EQ(fleet.spec_epoch(), 4u);
    EXPECT_FALSE(fleet.leaf_alive(7));
    EXPECT_FALSE(fleet.leaf(7).active());
    EXPECT_EQ(fleet.sb(0).child_count(), 8u);

    // The surviving fleet still aggregates through the proxies.
    fleet.RunWindows(2);
    EXPECT_TRUE(fleet.sb(0).last_valid());

    // Scheduling into an already-closed window is rejected.
    EXPECT_THROW(fleet.ScheduleReconfig(2, ReconfigTxn().AddServers("rpp0", 1)),
                 std::invalid_argument);
    EXPECT_THROW(fleet.ScheduleReconfig(99, ReconfigTxn().AddServers("rpp99", 1)),
                 std::invalid_argument);
}

TEST(ShardedFleet, ReconfiguringJournalIsByteIdenticalAcrossThreadCounts)
{
    const auto storm_bytes = [](std::size_t threads) {
        ShardedFleetConfig config;
        config.n_servers = kTwoShardServers;
        config.threads = threads;
        config.seed = 20260809;
        config.record_journal = true;
        config.checkpoint_every = 2;
        config.scenario = "sharded-reconfig-storm";
        ShardedFleet fleet(config);
        ScheduleStorm(fleet);
        fleet.RunWindows(6);
        return replay::EncodeJournal(fleet.journal());
    };

    const std::string baseline = storm_bytes(1);
    const replay::Journal decoded = replay::DecodeJournal(baseline);
    ASSERT_EQ(decoded.cycles.size(), 6u);
    ASSERT_EQ(decoded.reconfigs.size(), 4u);
    EXPECT_EQ(decoded.reconfigs.front().epoch, 1u);
    EXPECT_EQ(decoded.reconfigs.front().time, 2 * kShardWindowMs);
    EXPECT_EQ(decoded.reconfigs.back().description, "remove-subtree(rpp7)");

    for (const std::size_t threads : {2, 4}) {
        EXPECT_EQ(storm_bytes(threads), baseline)
            << "reconfiguring journal diverged at threads=" << threads;
    }
}

TEST(ShardedFleet, ParallelBarrierStagesStayDeterministicUnderLoad)
{
    // The TSan target for the parallel barrier stages: 4 worker
    // threads, a checkpoint EVERY window (the parallel snapshot fill +
    // ordered Append merge), the staged proxy capture running inside
    // every window, a reconfiguration storm mutating topology at the
    // barriers, and contracts crossing shards through batched
    // mailboxes — all at once. Byte-compare against the 1-thread run:
    // any ordering leak shows up as journal divergence here, and any
    // missing happens-before edge shows up in the TSan CI job that
    // runs this binary.
    const auto bytes = [](std::size_t threads) {
        ShardedFleetConfig config;
        config.n_servers = kTwoShardServers;
        config.threads = threads;
        config.seed = 97;
        config.record_journal = true;
        config.checkpoint_every = 1;
        config.scenario = "barrier-stages";
        ShardedFleet fleet(config);
        ScheduleStorm(fleet);
        fleet.InjectContract(2, 0.6 * fleet.leaf(2).physical_limit());
        fleet.RunWindows(6);
        return replay::EncodeJournal(fleet.journal());
    };

    const std::string baseline = bytes(1);
    const replay::Journal decoded = replay::DecodeJournal(baseline);
    ASSERT_EQ(decoded.cycles.size(), 6u);
    ASSERT_EQ(decoded.checkpoints.size(), 6u);
    EXPECT_FALSE(decoded.checkpoints.back().state.empty());
    EXPECT_EQ(bytes(4), baseline);
}

TEST(ShardedFleet, ScheduledActionRunsAtItsBarrierAndIsJournaled)
{
    ShardedFleetConfig config;
    config.n_servers = kTwoShardServers;
    config.threads = 2;
    config.record_journal = true;
    config.scenario = "scheduled-action";
    ShardedFleet fleet(config);

    int fired_at = -1;
    fleet.ScheduleAction(2, "test: poke", [&fleet, &fired_at] {
        fired_at = 2;
        std::size_t n = 0;
        fleet.ForEachServer([&n](server::SimServer&) { ++n; });
        EXPECT_EQ(n, kTwoShardServers);
    });

    fleet.RunWindows(2);  // barriers 0 and 1: nothing fires
    EXPECT_EQ(fired_at, -1);
    fleet.RunWindows(1);  // barrier 2: the action runs
    EXPECT_EQ(fired_at, 2);

    // The action is journaled as a fault record at its barrier time.
    ASSERT_EQ(fleet.journal().faults.size(), 1u);
    EXPECT_EQ(fleet.journal().faults[0].description, "test: poke");
    EXPECT_EQ(fleet.journal().faults[0].time, 3 * kShardWindowMs);

    // Windows already closed reject new actions by name.
    EXPECT_THROW(fleet.ScheduleAction(1, "late", [] {}),
                 std::invalid_argument);
}

TEST(ShardedFleet, GpuAndSensorlessFractionsSeedPopulations)
{
    ShardedFleetConfig config;
    config.n_servers = kTwoShardServers;
    config.gpu_fraction = 0.25;
    config.sensorless_fraction = 0.25;
    ShardedFleet fleet(config);

    std::size_t gpus = 0;
    std::size_t sensorless = 0;
    fleet.ForEachServer([&](server::SimServer& srv) {
        if (srv.generation() == server::ServerGeneration::kGpuTrain2024) {
            ++gpus;
        }
        if (!srv.has_sensor()) ++sensorless;
    });
    // Bernoulli(0.25) over ~2.2k servers: both populations are
    // comfortably nonempty and nowhere near all-of-them.
    EXPECT_GT(gpus, kTwoShardServers / 8);
    EXPECT_LT(gpus, kTwoShardServers / 2);
    EXPECT_GT(sensorless, kTwoShardServers / 8);
    EXPECT_LT(sensorless, kTwoShardServers / 2);
}

TEST(ShardedFleet, EquivalenceHoldsAcrossSeeds)
{
    // Different seeds give different journals (the digest is not a
    // constant), but each seed is thread-count invariant.
    std::vector<std::string> serial;
    for (const std::uint64_t seed : {7ull, 42ull}) {
        serial.push_back(
            JournalBytes(kTwoShardServers, seed, /*threads=*/1,
                         /*windows=*/3));
        EXPECT_EQ(JournalBytes(kTwoShardServers, seed, /*threads=*/3, 3),
                  serial.back())
            << "journal diverged at seed=" << seed;
    }
    EXPECT_NE(serial[0], serial[1]);
}

/** Window whose closing barrier is the first at or after `when`. */
std::uint64_t
WindowAt(SimTime when)
{
    if (when <= 0) return 0;
    return static_cast<std::uint64_t>((when - 1) / kShardWindowMs);
}

TEST(ShardedScenario, GridDrDeratesEverySbAtTheBarrierClosingItsWindow)
{
    ShardedFleetConfig config;
    config.n_servers = 1920;
    ShardedFleet fleet(config);
    std::vector<Watts> rated;
    for (std::size_t s = 0; s < fleet.plan().n_sbs; ++s) {
        rated.push_back(fleet.sb(s).physical_limit());
    }
    ASSERT_TRUE(ApplyShardedScenario(
        fleet, replay::ParseScenarioSpec("grid-dr(start_s=18)")));
    ASSERT_EQ(WindowAt(Seconds(18)), 1u);

    fleet.RunWindows(1);  // barrier 0: nothing derated yet
    for (std::size_t s = 0; s < rated.size(); ++s) {
        EXPECT_EQ(fleet.sb(s).physical_limit(), rated[s]) << "sb" << s;
    }

    fleet.RunWindows(1);  // barrier 1 closes window 1: the derate lands
    for (std::size_t s = 0; s < rated.size(); ++s) {
        EXPECT_DOUBLE_EQ(fleet.sb(s).physical_limit(), rated[s] * 0.85)
            << "sb" << s;
    }
    std::size_t servers = 0;
    fleet.ForEachServer([&servers](server::SimServer& srv) {
        EXPECT_DOUBLE_EQ(srv.load().balancer_factor(), 1.12);
        ++servers;
    });
    EXPECT_EQ(servers, 1920u);
}

TEST(ShardedScenario, ThermalDeratesEachLeafOnItsStaggerAndRestores)
{
    ShardedFleetConfig config;
    config.n_servers = 1920;
    ShardedFleet fleet(config);
    const replay::ScenarioSpec spec =
        replay::ParseScenarioSpec("thermal-emergency");
    const double start_s = spec.params.at("start_s");
    const double stagger_s = spec.params.at("stagger_s");
    const double hold_s = spec.params.at("hold_s");
    const double keep = 1.0 - spec.params.at("drop_frac");

    const std::size_t n_leaves = fleet.plan().n_leaves;
    std::vector<Watts> rated;
    std::vector<std::uint64_t> derate_w;
    std::vector<std::uint64_t> restore_w;
    for (std::size_t l = 0; l < n_leaves; ++l) {
        rated.push_back(fleet.leaf(l).physical_limit());
        const SimTime at =
            Seconds(start_s + static_cast<double>(l) * stagger_s);
        derate_w.push_back(WindowAt(at));
        restore_w.push_back(WindowAt(at + Seconds(hold_s)));
    }
    ASSERT_TRUE(ApplyShardedScenario(fleet, spec));

    for (std::uint64_t b = 0; b <= restore_w.back(); ++b) {
        fleet.RunWindows(1);  // barrier b
        for (std::size_t l = 0; l < n_leaves; ++l) {
            const bool derated = b >= derate_w[l] && b < restore_w[l];
            EXPECT_DOUBLE_EQ(fleet.leaf(l).physical_limit(),
                             derated ? rated[l] * keep : rated[l])
                << "rpp" << l << " after barrier " << b;
        }
    }
}

TEST(ShardedScenario, SubWindowHoldStillDeratesForOneBarrier)
{
    ShardedFleetConfig config;
    config.n_servers = 1920;
    ShardedFleet fleet(config);
    const Watts rated = fleet.leaf(0).physical_limit();
    // rpp0 derates at 40 s and restores at 45 s: both in window 4.
    ASSERT_TRUE(ApplyShardedScenario(
        fleet, replay::ParseScenarioSpec("thermal-emergency(hold_s=5)")));
    ASSERT_EQ(WindowAt(Seconds(40)), WindowAt(Seconds(45)));

    fleet.RunWindows(5);  // barrier 4: the derate lands
    EXPECT_DOUBLE_EQ(fleet.leaf(0).physical_limit(), rated * 0.75);
    fleet.RunWindows(1);  // barrier 5: the restore
    EXPECT_DOUBLE_EQ(fleet.leaf(0).physical_limit(), rated);
}

TEST(ShardedScenario, SubWindowPhasesEachHoldForOneBarrier)
{
    ShardedFleetConfig config;
    config.n_servers = 1000;
    config.gpu_fraction = 0.25;
    ShardedFleet fleet(config);
    // 6 s phases: compute at 30 s, stall at 36 s (both in window 3),
    // compute at 42 s, ... and the job is done at 66 s.
    ASSERT_TRUE(ApplyShardedScenario(
        fleet, replay::ParseScenarioSpec("gpu-surge(period_s=12)")));
    ASSERT_EQ(WindowAt(Seconds(30)), WindowAt(Seconds(36)));

    fleet.RunWindows(3);  // barriers 0-2: nothing scheduled
    const double phases[] = {1.35, 0.75, 1.35, 0.75, 1.35, 0.75, 1.0};
    for (std::size_t i = 0; i < std::size(phases); ++i) {
        fleet.RunWindows(1);  // barrier 3 + i
        std::size_t gpus = 0;
        fleet.ForEachServer([&](server::SimServer& srv) {
            if (srv.generation() != server::ServerGeneration::kGpuTrain2024) {
                return;
            }
            EXPECT_DOUBLE_EQ(srv.load().balancer_factor(), phases[i])
                << "after barrier " << 3 + i;
            ++gpus;
        });
        EXPECT_GT(gpus, 0u);
    }
}

TEST(ShardedScenario, RpcFaultScenariosHaveNoShardedAnalog)
{
    for (const char* name : {"partition-heal", "mixed-faults",
                             "surge-degraded", "reconfig-storm"}) {
        ShardedFleetConfig config;
        config.n_servers = 1000;
        config.record_journal = true;
        config.scenario = name;
        ShardedFleet fleet(config);
        EXPECT_FALSE(
            ApplyShardedScenario(fleet, replay::ParseScenarioSpec(name)))
            << name;
        // Nothing was scheduled: a run past every step of the script
        // journals no action.
        fleet.RunWindows(17);
        EXPECT_TRUE(fleet.journal().faults.empty()) << name;
    }
}

/** Journal bytes of a catalog scenario applied to a 1k-server fleet. */
std::string
ScenarioJournalBytes(const std::string& scenario, std::size_t threads)
{
    ShardedFleetConfig config;
    config.n_servers = 1000;
    config.threads = threads;
    config.gpu_fraction = 0.25;
    config.sensorless_fraction = 0.25;
    config.record_journal = true;
    config.checkpoint_every = 3;
    config.scenario = scenario;
    ShardedFleet fleet(config);
    EXPECT_TRUE(
        ApplyShardedScenario(fleet, replay::ParseScenarioSpec(scenario)))
        << scenario;
    // 12 windows = 108 s: past every scenario's first action at its
    // default parameters (grid-dr, the latest, derates at 60 s).
    fleet.RunWindows(12);
    return replay::EncodeJournal(fleet.journal());
}

TEST(ShardedScenario, FleetStateScenariosAreByteIdenticalAcrossThreadCounts)
{
    for (const char* name : {"grid-dr", "thermal-emergency", "gpu-surge",
                             "estimator-drift", "qos-downgrade"}) {
        const std::string baseline = ScenarioJournalBytes(name, 1);
        const replay::Journal decoded = replay::DecodeJournal(baseline);
        EXPECT_FALSE(decoded.faults.empty())
            << name << ": no scripted action landed";
        EXPECT_EQ(ScenarioJournalBytes(name, 3), baseline)
            << name << ": journal diverged at threads=3";
    }
}

}  // namespace
}  // namespace dynamo::fleet
