/**
 * @file
 * surge-sharded: fleet::ShardedFleet on every host core, recording a
 * journal with periodic checkpoints, running grid-dr after a quiet
 * stretch. Once the derate lands every leaf and every SB caps, so cap
 * and uncap writes sit beside reads and the planner, contract
 * mailboxes, barrier stages and checkpoint path all work; the quiet
 * prefix gives the same layers' cost without capping in the same run.
 */
#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "common/archive.h"
#include "episode.h"
#include "fleet/sharded_scenarios.h"
#include "fleet/sharding.h"
#include "replay/journal.h"
#include "replay/scenario.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dynamo;

/** A leaf share at or above this counts as "the fleet is capping". */
constexpr double kCappingShare = 0.9;

std::size_t
HostThreads(std::size_t requested)
{
    if (requested > 0) return requested;
    return std::max(1u, std::thread::hardware_concurrency());
}

replay::ScenarioSpec
SurgeScenario(const SurgeShardedSize& size)
{
    // Onset at the end of the quiet prefix: the derate runs at the
    // barrier closing window quiet_windows - 1.
    const double start_s = static_cast<double>(size.quiet_windows) *
                           static_cast<double>(fleet::kShardWindowMs) / 1e3;
    return replay::ParseScenarioSpec("grid-dr(start_s=" +
                                     std::to_string(static_cast<long long>(start_s)) +
                                     ")");
}

fleet::ShardedFleetConfig
SurgeConfig(const SurgeShardedSize& size, std::uint64_t seed,
            std::size_t threads, const replay::ScenarioSpec& scenario)
{
    fleet::ShardedFleetConfig config;
    config.n_servers = size.servers;
    config.threads = threads;
    config.seed = MixSeed(seed, 2);
    config.record_journal = true;
    config.checkpoint_every = size.checkpoint_every;
    config.scenario = replay::FormatScenarioSpec(scenario);
    return config;
}

double
CappingShare(fleet::ShardedFleet& fleet)
{
    const std::size_t n = fleet.plan().n_leaves;
    std::size_t capping = 0;
    for (std::size_t l = 0; l < n; ++l) capping += fleet.leaf(l).capping() ? 1 : 0;
    return n > 0 ? static_cast<double>(capping) / static_cast<double>(n) : 0.0;
}

/** Build, apply the scenario and run every window; returns the journal. */
std::string
RunJournalOnce(const SurgeShardedSize& size, std::uint64_t seed,
               std::size_t threads, double* wall_s)
{
    const replay::ScenarioSpec scenario = SurgeScenario(size);
    const Clock::time_point start = Clock::now();
    fleet::ShardedFleet fleet(SurgeConfig(size, seed, threads, scenario));
    fleet::ApplyShardedScenario(fleet, scenario);
    fleet.RunWindows(size.quiet_windows + size.surge_windows);
    std::string bytes = replay::EncodeJournal(fleet.journal());
    *wall_s = SecondsSince(start);
    return bytes;
}

}  // namespace

RunResult
RunSurgeSharded(const SurgeShardedSize& size, const RunOptions& options)
{
    const std::size_t threads = HostThreads(size.threads);
    const replay::ScenarioSpec scenario = SurgeScenario(size);
    const fleet::ShardedFleetConfig config =
        SurgeConfig(size, options.seed, threads, scenario);
    const std::uint64_t windows = size.quiet_windows + size.surge_windows;

    RunResult result;
    Tracer tracer(options.trace, MixSeed(options.seed, 99));
    Tracer off(false, 0);
    std::vector<double> setups, speeds_untraced, speeds_traced;
    std::vector<std::vector<double>> untraced_windows;
    EpisodeMedians layers;
    std::uint64_t first_journal_fnv = 0;
    EpisodeLoop loop(options, /*min_untraced=*/3);
    while (loop.Next()) {
        const bool traced = loop.traced();
        Tracer& tr = traced ? tracer : off;
        const SpanId episode = tr.Begin("bench.episode");
        const std::string tag = "episode " + std::to_string(loop.index());

        const Clock::time_point build_start = Clock::now();
        std::unique_ptr<fleet::ShardedFleet> fleet;
        {
            ScopedSpan span(tr, "setup.build", episode);
            fleet = std::make_unique<fleet::ShardedFleet>(config);
        }
        const double build_s = SecondsSince(build_start);
        const Clock::time_point scenario_start = Clock::now();
        bool applied = false;
        {
            ScopedSpan span(tr, "setup.scenario", episode);
            applied = fleet::ApplyShardedScenario(*fleet, scenario);
        }
        const double scenario_s = SecondsSince(scenario_start);
        result.Check(applied, tag + ": grid-dr has no sharded analog");

        double measured_s = 0.0;
        std::vector<double> episode_windows, quiet_ms, capping_ms;
        double share = 0.0;
        for (std::uint64_t w = 0; w < windows; ++w) {
            const fleet::BarrierProfile p0 = fleet->barrier_profile();
            const Clock::time_point t0 = Clock::now();
            fleet->RunWindows(1);
            const Clock::time_point t1 = Clock::now();
            const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
            measured_s += ms / 1e3;
            episode_windows.push_back(ms);
            share = CappingShare(*fleet);
            if (w < size.quiet_windows) quiet_ms.push_back(ms);
            if (w >= size.quiet_windows && share >= kCappingShare) {
                capping_ms.push_back(ms);
            }
            if (traced) {
                // Barrier stages as children, laid out in pipeline
                // order from the profile's per-stage clocks.
                const SpanId span = tr.Record("fleet.window", episode, t0, t1);
                const fleet::BarrierProfile p1 = fleet->barrier_profile();
                Clock::time_point at = t0;
                const auto stage = [&](const char* name, double s) {
                    const auto end = at + std::chrono::nanoseconds(
                                              static_cast<std::int64_t>(s * 1e9));
                    tr.Record(name, span, at, end, true);
                    at = end;
                };
                stage("barrier.window_run", p1.window_run_s - p0.window_run_s);
                stage("barrier.record", p1.record_s - p0.record_s);
                stage("barrier.reconfig", p1.reconfig_s - p0.reconfig_s);
                stage("barrier.proxy_publish", p1.proxy_publish_s - p0.proxy_publish_s);
                stage("barrier.mailbox_drain", p1.mailbox_drain_s - p0.mailbox_drain_s);
                stage("barrier.checkpoint", p1.checkpoint_s - p0.checkpoint_s);
            }
        }
        const double speed = static_cast<double>(windows) *
                             static_cast<double>(fleet::kShardWindowMs) / 1e3 /
                             measured_s;

        const Clock::time_point encode_start = Clock::now();
        std::string journal;
        {
            ScopedSpan span(tr, "replay.encode_journal", episode);
            journal = replay::EncodeJournal(fleet->journal());
        }
        const double encode_ms = SecondsSince(encode_start) * 1e3;
        tr.End(episode);

        // --- Output checks (every episode). ---
        result.Check(share >= kCappingShare,
                     tag + ": only " + std::to_string(share) +
                         " of leaves capping during the hold (need >= 0.9)");
        const std::uint64_t fnv = Fnv1a64(journal);
        if (first_journal_fnv == 0) first_journal_fnv = fnv;
        result.Check(fnv == first_journal_fnv,
                     tag + ": journal differs from the first episode's "
                           "(same seed, same threads)");
        std::uint64_t leaf_aggs = 0, leaf_invalid = 0, capped_servers = 0;
        for (std::size_t l = 0; l < fleet->plan().n_leaves; ++l) {
            const core::LeafController& leaf = fleet->leaf(l);
            leaf_aggs += leaf.aggregations();
            leaf_invalid += leaf.invalid_aggregations();
            capped_servers += leaf.capped_count();
        }
        std::uint64_t upper_cycles = 0, sbs_capping = 0;
        for (std::size_t s = 0; s < fleet->plan().n_sbs; ++s) {
            upper_cycles += fleet->sb(s).aggregations() +
                            fleet->sb(s).invalid_aggregations();
            sbs_capping += fleet->sb(s).capping() ? 1 : 0;
        }
        // Leaf aggregations only: in window 0 the SBs run before any
        // leaf snapshot reaches the proxies (the engine's W+1
        // visibility), so their first cycle is invalid by design.
        // aggregations() counts the valid ones.
        result.failures.Add(leaf_aggs + leaf_invalid, leaf_invalid);

        double demanded = 0.0, delivered = 0.0;
        fleet->ForEachServer([&](server::SimServer& server) {
            demanded += server.demanded_work();
            delivered += server.delivered_work();
        });

        char note[320];
        std::snprintf(note, sizeof(note),
                      "episode %d (%s): setup %.3f s, %llu windows on %zu "
                      "threads in %.3f s = %.3f sim-s/s; %.3f of %zu leaves "
                      "and %llu of %zu SBs capping at the end",
                      loop.index(), traced ? "traced" : "untraced",
                      build_s + scenario_s,
                      static_cast<unsigned long long>(windows), threads,
                      measured_s, speed, share, fleet->plan().n_leaves,
                      static_cast<unsigned long long>(sbs_capping),
                      fleet->plan().n_sbs);
        result.notes.push_back(note);

        if (!traced) {
            setups.push_back(build_s + scenario_s);
            speeds_untraced.push_back(speed);
            untraced_windows.push_back(std::move(episode_windows));
            continue;
        }
        speeds_traced.push_back(speed);

        const fleet::BarrierProfile p = fleet->barrier_profile();
        const double events = static_cast<double>(fleet->events_executed());
        if (speeds_traced.size() == 1) {
            char bases[256];
            std::snprintf(bases, sizeof(bases),
                          "bases: %llu windows, %zu leaves, %llu leaf cycles, "
                          "%llu upper cycles, %.0f events, %llu servers capped",
                          static_cast<unsigned long long>(windows),
                          fleet->plan().n_leaves,
                          static_cast<unsigned long long>(leaf_aggs + leaf_invalid),
                          static_cast<unsigned long long>(upper_cycles), events,
                          static_cast<unsigned long long>(capped_servers));
            result.notes.push_back(bases);
        }
        layers.Add({
            {"sim.events", events},
            {"sim.ns_per_event", Ratio(measured_s * 1e9, events)},
            {"leaf.cycles", static_cast<double>(leaf_aggs + leaf_invalid)},
            {"upper.cycles", static_cast<double>(upper_cycles)},
            {"leaf.invalid_aggregations", static_cast<double>(leaf_invalid)},
            {"leaf.capping_share", share},
            {"leaf.capped_servers", static_cast<double>(capped_servers)},
            {"fleet.window_ms_quiet", Median(quiet_ms)},
            {"fleet.window_ms_capping", Median(capping_ms)},
            {"fleet.contracts_forwarded",
             static_cast<double>(fleet->contracts_forwarded())},
            {"fleet.reads_proxied", static_cast<double>(fleet->reads_proxied())},
            {"barrier.window_run_s", p.window_run_s},
            {"barrier.serial_share", p.serial_share()},
            {"barrier.record_s", p.record_s},
            {"barrier.proxy_publish_s", p.proxy_publish_s},
            {"barrier.mailbox_drain_s", p.mailbox_drain_s},
            {"barrier.checkpoint_s", p.checkpoint_s},
            {"barrier.mailbox_messages", static_cast<double>(p.mailbox_messages)},
            {"barrier.proxy_leaves_published",
             static_cast<double>(p.proxy_leaves_published)},
            {"journal.bytes", static_cast<double>(journal.size())},
            {"journal.encode_ms", encode_ms},
            {"setup.build_s", build_s},
            {"setup.scenario_s", scenario_s},
            {"work_loss_pct", 100.0 * (1.0 - Ratio(delivered, demanded))},
        });
    }

    double typical_ms = 0.0;
    for (double ms : TypicalEpisode(untraced_windows)) typical_ms += ms;
    result.Set("sim_speed", Ratio(static_cast<double>(windows) *
                                      static_cast<double>(fleet::kShardWindowMs),
                                  typical_ms));
    result.Set("setup_s", Median(setups));
    result.Set("peak_rss_mb", PeakRssMiB());
    // One 9 s window is three 3 s pull periods of every leaf.
    std::vector<double> thirds;
    for (const std::vector<double>& episode : untraced_windows) {
        for (double ms : episode) thirds.push_back(ms / 3.0);
    }
    SetPullMetrics(result, thirds, windows,
                   "one third of a 9 s window of the whole fleet (" +
                       std::to_string(size.quiet_windows) + " quiet + " +
                       std::to_string(size.surge_windows) +
                       " surge windows an episode)");

    if (options.trace) {
        for (const auto& [name, value] : layers.Medians()) result.Set(name, value);
        result.Set("trace.overhead_pct",
                   100.0 * (Median(speeds_untraced) / Median(speeds_traced) - 1.0));
        FinishTracedRun(result, tracer, options);
    }
    return result;
}

RunResult
CheckSurgeJournalIdentity(const SurgeShardedSize& size, std::uint64_t seed)
{
    const std::size_t wide = std::max<std::size_t>(2, HostThreads(0));
    double serial_s = 0.0, wide_s = 0.0;
    const std::string serial = RunJournalOnce(size, seed, 1, &serial_s);
    const std::string parallel = RunJournalOnce(size, seed, wide, &wide_s);

    RunResult result;
    char note[200];
    std::snprintf(note, sizeof(note),
                  "journal 1 thread: %zu bytes fnv 0x%016llx in %.2f s; %zu "
                  "threads: %zu bytes fnv 0x%016llx in %.2f s",
                  serial.size(),
                  static_cast<unsigned long long>(Fnv1a64(serial)), serial_s,
                  wide, parallel.size(),
                  static_cast<unsigned long long>(Fnv1a64(parallel)), wide_s);
    result.notes.push_back(note);
    result.Check(serial == parallel,
                 "journal of the " + std::to_string(wide) +
                     "-thread run differs from the 1-thread run");
    return result;
}

}  // namespace perfbench
