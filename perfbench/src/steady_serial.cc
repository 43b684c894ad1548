/**
 * @file
 * steady-serial: the serial fleet::Fleet at production scale with
 * telemetry on and nothing to cap. The per-pull path (kernel
 * scheduling, SimTransport, agent read, server power model, leaf
 * aggregation) does almost all the work; the planner, contracts and
 * barrier stay idle, so this is the workload on which a change to them
 * must show no effect.
 */
#include <cstdio>
#include <memory>

#include "episode.h"
#include "fleet/fleet.h"
#include "telemetry/metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dynamo;

constexpr SimTime kPullPeriodMs = 3000;

fleet::FleetSpec
SteadySpec(const SteadySerialSize& size, std::uint64_t seed)
{
    fleet::FleetSpec spec;
    spec.scope = fleet::FleetScope::kMsb;
    spec.topology.sbs_per_msb = size.sbs;
    spec.topology.rpps_per_sb = size.rpps_per_sb;
    spec.servers_per_rpp = size.servers_per_rpp;
    // Default SB and RPP ratings. The MSB is rated as the sum of its
    // SBs: the default 2.5 MW MSB is sized for 4 SBs and would trip
    // under a 52-SB row before any controller could act.
    spec.topology.msb_rated =
        static_cast<double>(size.sbs) * spec.topology.sb_rated;
    spec.seed = MixSeed(seed, 1);
    return spec;
}

std::uint64_t
CounterValue(telemetry::MetricsRegistry& registry, const char* name)
{
    return registry.GetCounter(name)->value();
}

}  // namespace

RunResult
RunSteadySerial(const SteadySerialSize& size, const RunOptions& options)
{
    const fleet::FleetSpec spec = SteadySpec(size, options.seed);
    RunResult result;
    Tracer tracer(options.trace, MixSeed(options.seed, 99));
    Tracer off(false, 0);

    std::vector<double> setups, speeds_untraced, speeds_traced, slice_ms;
    std::vector<std::vector<double>> untraced_slices;
    EpisodeMedians layers;
    bool bases_noted = false;
    EpisodeLoop loop(options, /*min_untraced=*/3);
    while (loop.Next()) {
        const bool traced = loop.traced();
        Tracer& tr = traced ? tracer : off;
        const SpanId episode = tr.Begin("bench.episode");

        const Clock::time_point build_start = Clock::now();
        std::unique_ptr<fleet::Fleet> fleet;
        {
            ScopedSpan span(tr, "setup.build", episode);
            fleet = std::make_unique<fleet::Fleet>(spec);
        }
        const double setup_s = SecondsSince(build_start);

        telemetry::MetricsRegistry& registry = *fleet->metrics();
        telemetry::Histogram* leaf_us = registry.GetHistogram("leaf.cycle_us");
        telemetry::Histogram* upper_us = registry.GetHistogram("upper.cycle_us");

        double measured_s = 0.0;
        std::vector<double> episode_slices;
        for (int k = 0; k < size.pull_periods; ++k) {
            const double leaf_before = leaf_us->sum();
            const double upper_before = upper_us->sum();
            const Clock::time_point t0 = Clock::now();
            fleet->RunFor(kPullPeriodMs);
            const Clock::time_point t1 = Clock::now();
            const double slice_s = std::chrono::duration<double>(t1 - t0).count();
            measured_s += slice_s;
            episode_slices.push_back(slice_s * 1e3);
            if (traced) {
                // Controllers keep their own RunCycle wall clocks; lay
                // the slice's totals out as derived children so the
                // slice's self time is the kernel/transport/agent path.
                const SpanId slice = tr.Record("sim.run_for", episode, t0, t1);
                const auto leaf_end =
                    t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(
                             (leaf_us->sum() - leaf_before) * 1e3));
                const auto upper_end =
                    leaf_end + std::chrono::nanoseconds(static_cast<std::int64_t>(
                                   (upper_us->sum() - upper_before) * 1e3));
                tr.Record("core.leaf_cycles", slice, t0, leaf_end, true);
                tr.Record("core.upper_cycles", slice, leaf_end, upper_end, true);
            }
        }
        tr.End(episode);
        const double speed =
            static_cast<double>(size.pull_periods) * kPullPeriodMs / 1e3 /
            measured_s;

        // --- Output checks (every episode). ---
        const core::Deployment& plane = *fleet->dynamo();
        std::uint64_t aggregations = 0, invalid = 0, capping_leaves = 0;
        for (const auto& leaf : plane.leaf_controllers()) {
            aggregations += leaf->aggregations();
            invalid += leaf->invalid_aggregations();
            capping_leaves += leaf->capping() ? 1 : 0;
        }
        const rpc::SimTransport& transport = fleet->transport();
        const std::uint64_t caps = CounterValue(registry, "agent.caps");
        result.failures.Add(transport.calls_issued(), transport.calls_failed());
        // Leaf aggregations only: an upper's first cycle can run before
        // its children have aggregated once, which is a designed cold
        // start, not a failure. aggregations() counts valid ones.
        result.failures.Add(aggregations + invalid, invalid);
        const std::string tag = "episode " + std::to_string(loop.index());
        result.Check(fleet->outage_count() == 0,
                     tag + ": " + std::to_string(fleet->outage_count()) +
                         " breaker trips");
        result.Check(invalid == 0, tag + ": " + std::to_string(invalid) +
                                       " invalid aggregations");
        result.Check(transport.calls_failed() == 0,
                     tag + ": " + std::to_string(transport.calls_failed()) +
                         " failed RPCs");
        result.Check(caps == 0, tag + ": " + std::to_string(caps) +
                                    " RAPL caps; the bypass workload must "
                                    "not cap");

        double demanded = 0.0, delivered = 0.0;
        for (const auto& server : fleet->servers()) {
            demanded += server->demanded_work();
            delivered += server->delivered_work();
        }

        char note[256];
        std::snprintf(note, sizeof(note),
                      "episode %d (%s): setup %.3f s, %d pull periods in "
                      "%.3f s = %.3f sim-s/s",
                      loop.index(), traced ? "traced" : "untraced", setup_s,
                      size.pull_periods, measured_s, speed);
        result.notes.push_back(note);

        if (!traced) {
            setups.push_back(setup_s);
            speeds_untraced.push_back(speed);
            slice_ms.insert(slice_ms.end(), episode_slices.begin(),
                            episode_slices.end());
            untraced_slices.push_back(std::move(episode_slices));
            continue;
        }
        speeds_traced.push_back(speed);

        const sim::KernelStats& ks = fleet->sim().kernel_stats();
        const double events = static_cast<double>(fleet->sim().events_executed());
        const double reads = static_cast<double>(CounterValue(registry, "agent.reads"));
        const double calls = static_cast<double>(transport.calls_issued());
        const auto tail_q = [](const telemetry::Histogram* h) {
            return h->Quantile(TailPercentile(h->count()) / 100.0);
        };
        layers.Add({
            {"sim.events", events},
            {"sim.events_per_read", Ratio(events, reads)},
            {"sim.ns_per_event", Ratio(measured_s * 1e9, events)},
            {"sim.cascades", static_cast<double>(ks.cascades)},
            {"sim.far_drains", static_cast<double>(ks.far_drains)},
            {"sim.purges", static_cast<double>(ks.purges)},
            {"sim.slot_sorts", static_cast<double>(ks.slot_sorts)},
            {"rpc.calls", calls},
            {"rpc.calls_per_read", Ratio(calls, reads)},
            {"rpc.failed", static_cast<double>(transport.calls_failed())},
            {"agent.reads", reads},
            {"agent.caps", static_cast<double>(caps)},
            {"agent.uncaps",
             static_cast<double>(CounterValue(registry, "agent.uncaps"))},
            {"leaf.cycles", static_cast<double>(leaf_us->count())},
            {"leaf.cycle_us_p50", leaf_us->p50()},
            {"leaf.cycle_us_p99", tail_q(leaf_us)},
            {"leaf.busy_share", Ratio(leaf_us->sum(), measured_s * 1e6)},
            {"upper.cycles", static_cast<double>(upper_us->count())},
            {"upper.cycle_us_p50", upper_us->p50()},
            {"upper.cycle_us_p99", tail_q(upper_us)},
            {"upper.busy_share", Ratio(upper_us->sum(), measured_s * 1e6)},
            {"leaf.invalid_aggregations", static_cast<double>(invalid)},
            {"leaf.capping_share",
             Ratio(static_cast<double>(capping_leaves),
                   static_cast<double>(plane.leaf_controllers().size()))},
            {"setup.build_s", setup_s},
            {"work_loss_pct", 100.0 * (1.0 - Ratio(delivered, demanded))},
            {"outages", static_cast<double>(fleet->outage_count())},
        });
        if (!bases_noted) {
            bases_noted = true;
            char bases[256];
            std::snprintf(bases, sizeof(bases),
                          "bases: %.0f reads, %.0f calls, %.0f events, %llu "
                          "leaf cycles (leaf p99 is p%d), %llu upper cycles "
                          "(upper p99 is p%d)",
                          reads, calls, events,
                          static_cast<unsigned long long>(leaf_us->count()),
                          TailPercentile(leaf_us->count()),
                          static_cast<unsigned long long>(upper_us->count()),
                          TailPercentile(upper_us->count()));
            result.notes.push_back(bases);
        }
    }

    double typical_ms = 0.0;
    for (double ms : TypicalEpisode(untraced_slices)) typical_ms += ms;
    result.Set("sim_speed", Ratio(static_cast<double>(size.pull_periods) *
                                      kPullPeriodMs,
                                  typical_ms));
    result.Set("setup_s", Median(setups));
    result.Set("peak_rss_mb", PeakRssMiB());
    SetPullMetrics(result, slice_ms, static_cast<std::size_t>(size.pull_periods),
                   "one simulated 3 s pull period of the whole fleet");

    if (options.trace) {
        for (const auto& [name, value] : layers.Medians()) result.Set(name, value);
        result.Set("trace.overhead_pct",
                   100.0 * (Median(speeds_untraced) / Median(speeds_traced) - 1.0));
        FinishTracedRun(result, tracer, options);
    }
    return result;
}

}  // namespace perfbench
