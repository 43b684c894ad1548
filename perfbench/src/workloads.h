/**
 * @file
 * The benchmark's three workloads. Each one generates its inputs from
 * the workload seed, drives the program through its public API, times
 * what a user would wait for, checks the outputs, and fills a
 * RunResult. A run repeats whole episodes (set-up plus a fixed amount
 * of simulated or socket work) until its wall-time budget is spent, so
 * every simulated figure is a deterministic function of the seed and
 * every timing is a median over episodes.
 *
 * The Size structs carry the production shape used by the benchmark
 * and a tiny smoke shape used by the unit tests.
 */
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "report.h"
#include "tracer.h"

namespace perfbench {

struct RunOptions
{
    std::uint64_t seed = 1;

    /** Wall-time budget of the measured episodes, seconds. */
    double seconds = 30.0;

    /**
     * Traced run: episodes alternate untraced and traced; per-layer
     * metrics come from traced episodes and trace.overhead_pct from
     * the difference. Untraced runs report end-to-end metrics only.
     */
    bool trace = false;

    /** Where the traced run writes its span dump ("" = nowhere). */
    std::string trace_path;

    /** Scratch directory for sockets (inside the checkout). */
    std::string scratch_dir = ".";
};

/** Serial fleet::Fleet at one MSB of `sbs` SBs × 8 RPPs × 240 servers. */
struct SteadySerialSize
{
    std::size_t sbs = 52;
    std::size_t rpps_per_sb = 8;
    std::size_t servers_per_rpp = 240;

    /** Simulated 3 s pull periods per episode. */
    int pull_periods = 10;

    static SteadySerialSize Smoke() { return {1, 2, 24, 3}; }
};

/** fleet::ShardedFleet under grid-dr after a quiet prefix. */
struct SurgeShardedSize
{
    std::size_t servers = 100'000;

    /** Worker threads; 0 = the host's core count. */
    std::size_t threads = 0;

    /**
     * Quiet 9 s windows before the grid-dr onset, and windows after it
     * (the hold outlasts them, and by their end every leaf caps). Short
     * episodes give sim_speed many episodes to take its medians over.
     */
    std::uint64_t quiet_windows = 4;
    std::uint64_t surge_windows = 8;

    /** Windows between journal checkpoints: two in an episode. */
    std::uint64_t checkpoint_every = 6;

    static SurgeShardedSize Smoke() { return {1'920, 2, 2, 4, 2}; }
};

/**
 * One agent daemon serving the agents of every RPP over a unix socket,
 * stepped on the client's thread (deploy_sockets.cc says why), and one
 * leaf pull schedule per RPP, staggered across the period. A leaf's
 * cycle is a 240-read fan-out, as in production; ~2400 cycles in a 30 s
 * run put more than ten samples beyond p99. The period leaves room for
 * the 100-200 ms vCPU stalls of a shared host: a backlog makes every
 * reply costlier (SocketTransport matches replies by scanning and
 * erasing a per-connection vector), and at a 15 ms period with all 960
 * reads in one fan-out such a stall grew into a backlog that never
 * drained.
 */
struct DeploySocketsSize
{
    std::size_t rpps = 4;
    std::size_t servers_per_rpp = 240;

    /** Open-loop pull period of each leaf, ms. */
    int period_ms = 50;

    /** Set-ups per run (the last one stays up for the measured phase). */
    int setups = 41;

    static DeploySocketsSize Smoke() { return {2, 8, 10, 2}; }
};

RunResult RunSteadySerial(const SteadySerialSize& size, const RunOptions& options);

RunResult RunSurgeSharded(const SurgeShardedSize& size, const RunOptions& options);

RunResult RunDeploySockets(const DeploySocketsSize& size,
                           const RunOptions& options);

/**
 * Check mode for surge-sharded: run one episode at 1 thread and at
 * `threads` (0 = host cores, and never fewer than 2, so the check can
 * fail on a 1-core host too) with the same seed and require the
 * encoded journals byte-identical. Returns a result carrying the
 * check, plus the journal size and both timings as notes.
 */
RunResult CheckSurgeJournalIdentity(const SurgeShardedSize& size,
                                    std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
