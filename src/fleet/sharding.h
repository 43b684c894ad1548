/**
 * @file
 * Sharded parallel fleet: the Dynamo control plane partitioned by
 * leaf-controller subtree and executed on a worker pool.
 *
 * Partitioning follows the power topology, which is also the RPC
 * topology: agents talk only to their leaf controller, and a leaf
 * talks only to its SB parent. Each SB subtree (its leaves, their
 * agents, their servers) therefore forms a closed RPC domain and
 * becomes one *worker shard* — a fully private Simulation, transport,
 * server population, and leaf-controller set. The SB and MSB upper
 * controllers run unmodified on a separate *control shard*; they can't
 * tell they're in a sharded world because the control transport serves
 * their children through per-leaf proxy endpoints.
 *
 * Cross-shard traffic exists only at the upper↔leaf edge and flows
 * through the barrier:
 *
 *   - upper → leaf power reads are answered instantly by the proxy
 *     from a per-leaf state snapshot refreshed at every barrier
 *     (power, validity, quota, floor — exactly the fields a real leaf
 *     serves its parent);
 *   - upper → leaf contract updates are enqueued into the target
 *     shard's mailbox and re-issued on that shard's transport at the
 *     barrier, so a contract decided in window W reaches its leaf in
 *     window W+1 regardless of shard placement.
 *
 * The barrier fires every 9 s of sim time — the upper-controller
 * cycle — so the one-window visibility lag is exactly one upper
 * decision, matching the staleness a real deployment already absorbs
 * from its pull cadence.
 *
 * Determinism: the shard count and every seed derive from the config
 * (never from the thread count), shards share nothing during windows,
 * and all barrier work runs single-threaded in shard-index order.
 * Thread count is therefore pure scheduling; the DYNJRNL1 journal a
 * run emits is byte-identical for any `threads` value, which the CI
 * determinism gate enforces. See DESIGN.md §10.
 */
#ifndef DYNAMO_FLEET_SHARDING_H_
#define DYNAMO_FLEET_SHARDING_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/units.h"
#include "core/agent.h"
#include "core/leaf_controller.h"
#include "core/upper_controller.h"
#include "fleet/reconfig.h"
#include "power/device.h"
#include "replay/journal.h"
#include "rpc/mailbox.h"
#include "rpc/transport.h"
#include "server/sim_server.h"
#include "sim/parallel_kernel.h"
#include "sim/simulation.h"

namespace dynamo::telemetry {
class MetricsRegistry;
}  // namespace dynamo::telemetry

namespace dynamo::fleet {

/** Fan-out constants of the synthetic scale fleet (bench topology). */
inline constexpr std::size_t kShardServersPerLeaf = 240;
inline constexpr std::size_t kShardLeavesPerSb = 8;
inline constexpr std::size_t kShardSbsPerMsb = 4;

/** Barrier period: the upper-controller pull cycle, ms. */
inline constexpr SimTime kShardWindowMs = 9000;

/**
 * The partition: one worker shard per SB subtree. Derived purely from
 * the fleet size, so every thread count runs the identical plan.
 */
struct ShardPlan
{
    struct Shard
    {
        /** Global leaf indices owned by this shard: [first, last). */
        std::size_t first_leaf = 0;
        std::size_t last_leaf = 0;
    };

    std::size_t n_servers = 0;
    std::size_t n_leaves = 0;
    std::size_t n_sbs = 0;
    std::size_t n_msbs = 0;

    /** Worker shards in canonical order (shards[i] is SB i's subtree). */
    std::vector<Shard> shards;

    static ShardPlan For(std::size_t n_servers);

    std::size_t shard_of_leaf(std::size_t leaf) const
    {
        return leaf / kShardLeavesPerSb;
    }
};

/**
 * Per-stage wall-clock accounting of the barrier pipeline, accumulated
 * across every window of a run. This is the instrument the multicore
 * work is judged with: Amdahl's law says the serial barrier bounds
 * speedup, so the profile splits the barrier into its stages and
 * reports the serial share directly. Stage times are measured inside
 * Barrier(); the parallel window time and the barrier envelope come
 * from the kernel's own clocks, so `barrier_total_s` can slightly
 * exceed the sum of the stages (loop overhead is real time too).
 */
struct BarrierProfile
{
    /** Wall time inside the parallel window region (all shards). */
    double window_run_s = 0.0;

    /** Stage: per-shard digest merge + journal cycle record. */
    double record_s = 0.0;

    /** Stage: reconfiguration transaction commits. */
    double reconfig_s = 0.0;

    /** Stage: publishing dirty staged leaf snapshots to the proxies. */
    double proxy_publish_s = 0.0;

    /** Stage: batched mailbox re-issue onto worker transports. */
    double mailbox_drain_s = 0.0;

    /** Stage: checkpoint snapshot (parallel fill + ordered merge). */
    double checkpoint_s = 0.0;

    /** Whole barrier hook envelope (≥ sum of the stages). */
    double barrier_total_s = 0.0;

    std::uint64_t windows = 0;

    /** Dirty leaf snapshots actually copied to proxies (not n_leaves
     *  × windows: the staged refresh only publishes changes). */
    std::uint64_t proxy_leaves_published = 0;

    /** Mailbox messages re-issued across all barriers. */
    std::uint64_t mailbox_messages = 0;

    /** Serial fraction: barrier time over total run time, the `s` in
     *  Amdahl's 1/(s + (1-s)/N). Zero before any window completes. */
    double serial_share() const
    {
        const double total = window_run_s + barrier_total_s;
        return total > 0.0 ? barrier_total_s / total : 0.0;
    }
};

struct ShardedFleetConfig
{
    std::size_t n_servers = 1000;

    /** Worker pool size; affects wall time only, never results. */
    std::size_t threads = 1;

    std::uint64_t seed = 1234;

    /**
     * Fraction of servers without a power sensor. Default 0 draws
     * nothing from the construction RNG, so pre-catalog seeds keep
     * their exact per-server streams.
     */
    double sensorless_fraction = 0.0;

    /** Fraction of kGpuTrain2024 training nodes; same default-0 rule. */
    double gpu_fraction = 0.0;

    /** Record a DYNJRNL1 journal of the run (see journal()). */
    bool record_journal = false;

    /** Windows per journal checkpoint; 0 disables checkpoints. */
    std::uint64_t checkpoint_every = 0;

    /** Scenario label stamped into the journal header. */
    std::string scenario = "sharded-scale";

    /**
     * Capping brain for every controller (leaves and uppers alike),
     * stamped into the journal spec text when non-default so replay
     * artifacts are attributable to the brain that produced them.
     */
    policy::PolicyKind policy = policy::PolicyKind::kThreeBand;
};

/**
 * A sharded, parallel instantiation of the scale fleet: servers,
 * agents, leaf controllers on worker shards; SB/MSB uppers on the
 * control shard; barrier-synchronized execution on a fixed-size pool.
 */
class ShardedFleet
{
  public:
    explicit ShardedFleet(ShardedFleetConfig config);
    ~ShardedFleet();

    ShardedFleet(const ShardedFleet&) = delete;
    ShardedFleet& operator=(const ShardedFleet&) = delete;

    /** Run exactly `n` window+barrier rounds. */
    void RunWindows(std::uint64_t n);

    /** Run whole windows covering at least `duration_ms` (rounded up). */
    void RunFor(SimTime duration_ms);

    /** Common sim time across every shard (advances in 9 s steps). */
    SimTime Now() const;

    const ShardPlan& plan() const { return plan_; }
    std::size_t shard_count() const { return plan_.shards.size(); }
    std::size_t thread_count() const;
    std::uint64_t windows_completed() const;

    /** Events executed, summed over every shard kernel. */
    std::uint64_t events_executed() const;

    /** Upper→leaf power reads answered by barrier-snapshot proxies. */
    std::uint64_t reads_proxied() const;

    /** Contract updates accepted by proxies for cross-shard delivery. */
    std::uint64_t contracts_forwarded() const;

    /** Mailbox messages re-issued on worker transports at barriers. */
    std::uint64_t mailbox_delivered() const;

    /**
     * Per-stage barrier timing for the run so far. The window/envelope
     * clocks live in the kernel; stage clocks accumulate in Barrier().
     * Cheap to call (copies a small struct).
     */
    BarrierProfile barrier_profile() const;

    /**
     * Export the profile as gauges (`barrier.window_run_s`,
     * `barrier.record_s`, `barrier.reconfig_s`,
     * `barrier.proxy_publish_s`, `barrier.mailbox_drain_s`,
     * `barrier.checkpoint_s`, `barrier.total_s`,
     * `barrier.serial_share`) plus counters
     * (`barrier.windows`, `barrier.proxy_leaves_published`,
     * `barrier.mailbox_messages`). Call after a run; gauges hold the
     * cumulative values at call time.
     */
    void PublishBarrierProfile(telemetry::MetricsRegistry* registry) const;

    /**
     * The recorded journal (header is valid from construction; cycle
     * records accrue per window). Only meaningful with record_journal.
     */
    const replay::Journal& journal() const { return journal_; }

    /**
     * Schedule a reconfiguration transaction to commit at the barrier
     * that closes window `window` (0-based). Commits run
     * single-threaded between the window's journal record and the
     * proxy refresh, so window W hashes pre-mutation state and window
     * W+1 runs wholly post-mutation — the schedule, not the thread
     * count, decides what every journal byte contains.
     *
     * Targets name the synthetic topology: leaves as "rpp<N>" (global
     * leaf index), uppers as "sb<N>" (SB index). Semantics per op:
     * add-servers grows a leaf's shard in place; remove-subtree
     * deactivates the leaf, crashes its agents, and drops it from its
     * SB's roster (server objects stay dormant so snapshots remain
     * thread-count independent); reparent re-homes a leaf's proxy onto
     * another SB (shard placement is unchanged — the control roster is
     * the only cross-shard edge); restart-controller bounces a leaf in
     * place; promote-upper rebuilds an SB contract-blank on the same
     * endpoint, which then re-learns child contracts via
     * reaffirmation/adoption exactly like a promoted backup.
     *
     * Throws std::invalid_argument for malformed transactions or
     * already-closed windows; structural conflicts with earlier
     * pending transactions surface as std::runtime_error at commit.
     */
    void ScheduleReconfig(std::uint64_t window, ReconfigTxn txn);

    /**
     * Schedule a fleet mutation (a catalog scenario's step, via
     * ApplyShardedScenario) at the barrier that closes `window`, after
     * any reconfig commits. Actions run single-threaded while every
     * worker is idle, in (window, schedule) order, so the schedule —
     * never the thread count — decides what state the next window
     * starts from. Each executed action is journaled as a fault record
     * under `description`, giving the 1t-vs-N-t byte-compare gate
     * coverage of the scenario script itself. Throws
     * std::invalid_argument for an already-closed window.
     */
    void ScheduleAction(std::uint64_t window, std::string description,
                        std::function<void()> action);

    /**
     * Visit every server, shard-index order outside and construction
     * order inside — the canonical deterministic order. Call only
     * between windows (typically from a ScheduleAction body).
     */
    void ForEachServer(const std::function<void(server::SimServer&)>& fn);

    /** Spec epoch: bumped once per committed transaction, from 0. */
    std::uint64_t spec_epoch() const { return spec_epoch_; }

    std::uint64_t reconfigs_applied() const { return reconfigs_applied_; }

    /** False once the leaf has been decommissioned. */
    bool leaf_alive(std::size_t global_leaf) const
    {
        return leaf_alive_[global_leaf] != 0;
    }

    /**
     * Test hook: issue a contract update to one leaf exactly the way
     * a parent controller would — a call on the control transport to
     * the leaf's proxy endpoint. Call only between windows (the
     * barrier protocol owns the shards while a window runs). An empty
     * `limit` lifts the contract.
     */
    void InjectContract(std::size_t global_leaf, std::optional<Watts> limit);

    /** Test access: leaf controller by global leaf index. */
    core::LeafController& leaf(std::size_t global_leaf);

    /** Test access: SB upper controller by SB index. */
    core::UpperController& sb(std::size_t index);

    /** Test access: pending mailbox messages for one worker shard. */
    std::size_t mailbox_pending(std::size_t shard) const;

  private:
    struct WorkerShard;
    struct ControlShard;

    void BuildWorkerShards();
    void BuildControlShard(const std::vector<Watts>& leaf_rated);

    /** Proxy handler body for leaf `global_leaf` on the control shard. */
    rpc::Payload ProxyHandle(std::size_t global_leaf,
                             const rpc::Payload& request);

    /** The single-threaded cross-shard step after every window. */
    void Barrier(SimTime barrier_time);

    void RecordWindow(SimTime barrier_time);
    void RecordCheckpoint(SimTime barrier_time);

    void ApplyReconfig(SimTime barrier_time, const ReconfigTxn& txn);
    void ApplyAddServers(const ReconfigOp& op);
    void ApplyRemoveSubtree(const ReconfigOp& op);
    void ApplyReparent(const ReconfigOp& op);
    void ApplyRestartController(const ReconfigOp& op);
    void ApplyPromoteUpper(const ReconfigOp& op);

    ShardedFleetConfig config_;
    ShardPlan plan_;

    /**
     * Mailbox target per global leaf: the leaf's endpoint id interned
     * in its *own shard's* transport. Precomputed so the proxy (which
     * runs while worker shards execute) never reads shard objects.
     */
    std::vector<rpc::EndpointId> leaf_targets_;

    std::vector<std::unique_ptr<WorkerShard>> shards_;
    std::unique_ptr<ControlShard> control_;

    std::unique_ptr<sim::WorkerPool> pool_;
    std::vector<sim::ShardRunner*> runners_;
    std::unique_ptr<sim::ParallelKernel> kernel_;

    replay::Journal journal_;
    std::uint64_t mailbox_delivered_ = 0;

    /** Stage clocks and counters filled by Barrier(); the accessor
     *  overlays the kernel's window/envelope clocks on a copy. */
    BarrierProfile profile_;

    /**
     * Elasticity state. The epoch variable is written only inside the
     * barrier (workers idle) and read by controllers mid-window, so it
     * needs no synchronization beyond the barrier itself.
     */
    std::uint64_t spec_epoch_ = 0;
    std::uint64_t reconfigs_applied_ = 0;
    std::uint64_t barriers_completed_ = 0;
    std::vector<std::pair<std::uint64_t, ReconfigTxn>> pending_reconfigs_;

    /** Scenario steps awaiting their window's barrier. */
    struct PendingAction
    {
        std::uint64_t window;
        std::string description;
        std::function<void()> action;
    };
    std::vector<PendingAction> pending_actions_;

    /** 1 while the leaf is in service; 0 after remove-subtree. */
    std::vector<std::uint8_t> leaf_alive_;

    /** Current SB parent per global leaf (reparent moves it). */
    std::vector<std::size_t> leaf_parent_;

    /** Shard-local agent indices per global leaf (grown by add-servers). */
    std::vector<std::vector<std::size_t>> leaf_agents_;

    /** SB rated power, kept for rebuilding a promoted upper. */
    std::vector<Watts> sb_rated_;
};

}  // namespace dynamo::fleet

#endif  // DYNAMO_FLEET_SHARDING_H_
