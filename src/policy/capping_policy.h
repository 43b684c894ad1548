/**
 * @file
 * The capping planner: the paper's arena planner and the pluggable
 * brains built around it (Sections III-C3 and III-D).
 *
 * The arena planner is two pure allocation algorithms, kept free of
 * I/O so they are directly unit- and property-testable:
 *
 * 1. ComputeCappingPlan — the leaf controller's server-level policy.
 *    Services are pre-assigned to priority groups; the total-power-cut
 *    is absorbed by the lowest priority group first. Within a group a
 *    *high-bucket-first* rule applies: servers are bucketed by current
 *    power (default 20 W buckets, the paper recommends 10–30 W); the
 *    highest bucket absorbs the cut first, split evenly, expanding
 *    into lower buckets only as needed, and never capping a server
 *    below its group's SLA floor. A bucket width of 0 degenerates to
 *    pure water-filling. The cap sent to a server is its current power
 *    minus its allocated cut (Fig. 16).
 *
 * 2. ComputeOffenderPlan — the upper-level controller's
 *    *punish-offender-first* policy. Children whose power exceeds
 *    their quota (planned peak) absorb the cut first, high-bucket-
 *    first among offenders and never below their quota; only if the
 *    offenders' excess cannot cover the cut is the remainder spread
 *    over all children down to their floors. The result is expressed
 *    as contractual power limits (power minus cut).
 *
 * These run every capping cycle on every controller, so the primary
 * entry points are allocation-free on the steady path: callers own a
 * `CappingWorkspace` whose buffers are reused across cycles, priority
 * grouping is a sort-index pass (no per-group map or array copies),
 * and plans identify servers and children by *index* into the input
 * vector.
 *
 * The paper ships exactly one brain: three-band hysteresis plus the
 * arena planner. The plan computation sits behind a strategy
 * interface so competing brains can be judged side by side:
 *
 *   three_band  — the paper's planner, verbatim (forwards to the
 *                 arena entry points; pinned by the golden journals).
 *   predictive  — Holt-style level+slope demand predictor; when
 *                 demand is rising it widens the cut to where power
 *                 is *about to be* next window, damping the cap →
 *                 release → re-cap flapping of a purely reactive
 *                 controller. Never cuts less than reactive.
 *   waterfill   — nvPAX-style constrained allocator: the cut split is
 *                 the exact KKT solution of a small quadratic program
 *                 with per-server SLA floors as box constraints and
 *                 priority groups as weights, solved by water-level
 *                 bisection.
 *   fairshare   — FastCap-style proportional fairness: every server
 *                 absorbs cut in proportion to its cappable headroom
 *                 (equalizing relative slowdown), priority-weighted,
 *                 with iterative redistribution when floors clip.
 *
 * Contract, shared by the arena planner and all brains:
 *  - allocation-free on the steady path (scratch in the caller's
 *    CappingWorkspace or brain-owned reused vectors);
 *  - deterministic: same inputs in the same order → bit-identical
 *    plans (no RNG, no wall clock), so DYNJRNL1 journals stay
 *    byte-identical across --threads;
 *  - floors are hard: no plan caps a server below sla_min_cap or
 *    contracts a child below its floor;
 *  - every planner has a by-value oracle (policy/reference.h) pinned
 *    bit-identical by tests.
 *
 * The brain is selected per controller via ControllerBuilder::Policy
 * or fleet-wide via the `capping_policy` spec key; the name rides in
 * the canonical fleet spec and therefore in every recorded journal,
 * so replay and bisection reconstruct under the same brain.
 */
#ifndef DYNAMO_POLICY_CAPPING_POLICY_H_
#define DYNAMO_POLICY_CAPPING_POLICY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/archive.h"
#include "common/units.h"

namespace dynamo::policy {

// --- The arena planner -------------------------------------------------

/** Leaf-controller view of one downstream server. */
struct ServerPowerInfo
{
    /** Latest power reading (or estimate). */
    Watts power = 0.0;

    /** Priority group; lower groups are capped first. */
    int priority_group = 0;

    /** SLA: the lowest power cap allowed for this server. */
    Watts sla_min_cap = 0.0;
};

/** One server's assignment in a capping plan. */
struct CapAssignment
{
    /** Position of the server in the input vector. */
    std::size_t index = 0;

    Watts cap = 0.0;
    Watts cut = 0.0;
};

/** Result of a leaf capping allocation. */
struct CappingPlan
{
    std::vector<CapAssignment> assignments;

    /** Total cut actually allocated. */
    Watts planned_cut = 0.0;

    /** True if the full requested cut was allocated within SLA floors. */
    bool satisfied = false;
};

/**
 * Caller-owned scratch arena for the allocation entry points.
 *
 * All buffers grow to the fleet size on first use and are reused on
 * every subsequent call, so a controller that computes a plan per
 * cycle performs no heap allocation in steady state. A workspace may
 * be shared by any number of sequential calls but not concurrent ones.
 */
struct CappingWorkspace
{
    std::vector<Watts> powers;
    std::vector<Watts> floors;
    std::vector<Watts> headroom;
    std::vector<Watts> cuts;
    std::vector<Watts> stage;
    std::vector<std::uint32_t> order;
    std::vector<std::uint32_t> items;
    std::vector<std::uint32_t> included;
    std::vector<std::uint32_t> active;

    /** Resize every per-item buffer for `n` items. */
    void Prepare(std::size_t n);
};

/**
 * Allocate `total_power_cut` watts of cut across `servers`.
 *
 * @param servers          Current readings plus capping metadata.
 * @param total_power_cut  Aggregated power minus the capping target.
 * @param bucket_size      High-bucket-first bucket width in watts
 *                         (<= 0 degenerates to pure water-filling).
 */
CappingPlan ComputeCappingPlan(const std::vector<ServerPowerInfo>& servers,
                               Watts total_power_cut,
                               Watts bucket_size = 20.0);

/**
 * Allocation-free variant: scratch lives in `ws`, the result in
 * `plan` (its assignment vector is reused).
 */
void ComputeCappingPlan(const std::vector<ServerPowerInfo>& servers,
                        Watts total_power_cut, Watts bucket_size,
                        CappingWorkspace& ws, CappingPlan* plan);

/** Upper-controller view of one child controller/device. */
struct ChildPowerInfo
{
    /** Child's last aggregated power. */
    Watts power = 0.0;

    /** Child's power quota (planned peak). Offender iff power > quota. */
    Watts quota = 0.0;

    /** Lowest contractual limit the child can honor. */
    Watts floor = 0.0;
};

/** One child's assignment: the contractual limit to send. */
struct ChildLimit
{
    /** Position of the child in the input vector. */
    std::size_t index = 0;

    Watts contractual_limit = 0.0;
    Watts cut = 0.0;
};

/** Result of an upper-level allocation. */
struct OffenderPlan
{
    std::vector<ChildLimit> limits;
    Watts planned_cut = 0.0;
    bool satisfied = false;
};

/**
 * Allocate `total_power_cut` across children, offenders first.
 *
 * @param bucket_size  High-bucket-first width in watts; upper levels
 *                     use a larger bucket (KW scale) than leaves.
 */
OffenderPlan ComputeOffenderPlan(const std::vector<ChildPowerInfo>& children,
                                 Watts total_power_cut,
                                 Watts bucket_size = 2000.0);

/** Allocation-free variant of ComputeOffenderPlan (see above). */
void ComputeOffenderPlan(const std::vector<ChildPowerInfo>& children,
                         Watts total_power_cut, Watts bucket_size,
                         CappingWorkspace& ws, OffenderPlan* plan);

/**
 * Shared primitive: distribute `cut` over items high-bucket-first.
 *
 * Items are bucketed by power; buckets are included from the top until
 * their combined headroom (power minus max(bucket floor, item floor))
 * covers the cut, then the cut is split evenly (water-filled) among
 * included items. Exposed for direct testing.
 *
 * @returns per-item cuts, aligned with `powers`; the sum is
 *          min(cut, total headroom above floors).
 */
std::vector<Watts> BucketedEvenCut(const std::vector<Watts>& powers,
                                   const std::vector<Watts>& floors, Watts cut,
                                   Watts bucket_size);

/** Workspace variant of BucketedEvenCut; cuts land in `ws.cuts[0..n)`. */
void BucketedEvenCut(const std::vector<Watts>& powers,
                     const std::vector<Watts>& floors, Watts cut,
                     Watts bucket_size, CappingWorkspace& ws);

/**
 * High-bucket-first bucket index of `power`, as trace spans record it:
 * -1 ("n/a") when `bucket_size` is unbucketed (the planner's pure
 * water-fill width) or the index does not fit an int.
 */
int BucketIndex(Watts power, Watts bucket_size);

// --- The brains ----------------------------------------------------------

/** The selectable capping brains. */
enum class PolicyKind {
    kThreeBand,
    kPredictive,
    kWaterfill,
    kFairShare,
};

/** Canonical spec-key token ("three_band", "predictive", ...). */
const char* PolicyKindName(PolicyKind kind);

/**
 * Parse a spec-key token; returns false (leaving *out untouched) on an
 * unknown name. Callers that need a diagnostic add their own context
 * (the spec parser names the key and line).
 */
bool ParsePolicyKind(const std::string& name, PolicyKind* out);

/** All brains, in spec-token order (for judges and test sweeps). */
std::vector<PolicyKind> AllPolicyKinds();

/**
 * Per-decision context handed to a brain alongside the roster. All
 * fields are derived from controller state the pre-interface planner
 * already saw implicitly; none of them aliases the workspace.
 */
struct PolicyContext
{
    /**
     * High-bucket-first width for the arena planner (three_band and
     * predictive; 0 means pure water-fill). Others ignore it.
     */
    Watts bucket_size = 20.0;

    /** This cycle's aggregated power (sum over the roster view). */
    Watts aggregated = 0.0;

    /** The controller's effective limit min(physical, contractual). */
    Watts limit = 0.0;

    /** Band target the cut aims at (0 during observation calls). */
    Watts target = 0.0;

    /** Simulation now, ms. */
    SimTime now = 0;

    /** The controller's pull cycle, ms (prediction horizon). */
    SimTime cycle_ms = 3000;
};

/**
 * Strategy interface: one instance lives inside each controller and
 * computes the cut split whenever the band decision says kCap.
 *
 * Observation hooks fire on every *valid* aggregation (not just while
 * capping) so stateful brains can track demand between episodes —
 * but only when WantsObservations() is true, so stateless brains pay
 * nothing extra on the hot path (the leaf skips building its roster
 * view on non-capping cycles, exactly as before the interface).
 */
class CappingPolicy
{
  public:
    virtual ~CappingPolicy() = default;

    virtual PolicyKind kind() const = 0;

    /** True if Observe* must run every valid cycle (stateful brains). */
    virtual bool WantsObservations() const { return false; }

    /** Leaf-level demand observation (roster view, every valid cycle). */
    virtual void ObserveServers(const std::vector<ServerPowerInfo>& servers,
                                const PolicyContext& ctx)
    {
        (void)servers;
        (void)ctx;
    }

    /** Upper-level demand observation (fresh children, every valid cycle). */
    virtual void ObserveChildren(const std::vector<ChildPowerInfo>& children,
                                 const PolicyContext& ctx)
    {
        (void)children;
        (void)ctx;
    }

    /**
     * Split `cut` watts across `servers` (leaf level). Scratch lives
     * in `ws`; the result lands in `plan` (vectors reused; assignments
     * carry indices into `servers`). Must allocate nothing in steady
     * state.
     */
    virtual void PlanServerCuts(const std::vector<ServerPowerInfo>& servers,
                                Watts cut, const PolicyContext& ctx,
                                CappingWorkspace& ws, CappingPlan* plan) = 0;

    /** Split `cut` across child controllers (upper level). */
    virtual void PlanChildLimits(const std::vector<ChildPowerInfo>& children,
                                 Watts cut, const PolicyContext& ctx,
                                 CappingWorkspace& ws, OffenderPlan* plan) = 0;

    /** Drop accumulated state (controller deactivation / adoption). */
    virtual void Reset() {}

    /**
     * Serialize brain state into a controller checkpoint. The default
     * writes nothing — deliberately: the three_band brain must keep
     * controller Snapshot bytes identical to the pre-interface layout
     * so the committed golden journals replay byte-exactly.
     */
    virtual void Snapshot(Archive& ar) const { (void)ar; }
};

/** Factory: the one place a PolicyKind becomes a brain instance. */
std::unique_ptr<CappingPolicy> MakeCappingPolicy(PolicyKind kind);

}  // namespace dynamo::policy

#endif  // DYNAMO_POLICY_CAPPING_POLICY_H_
