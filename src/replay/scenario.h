/**
 * @file
 * The scenario catalog: named, typed, parameterized chaos scenarios.
 *
 * A journal can embed the fleet spec as text, but a chaos campaign is
 * built from closures and cannot be serialized. Replay therefore
 * requires the campaign to be *reconstructible by name*: the recorder
 * stamps the scenario spec ("name" or "name(k=v,...)") into the
 * journal header, and the replayer parses it here and re-applies the
 * identical fault script to the rebuilt fleet. Scenarios must derive
 * everything (targets, times) deterministically from the fleet and
 * their resolved parameters — no wall clock, no ambient randomness —
 * so record and replay build byte-identical campaigns.
 *
 * Each catalog entry is a `Scenario` descriptor: a stable name, a
 * one-line description, a typed parameter table with defaults, and the
 * apply function. The descriptor makes the catalog enumerable
 * (`replay_cli list`), self-documenting, and parameterizable without
 * new journal format machinery: parameters ride inside the scenario
 * string, serialized only when non-default, so an all-defaults run
 * stamps the bare name and every pre-catalog journal parses unchanged.
 *
 * A body reaches the fleet only through `Levers`, so each scenario is
 * written once and runs on either engine: `ScenarioSpec::Apply` drives
 * the serial Fleet + CampaignEngine, and `fleet::ApplyShardedScenario`
 * (fleet/sharded_scenarios.h) drives the sharded parallel fleet.
 */
#ifndef DYNAMO_REPLAY_SCENARIO_H_
#define DYNAMO_REPLAY_SCENARIO_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "chaos/campaign.h"
#include "fleet/fleet.h"

namespace dynamo::replay {

/**
 * What the serial-only scenarios use beyond the shared levers: the
 * campaign for RPC faults (partition, flap, latency storm, degraded
 * pulls on a subtree's endpoints) and the fleet for live ReconfigTxn
 * scheduling, the standby check and the rosters the faults target.
 */
struct SerialEngine
{
    fleet::Fleet& fleet;
    chaos::CampaignEngine& campaign;
};

/**
 * The operations a scenario body uses, implemented once per engine.
 * Derate, Restore and ForEachServer run inside actions; the rest run
 * while the body builds its script. An engine keeps its levers alive
 * while it holds an action, so an action may capture its `Levers&`.
 */
class Levers
{
  public:
    using Action = std::function<void()>;
    using ServerFn = std::function<void(server::SimServer&)>;

    Levers() = default;
    virtual ~Levers() = default;

    Levers(const Levers&) = delete;
    Levers& operator=(const Levers&) = delete;

    /**
     * Run `fn` at `when`, journaled as a fault record under
     * `description`: on the serial engine's millisecond clock, or at
     * the first sharded barrier at or after `when` and after the
     * previous step's, if that one is earlier. Actions due together
     * run in call order.
     */
    virtual void At(SimTime when, std::string description, Action fn) = 0;

    /**
     * Demand factor `factor` at `when`; add breakpoints in time order.
     * Serial demand interpolates between them; the sharded engine sets
     * every server's balancer factor at the barrier at or after each.
     */
    virtual void DemandPoint(SimTime when, double factor) = 0;

    /** Name of the device whose budget is the whole fleet's. */
    virtual std::string FleetBudget() = 0;

    /** Leaf device names, in canonical (construction) order. */
    virtual std::vector<std::string> Leaves() = 0;

    /**
     * Re-rate `device` (its breaker and the controller protecting it)
     * to `keep` of its present rating; derates compound. Breaker
     * stress is kept: a derate does not forgive heat in the metal.
     */
    virtual void Derate(const std::string& device, double keep) = 0;

    /** Back to the rating before the first open derate, if any. */
    virtual void Restore(const std::string& device) = 0;

    /** Visit every server, in canonical order. */
    virtual void ForEachServer(const ServerFn& fn) = 0;

    /** The serial engine, for the RPC-fault and reconfiguration
     *  scenarios; nullptr (the body stops, the script is refused) on
     *  an engine without one. */
    virtual SerialEngine* Serial() = 0;
};

/** One tunable of a scenario. All parameters are doubles. */
struct ScenarioParam
{
    std::string key;
    std::string description;
    double def = 0.0;
};

/**
 * Fully resolved parameter values: every key the scenario declares is
 * present (defaults filled in), so apply functions use `.at(key)`
 * without existence checks. std::map keeps iteration (and therefore
 * formatting) deterministic.
 */
using ScenarioParams = std::map<std::string, double>;

/** A catalog entry. */
struct Scenario
{
    std::string name;

    /** One line for `replay_cli list` and docs. */
    std::string description;

    /** Declared parameters, in display order. Empty = not tunable. */
    std::vector<ScenarioParam> params;

    using ApplyFn = void (*)(Levers&, const ScenarioParams&);

    /** Builds the script on `levers`; the params are fully resolved. */
    ApplyFn apply = nullptr;

    /** Every declared parameter at its default. */
    ScenarioParams Defaults() const;
};

/** The full catalog, in stable display order ("quiet" first). */
const std::vector<Scenario>& ScenarioCatalog();

/** Catalog names, in catalog order. */
const std::vector<std::string>& ScenarioNames();

/**
 * Descriptor by bare name (no parameter list); nullptr for unknown
 * names — the caller decides whether that is an error.
 */
const Scenario* FindScenario(const std::string& name);

/** A parsed scenario reference: the descriptor + resolved parameters. */
struct ScenarioSpec
{
    const Scenario* scenario = nullptr;

    /** Resolved values for every declared parameter. */
    ScenarioParams params;

    /** Apply the script to a serial fleet through its campaign. */
    void Apply(fleet::Fleet& fleet, chaos::CampaignEngine& campaign) const;
};

/**
 * Parse "name" or "name(k=v,...)" against the catalog. Unknown
 * scenario names, unknown parameter keys, and malformed values all
 * throw std::invalid_argument naming the offender and the accepted
 * alternatives (spec-parser hardening style). Omitted parameters take
 * their defaults.
 */
ScenarioSpec ParseScenarioSpec(const std::string& text);

/**
 * Canonical text form: the bare name when every parameter is at its
 * default, otherwise "name(k=v,...)" listing only non-default
 * parameters in declaration order, values in shortest exact-round-trip
 * decimal. ParseScenarioSpec(FormatScenarioSpec(s)) == s.
 */
std::string FormatScenarioSpec(const ScenarioSpec& spec);

}  // namespace dynamo::replay

#endif  // DYNAMO_REPLAY_SCENARIO_H_
