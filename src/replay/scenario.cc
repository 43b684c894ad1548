#include "replay/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include "core/deployment.h"
#include "server/power_model.h"
#include "server/sensor.h"
#include "server/sim_server.h"
#include "workload/load_process.h"
#include "workload/service.h"

namespace dynamo::replay {
namespace {

/** First device at `level` in pre-order, or nullptr. */
power::PowerDevice*
FirstDeviceAt(fleet::Fleet& fleet, power::DeviceLevel level)
{
    const auto devices = fleet.root().DevicesAtLevel(level);
    return devices.empty() ? nullptr : devices.front();
}

/** Shortest decimal that strtod parses back to exactly `value`. */
std::string
CanonicalParamValue(double value)
{
    char buf[64];
    // Integral values print as plain integers ("120", never "1.2e+02":
    // %g at low precision would pick scientific notation).
    const auto as_int = static_cast<long long>(
        std::fabs(value) < 9.0e15 ? value : 0.0);
    if (value == static_cast<double>(as_int)) {
        std::snprintf(buf, sizeof buf, "%lld", as_int);
        return buf;
    }
    for (int precision = 1; precision <= 17; ++precision) {
        std::snprintf(buf, sizeof buf, "%.*g", precision, value);
        if (std::strtod(buf, nullptr) == value) break;
    }
    return buf;
}

std::string
JoinNames(const std::vector<std::string>& names)
{
    std::string out;
    for (const std::string& name : names) {
        if (!out.empty()) out += "|";
        out += name;
    }
    return out;
}

/**
 * The serial engine's levers: a Fleet and the CampaignEngine that
 * scripts it. Every action holds a reference on the levers, so they
 * live exactly as long as the campaign still owns one.
 */
class FleetLevers final : public Levers,
                          public std::enable_shared_from_this<FleetLevers>
{
  public:
    FleetLevers(fleet::Fleet& fleet, chaos::CampaignEngine& campaign)
        : engine_{fleet, campaign}
    {
    }

    void At(SimTime when, std::string description, Action fn) override
    {
        auto step = [self = shared_from_this(), fn = std::move(fn)] { fn(); };
        engine_.campaign.At(when, std::move(description), std::move(step));
    }

    void DemandPoint(SimTime when, double factor) override
    {
        fleet().scenario().AddPoint(when, factor);
    }

    std::string FleetBudget() override { return fleet().root().name(); }

    std::vector<std::string> Leaves() override
    {
        std::vector<std::string> names;
        for (const power::PowerDevice* device : fleet().root().DevicesAtLevel(
                 fleet().spec().deployment.leaf_level)) {
            names.push_back(device->name());
        }
        return names;
    }

    void Derate(const std::string& device, double keep) override
    {
        power::PowerDevice* dev = fleet().root().Find(device);
        if (dev == nullptr) return;
        core::Controller* controller = ControllerOf(device);
        saved_.try_emplace(device, dev->breaker().rated(),
                           controller != nullptr ? controller->physical_limit()
                                                 : 0.0);
        dev->breaker().set_rated(dev->breaker().rated() * keep);
        if (controller != nullptr) {
            controller->SetPhysicalLimit(controller->physical_limit() * keep);
        }
    }

    void Restore(const std::string& device) override
    {
        const auto saved = saved_.extract(device);
        power::PowerDevice* dev = fleet().root().Find(device);
        if (saved.empty() || dev == nullptr) return;
        const auto [rated, limit] = saved.mapped();
        dev->breaker().set_rated(rated);
        core::Controller* controller = ControllerOf(device);
        if (controller != nullptr && limit > 0.0) {
            controller->SetPhysicalLimit(limit);
        }
    }

    void ForEachServer(const ServerFn& fn) override
    {
        for (const auto& srv : fleet().servers()) fn(*srv);
    }

    SerialEngine* Serial() override { return &engine_; }

  private:
    fleet::Fleet& fleet() { return engine_.fleet; }

    /** The controller protecting `device`, or nullptr. */
    core::Controller* ControllerOf(const std::string& device)
    {
        core::Deployment* deployment = fleet().dynamo();
        if (deployment == nullptr) return nullptr;
        const std::string endpoint =
            core::Deployment::ControllerEndpoint(device);
        core::Controller* controller = deployment->FindUpper(endpoint);
        return controller != nullptr ? controller
                                     : deployment->FindLeaf(endpoint);
    }

    SerialEngine engine_;

    /** Open derates: device -> (breaker rating, controller limit) as
     *  they were before the first. */
    std::map<std::string, std::pair<Watts, Watts>> saved_;
};

/**
 * Partition one RPP's agents for a minute mid-run, then heal — the
 * paper's "sub-tree loses its network segment" case.
 */
void
PartitionHeal(Levers& levers, const ScenarioParams&)
{
    SerialEngine* serial = levers.Serial();
    if (serial == nullptr) return;
    auto& [fleet, campaign] = *serial;
    power::PowerDevice* rpp = FirstDeviceAt(fleet, power::DeviceLevel::kRpp);
    if (rpp == nullptr) return;
    campaign.Partition(Seconds(30), Seconds(90),
                       fleet.AgentEndpointsUnder(rpp->name()));
}

/**
 * Mixed campaign: a partition, agent flapping, a latency storm over
 * the controllers, and a degraded-pull window — all targets derived
 * from the fleet's own device tree in construction order.
 */
void
MixedFaults(Levers& levers, const ScenarioParams&)
{
    SerialEngine* serial = levers.Serial();
    if (serial == nullptr) return;
    auto& [fleet, campaign] = *serial;
    const auto rpps = fleet.root().DevicesAtLevel(power::DeviceLevel::kRpp);
    if (rpps.empty()) return;

    campaign.Partition(Seconds(20), Seconds(70),
                       fleet.AgentEndpointsUnder(rpps.front()->name()));

    const auto agents = fleet.AgentEndpointsUnder(rpps.back()->name());
    if (!agents.empty()) {
        campaign.Flap(Seconds(35), Seconds(95), agents.front(), Seconds(5));
    }

    campaign.LatencyStorm(Seconds(50), Seconds(110),
                          fleet.ControllerEndpointsUnder(fleet.root().name()),
                          400);

    if (rpps.size() > 1) {
        campaign.DegradePulls(Seconds(80), Seconds(130),
                              fleet.AgentEndpointsUnder(rpps[1]->name()), 0.4);
    }
}

/**
 * Load surge under degraded pulls: scenario traffic ramps to 130 %
 * while a third of the fleet's agents answer unreliably — the shape
 * that drives capping decisions while inputs are stale.
 */
void
SurgeDegraded(Levers& levers, const ScenarioParams&)
{
    levers.DemandPoint(Seconds(25), 1.0);
    levers.DemandPoint(Seconds(45), 1.3);
    levers.DemandPoint(Seconds(120), 1.3);
    levers.DemandPoint(Seconds(140), 1.0);

    SerialEngine* serial = levers.Serial();
    if (serial == nullptr) return;
    auto& [fleet, campaign] = *serial;
    auto agents = fleet.AgentEndpointsUnder(fleet.root().name());
    agents.resize(agents.size() / 3);
    campaign.DegradePulls(Seconds(40), Seconds(120), std::move(agents), 0.5);
}

/**
 * Elasticity under fire: server churn, a breaker re-parent, a leaf
 * warm swap, and an upper promotion — all while a surge keeps the
 * hierarchy capping. Every transaction rides `CampaignEngine::At`, so
 * the journal carries the schedule and replay re-issues the identical
 * transactions against the rebuilt fleet.
 *
 * Requires a fleet built with backup controllers, at least two upper
 * subtrees, and at least three leaves; degrades to a no-op otherwise
 * (mirroring the other scenarios' "missing target" behaviour).
 */
void
ReconfigStorm(Levers& levers, const ScenarioParams&)
{
    SerialEngine* serial = levers.Serial();
    if (serial == nullptr) return;
    fleet::Fleet& fleet = serial->fleet;  // Captured by the actions below.
    chaos::CampaignEngine& campaign = serial->campaign;
    core::Deployment* deployment = fleet.dynamo();
    if (deployment == nullptr) return;
    const auto leaves =
        fleet.root().DevicesAtLevel(fleet.spec().deployment.leaf_level);
    if (leaves.size() < 3) return;

    power::PowerDevice* grow = leaves.front();    // Gains 10 % servers.
    power::PowerDevice* doomed = leaves.back();   // Decommissioned.
    power::PowerDevice* home = grow->parent();    // Upper that is promoted.
    power::PowerDevice* moved = nullptr;          // Re-homed onto `home`.
    for (power::PowerDevice* leaf : leaves) {
        if (leaf->parent() != home && leaf != doomed) {
            moved = leaf;
            break;
        }
    }
    if (moved == nullptr || home == nullptr || doomed->parent() == home ||
        doomed == grow) {
        return;
    }

    // The swap/promotion ops need unconsumed standbys; bail out early
    // rather than throwing from inside the kernel mid-run.
    const auto has_standby = [deployment](const std::string& device) {
        core::FailoverManager* mgr = deployment->FindFailover(
            core::Deployment::ControllerEndpoint(device));
        return mgr != nullptr && !mgr->switched();
    };
    if (!has_standby(grow->name()) || !has_standby(home->name())) return;

    // Surge keeps the tree capping across the re-parent and promotion,
    // so contract preservation is actually exercised, not vacuous.
    fleet.scenario().AddPoint(Seconds(20), 1.0);
    fleet.scenario().AddPoint(Seconds(40), 1.3);
    fleet.scenario().AddPoint(Seconds(130), 1.3);
    fleet.scenario().AddPoint(Seconds(145), 1.0);

    const std::size_t added =
        std::max<std::size_t>(1, fleet.AgentEndpointsUnder(grow->name()).size() / 10);

    campaign.At(Seconds(30), "reconfig: grow " + grow->name(),
                [&fleet, grow, added] {
                    fleet.ScheduleReconfig(
                        fleet::ReconfigTxn().AddServers(grow->name(), added));
                });
    campaign.At(Seconds(48), "reconfig: warm-swap leaf " + grow->name(),
                [&fleet, grow] {
                    fleet.ScheduleReconfig(
                        fleet::ReconfigTxn().RestartController(grow->name()));
                });
    campaign.At(Seconds(60),
                "reconfig: re-parent " + moved->name() + " onto " +
                    home->name(),
                [&fleet, moved, home] {
                    fleet.ScheduleReconfig(fleet::ReconfigTxn().Reparent(
                        moved->name(), home->name()));
                });
    campaign.At(Seconds(85), "reconfig: promote upper " + home->name(),
                [&fleet, home] {
                    fleet.ScheduleReconfig(
                        fleet::ReconfigTxn().PromoteUpper(home->name()));
                });
    campaign.At(Seconds(120), "reconfig: decommission " + doomed->name(),
                [&fleet, doomed] {
                    fleet.ScheduleReconfig(
                        fleet::ReconfigTxn().RemoveSubtree(doomed->name()));
                });

    // A degraded-pull window overlapping the promotion: the storm is
    // not just topology churn, the inputs are unreliable too.
    campaign.DegradePulls(Seconds(70), Seconds(110),
                          fleet.AgentEndpointsUnder(moved->name()), 0.3);
}

/**
 * Grid demand-response: the utility curtails the whole data center by
 * `drop_frac` for `hold_s`. The fleet-budget device is re-rated and
 * its controller's physical limit follows, so the reduced budget
 * cascades top-down through contractual limits — the Dynamo
 * mechanism, not a side channel. A mild demand surge runs across the
 * window so the derated budget actually binds instead of being slack.
 */
void
GridDemandResponse(Levers& levers, const ScenarioParams& p)
{
    const SimTime start = Seconds(p.at("start_s"));
    const SimTime hold = Seconds(p.at("hold_s"));
    const double keep = 1.0 - p.at("drop_frac");
    const double surge = p.at("surge_factor");
    if (start <= 0 || hold <= 0) return;

    if (surge != 1.0) {
        // Ramp fractions of the window keep breakpoints monotonic for
        // any start/hold combination.
        levers.DemandPoint(start / 2, 1.0);
        levers.DemandPoint(start, surge);
        levers.DemandPoint(start + hold, surge);
        levers.DemandPoint(start + hold + start / 2, 1.0);
    }

    const std::string budget = levers.FleetBudget();
    levers.At(start,
              "grid-dr: derate " + budget + " budget by " +
                  CanonicalParamValue(p.at("drop_frac")),
              [&levers, budget, keep] { levers.Derate(budget, keep); });
    levers.At(start + hold, "grid-dr: restore " + budget,
              [&levers, budget] { levers.Restore(budget); });
}

/**
 * Thermal emergency: cooling degrades room by room, so each leaf
 * device is derated on a stagger — room i loses `drop_frac` of its
 * rating at start + i*stagger and recovers `hold_s` later. Exercises
 * many *local* budget cuts (leaf controllers capping their own
 * subtrees) rather than one global one.
 */
void
ThermalEmergency(Levers& levers, const ScenarioParams& p)
{
    const SimTime start = Seconds(p.at("start_s"));
    const SimTime stagger = Seconds(p.at("stagger_s"));
    const SimTime hold = Seconds(p.at("hold_s"));
    const double keep = 1.0 - p.at("drop_frac");
    if (start <= 0 || hold <= 0) return;

    const auto leaves = levers.Leaves();
    for (std::size_t i = 0; i < leaves.size(); ++i) {
        const std::string& leaf = leaves[i];
        const SimTime at = start + static_cast<SimTime>(i) * stagger;
        levers.At(at, "thermal: derate " + leaf,
                  [&levers, leaf, keep] { levers.Derate(leaf, keep); });
        levers.At(at + hold, "thermal: restore " + leaf,
                  [&levers, leaf] { levers.Restore(leaf); });
    }
}

/**
 * AI-training power surge: every kGpuTrain2024 server steps between a
 * compute phase (`high`) and an all-reduce stall (`low`) in lockstep —
 * the synchronized step-function load that makes training fleets a
 * power-quality problem, not just a capacity one. The GPU server list
 * is computed inside each action at fire time, so record and replay
 * see the identical roster even across reconfigurations. No-op on a
 * fleet with gpu_fraction = 0.
 */
void
GpuTrainingSurge(Levers& levers, const ScenarioParams& p)
{
    const SimTime start = Seconds(p.at("start_s"));
    const SimTime period = Seconds(p.at("period_s"));
    const auto pulses = static_cast<int>(p.at("pulses"));
    const double high = p.at("high");
    const double low = p.at("low");
    if (start <= 0 || period <= 0 || pulses <= 0) return;

    const auto set_gpu_factor = [&levers](double factor) {
        levers.ForEachServer([factor](server::SimServer& srv) {
            if (srv.generation() == server::ServerGeneration::kGpuTrain2024) {
                srv.load().set_balancer_factor(factor);
            }
        });
    };
    for (int k = 0; k < pulses; ++k) {
        const SimTime rise = start + k * period;
        levers.At(rise, "gpu-surge: compute step " + std::to_string(k + 1),
                  [set_gpu_factor, high] { set_gpu_factor(high); });
        levers.At(rise + period / 2,
                  "gpu-surge: all-reduce stall " + std::to_string(k + 1),
                  [set_gpu_factor, low] { set_gpu_factor(low); });
    }
    levers.At(start + pulses * period, "gpu-surge: training job done",
              [set_gpu_factor] { set_gpu_factor(1.0); });
}

/**
 * Sensorless-estimator drift: the power model feeding every
 * sensorless server's estimate picks up bias in steps, so the leaves
 * aggregate numbers that are increasingly wrong about true draw.
 * Exercises the estimator-tuning/validation path; with
 * with_breaker_validation the leaves audit estimates against breaker
 * truth and re-tune. The final action clears the bias.
 */
void
EstimatorDrift(Levers& levers, const ScenarioParams& p)
{
    const SimTime start = Seconds(p.at("start_s"));
    const SimTime step = Seconds(p.at("step_s"));
    const auto steps = static_cast<int>(p.at("steps"));
    const double step_bias = p.at("step_bias");
    if (start <= 0 || step <= 0 || steps <= 0) return;

    const auto set_bias = [&levers](double bias) {
        levers.ForEachServer([bias](server::SimServer& srv) {
            if (!srv.has_sensor()) srv.estimator().set_bias_frac(bias);
        });
    };
    for (int k = 0; k < steps; ++k) {
        const double bias = (k + 1) * step_bias;
        levers.At(start + k * step,
                  "drift: sensorless bias " + CanonicalParamValue(bias),
                  [set_bias, bias] { set_bias(bias); });
    }
    levers.At(start + steps * step, "drift: bias cleared",
              [set_bias] { set_bias(0.0); });
}

/**
 * Multi-tenant QoS downgrade: a tenant surge drives the fleet over
 * budget, and the sheddable tier gives up `shed_frac` of its load at
 * onset — before any protected tenant is power-capped. The invariant
 * checker's opt-in shed-order audit (Config::audit_qos_shed_order)
 * verifies exactly that ordering.
 */
void
QosDowngrade(Levers& levers, const ScenarioParams& p)
{
    const SimTime start = Seconds(p.at("start_s"));
    const SimTime hold = Seconds(p.at("hold_s"));
    const double surge = p.at("surge_factor");
    const double shed_frac = p.at("shed_frac");
    if (start <= 0 || hold <= Seconds(1)) return;

    // A square pulse with 1 s edges.
    const SimTime rise = start + Seconds(5);
    levers.DemandPoint(rise, 1.0);
    levers.DemandPoint(rise + Seconds(1), surge);
    levers.DemandPoint(rise + hold, surge);
    levers.DemandPoint(rise + hold + Seconds(1), 1.0);

    const auto set_sheddable = [&levers](double factor) {
        levers.ForEachServer([factor](server::SimServer& srv) {
            if (workload::TraitsFor(srv.service()).qos_tier ==
                workload::QosTier::kSheddable) {
                srv.load().set_shed_factor(factor);
            }
        });
    };
    levers.At(start, "qos: shed sheddable tier", [set_sheddable, shed_frac] {
        set_sheddable(1.0 - shed_frac);
    });
    levers.At(rise + hold + Seconds(10), "qos: restore sheddable tier",
              [set_sheddable] { set_sheddable(1.0); });
}

std::vector<Scenario>
BuildCatalog()
{
    std::vector<Scenario> catalog;
    catalog.push_back({"quiet",
                       "No faults; nominal load only.",
                       {},
                       [](Levers&, const ScenarioParams&) {}});
    catalog.push_back({"partition-heal",
                       "Partition one RPP's agents for a minute, then heal.",
                       {},
                       PartitionHeal});
    catalog.push_back({"mixed-faults",
                       "Partition, agent flap, latency storm, and degraded "
                       "pulls in one campaign.",
                       {},
                       MixedFaults});
    catalog.push_back({"surge-degraded",
                       "Traffic surges to 130 % while a third of the agents "
                       "answer unreliably.",
                       {},
                       SurgeDegraded});
    catalog.push_back({"reconfig-storm",
                       "Five live reconfiguration transactions land under a "
                       "sustained surge.",
                       {},
                       ReconfigStorm});
    catalog.push_back(
        {"grid-dr",
         "Grid demand-response: the fleet-wide budget is derated while "
         "demand stays high.",
         {{"start_s", "curtailment start, s", 60.0},
          {"hold_s", "curtailment duration, s", 7200.0},
          {"drop_frac", "fraction of the budget curtailed", 0.15},
          {"surge_factor", "demand factor held across the window", 1.12}},
         GridDemandResponse});
    catalog.push_back(
        {"thermal-emergency",
         "Cooling fails room by room: staggered per-leaf derates, then "
         "recovery.",
         {{"start_s", "first room derate, s", 40.0},
          {"stagger_s", "delay between room derates, s", 15.0},
          {"hold_s", "per-room derate duration, s", 120.0},
          {"drop_frac", "fraction of each room's rating lost", 0.25}},
         ThermalEmergency});
    catalog.push_back(
        {"gpu-surge",
         "AI-training fleet steps between compute and all-reduce phases "
         "in lockstep.",
         {{"start_s", "training job start, s", 30.0},
          {"period_s", "full compute+stall period, s", 24.0},
          {"pulses", "number of training steps", 3.0},
          {"high", "balancer factor in the compute phase", 1.35},
          {"low", "balancer factor in the all-reduce stall", 0.75}},
         GpuTrainingSurge});
    catalog.push_back(
        {"estimator-drift",
         "Sensorless power estimates pick up bias in steps until leaves "
         "mis-aggregate.",
         {{"start_s", "first bias step, s", 30.0},
          {"step_s", "interval between bias steps, s", 15.0},
          {"steps", "number of bias steps", 6.0},
          {"step_bias", "bias fraction added per step", 0.04}},
         EstimatorDrift});
    catalog.push_back(
        {"qos-downgrade",
         "Tenant surge: the sheddable tier sheds load before any "
         "protected tenant is capped.",
         {{"start_s", "shed onset, s", 25.0},
          {"hold_s", "surge hold duration, s", 90.0},
          {"surge_factor", "tenant demand factor at peak", 1.3},
          {"shed_frac", "load fraction shed from sheddable tenants", 0.6}},
         QosDowngrade});
    return catalog;
}

}  // namespace

void
ScenarioSpec::Apply(fleet::Fleet& fleet, chaos::CampaignEngine& campaign) const
{
    scenario->apply(*std::make_shared<FleetLevers>(fleet, campaign), params);
}

ScenarioParams
Scenario::Defaults() const
{
    ScenarioParams out;
    for (const ScenarioParam& param : params) out[param.key] = param.def;
    return out;
}

const std::vector<Scenario>&
ScenarioCatalog()
{
    static const std::vector<Scenario> catalog = BuildCatalog();
    return catalog;
}

const std::vector<std::string>&
ScenarioNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const Scenario& scenario : ScenarioCatalog()) {
            out.push_back(scenario.name);
        }
        return out;
    }();
    return names;
}

const Scenario*
FindScenario(const std::string& name)
{
    for (const Scenario& scenario : ScenarioCatalog()) {
        if (scenario.name == name) return &scenario;
    }
    return nullptr;
}

ScenarioSpec
ParseScenarioSpec(const std::string& text)
{
    std::string name = text;
    std::string arglist;
    const std::size_t open = text.find('(');
    if (open != std::string::npos) {
        if (text.size() < 2 || text.back() != ')') {
            throw std::invalid_argument("scenario spec '" + text +
                                        "' has an unterminated parameter list");
        }
        name = text.substr(0, open);
        arglist = text.substr(open + 1, text.size() - open - 2);
    }

    const Scenario* scenario = FindScenario(name);
    if (scenario == nullptr) {
        throw std::invalid_argument("unknown scenario '" + name +
                                    "' (expected " +
                                    JoinNames(ScenarioNames()) + ")");
    }
    ScenarioSpec spec{scenario, scenario->Defaults()};
    if (arglist.empty()) return spec;

    std::vector<std::string> declared;
    for (const ScenarioParam& param : scenario->params) {
        declared.push_back(param.key);
    }

    std::size_t pos = 0;
    while (pos <= arglist.size()) {
        std::size_t comma = arglist.find(',', pos);
        if (comma == std::string::npos) comma = arglist.size();
        const std::string part = arglist.substr(pos, comma - pos);
        pos = comma + 1;

        const std::size_t eq = part.find('=');
        if (part.empty() || eq == std::string::npos || eq == 0) {
            throw std::invalid_argument("scenario '" + name +
                                        "': malformed parameter '" + part +
                                        "' (expected key=value)");
        }
        const std::string key = part.substr(0, eq);
        const std::string value = part.substr(eq + 1);
        if (spec.params.find(key) == spec.params.end()) {
            throw std::invalid_argument(
                "scenario '" + name + "' has no parameter '" + key +
                "' (expected " + JoinNames(declared) + ")");
        }
        char* end = nullptr;
        const double parsed = std::strtod(value.c_str(), &end);
        if (value.empty() || end != value.c_str() + value.size()) {
            throw std::invalid_argument("scenario '" + name +
                                        "': parameter '" + key +
                                        "' has non-numeric value '" + value +
                                        "'");
        }
        spec.params[key] = parsed;
    }
    return spec;
}

std::string
FormatScenarioSpec(const ScenarioSpec& spec)
{
    std::string args;
    for (const ScenarioParam& param : spec.scenario->params) {
        const double value = spec.params.at(param.key);
        if (value == param.def) continue;
        if (!args.empty()) args += ",";
        args += param.key + "=" + CanonicalParamValue(value);
    }
    if (args.empty()) return spec.scenario->name;
    return spec.scenario->name + "(" + args + ")";
}

}  // namespace dynamo::replay
