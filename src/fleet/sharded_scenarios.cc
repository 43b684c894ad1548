#include "fleet/sharded_scenarios.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dynamo::fleet {
namespace {

/** Window whose closing barrier is the first at or after `when`. */
std::uint64_t
WindowAt(SimTime when)
{
    if (when <= 0) return 0;
    return static_cast<std::uint64_t>((when - 1) / kShardWindowMs);
}

/**
 * The sharded engine's levers. Steps are buffered while the body runs
 * and handed to the fleet only if the body never asked for the serial
 * engine; each handed-over action holds a reference on the levers, so
 * they live as long as the fleet still owns one.
 */
class ShardedLevers final : public replay::Levers,
                            public std::enable_shared_from_this<ShardedLevers>
{
  public:
    explicit ShardedLevers(ShardedFleet& fleet) : fleet_(fleet) {}

    void At(SimTime when, std::string description, Action fn) override
    {
        // A step later than the one before it lands at least one
        // barrier after it, so a phase shorter than a window still
        // holds for one.
        std::uint64_t window = WindowAt(when);
        if (when > last_when_) window = std::max(window, last_window_ + 1);
        last_when_ = when;
        last_window_ = window;
        steps_.push_back(Step{window, std::move(description), std::move(fn)});
    }

    /** Not an At step: of two breakpoints in one window, the later
     *  simply wins, as it would on a ramp. */
    void DemandPoint(SimTime when, double factor) override
    {
        char text[48];
        std::snprintf(text, sizeof text, "demand: factor %g", factor);
        steps_.push_back(Step{WindowAt(when), text, [this, factor] {
            fleet_.ForEachServer([factor](server::SimServer& srv) {
                srv.load().set_balancer_factor(factor);
            });
        }});
    }

    /** The sharded fleet has no root device: its budget is every SB's. */
    std::string FleetBudget() override { return std::string(kEverySb); }

    std::vector<std::string> Leaves() override
    {
        std::vector<std::string> names;
        names.reserve(fleet_.plan().n_leaves);
        for (std::size_t l = 0; l < fleet_.plan().n_leaves; ++l) {
            names.push_back(std::string(kLeafPrefix) + std::to_string(l));
        }
        return names;
    }

    /** Controllers only: ShardedFleet exposes no breaker (SBs have
     *  none at all), so the controller limits carry the derate. */
    void Derate(const std::string& device, double keep) override
    {
        const auto [it, first] = saved_.try_emplace(device);
        for (core::Controller* controller : ControllersOf(device)) {
            if (first) it->second.push_back(controller->physical_limit());
            controller->SetPhysicalLimit(controller->physical_limit() * keep);
        }
    }

    void Restore(const std::string& device) override
    {
        const auto saved = saved_.extract(device);
        if (saved.empty()) return;
        const std::vector<Watts>& limits = saved.mapped();
        const auto controllers = ControllersOf(device);  // A leaf may be gone.
        for (std::size_t i = 0; i < controllers.size(); ++i) {
            if (i < limits.size()) controllers[i]->SetPhysicalLimit(limits[i]);
        }
    }

    void ForEachServer(const ServerFn& fn) override
    {
        fleet_.ForEachServer(fn);
    }

    replay::SerialEngine* Serial() override
    {
        refused_ = true;
        return nullptr;
    }

    /**
     * Hand the buffered steps to the fleet in call order. Returns
     * false, handing over nothing, if the body asked for the serial
     * engine.
     */
    bool Commit()
    {
        if (refused_) return false;
        const std::shared_ptr<ShardedLevers> self = shared_from_this();
        for (Step& step : steps_) {
            fleet_.ScheduleAction(step.window, std::move(step.description),
                                  [self, fn = std::move(step.fn)] { fn(); });
        }
        return true;
    }

  private:
    static constexpr std::string_view kEverySb = "every SB";
    static constexpr std::string_view kLeafPrefix = "rpp";

    /** Every SB for the fleet budget; a leaf's own while it serves. */
    std::vector<core::Controller*> ControllersOf(const std::string& device)
    {
        std::vector<core::Controller*> controllers;
        if (device == kEverySb) {
            for (std::size_t s = 0; s < fleet_.plan().n_sbs; ++s) {
                controllers.push_back(&fleet_.sb(s));
            }
            return controllers;
        }
        // A name from Leaves(): the prefix, then the global leaf index.
        const std::size_t l = std::stoul(device.substr(kLeafPrefix.size()));
        if (fleet_.leaf_alive(l)) controllers.push_back(&fleet_.leaf(l));
        return controllers;
    }

    struct Step
    {
        std::uint64_t window;
        std::string description;
        Action fn;
    };

    ShardedFleet& fleet_;
    std::vector<Step> steps_;

    /** Time and window of the last At step. */
    SimTime last_when_ = std::numeric_limits<SimTime>::max();
    std::uint64_t last_window_ = 0;

    /** Set once the body asked for the serial engine. */
    bool refused_ = false;

    /** Open derates: device -> its controllers' limits before the
     *  first derate, in ControllersOf order. */
    std::map<std::string, std::vector<Watts>> saved_;
};

}  // namespace

bool
ApplyShardedScenario(ShardedFleet& fleet, const replay::ScenarioSpec& spec)
{
    const auto levers = std::make_shared<ShardedLevers>(fleet);
    spec.scenario->apply(*levers, spec.params);
    return levers->Commit();
}

}  // namespace dynamo::fleet
