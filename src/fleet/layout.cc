#include "fleet/layout.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "workload/load_process.h"

namespace dynamo::fleet {

namespace {

/**
 * Deterministic service assignment for `n` servers: contiguous blocks
 * proportional to the mix weights, in mix order.
 */
std::vector<workload::ServiceType>
AssignServices(const ServiceMix& mix, std::size_t n)
{
    assert(!mix.shares.empty() && "service mix must not be empty");
    double total = 0.0;
    for (const auto& share : mix.shares) total += share.weight;

    std::vector<workload::ServiceType> assignment;
    assignment.reserve(n);
    double cumulative = 0.0;
    for (const auto& share : mix.shares) {
        cumulative += share.weight;
        const auto upto = static_cast<std::size_t>(
            std::llround(cumulative / total * static_cast<double>(n)));
        while (assignment.size() < upto) assignment.push_back(share.service);
    }
    while (assignment.size() < n) assignment.push_back(mix.shares.back().service);
    return assignment;
}

}  // namespace

FleetLayout::FleetLayout(FleetSpec spec)
    : spec_(std::move(spec)), diurnal_(spec_.diurnal_amplitude)
{
    traffic_.Add(&diurnal_);
    traffic_.Add(&scenario_);
    traffic_.Add(&balancer_);

    switch (spec_.scope) {
      case FleetScope::kRpp:
        root_ = power::BuildRpp("rpp0", spec_.topology.rpp_rated,
                                spec_.topology.rpp_rated);
        break;
      case FleetScope::kSb:
        root_ = power::BuildSbTree("sb0", spec_.topology.rpps_per_sb,
                                   spec_.topology);
        break;
      case FleetScope::kMsb:
        root_ = power::BuildMsbTree(spec_.topology);
        break;
    }

    Rng rng(spec_.seed);
    // DevicesAtLevel includes the root itself, so a bare-RPP fleet
    // gets its servers attached directly to the root.
    for (power::PowerDevice* rpp :
         root_->DevicesAtLevel(power::DeviceLevel::kRpp)) {
        if (spec_.tor_switch_power > 0.0) {
            switches_.push_back(
                std::make_unique<power::FixedLoad>(spec_.tor_switch_power));
            rpp->AttachLoad(switches_.back().get());
        }
        DrawServers(*rpp, spec_.servers_per_rpp, rpp->name() + "/s", rng);
    }
}

std::vector<server::SimServer*>
FleetLayout::DrawServers(power::PowerDevice& leaf, std::size_t count,
                         const std::string& name_prefix, Rng& rng)
{
    const std::vector<workload::ServiceType> services =
        AssignServices(spec_.mix, count);
    std::vector<server::SimServer*> drawn;
    drawn.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        server::SimServer::Config config;
        config.name = name_prefix + std::to_string(i);
        // The GPU draw only exists when gpu_fraction is set: a zero
        // fraction must not consume an RNG draw, or every pre-GPU seed
        // (and every committed golden journal) would shift streams.
        config.generation =
            (spec_.gpu_fraction > 0.0 && rng.Bernoulli(spec_.gpu_fraction))
                ? server::ServerGeneration::kGpuTrain2024
            : rng.Bernoulli(spec_.haswell_fraction)
                ? server::ServerGeneration::kHaswell2015
                : server::ServerGeneration::kWestmere2011;
        config.service = services[i];
        config.has_sensor = !rng.Bernoulli(spec_.sensorless_fraction);
        config.turbo_enabled = spec_.turbo_enabled;
        config.spec_override = spec_.spec_override;
        config.seed = rng.NextU64();
        servers_.push_back(std::make_unique<server::SimServer>(
            config, workload::LoadProcessParams::For(config.service), &traffic_));
        leaf.AttachLoad(servers_.back().get());
        drawn.push_back(servers_.back().get());
    }
    return drawn;
}

std::vector<server::SimServer*>
FleetLayout::AddServers(power::PowerDevice& leaf, std::size_t count,
                        std::uint64_t epoch)
{
    Rng rng(spec_.seed ^ (0x9e3779b97f4a7c15ULL * epoch));
    return DrawServers(leaf, count,
                       leaf.name() + "/e" + std::to_string(epoch) + "s", rng);
}

void
FleetLayout::RetireSubtree(power::PowerDevice& device)
{
    const std::vector<server::SimServer*> doomed = server::ServersUnder(device);
    const std::unordered_set<const power::PowerLoad*> gone(doomed.begin(),
                                                           doomed.end());
    device.ForEach([&](power::PowerDevice& d) {
        const std::vector<power::PowerLoad*> attached = d.loads();
        for (power::PowerLoad* load : attached) {
            if (gone.count(load) != 0) d.DetachLoad(load);
        }
    });
    servers_.erase(
        std::remove_if(servers_.begin(), servers_.end(),
                       [&](const std::unique_ptr<server::SimServer>& s) {
                           return gone.count(s.get()) != 0;
                       }),
        servers_.end());
    retired_devices_.push_back(device.parent()->RemoveChild(device.name()));
}

std::vector<server::SimServer*>
FleetLayout::ServersUnder(const std::string& device_name) const
{
    power::PowerDevice* device = root_->Find(device_name);
    if (device == nullptr) return {};
    return server::ServersUnder(*device);
}

power::PowerDevice&
FleetLayout::DeviceOrThrow(const std::string& device_name) const
{
    power::PowerDevice* device = root_->Find(device_name);
    if (device == nullptr) {
        throw std::invalid_argument("no device named '" + device_name +
                                    "' in the fleet spec topology");
    }
    return *device;
}

}  // namespace dynamo::fleet
