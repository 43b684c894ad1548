/**
 * @file
 * The fleet layout: everything a FleetSpec determines before any
 * control plane exists. That is the power-device tree, the top-of-rack
 * switches, the shared traffic model, and every server with its
 * service, generation, sensor and seed.
 *
 * This is the one derivation of a spec. fleet::Fleet simulates on a
 * FleetLayout, and every deployment-mode daemon builds the same
 * FleetLayout from the shared spec text and hosts its slice of it. So
 * an agent daemon serves exactly the servers that a leaf daemon's
 * roster, and the serial Fleet, expect.
 */
#ifndef DYNAMO_FLEET_LAYOUT_H_
#define DYNAMO_FLEET_LAYOUT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/deployment.h"
#include "power/device.h"
#include "power/topology.h"
#include "server/sim_server.h"
#include "workload/service.h"
#include "workload/traffic.h"

namespace dynamo::fleet {

/** Proportions of services across a fleet's servers. */
struct ServiceMix
{
    struct Share
    {
        workload::ServiceType service;
        double weight;
    };

    std::vector<Share> shares;

    /** Every server runs `service`. */
    static ServiceMix Single(workload::ServiceType service)
    {
        return ServiceMix{{{service, 1.0}}};
    }

    /** The paper's front-end row: web + cache + feed (Fig. 15 ratios). */
    static ServiceMix FrontEndRow()
    {
        return ServiceMix{{{workload::ServiceType::kWeb, 200.0},
                           {workload::ServiceType::kCache, 200.0},
                           {workload::ServiceType::kNewsfeed, 40.0}}};
    }

    /** A varied data-center mix over all six services. */
    static ServiceMix Datacenter()
    {
        return ServiceMix{{{workload::ServiceType::kWeb, 0.30},
                           {workload::ServiceType::kCache, 0.15},
                           {workload::ServiceType::kHadoop, 0.20},
                           {workload::ServiceType::kDatabase, 0.10},
                           {workload::ServiceType::kNewsfeed, 0.10},
                           {workload::ServiceType::kF4Storage, 0.15}}};
    }
};

/** How much of the hierarchy to instantiate. */
enum class FleetScope { kRpp, kSb, kMsb };

/** Declarative description of a simulated fleet. */
struct FleetSpec
{
    FleetScope scope = FleetScope::kSb;

    /** Device shape/ratings (rpps-per-SB etc. read from here). */
    power::TopologySpec topology;

    /** Servers attached to each RPP (leaf domain size). */
    std::size_t servers_per_rpp = 240;

    ServiceMix mix = ServiceMix::Datacenter();

    /** Fraction of 2015-generation (Haswell) servers; rest are 2011. */
    double haswell_fraction = 0.7;

    /** Fraction of servers without a power sensor (agent estimates). */
    double sensorless_fraction = 0.02;

    /**
     * Fraction of GPU training nodes (kGpuTrain2024). Drawn before the
     * CPU-generation split; 0 (the default) draws nothing, so existing
     * seeds keep their exact RNG streams.
     */
    double gpu_fraction = 0.0;

    /** Turbo Boost enabled fleet-wide (Section IV-B experiments). */
    bool turbo_enabled = false;

    /** Optional per-server power-spec override (custom SKU). */
    std::optional<server::ServerPowerSpec> spec_override;

    /** Non-cappable switch power attached to each RPP. */
    Watts tor_switch_power = 300.0;

    /** Diurnal traffic amplitude (0 disables the diurnal component). */
    double diurnal_amplitude = 0.25;

    std::uint64_t seed = 42;

    /** Build the Dynamo control plane (false = uncontrolled baseline). */
    bool with_dynamo = true;

    /**
     * Attach coarse breaker telemetry to every leaf controller so
     * aggregations are validated and sensorless servers' estimation
     * models are dynamically tuned (Section VI lessons).
     */
    bool with_breaker_validation = false;

    /**
     * Wire a traffic shedder to every leaf controller: when capping
     * bottoms out at the SLA floors, the controller drains part of its
     * domain's traffic instead of letting the breaker trip.
     */
    bool with_load_shedding = false;

    core::DeploymentConfig deployment;

    SimTime breaker_monitor_period = 1000;

    /**
     * Default replay scenario for this spec, as a scenario-spec string
     * ("grid-dr(drop_frac=0.2)"). The fleet itself never reads it —
     * replay-layer tools (replay_cli, benches) resolve it against the
     * scenario catalog; the parser only validates the structure.
     * Empty = no default (tools fall back to their own).
     */
    std::string scenario;
};

/**
 * The devices, switches, traffic and servers a FleetSpec describes,
 * built once. Servers are drawn from one seeded stream per build:
 * Rng(spec.seed) over every RPP in pre-order at boot, and a fresh
 * per-epoch stream for each AddServers. Owns everything it builds.
 */
class FleetLayout
{
  public:
    explicit FleetLayout(FleetSpec spec);

    FleetLayout(const FleetLayout&) = delete;
    FleetLayout& operator=(const FleetLayout&) = delete;

    const FleetSpec& spec() const { return spec_; }
    power::PowerDevice& root() const { return *root_; }

    /** All servers, in construction order (boot, then provisioned). */
    const std::vector<std::unique_ptr<server::SimServer>>& servers() const
    {
        return servers_;
    }

    /** Servers attached under the named device subtree (none if unknown). */
    std::vector<server::SimServer*> ServersUnder(
        const std::string& device_name) const;

    /** Device by name; throws std::invalid_argument when unknown. */
    power::PowerDevice& DeviceOrThrow(const std::string& device_name) const;

    /** The scriptable scenario curve every server's traffic includes. */
    workload::PiecewiseTraffic& scenario() { return scenario_; }

    /** The global load-balancer factor every server's traffic includes. */
    workload::ConstantTraffic& balancer() { return balancer_; }
    const workload::ConstantTraffic& balancer() const { return balancer_; }

    /**
     * Provision `count` servers on `leaf` at spec epoch `epoch`. They
     * are drawn from a fresh Rng(seed ^ golden * epoch) stream, so the
     * boot-time streams of existing servers never move, and named
     * "<leaf>/e<epoch>s<i>" so repeated expansions stay unique.
     * Returns the new servers in order.
     */
    std::vector<server::SimServer*> AddServers(power::PowerDevice& leaf,
                                               std::size_t count,
                                               std::uint64_t epoch);

    /**
     * Detach `device` (not the root) and its subtree from the tree and
     * destroy its servers. The devices themselves are kept alive but
     * dormant: attached switches and breaker-telemetry samplers still
     * point into them, and keeping the objects is cheaper and safer
     * than chasing every reference.
     */
    void RetireSubtree(power::PowerDevice& device);

  private:
    /**
     * The one server draw: `count` servers named `name_prefix` + index
     * on `leaf`, each drawing generation, sensor and seed from `rng`.
     */
    std::vector<server::SimServer*> DrawServers(power::PowerDevice& leaf,
                                                std::size_t count,
                                                const std::string& name_prefix,
                                                Rng& rng);

    FleetSpec spec_;
    workload::DiurnalTraffic diurnal_;
    workload::PiecewiseTraffic scenario_;
    workload::ConstantTraffic balancer_{1.0};
    workload::CompositeTraffic traffic_;
    std::unique_ptr<power::PowerDevice> root_;
    std::vector<std::unique_ptr<server::SimServer>> servers_;
    std::vector<std::unique_ptr<power::FixedLoad>> switches_;
    std::vector<std::unique_ptr<power::PowerDevice>> retired_devices_;
};

}  // namespace dynamo::fleet

#endif  // DYNAMO_FLEET_LAYOUT_H_
