/**
 * @file
 * End-to-end fleet harness.
 *
 * Builds a complete simulated data-center slice from a declarative
 * spec: the power-delivery tree, servers with per-service workloads on
 * a shared traffic model (diurnal curve × scriptable scenario curve),
 * top-of-rack switches as non-cappable loads, breaker integration, and
 * (optionally) the full Dynamo control plane. This is the object the
 * experiments and examples drive.
 */
#ifndef DYNAMO_FLEET_FLEET_H_
#define DYNAMO_FLEET_FLEET_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/deployment.h"
#include "core/load_shed.h"
#include "fleet/layout.h"
#include "fleet/reconfig.h"
#include "power/breaker_monitor.h"
#include "power/breaker_telemetry.h"
#include "power/device.h"
#include "rpc/transport.h"
#include "server/sim_server.h"
#include "sim/simulation.h"
#include "workload/service.h"
#include "workload/traffic.h"

namespace dynamo::fleet {

/**
 * The instantiated fleet: a FleetLayout plus the simulation kernel,
 * transport, breaker monitor and (optionally) the Dynamo control plane
 * over it. Owns everything it builds.
 */
class Fleet
{
  public:
    explicit Fleet(FleetSpec spec);

    Fleet(const Fleet&) = delete;
    Fleet& operator=(const Fleet&) = delete;

    sim::Simulation& sim() { return sim_; }
    rpc::SimTransport& transport() { return transport_; }
    power::PowerDevice& root() { return layout_.root(); }
    power::BreakerMonitor& breaker_monitor() { return *monitor_; }

    /** Dynamo control plane; nullptr when spec.with_dynamo is false. */
    core::Deployment* dynamo() { return deployment_.get(); }

    /** Event log (empty when Dynamo is disabled). */
    telemetry::EventLog* event_log()
    {
        return deployment_ ? &deployment_->event_log() : nullptr;
    }

    /** Metrics registry (nullptr when Dynamo is disabled). */
    telemetry::MetricsRegistry* metrics()
    {
        return deployment_ ? &deployment_->metrics() : nullptr;
    }

    /** Decision-trace log (nullptr when Dynamo is disabled). */
    telemetry::TraceLog* trace_log()
    {
        return deployment_ ? &deployment_->trace_log() : nullptr;
    }

    /**
     * Copy the simulation kernel's internal counters into gauges on
     * the deployment registry (`sim.cascades`, `sim.far_drains`,
     * `sim.purges`, `sim.slot_sorts`, `sim.events_executed`). The sim
     * layer sits below telemetry, so the harness snapshots on demand
     * rather than the kernel pushing. No-op without a deployment.
     */
    void PublishKernelStats();

    const FleetSpec& spec() const { return layout_.spec(); }

    /** All servers (owned by the fleet), in construction order. */
    const std::vector<std::unique_ptr<server::SimServer>>& servers() const
    {
        return layout_.servers();
    }

    /** Servers attached under a given device subtree. */
    std::vector<server::SimServer*> ServersUnder(
        const std::string& device_name) const
    {
        return layout_.ServersUnder(device_name);
    }

    /** Servers of one service. */
    std::vector<server::SimServer*> ServersOf(workload::ServiceType service);

    /**
     * Campaign hooks: RPC endpoint rosters for a device subtree, so
     * chaos campaigns can target correlated faults ("partition this
     * RPP's agents", "storm this SB's controllers") without knowing
     * how the fleet names things.
     */
    std::vector<std::string> AgentEndpointsUnder(const std::string& device_name);

    /** Controller endpoints (leaf + upper) in a device subtree. */
    std::vector<std::string> ControllerEndpointsUnder(
        const std::string& device_name);

    /** Breaker telemetry feeds (empty unless with_breaker_validation). */
    const std::vector<std::unique_ptr<power::BreakerTelemetry>>&
    breaker_telemetry()
    {
        return breaker_telemetry_;
    }

    /**
     * The scriptable scenario traffic curve shared by every server;
     * add breakpoints to drive load tests and surges.
     */
    workload::PiecewiseTraffic& scenario() { return layout_.scenario(); }

    /**
     * Multiplier applied by an external (global) load balancer on top
     * of the diurnal and scenario curves — the knob a cross-data-center
     * balancer turns when it shifts traffic between sites.
     */
    void set_global_traffic_factor(double factor)
    {
        layout_.balancer().set_factor(factor);
    }

    double global_traffic_factor() const { return layout_.balancer().factor(); }

    /**
     * Current fleet-spec epoch: 0 at boot, bumped once per committed
     * reconfiguration transaction. Controllers observe it through
     * AttachEpoch and reject contract traffic from older epochs.
     */
    std::uint64_t spec_epoch() const { return spec_epoch_; }

    /**
     * Validate `txn` against the current topology and schedule it to
     * commit atomically at the next upper-cycle window barrier (the
     * next multiple of the upper pull cycle, 9 s by default). Ops in
     * one transaction apply in order with no control cycle in between;
     * the spec epoch bumps exactly once per transaction.
     *
     * @throws std::invalid_argument on a structurally invalid
     *         transaction (unknown device, wrong level, re-parent onto
     *         itself, restart without a standby, ...). Validation runs
     *         against the *current* topology; a transaction invalidated
     *         by an earlier pending one fails at commit with
     *         std::runtime_error instead.
     */
    void ScheduleReconfig(ReconfigTxn txn);

    /** Observer invoked after each committed transaction (journaling). */
    using ReconfigObserver = std::function<void(
        std::uint64_t epoch, SimTime time, const std::string& description)>;

    void set_reconfig_observer(ReconfigObserver observer)
    {
        reconfig_observer_ = std::move(observer);
    }

    /** Reconfiguration transactions committed so far (== spec_epoch). */
    std::uint64_t reconfigs_applied() const { return spec_epoch_; }

    /** Total draw at the root right now. */
    Watts TotalPower() { return root().TotalPower(sim_.Now()); }

    /** Breaker trips observed so far (outages). */
    std::size_t outage_count() const { return monitor_->trip_count(); }

    /** Advance the simulation. */
    void RunFor(SimTime duration) { sim_.RunFor(duration); }

    /**
     * Serialize the complete fleet state into `ar`: the simulation
     * kernel counters, transport/failure-injector RNG position, every
     * breaker's thermal state (deterministic pre-order device walk),
     * every server (workload position, RAPL, work accounting, RNG),
     * the global balancer factor, and the full control plane. The
     * resulting byte string — and its FNV digest — is bit-exact across
     * runs of the same seed, which is what replay checkpoints compare.
     */
    void Snapshot(Archive& ar) const;

  private:
    void ValidateReconfig(const ReconfigTxn& txn) const;
    void ApplyReconfig(const ReconfigTxn& txn);
    void ApplyAddServers(const ReconfigOp& op);
    void ApplyRemoveSubtree(const ReconfigOp& op);
    void ApplyReparent(const ReconfigOp& op);
    void ApplyRestartController(const ReconfigOp& op);
    void ApplyPromoteUpper(const ReconfigOp& op);

    /** Fleet-side LoadShedder: scales shed factors of a domain's servers. */
    class Shedder : public core::LoadShedder
    {
      public:
        explicit Shedder(Fleet& fleet) : fleet_(fleet) {}

        void RequestShed(const std::string& domain, double fraction) override;
        void ClearShed(const std::string& domain) override;

      private:
        Fleet& fleet_;
    };

    FleetLayout layout_;
    sim::Simulation sim_;
    rpc::SimTransport transport_;
    std::unique_ptr<power::BreakerMonitor> monitor_;
    std::unique_ptr<core::Deployment> deployment_;
    std::vector<std::unique_ptr<power::BreakerTelemetry>> breaker_telemetry_;
    std::unique_ptr<Shedder> shedder_;

    /** Bumped once per committed reconfiguration transaction. */
    std::uint64_t spec_epoch_ = 0;

    ReconfigObserver reconfig_observer_;
};

}  // namespace dynamo::fleet

#endif  // DYNAMO_FLEET_FLEET_H_
