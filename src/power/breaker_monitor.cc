#include "power/breaker_monitor.h"

namespace dynamo::power {

BreakerMonitor::BreakerMonitor(sim::Simulation& sim, PowerDevice& root,
                               SimTime period)
    : sim_(sim), root_(root), period_(period), last_tick_(sim.Now())
{
    task_ = sim_.SchedulePeriodic(period_, [this]() { Tick(); });
}

void
BreakerMonitor::Tick()
{
    const SimTime now = sim_.Now();
    const SimTime dt = now - last_tick_;
    last_tick_ = now;
    if (dt <= 0) return;

    // Integrate top-down: ForEach visits each parent before its
    // children, so a child that trips this tick was already counted in
    // its ancestors' draw and its trip zeroes that contribution from
    // the next tick on (physical breakers do not all react in the same
    // instant either).
    root_.ForEach([&](PowerDevice& device) {
        if (device.breaker().tripped()) return;
        const Watts draw = device.TotalPower(now);
        if (device.breaker().Advance(draw, dt)) {
            ++trip_count_;
            NotifyLostRespectingBatteries(device, now);
            if (on_trip_) on_trip_(device, now);
        }
    });
}

void
BreakerMonitor::NotifyLostRespectingBatteries(PowerDevice& device, SimTime now)
{
    if (device.battery_backup() > 0) {
        // DCUPS ride-through: the subtree keeps serving on battery; it
        // only goes dark if upstream power has not returned when the
        // battery is exhausted.
        sim_.ScheduleAfter(device.battery_backup(), [this, &device]() {
            if (!device.IsEnergized()) device.NotifyPowerLost(sim_.Now());
        });
        return;
    }
    for (PowerLoad* load : device.loads()) load->OnPowerLost(now);
    for (const auto& child : device.children()) {
        NotifyLostRespectingBatteries(*child, now);
    }
}

}  // namespace dynamo::power
