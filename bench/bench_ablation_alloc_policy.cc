/**
 * @file
 * Ablation A6: allocation policy comparison ("new capping algorithms",
 * paper conclusion).
 *
 * The same overloaded web row runs under the production
 * high-bucket-first split (bucket_w = 20) and two alternatives:
 * bucket_w = 0, which water-fills the top to a common cap, and the
 * fairshare brain, which spreads the cut over everyone in proportion
 * to headroom. High-bucket-first concentrates the cut on the hottest
 * servers (fewest users affected, punishes likely regressions). The
 * bench reports how many servers are throttled, the worst per-server
 * slowdown, and total work lost for each.
 */
#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "common/units.h"
#include "fleet/fleet.h"
#include "policy/capping_policy.h"

using namespace dynamo;

namespace {

/** One arm: a label and the two spec knobs it sets. */
struct Arm
{
    const char* name;
    Watts bucket_w;
    policy::PolicyKind brain;
};

struct Outcome
{
    std::size_t max_capped;
    double worst_slowdown_pct;
    double work_loss_pct;
    std::size_t outages;
};

Outcome
Run(const Arm& arm)
{
    fleet::FleetSpec spec;
    spec.scope = fleet::FleetScope::kRpp;
    spec.topology.rpp_rated = 127.5e3;
    spec.servers_per_rpp = 560;
    spec.mix = fleet::ServiceMix::Single(workload::ServiceType::kWeb);
    spec.diurnal_amplitude = 0.0;
    spec.deployment.leaf.bucket_size = arm.bucket_w;
    spec.deployment.leaf.capping_policy = arm.brain;
    spec.deployment.upper.capping_policy = arm.brain;
    spec.seed = 73;
    fleet::Fleet fleet(spec);
    fleet.scenario().AddPoint(0, 1.0);
    fleet.scenario().AddPoint(Minutes(3), 1.7);
    fleet.scenario().AddPoint(Minutes(45), 1.7);

    Outcome out{0, 0.0, 0.0, 0};
    double demanded = 0.0;
    double delivered = 0.0;
    for (int minute = 1; minute <= 45; ++minute) {
        fleet.RunFor(Minutes(1));
        std::size_t capped = 0;
        const SimTime now = fleet.sim().Now();
        for (const auto& srv : fleet.servers()) {
            if (srv->capped()) ++capped;
            out.worst_slowdown_pct =
                std::max(out.worst_slowdown_pct, srv->SlowdownPercentAt(now));
        }
        out.max_capped = std::max(out.max_capped, capped);
    }
    for (const auto& srv : fleet.servers()) {
        demanded += srv->demanded_work();
        delivered += srv->delivered_work();
    }
    out.work_loss_pct = 100.0 * (1.0 - delivered / demanded);
    out.outages = fleet.outage_count();
    return out;
}

}  // namespace

int
main()
{
    bench::Banner("Ablation A6", "allocation policy comparison");

    std::printf("%-20s %12s %18s %14s %8s\n", "policy", "max capped",
                "worst slowdown(%)", "work loss(%)", "outages");
    const Arm arms[] = {
        {"high-bucket-first", 20.0, policy::PolicyKind::kThreeBand},
        {"water-fill", 0.0, policy::PolicyKind::kThreeBand},
        {"fairshare", 20.0, policy::PolicyKind::kFairShare},
    };
    for (const Arm& arm : arms) {
        const Outcome out = Run(arm);
        std::printf("%-20s %12zu %18.1f %14.2f %8zu\n", arm.name,
                    out.max_capped, out.worst_slowdown_pct, out.work_loss_pct,
                    out.outages);
    }

    std::printf(
        "\nAll policies keep the breaker safe; they differ in who pays.\n"
        "High-bucket-first and water-fill focus the cut on the hottest\n"
        "servers and leave the rest untouched. Fairshare touches the\n"
        "whole row, and because each cap *update* re-cuts every server\n"
        "from its already-capped power, shallow cuts compound across\n"
        "updates into deeper ones — a dynamic-interaction effect that\n"
        "static, per-decision analyses of allocation policies miss, and\n"
        "one more argument for the paper's production choice.\n");
    return 0;
}
