/**
 * @file
 * The scenario catalog on the sharded parallel fleet.
 *
 * Catalog bodies are written once, against replay::Levers
 * (replay/scenario.h). This engine's levers schedule each step with
 * ShardedFleet::ScheduleAction at the first barrier at or after its
 * time (9 s granularity instead of the campaign's millisecond clock),
 * so the steps are journaled and covered by the thread-count
 * byte-identity gate. A step later than the body's previous step goes
 * at least one barrier after it, so every phase holds for a window; a
 * script denser than the barriers is stretched. The fleet budget is
 * every SB; a demand breakpoint sets every server's balancer factor.
 *
 * The RPC-fault and reconfiguration scenarios ask for the serial
 * engine, which this one does not provide: they are refused.
 */
#ifndef DYNAMO_FLEET_SHARDED_SCENARIOS_H_
#define DYNAMO_FLEET_SHARDED_SCENARIOS_H_

#include "fleet/sharding.h"
#include "replay/scenario.h"

namespace dynamo::fleet {

/**
 * Apply `spec`'s body to `fleet`. Returns true once its steps are
 * scheduled ("quiet" schedules none); false, scheduling nothing, if
 * the body needs the serial engine (partition-heal, mixed-faults,
 * surge-degraded, reconfig-storm). Call before the first window runs.
 */
bool ApplyShardedScenario(ShardedFleet& fleet,
                          const replay::ScenarioSpec& spec);

}  // namespace dynamo::fleet

#endif  // DYNAMO_FLEET_SHARDED_SCENARIOS_H_
