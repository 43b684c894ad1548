/**
 * @file
 * Reference transport for fan-out differential tests: a SimTransport
 * whose CallFanOut is the base-class loop, one per-item Call per
 * target. Same latency and fault streams as SimTransport, so any
 * difference between the two is the fan-out scheduling itself.
 */
#ifndef DYNAMO_TESTS_PER_ITEM_TRANSPORT_H_
#define DYNAMO_TESTS_PER_ITEM_TRANSPORT_H_

#include <utility>
#include <vector>

#include "rpc/transport.h"

namespace dynamo::rpc {

class PerItemTransport final : public SimTransport
{
  public:
    using SimTransport::SimTransport;

    void CallFanOut(const std::vector<EndpointId>& targets,
                    const Payload& request, FanOutOkCallback on_ok,
                    FanOutErrCallback on_err, SimTime timeout_ms) override
    {
        Transport::CallFanOut(targets, request, std::move(on_ok),
                              std::move(on_err), timeout_ms);
    }
};

}  // namespace dynamo::rpc

#endif  // DYNAMO_TESTS_PER_ITEM_TRANSPORT_H_
