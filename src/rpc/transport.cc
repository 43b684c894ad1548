#include "rpc/transport.h"

#include <memory>
#include <stdexcept>
#include <utility>

#include "common/archive.h"
#include "telemetry/metrics.h"

namespace dynamo::rpc {

namespace {

void SnapshotRng(Archive& ar, const Rng& rng)
{
    for (const std::uint64_t w : rng.state()) ar.U64(w);
    ar.U64(rng.draws());
}

}  // namespace

// ---------------------------------------------------------------------------
// Transport (shared registry + accounting)
// ---------------------------------------------------------------------------

void
Transport::Register(EndpointId id, RequestHandler handler)
{
    if (id >= handlers_.size()) handlers_.resize(id + 1);
    if (handlers_[id] != nullptr) {
        throw std::logic_error("Transport::Register: endpoint \"" +
                               endpoints_.Name(id) +
                               "\" already has a handler; Unregister first");
    }
    handlers_[id] = std::move(handler);
}

void
Transport::Register(const std::string& endpoint, RequestHandler handler)
{
    Register(endpoints_.Intern(endpoint), std::move(handler));
}

void
Transport::Unregister(EndpointId id)
{
    if (id < handlers_.size()) handlers_[id] = nullptr;
}

void
Transport::Unregister(const std::string& endpoint)
{
    const EndpointId id = endpoints_.Find(endpoint);
    if (id != kInvalidEndpoint) Unregister(id);
}

void
Transport::Deregister(EndpointId id)
{
    Unregister(id);
    endpoints_.Release(endpoints_.Name(id));
}

void
Transport::Deregister(const std::string& endpoint)
{
    const EndpointId id = endpoints_.Find(endpoint);
    if (id != kInvalidEndpoint) Deregister(id);
}

bool
Transport::IsRegistered(const std::string& endpoint) const
{
    const EndpointId id = endpoints_.Find(endpoint);
    return id != kInvalidEndpoint && IsRegistered(id);
}

void
Transport::Call(const std::string& endpoint, Payload request,
                ResponseCallback on_ok, ErrorCallback on_err,
                SimTime timeout_ms)
{
    Call(endpoints_.Intern(endpoint), std::move(request), std::move(on_ok),
         std::move(on_err), timeout_ms);
}

void
Transport::CallFanOut(const std::vector<EndpointId>& targets,
                      const Payload& request, FanOutOkCallback on_ok,
                      FanOutErrCallback on_err, SimTime timeout_ms)
{
    auto ok = std::make_shared<FanOutOkCallback>(std::move(on_ok));
    auto err = std::make_shared<FanOutErrCallback>(std::move(on_err));
    for (std::size_t i = 0; i < targets.size(); ++i) {
        Call(
            targets[i], request,
            [ok, i](const Payload& response) { (*ok)(i, response); },
            [err, i](const std::string& reason) { (*err)(i, reason); },
            timeout_ms);
    }
}

void
Transport::AttachMetrics(telemetry::MetricsRegistry* registry)
{
    if (registry == nullptr) {
        m_calls_ = m_ok_ = m_failed_ = m_errors_ = m_timeouts_ = nullptr;
        return;
    }
    m_calls_ = registry->GetCounter("rpc.calls");
    m_ok_ = registry->GetCounter("rpc.ok");
    m_failed_ = registry->GetCounter("rpc.failed");
    m_errors_ = registry->GetCounter("rpc.errors");
    m_timeouts_ = registry->GetCounter("rpc.timeouts");
}

void
Transport::CountIssued(std::uint64_t n)
{
    calls_issued_ += n;
    if (m_calls_ != nullptr) m_calls_->Inc(n);
}

void
Transport::CountOk()
{
    ++calls_succeeded_;
    if (m_ok_ != nullptr) m_ok_->Inc();
}

void
Transport::CountError()
{
    ++calls_failed_;
    ++calls_errored_;
    if (m_failed_ != nullptr) m_failed_->Inc();
    if (m_errors_ != nullptr) m_errors_->Inc();
}

void
Transport::CountTimeout()
{
    ++calls_failed_;
    ++calls_timed_out_;
    if (m_failed_ != nullptr) m_failed_->Inc();
    if (m_timeouts_ != nullptr) m_timeouts_->Inc();
}

// ---------------------------------------------------------------------------
// FailureInjector
// ---------------------------------------------------------------------------

FailureInjector::FailureInjector(std::uint64_t seed, EndpointTable* endpoints)
    : rng_(seed), endpoints_(endpoints)
{
}

void
FailureInjector::Snapshot(Archive& ar) const
{
    SnapshotRng(ar, rng_);
    ar.F64(default_failure_p_);
    ar.U64(override_count_);
    ar.U64(latency_count_);
    ar.U64(down_count_);
    // Per-endpoint fault state, dense by id (ids are interned in a
    // deterministic order, so this is canonical).
    ar.U64(failure_p_.size());
    for (std::size_t i = 0; i < failure_p_.size(); ++i) {
        ar.F64(failure_p_[i]);
        ar.I64(extra_latency_[i]);
        ar.U8(down_[i]);
    }
}

void
FailureInjector::EnsureSize(EndpointId id)
{
    if (id >= failure_p_.size()) {
        failure_p_.resize(id + 1, -1.0);
        extra_latency_.resize(id + 1, 0);
        down_.resize(id + 1, 0);
    }
}

void
FailureInjector::SetEndpointFailureProbability(EndpointId id, double p)
{
    EnsureSize(id);
    if (failure_p_[id] < 0.0) ++override_count_;
    failure_p_[id] = p;
}

void
FailureInjector::SetEndpointFailureProbability(const std::string& endpoint,
                                               double p)
{
    SetEndpointFailureProbability(endpoints_->Intern(endpoint), p);
}

void
FailureInjector::ClearEndpointFailureProbability(EndpointId id)
{
    if (id >= failure_p_.size() || failure_p_[id] < 0.0) return;
    failure_p_[id] = -1.0;
    --override_count_;
}

void
FailureInjector::ClearEndpointFailureProbability(const std::string& endpoint)
{
    const EndpointId id = endpoints_->Find(endpoint);
    if (id != kInvalidEndpoint) ClearEndpointFailureProbability(id);
}

void
FailureInjector::SetEndpointDown(EndpointId id, bool down)
{
    EnsureSize(id);
    if (down && !down_[id]) ++down_count_;
    if (!down && down_[id]) --down_count_;
    down_[id] = down ? 1 : 0;
}

void
FailureInjector::SetEndpointDown(const std::string& endpoint, bool down)
{
    SetEndpointDown(endpoints_->Intern(endpoint), down);
}

bool
FailureInjector::IsEndpointDown(EndpointId id) const
{
    if (down_count_ == 0) return false;
    return id < down_.size() && down_[id] != 0;
}

bool
FailureInjector::IsEndpointDown(const std::string& endpoint) const
{
    const EndpointId id = endpoints_->Find(endpoint);
    return id != kInvalidEndpoint && IsEndpointDown(id);
}

void
FailureInjector::SetEndpointExtraLatency(EndpointId id, SimTime extra)
{
    EnsureSize(id);
    if (extra != 0 && extra_latency_[id] == 0) ++latency_count_;
    if (extra == 0 && extra_latency_[id] != 0) --latency_count_;
    extra_latency_[id] = extra;
}

void
FailureInjector::SetEndpointExtraLatency(const std::string& endpoint,
                                         SimTime extra)
{
    SetEndpointExtraLatency(endpoints_->Intern(endpoint), extra);
}

void
FailureInjector::ClearEndpointExtraLatency(EndpointId id)
{
    SetEndpointExtraLatency(id, 0);
}

void
FailureInjector::ClearEndpointExtraLatency(const std::string& endpoint)
{
    const EndpointId id = endpoints_->Find(endpoint);
    if (id != kInvalidEndpoint) SetEndpointExtraLatency(id, 0);
}

SimTime
FailureInjector::ExtraLatency(const std::string& endpoint) const
{
    if (latency_count_ == 0) return 0;
    const EndpointId id = endpoints_->Find(endpoint);
    return id == kInvalidEndpoint ? 0 : ExtraLatency(id);
}

CallFate
FailureInjector::Decide(EndpointId id)
{
    // Fast path: nothing configured, nothing to look up. This is the
    // steady state of every non-chaos run.
    if (down_count_ == 0 && override_count_ == 0 && default_failure_p_ <= 0.0) {
        return CallFate::kOk;
    }
    if (IsEndpointDown(id)) return CallFate::kFail;
    double p = default_failure_p_;
    if (override_count_ > 0 && id < failure_p_.size() && failure_p_[id] >= 0.0) {
        p = failure_p_[id];
    }
    if (p <= 0.0) return CallFate::kOk;
    if (!rng_.Bernoulli(p)) return CallFate::kOk;
    return rng_.Bernoulli(0.5) ? CallFate::kFail : CallFate::kBlackhole;
}

void
FailureInjector::ClearEndpoint(EndpointId id)
{
    if (id >= failure_p_.size()) return;
    ClearEndpointFailureProbability(id);
    SetEndpointExtraLatency(id, 0);
    SetEndpointDown(id, false);
}

// ---------------------------------------------------------------------------
// SimTransport
// ---------------------------------------------------------------------------

SimTransport::SimTransport(sim::Simulation& sim, std::uint64_t seed, Options options)
    : sim_(sim), rng_(seed), options_(options),
      failures_(seed ^ 0xfeedULL, &endpoints_)
{
}

void
SimTransport::Deregister(EndpointId id)
{
    failures_.ClearEndpoint(id);
    Transport::Deregister(id);
}

void
SimTransport::Call(EndpointId id, Payload request, ResponseCallback on_ok,
                   ErrorCallback on_err, SimTime timeout_ms)
{
    CountIssued();

    // `done` arbitrates between the response path and the timeout path
    // so exactly one continuation fires per call.
    auto done = std::make_shared<bool>(false);

    const CallFate fate = failures_.Decide(id);
    if (call_observer_) call_observer_(id, fate, sim_.Now());
    if (fate == CallFate::kBlackhole) {
        sim_.ScheduleAfter(timeout_ms,
                           [this, done, on_err = std::move(on_err)]() {
                               if (*done) return;
                               *done = true;
                               CountTimeout();
                               on_err("timeout");
                           });
        return;
    }
    if (fate == CallFate::kFail || !IsRegistered(id)) {
        const SimTime latency = options_.request_latency.Sample(rng_);
        sim_.ScheduleAfter(latency, [this, done, on_err = std::move(on_err)]() {
            if (*done) return;
            *done = true;
            CountError();
            on_err("connection failed");
        });
        return;
    }

    // Arm the timeout first; delivery below may still race it if the
    // sampled latencies exceed the deadline, exactly as on a real
    // network.
    sim_.ScheduleAfter(timeout_ms, [this, done, on_err]() {
        if (*done) return;
        *done = true;
        CountTimeout();
        on_err("timeout");
    });

    const SimTime request_latency =
        options_.request_latency.Sample(rng_) + failures_.ExtraLatency(id);
    sim_.ScheduleAfter(
        request_latency,
        [this, id, request = std::move(request), on_ok = std::move(on_ok),
         done]() mutable {
            // Re-resolve the handler at delivery time: the endpoint may
            // have crashed while the request was in flight, in which
            // case the caller only learns via the timeout.
            if (!IsRegistered(id)) return;
            Payload response = handlers_[id](request);
            const SimTime response_latency = options_.response_latency.Sample(rng_);
            sim_.ScheduleAfter(response_latency,
                               [this, response = std::move(response),
                                on_ok = std::move(on_ok), done]() {
                                   if (*done) return;
                                   *done = true;
                                   CountOk();
                                   on_ok(response);
                               });
        });
}

// ---------------------------------------------------------------------------
// SimTransport fan-out
// ---------------------------------------------------------------------------

namespace {

const std::string kTimeoutReason = "timeout";
const std::string kConnectionFailedReason = "connection failed";

}  // namespace

/** In-flight state of one CallFanOut, shared by its kernel events. */
struct SimTransport::FanOut
{
    static constexpr std::uint32_t kNone = 0xffffffffu;

    enum Flag : std::uint8_t {
        kTimed = 1,   ///< On the deadline path (live or blackholed).
        kFailed = 2,  ///< Prompt "connection failed" at delivery.
        kDone = 4,    ///< Its one continuation has fired.
    };

    struct Item
    {
        EndpointId target = kInvalidEndpoint;
        std::uint8_t flags = 0;

        /** Next item in the same delivery / completion slot. */
        std::uint32_t next_delivery = kNone;
        std::uint32_t next_completion = kNone;

        /** Handler response, held until its completion slot fires. */
        Payload response;
    };

    /** The items landing on one ms, as an intrusive FIFO list. */
    struct Slot
    {
        SimTime at = 0;
        std::uint32_t head = kNone;
        std::uint32_t tail = kNone;
    };

    Payload request;
    FanOutOkCallback on_ok;
    FanOutErrCallback on_err;

    /** Delivery slot that also carries the deadline (kNone: own event). */
    std::uint32_t deadline_slot = kNone;

    std::vector<Item> items;
    std::vector<Slot> deliveries;
    std::vector<Slot> completions;

    /**
     * Append item `i` to the slot for `at` (through `link`), creating
     * the slot when it is new. Returns the slot index; `*created` says
     * whether the caller must schedule it. Latency ranges are a few ms
     * wide, so the linear scan stays over a handful of slots.
     */
    std::uint32_t Link(std::vector<Slot>& slots, SimTime at, std::uint32_t i,
                       std::uint32_t Item::*link, bool* created)
    {
        std::uint32_t s = 0;
        while (s < slots.size() && slots[s].at != at) ++s;
        *created = s == slots.size();
        if (*created) slots.push_back(Slot{at, i, i});
        else {
            items[slots[s].tail].*link = i;
            slots[s].tail = i;
        }
        return s;
    }
};

void
SimTransport::CallFanOut(const std::vector<EndpointId>& targets,
                         const Payload& request, FanOutOkCallback on_ok,
                         FanOutErrCallback on_err, SimTime timeout_ms)
{
    if (targets.empty()) return;
    const std::size_t n = targets.size();
    CountIssued(n);

    auto fan = std::make_shared<FanOut>();
    fan->request = request;
    fan->on_ok = std::move(on_ok);
    fan->on_err = std::move(on_err);
    fan->items.resize(n);

    // Issue in item order exactly as n back-to-back Calls would: fate,
    // observer, then the request latency draw for non-blackholed items.
    const SimTime now = sim_.Now();
    bool any_timed = false;
    for (std::uint32_t i = 0; i < n; ++i) {
        FanOut::Item& item = fan->items[i];
        item.target = targets[i];
        const CallFate fate = failures_.Decide(item.target);
        if (call_observer_) call_observer_(item.target, fate, now);
        if (fate == CallFate::kBlackhole) {
            item.flags = FanOut::kTimed;
            any_timed = true;
            continue;
        }
        SimTime latency = options_.request_latency.Sample(rng_);
        if (fate == CallFate::kFail || !IsRegistered(item.target)) {
            item.flags = FanOut::kFailed;
        } else {
            item.flags = FanOut::kTimed;
            any_timed = true;
            latency += failures_.ExtraLatency(item.target);
        }
        bool created = false;
        fan->Link(fan->deliveries, now + latency, i,
                  &FanOut::Item::next_delivery, &created);
    }

    // Per-item Call arms each timeout just before its own delivery, so
    // at a ms holding both the two interleave in item order: fold the
    // deadline into that delivery slot rather than giving it an event.
    // Every event of this fan-out is scheduled now, in one contiguous
    // block, so no foreign event can slip between its same-ms events.
    if (any_timed) {
        for (std::uint32_t s = 0; s < fan->deliveries.size(); ++s) {
            if (fan->deliveries[s].at == now + timeout_ms) {
                fan->deadline_slot = s;
            }
        }
        if (fan->deadline_slot == FanOut::kNone) {
            sim_.ScheduleAfter(timeout_ms,
                               [this, fan]() { RunFanOutTimeout(*fan); });
        }
    }
    for (std::uint32_t s = 0; s < fan->deliveries.size(); ++s) {
        sim_.ScheduleAfter(fan->deliveries[s].at - now,
                           [this, fan, s]() { RunFanOutDelivery(fan, s); });
    }
}

void
SimTransport::RunFanOutTimeout(FanOut& fan)
{
    for (std::uint32_t i = 0; i < fan.items.size(); ++i) {
        ExpireFanOutItem(fan, i);
    }
}

void
SimTransport::ExpireFanOutItem(FanOut& fan, std::uint32_t i)
{
    FanOut::Item& item = fan.items[i];
    if ((item.flags & FanOut::kTimed) == 0 ||
        (item.flags & FanOut::kDone) != 0) {
        return;
    }
    item.flags |= FanOut::kDone;
    CountTimeout();
    fan.on_err(i, kTimeoutReason);
}

void
SimTransport::RunFanOutDelivery(const std::shared_ptr<FanOut>& fan,
                                std::size_t slot)
{
    FanOut& f = *fan;
    std::uint32_t next = f.deliveries[slot].head;
    if (slot != f.deadline_slot) {
        while (next != FanOut::kNone) {
            const std::uint32_t i = next;
            next = f.items[i].next_delivery;
            DeliverFanOutItem(fan, i);
        }
        return;
    }
    // The deadline shares this ms: each item's timeout precedes its
    // own delivery, in item order, as per-item Calls would run them.
    for (std::uint32_t i = 0; i < f.items.size(); ++i) {
        ExpireFanOutItem(f, i);
        if (i != next) continue;
        next = f.items[i].next_delivery;
        DeliverFanOutItem(fan, i);
    }
}

void
SimTransport::DeliverFanOutItem(const std::shared_ptr<FanOut>& fan,
                                std::uint32_t i)
{
    FanOut& f = *fan;
    FanOut::Item& item = f.items[i];
    if ((item.flags & FanOut::kFailed) != 0) {
        item.flags |= FanOut::kDone;
        CountError();
        f.on_err(i, kConnectionFailedReason);
        return;
    }
    // Re-resolve the handler at delivery time: an endpoint that
    // crashed while the request was in flight drops it, and the
    // caller only learns via the timeout.
    if (!IsRegistered(item.target)) return;
    item.response = handlers_[item.target](f.request);
    const SimTime latency = options_.response_latency.Sample(rng_);
    bool created = false;
    const std::uint32_t s =
        f.Link(f.completions, sim_.Now() + latency, i,
               &FanOut::Item::next_completion, &created);
    if (created) {
        sim_.ScheduleAfter(latency,
                           [this, fan, s]() { RunFanOutCompletion(*fan, s); });
    }
}

void
SimTransport::RunFanOutCompletion(FanOut& fan, std::size_t slot)
{
    std::uint32_t next = fan.completions[slot].head;
    while (next != FanOut::kNone) {
        const std::uint32_t i = next;
        FanOut::Item& item = fan.items[i];
        next = item.next_completion;
        Payload response;
        response.swap(item.response);
        // A timeout at or before this ms already answered the item.
        if ((item.flags & FanOut::kDone) != 0) continue;
        item.flags |= FanOut::kDone;
        CountOk();
        fan.on_ok(i, response);
    }
}

std::size_t
SimTransport::CallBatch(std::vector<BatchItem> batch)
{
    if (batch.empty()) return 0;
    const std::size_t n = batch.size();
    CountIssued(n);

    // Decide every fate at issue time (as Call does) so the injector's
    // RNG stream and the observer's record reflect issue order.
    std::vector<CallFate> fates(n);
    for (std::size_t i = 0; i < n; ++i) {
        fates[i] = failures_.Decide(batch[i].target);
        if (call_observer_) {
            call_observer_(batch[i].target, fates[i], sim_.Now());
        }
    }

    const SimTime latency = options_.request_latency.Sample(rng_);
    sim_.ScheduleAfter(
        latency,
        [this, batch = std::move(batch), fates = std::move(fates)]() {
            for (std::size_t i = 0; i < batch.size(); ++i) {
                // Re-resolve at delivery time, exactly like Call: an
                // endpoint that crashed while the batch was in flight
                // drops its items.
                if (fates[i] != CallFate::kOk ||
                    !IsRegistered(batch[i].target)) {
                    CountError();
                    continue;
                }
                handlers_[batch[i].target](batch[i].payload);
                CountOk();
            }
        });
    return n;
}

void
SimTransport::Snapshot(Archive& ar) const
{
    ar.U64(calls_issued());
    ar.U64(calls_succeeded());
    ar.U64(calls_failed());
    ar.U64(endpoints_.size());
    SnapshotRng(ar, rng_);
    failures_.Snapshot(ar);
}

}  // namespace dynamo::rpc
