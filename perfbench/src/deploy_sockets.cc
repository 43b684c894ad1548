/**
 * @file
 * deploy-sockets: one agent daemon (daemon::Daemon, the body of
 * dynamo_agentd) serving the agents of every RPP over a unix socket,
 * and a client in this process running the open-loop pull schedule of
 * one leaf controller per RPP: every period each leaf sends one
 * api::PowerReadRequest to each of its agents, the leaves staggered
 * evenly across the period as a deployment staggers them. Each cycle
 * is timed from when it was due, so a stall also charges the cycles
 * queued behind it. The wire codec, SocketTransport and the daemon loop
 * do the work; the simulation kernel does almost none.
 *
 * Daemon and client share one thread: the client steps the daemon
 * between its own non-blocking polls while a cycle is in flight, and
 * sleeps between cycles until kSpinLead before the next one is due. On
 * a shared VM every thread wake-up costs however long the host takes to
 * run the sleeping vCPU again, which follows the other tenants' load.
 * One thread that wakes ahead of time keeps those wake-ups out of the
 * cycle times.
 */
#include <unistd.h>

#include <algorithm>
#include <any>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/api.h"
#include "core/deployment.h"
#include "daemon/daemon.h"
#include "episode.h"
#include "fleet/spec_parser.h"
#include "rpc/socket_transport.h"
#include "rpc/wire.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dynamo;
namespace wire = dynamo::rpc::wire;

fleet::FleetSpec
DeploySpec(const DeploySocketsSize& size, std::uint64_t seed)
{
    fleet::FleetSpec spec;
    spec.scope = fleet::FleetScope::kSb;
    spec.topology.rpps_per_sb = size.rpps;
    spec.servers_per_rpp = size.servers_per_rpp;
    spec.seed = MixSeed(seed, 3);
    return spec;
}

/** Cycles per block of pull_p50_ms: about 2.5 s of a run. */
constexpr std::size_t kBlockCycles = 200;

/** How long before a cycle is due the client stops sleeping. */
constexpr auto kSpinLead = std::chrono::milliseconds(2);

/**
 * One agent daemon, stepped by the thread that runs the pull client. Its
 * poll budget is 0, so a Step never blocks.
 */
class AgentHost
{
  public:
    explicit AgentHost(daemon::Daemon::Options options)
        : address_(options.listen),
          daemon_(std::move(options)),
          wall_start_(Clock::now()),
          sim_start_(daemon_.sim().Now())
    {
    }

    AgentHost(const AgentHost&) = delete;
    AgentHost& operator=(const AgentHost&) = delete;

    daemon::Daemon& daemon() { return daemon_; }
    const std::string& address() const { return address_; }

    /** One loop pass; it never blocks. */
    void Step()
    {
        const Clock::time_point t0 = Clock::now();
        daemon_.Step();
        step_us_ += std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    }

    /** Wall time spent in Step so far, microseconds. */
    double step_us() const { return step_us_; }

    /** Sim seconds the daemon's bridged clock advanced per wall second. */
    double clock_rate()
    {
        const double wall = SecondsSince(wall_start_);
        return wall > 0.0
                   ? static_cast<double>(daemon_.sim().Now() - sim_start_) / 1e3 / wall
                   : 0.0;
    }

  private:
    std::string address_;
    daemon::Daemon daemon_;
    double step_us_ = 0.0;
    Clock::time_point wall_start_;
    SimTime sim_start_ = 0;
};

/** One leaf's fan-out of reads to its agents. */
struct Cycle
{
    std::size_t leaf = 0;
    Clock::time_point due;
    Clock::time_point issue_start;
    Clock::time_point issue_end;
    Clock::time_point last_reply;
    std::size_t pending = 0;
    std::size_t failed = 0;
    /** Wall time of the daemon's loop passes while the cycle was open. */
    double daemon_us = 0.0;
};

/**
 * The client half: a SocketTransport routed to every agent, issuing
 * each leaf's fan-out and checking every reply. It steps the daemon on
 * its own thread between its polls, and callbacks fire inside PollOnce
 * on that thread, so nothing here is shared across threads.
 */
class PullClient
{
  public:
    /** Leaf i pulls the agents under leaf_devices[i], served by `host`. */
    PullClient(AgentHost& host, const std::vector<std::string>& leaf_devices,
               SimTime rpc_timeout_ms, SimTime response_wait_ms)
        : host_(host),
          rpc_timeout_ms_(rpc_timeout_ms),
          response_wait_(std::chrono::milliseconds(response_wait_ms)),
          leaves_(leaf_devices.size())
    {
        const rpc::SocketAddress address = rpc::SocketAddress::Parse(host.address());
        for (std::size_t i = 0; i < leaf_devices.size(); ++i) {
            for (server::SimServer* srv :
                 host.daemon().layout().ServersUnder(leaf_devices[i])) {
                const std::string name = core::Deployment::AgentEndpoint(srv->name());
                transport_.AddRoute(name, address);
                leaves_[i].push_back({transport_.Resolve(name), name});
            }
        }
    }

    std::size_t leaves() const { return leaves_.size(); }

    std::size_t agents() const
    {
        std::size_t n = 0;
        for (const auto& leaf : leaves_) n += leaf.size();
        return n;
    }

    rpc::SocketTransport& transport() { return transport_; }

    /** Issue cycle `index` of `cycles` (its leaf's fan-out) now. */
    void Issue(std::vector<Cycle>& cycles, std::size_t index)
    {
        Cycle& c = cycles[index];
        const std::vector<Agent>& agents = leaves_[c.leaf];
        c.issue_start = Clock::now();
        c.pending = agents.size();
        for (const Agent& agent : agents) {
            transport_.Call(
                agent.id, api::PowerReadRequest{},
                [this, &cycles, index, &agent](const rpc::Payload& payload) {
                    const auto* read = std::any_cast<api::PowerReadResult>(&payload);
                    const bool ok = read != nullptr && read->status.ok() &&
                                    core::Deployment::AgentEndpoint(read->source) ==
                                        agent.name &&
                                    read->power > 0.0;
                    Complete(cycles[index], ok);
                },
                [this, &cycles, index](const std::string&) {
                    Complete(cycles[index], false);
                },
                rpc_timeout_ms_);
        }
        c.issue_end = Clock::now();
        c.daemon_us = -host_.step_us();
        reads_issued_ += agents.size();
        open_cycles_ += c.pending > 0 ? 1 : 0;
    }

    /** No issued cycle is waiting for replies. */
    bool idle() const { return open_cycles_ == 0; }

    /**
     * Step the daemon once, then poll the client's sockets once, neither
     * blocking. Poll passes that dispatched replies count toward
     * socket.polls_per_pull.
     */
    void Pump()
    {
        host_.Step();
        if (transport_.PollOnce(0) > 0) ++polls_;
    }

    /** Pump until every issued cycle completed or `deadline` passes. */
    bool Drain(Clock::time_point deadline)
    {
        while (Clock::now() < deadline) {
            if (idle()) return true;
            Pump();
        }
        return false;
    }

    std::uint64_t reads_issued() const { return reads_issued_; }
    std::uint64_t reads_ok() const { return reads_ok_; }
    std::uint64_t reads_bad() const { return reads_bad_; }
    std::uint64_t reads_late() const { return reads_late_; }
    std::uint64_t polls() const { return polls_; }

  private:
    void Complete(Cycle& c, bool ok)
    {
        const Clock::time_point now = Clock::now();
        if (ok && now - c.issue_start > response_wait_) {
            ++reads_late_;  // a leaf would have aggregated without it
            ok = false;
        }
        if (ok) {
            ++reads_ok_;
        } else {
            ++reads_bad_;
            ++c.failed;
        }
        c.last_reply = now;
        if (--c.pending == 0) {
            --open_cycles_;
            c.daemon_us += host_.step_us();
        }
    }

    struct Agent
    {
        rpc::EndpointId id;
        std::string name;
    };

    AgentHost& host_;
    rpc::SocketTransport transport_;
    SimTime rpc_timeout_ms_;
    Clock::duration response_wait_;
    std::vector<std::vector<Agent>> leaves_;
    std::uint64_t reads_issued_ = 0;
    std::uint64_t reads_ok_ = 0;
    std::uint64_t reads_bad_ = 0;
    std::uint64_t reads_late_ = 0;
    std::uint64_t polls_ = 0;
    std::size_t open_cycles_ = 0;
};

/** Issued cycles that have not completed, counting up to `limit` + 1. */
std::size_t
Backlog(const std::vector<Cycle>& cycles, std::size_t limit)
{
    std::size_t open = 0;
    for (auto it = cycles.rbegin(); it != cycles.rend() && open <= limit; ++it) {
        open += it->pending > 0 ? 1 : 0;
    }
    return open;
}

/** Per-message wire cost on a representative read request and result. */
void
MeasureWireCodec(RunResult& result)
{
    api::PowerReadResult read;
    read.source = "sb0/rpp0/s0";
    read.power = 312.5;
    read.service = workload::ServiceType::kWeb;
    read.power_limit = 400.0;
    read.cpu_power = 180.25;
    read.memory_power = 40.5;
    read.other_power = 70.0;
    read.conversion_loss = 21.75;

    wire::Frame request;
    request.kind = wire::FrameKind::kRequest;
    request.type = wire::MessageType::kPowerReadRequest;
    request.target = "agent:sb0/rpp0/s0";
    wire::Frame response;
    response.kind = wire::FrameKind::kResponse;
    response.type = wire::MessageType::kPowerReadResult;

    constexpr int kRounds = 20'000;
    std::size_t sink = 0;
    std::string request_bytes, response_bytes;
    const Clock::time_point e0 = Clock::now();
    for (int i = 0; i < kRounds; ++i) {
        request.call_id = static_cast<std::uint64_t>(i) + 1;
        request.payload = wire::EncodeBody(std::any(api::PowerReadRequest{}));
        request_bytes = wire::EncodeFrame(request);
        response.call_id = request.call_id;
        response.payload = wire::EncodeBody(std::any(read));
        response_bytes = wire::EncodeFrame(response);
        sink += request_bytes.size() + response_bytes.size();
    }
    const double encode_ns =
        std::chrono::duration<double, std::nano>(Clock::now() - e0).count() / kRounds;
    const Clock::time_point d0 = Clock::now();
    for (int i = 0; i < kRounds; ++i) {
        const wire::Frame req = wire::DecodeFrame(request_bytes);
        const std::any req_body = wire::DecodeBody(req.type, req.payload);
        const wire::Frame res = wire::DecodeFrame(response_bytes);
        const std::any res_body = wire::DecodeBody(res.type, res.payload);
        sink += req.target.size() +
                std::any_cast<const api::PowerReadResult&>(res_body).source.size() +
                (req_body.has_value() ? 1 : 0);
    }
    const double decode_ns =
        std::chrono::duration<double, std::nano>(Clock::now() - d0).count() / kRounds;
    result.Set("wire.encode_ns", encode_ns);
    result.Set("wire.decode_ns", decode_ns);
    result.notes.push_back("wire codec: " + std::to_string(kRounds) +
                           " request+result pairs, " +
                           std::to_string(request_bytes.size()) + " + " +
                           std::to_string(response_bytes.size()) +
                           " bytes per pair (checksum " + std::to_string(sink % 9973) +
                           ")");
}

}  // namespace

RunResult
RunDeploySockets(const DeploySocketsSize& size, const RunOptions& options)
{
    const fleet::FleetSpec spec = DeploySpec(size, options.seed);
    const std::string spec_text = fleet::SerializeFleetSpec(spec);
    const SimTime rpc_timeout = spec.deployment.leaf.base.rpc_timeout;
    const SimTime response_wait = spec.deployment.leaf.base.response_wait;
    // One leaf per RPP; one daemon serves the whole SB.
    std::vector<std::string> devices;
    for (std::size_t i = 0; i < size.rpps; ++i) {
        devices.push_back("sb0/rpp" + std::to_string(i));
    }

    RunResult result;
    Tracer tracer(options.trace, MixSeed(options.seed, 99));
    std::unique_ptr<AgentHost> host;
    std::unique_ptr<PullClient> client;
    std::vector<std::string> socket_paths;
    std::vector<double> setups, builds, connects;

    // --- Set-up, several times; the last one stays up. ---
    for (int s = 0; s < size.setups; ++s) {
        client.reset();
        host.reset();
        const SpanId setup_span = tracer.Begin("setup.episode");
        const Clock::time_point t0 = Clock::now();
        {
            ScopedSpan span(tracer, "setup.build", setup_span);
            daemon::Daemon::Options o;
            o.role = daemon::Daemon::Role::kAgent;
            o.spec_text = spec_text;
            o.device = "sb0";
            o.poll_budget_ms = 0;
            const std::string path = options.scratch_dir + "/pb" +
                                     std::to_string(::getpid()) + "-" +
                                     std::to_string(s) + ".sock";
            socket_paths.push_back(path);
            o.listen = "unix:" + path;
            host = std::make_unique<AgentHost>(std::move(o));
            client = std::make_unique<PullClient>(*host, devices, rpc_timeout,
                                                  response_wait);
        }
        const double build_s = SecondsSince(t0);
        const Clock::time_point c0 = Clock::now();
        bool connected = false;
        {
            ScopedSpan span(tracer, "setup.connect", setup_span);
            std::vector<Cycle> first(client->leaves());
            for (std::size_t leaf = 0; leaf < first.size(); ++leaf) {
                first[leaf].leaf = leaf;
                first[leaf].due = Clock::now();
                client->Issue(first, leaf);
            }
            connected = client->Drain(Clock::now() + std::chrono::seconds(10));
            for (const Cycle& c : first) connected = connected && c.failed == 0;
        }
        tracer.End(setup_span);
        result.Check(connected, "set-up " + std::to_string(s) +
                                    ": first pull did not succeed on every agent");
        if (!connected) break;
        connects.push_back(SecondsSince(c0));
        builds.push_back(build_s);
        setups.push_back(SecondsSince(t0));
    }

    // --- Measured phase: open-loop pulls at a fixed period. ---
    std::vector<Cycle> cycles;
    std::vector<double> daemon_us;
    // Leaf k % leaves is due every `slot`: each leaf once per period.
    const auto slot = std::chrono::duration_cast<Clock::duration>(
        std::chrono::milliseconds(size.period_ms)) / static_cast<int>(size.rpps);
    const std::uint64_t polls_before = client ? client->polls() : 0;
    const Clock::time_point measure_start = Clock::now();
    const Clock::time_point measure_end =
        measure_start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(options.seconds));
    if (client && result.correct()) {
        // Cycle storage must not move while callbacks hold indices.
        const std::size_t max_cycles =
            static_cast<std::size_t>(options.seconds * 1e3 / size.period_ms) * size.rpps +
            size.rpps;
        cycles.reserve(max_cycles);
        // Cycles that fit in one leaf response wait: a run with more in
        // flight can only produce late reads from then on.
        const std::size_t max_backlog = std::max<std::size_t>(
            1, static_cast<std::size_t>(response_wait / size.period_ms) * size.rpps);
        Clock::time_point next_due = measure_start + slot;
        for (;;) {
            const Clock::time_point now = Clock::now();
            if (now >= next_due) {
                if (now >= measure_end || cycles.size() == max_cycles) break;
                if (Backlog(cycles, max_backlog) > max_backlog) {
                    // Reads older than the response wait have failed
                    // anyway; an open loop would queue without bound.
                    result.Check(false, "more than " + std::to_string(max_backlog) +
                                            " pull cycles in flight (one response "
                                            "wait): the fan-out does not keep up "
                                            "with the period");
                    break;
                }
                Cycle c;
                c.leaf = cycles.size() % size.rpps;
                c.due = next_due;
                cycles.push_back(c);
                client->Issue(cycles, cycles.size() - 1);
                next_due += slot;
                continue;
            }
            if (client->idle() && next_due - now > kSpinLead) {
                std::this_thread::sleep_until(next_due - kSpinLead);
                continue;
            }
            client->Pump();
        }
        const std::uint64_t polls = client->polls() - polls_before;
        const bool drained =
            client->Drain(Clock::now() + std::chrono::milliseconds(2 * rpc_timeout));
        result.Check(drained, "pull cycles still open after the RPC timeout");

        // The loop takes the same timestamps traced or not, and spans
        // are recorded only after it, so tracing cannot slow a cycle.
        std::vector<double> latency_ms, issue_us, wait_us, late_ms;
        for (const Cycle& c : cycles) {
            if (c.pending > 0) continue;
            latency_ms.push_back(
                std::chrono::duration<double, std::milli>(c.last_reply - c.due).count());
            if (!options.trace) continue;
            daemon_us.push_back(c.daemon_us);
            issue_us.push_back(
                std::chrono::duration<double, std::micro>(c.issue_end - c.issue_start)
                    .count());
            wait_us.push_back(
                std::chrono::duration<double, std::micro>(c.last_reply - c.issue_end)
                    .count());
            late_ms.push_back(
                std::chrono::duration<double, std::milli>(c.issue_start - c.due).count());
            const SpanId span = tracer.Record("pull.cycle", 0, c.due, c.last_reply);
            tracer.Record("pull.issue", span, c.issue_start, c.issue_end);
            const SpanId wait = tracer.Record("pull.wait", span, c.issue_end, c.last_reply);
            // The daemon's passes interleave with the client's polls;
            // their total is laid out as one derived child.
            tracer.Record("daemon.serve", wait, c.issue_end,
                          c.issue_end + std::chrono::nanoseconds(
                                            static_cast<std::int64_t>(c.daemon_us * 1e3)),
                          true);
        }

        SetPullMetrics(result, latency_ms, kBlockCycles,
                       "one leaf's fan-out, due to last reply (" +
                           std::to_string(client->agents()) + " agents on one daemon, " +
                           std::to_string(client->leaves()) + " leaves every " +
                           std::to_string(size.period_ms) + " ms, " +
                           std::to_string(cycles.size()) + " cycles issued)");

        const double reads = static_cast<double>(client->reads_ok());
        const double calls = static_cast<double>(client->transport().calls_issued());
        if (options.trace) {
            double late_sum = 0.0;
            for (double v : late_ms) late_sum += v;
            result.Set("pull.issue_us", Median(issue_us));
            result.Set("pull.wait_us", Median(wait_us));
            result.Set("pull.gen_late_ms",
                       late_ms.empty() ? 0.0 : late_sum / static_cast<double>(late_ms.size()));
            result.Set("socket.polls_per_pull",
                       Ratio(static_cast<double>(polls), static_cast<double>(cycles.size())));
            result.Set("rpc.calls", calls);
            result.Set("rpc.calls_per_read", Ratio(calls, reads));
            result.Set("rpc.failed",
                       static_cast<double>(client->transport().calls_failed()));
            result.Set("agent.reads", reads);
            result.Set("trace.overhead_pct", 0.0);
        }
        result.failures.Add(client->reads_issued(),
                            client->reads_issued() - client->reads_ok());
        result.Check(client->reads_bad() == 0,
                     std::to_string(client->reads_bad()) + " of " +
                         std::to_string(client->reads_issued()) +
                         " reads failed, were malformed, or missed the " +
                         std::to_string(response_wait) + " ms response wait (" +
                         std::to_string(client->reads_late()) + " late)");
    }

    client.reset();
    const double clock_rate = host ? host->clock_rate() : 0.0;
    host.reset();
    for (const std::string& path : socket_paths) {
        std::error_code ignored;
        std::filesystem::remove(path, ignored);
    }

    result.Set("sim_speed", clock_rate);
    result.Set("setup_s", Median(setups));
    result.Set("peak_rss_mb", PeakRssMiB());
    if (options.trace) {
        const Summary steps = Summarize(daemon_us);
        result.Set("daemon.step_us_p50", steps.p50);
        result.Set("daemon.step_us_p99", steps.tail);
        result.Set("setup.build_s", Median(builds));
        result.Set("setup.connect_s", Median(connects));
        MeasureWireCodec(result);
        char note[200];
        std::snprintf(note, sizeof(note),
                      "bases: daemon time of %zu cycles (tail p%d), %zu set-ups",
                      steps.count, steps.tail_percentile, setups.size());
        result.notes.push_back(note);
        FinishTracedRun(result, tracer, options);
    }
    return result;
}

}  // namespace perfbench
