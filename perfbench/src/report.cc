#include "report.h"

#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace perfbench {
namespace {

// One row per metric: name, unit, better, end-to-end?, layer, meaning.
const std::vector<MetricDef> kCatalog = {
    // --- End-to-end: what a user of the system sees. ---
    {"sim_speed", "sim-s/s", "higher", true, "all",
     "simulated seconds per wall second of the typical episode, each slice "
     "or window at its median over the run's episodes (the deployment "
     "daemon's bridged clock on deploy-sockets)"},
    {"setup_s", "s", "lower", true, "all",
     "construction to first measured step, median of the run's set-ups"},
    {"peak_rss_mb", "MiB", "lower", true, "all",
     "peak resident memory of the benchmark process"},
    {"pull_p50_ms", "ms", "lower", true, "all",
     "median wall time of one pull cycle: a fleet-wide simulated 3 s pull "
     "period, or one socket fan-out timed from when it was due; the median "
     "over blocks (episodes, or 200 socket cycles) of each block's median"},

    // --- sim: the event kernel. ---
    {"sim.events", "count", "lower", false, "sim",
     "kernel events executed in one measured episode"},
    {"sim.events_per_read", "ratio", "lower", false, "sim",
     "kernel events per agent power read"},
    {"sim.ns_per_event", "ns", "lower", false, "sim",
     "measured-phase wall time per kernel event"},
    {"sim.cascades", "count", "lower", false, "sim",
     "timing-wheel slots cascaded down (serial engine)"},
    {"sim.far_drains", "count", "lower", false, "sim",
     "events drained from the far heap (serial engine)"},
    {"sim.purges", "count", "lower", false, "sim",
     "eager cancelled-backlog purges (serial engine)"},
    {"sim.slot_sorts", "count", "lower", false, "sim",
     "L0 chains re-sorted for sequence order (serial engine)"},

    // --- rpc: SimTransport, or the client SocketTransport. ---
    {"rpc.calls", "count", "lower", false, "rpc", "RPC calls issued"},
    {"rpc.calls_per_read", "ratio", "lower", false, "rpc",
     "RPC calls per agent power read"},
    {"rpc.failed", "count", "lower", false, "rpc",
     "RPC calls ending in error or timeout"},

    // --- core: agents and servers. ---
    {"agent.reads", "count", "lower", false, "core",
     "power reads served by agents"},
    {"agent.caps", "count", "lower", false, "core", "RAPL cap writes"},
    {"agent.uncaps", "count", "lower", false, "core", "RAPL uncap writes"},

    // --- core leaf/upper controllers and the policy planner. ---
    {"leaf.cycles", "count", "lower", false, "core", "leaf pull cycles"},
    {"leaf.cycle_us_p50", "us", "lower", false, "core",
     "median wall time of one leaf RunCycle"},
    {"leaf.cycle_us_p99", "us", "lower", false, "core",
     "leaf RunCycle wall time at the tail percentile"},
    {"leaf.busy_share", "ratio", "lower", false, "core",
     "leaf RunCycle wall time over measured wall time"},
    {"upper.cycles", "count", "lower", false, "core", "upper pull cycles"},
    {"upper.cycle_us_p50", "us", "lower", false, "core",
     "median wall time of one upper RunCycle"},
    {"upper.cycle_us_p99", "us", "lower", false, "core",
     "upper RunCycle wall time at the tail percentile"},
    {"upper.busy_share", "ratio", "lower", false, "core",
     "upper RunCycle wall time over measured wall time"},
    {"leaf.capped_servers", "count", "lower", false, "core",
     "servers under a leaf-issued RAPL cap at the end of the episode"},
    {"leaf.invalid_aggregations", "count", "lower", false, "core",
     "leaf aggregations rejected as invalid"},
    {"leaf.capping_share", "ratio", "higher", false, "core",
     "share of leaves capping at the end of the episode"},

    // --- fleet: the sharded engine and its barrier. ---
    {"fleet.window_ms_quiet", "ms", "lower", false, "fleet",
     "median wall time of one 9 s window before the surge"},
    {"fleet.window_ms_capping", "ms", "lower", false, "fleet",
     "median wall time of one 9 s window with >= 90% of leaves capping"},
    {"fleet.contracts_forwarded", "count", "lower", false, "fleet",
     "contract updates forwarded across shards"},
    {"fleet.reads_proxied", "count", "lower", false, "fleet",
     "upper-to-leaf reads answered by barrier proxies"},
    {"barrier.window_run_s", "s", "lower", false, "fleet",
     "wall time in the parallel window region"},
    {"barrier.serial_share", "ratio", "lower", false, "fleet",
     "barrier time over total run time"},
    {"barrier.record_s", "s", "lower", false, "fleet",
     "barrier stage: digest merge and journal record"},
    {"barrier.proxy_publish_s", "s", "lower", false, "fleet",
     "barrier stage: publish dirty leaf snapshots"},
    {"barrier.mailbox_drain_s", "s", "lower", false, "fleet",
     "barrier stage: batched mailbox re-issue"},
    {"barrier.checkpoint_s", "s", "lower", false, "fleet",
     "barrier stage: checkpoint snapshot"},
    {"barrier.mailbox_messages", "count", "lower", false, "fleet",
     "mailbox messages re-issued"},
    {"barrier.proxy_leaves_published", "count", "lower", false, "fleet",
     "leaf snapshots copied to proxies"},

    // --- replay: the journal. ---
    {"journal.bytes", "bytes", "lower", false, "replay",
     "encoded DYNJRNL1 journal size"},
    {"journal.encode_ms", "ms", "lower", false, "replay",
     "wall time of EncodeJournal"},

    // --- rpc wire/socket and daemon. ---
    {"pull.p99_ms", "ms", "lower", false, "rpc",
     "pull cycle wall time at the highest percentile (at most p99) with "
     ">= 10 samples beyond it, from the run's untraced episodes (all cycles "
     "on deploy-sockets)"},
    {"pull.issue_us", "us", "lower", false, "rpc",
     "median wall time to issue one fan-out"},
    {"pull.wait_us", "us", "lower", false, "rpc",
     "median wall time from issue end to the last reply"},
    {"pull.gen_late_ms", "ms", "lower", false, "rpc",
     "mean lateness of the open-loop generator behind schedule"},
    {"socket.polls_per_pull", "ratio", "lower", false, "rpc",
     "client PollOnce passes that delivered replies, per pull cycle"},
    {"wire.encode_ns", "ns", "lower", false, "rpc",
     "encode one read request frame plus one read result frame"},
    {"wire.decode_ns", "ns", "lower", false, "rpc",
     "decode one read request frame plus one read result frame"},
    {"daemon.step_us_p50", "us", "lower", false, "daemon",
     "median over pull cycles of the wall time the daemon spent in Step "
     "while the cycle was open"},
    {"daemon.step_us_p99", "us", "lower", false, "daemon",
     "same, at the tail percentile"},

    // --- set-up split. ---
    {"setup.build_s", "s", "lower", false, "setup",
     "fleet or daemon construction"},
    {"setup.scenario_s", "s", "lower", false, "setup",
     "scenario schedule applied to the fleet"},
    {"setup.connect_s", "s", "lower", false, "setup",
     "client connect and first successful pull"},

    // --- run-level figures that can read 0. ---
    {"trace.overhead_pct", "%", "lower", false, "bench",
     "traced-over-untraced slowdown of sim_speed; 0 on deploy-sockets, whose "
     "spans are recorded after the measured loop"},
    {"work_loss_pct", "%", "lower", false, "server",
     "1 - delivered/demanded work over all servers in one episode"},
    {"outages", "count", "lower", false, "power",
     "breaker trips in one episode (serial engine)"},
    {"fail_frac", "ratio", "lower", false, "bench",
     "failed operations over attempted ones for the whole run"},
};

const std::vector<std::string> kWorkloads = {"steady-serial", "surge-sharded",
                                             "deploy-sockets"};

std::string
FormatNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
JsonEscape(const std::string& s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) continue;
        out += c;
    }
    return out;
}

double
ValueOrZero(const RunResult& result, const MetricDef& def, bool required)
{
    const auto it = result.values.find(def.name);
    if (it != result.values.end()) return it->second;
    if (required) {
        throw std::logic_error(std::string("metric never measured: ") +
                               def.name);
    }
    return 0.0;
}

}  // namespace

const std::vector<MetricDef>&
MetricCatalog()
{
    return kCatalog;
}

void
RunResult::Check(bool ok, const std::string& what)
{
    failures.Check(ok);
    if (!ok) check_failures.push_back(what);
}

HostStamp
CollectHostStamp(const std::string& git_commit)
{
    HostStamp host;
    host.nproc = std::thread::hardware_concurrency();
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos) {
                host.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
            }
            break;
        }
    }
    if (host.cpu_model.empty()) host.cpu_model = "unknown";
    host.build_type = PERFBENCH_BUILD_TYPE;
#if defined(__clang__)
    host.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    host.compiler = std::string("gcc ") + __VERSION__;
#else
    host.compiler = "unknown";
#endif
#if defined(__OPTIMIZE__) && defined(NDEBUG)
    host.optimized = true;
#endif
    host.git_commit = git_commit.empty() ? "unknown" : git_commit;
    return host;
}

std::string
HostStampJson(const HostStamp& host)
{
    return "{\"nproc\": " + std::to_string(host.nproc) + ", \"cpu\": \"" +
           JsonEscape(host.cpu_model) + "\", \"build_type\": \"" +
           JsonEscape(host.build_type) + "\", \"optimized\": " +
           (host.optimized ? "true" : "false") + ", \"compiler\": \"" +
           JsonEscape(host.compiler) + "\", \"git_commit\": \"" +
           JsonEscape(host.git_commit) + "\"}";
}

double
PeakRssMiB()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string
ResultJson(const RunResult& result, bool traced)
{
    std::string metrics;
    for (const MetricDef& def : kCatalog) {
        if (def.end_to_end == traced) continue;
        const double v =
            ValueOrZero(result, def, def.end_to_end && result.correct());
        if (!metrics.empty()) metrics += ", ";
        metrics += '"';
        metrics += def.name;
        metrics += "\": {\"value\": " + FormatNumber(v) + ", \"unit\": \"" +
                   def.unit + "\"}";
    }
    return "{\"correct\": " + std::string(result.correct() ? "true" : "false") +
           ", \"attempted\": " + std::to_string(result.failures.attempted) +
           ", \"failed\": " + std::to_string(result.failures.failed) +
           ", \"metrics\": {" + metrics + "}}";
}

std::string
MetricLines(const RunResult& result, bool traced)
{
    std::string out;
    char line[256];
    for (const MetricDef& def : kCatalog) {
        if (def.end_to_end == traced) continue;
        const auto it = result.values.find(def.name);
        if (it == result.values.end()) {
            std::snprintf(line, sizeof(line), "  %-30s %14s %-8s (%s)\n",
                          def.name, "n/a", def.unit, def.layer);
        } else {
            std::snprintf(line, sizeof(line), "  %-30s %14.6g %-8s (%s)\n",
                          def.name, it->second, def.unit, def.layer);
        }
        out += line;
    }
    return out;
}

std::string
CatalogJson()
{
    std::string out = "{\"workloads\": [";
    for (std::size_t i = 0; i < kWorkloads.size(); ++i) {
        out += (i ? ", \"" : "\"") + kWorkloads[i] + "\"";
    }
    out += "], \"metrics\": [";
    for (std::size_t i = 0; i < kCatalog.size(); ++i) {
        const MetricDef& d = kCatalog[i];
        if (i) out += ", ";
        out += "{\"name\": \"" + std::string(d.name) + "\", \"unit\": \"" +
               d.unit + "\", \"better\": \"" + d.better +
               "\", \"end_to_end\": " + (d.end_to_end ? "true" : "false") +
               ", \"layer\": \"" + d.layer + "\", \"meaning\": \"" +
               JsonEscape(d.meaning) + "\"}";
    }
    return out + "]}";
}

std::uint64_t
MixSeed(std::uint64_t seed, std::uint64_t salt)
{
    // splitmix64 finalizer over the combined value.
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

}  // namespace perfbench
