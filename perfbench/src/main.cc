/**
 * @file
 * perfbench: the repository benchmark's measuring program.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-out FILE] [--scratch DIR] [--git-commit SHA]
 *   perfbench --journal-check --seed N     # surge-sharded 1 vs N threads
 *   perfbench --list-metrics               # the metric catalog as JSON
 *
 * A run prints the host/build stamp, one line per episode, the output
 * check failures, every metric by name with its unit, and as its last
 * line one JSON object {"correct", "attempted", "failed", "metrics"}.
 * Untraced runs (--trace 0) report the end-to-end metrics; traced runs
 * report the per-layer metrics, the self-time table, and write the
 * span dump to --trace-out. See perfbench/README.md.
 */
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int
Usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload steady-serial|surge-sharded|"
                 "deploy-sockets --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE] [--scratch DIR] [--git-commit SHA]\n"
                 "       %s --journal-check [--seed N] [--git-commit SHA]\n"
                 "       %s --list-metrics\n",
                 argv0, argv0, argv0);
    return 2;
}

void
PrintReport(const RunResult& result, bool traced)
{
    for (const std::string& note : result.notes) std::printf("%s\n", note.c_str());
    for (const std::string& failure : result.check_failures) {
        std::printf("CHECK FAILED: %s\n", failure.c_str());
    }
    std::printf("attempted %llu operations, %llu failed (fail_frac %.6g)\n",
                static_cast<unsigned long long>(result.failures.attempted),
                static_cast<unsigned long long>(result.failures.failed),
                result.failures.fraction());
    std::printf("%s metrics:\n%s", traced ? "per-layer" : "end-to-end",
                MetricLines(result, traced).c_str());
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string workload;
    std::string trace_out;
    std::string scratch = ".";
    std::string git_commit;
    std::uint64_t seed = 1;
    double seconds = 30.0;
    int trace = 0;
    bool journal_check = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--workload") {
            workload = next();
        } else if (arg == "--seed") {
            seed = std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            seconds = std::strtod(next().c_str(), nullptr);
        } else if (arg == "--trace") {
            trace = std::atoi(next().c_str());
        } else if (arg == "--trace-out") {
            trace_out = next();
        } else if (arg == "--scratch") {
            scratch = next();
        } else if (arg == "--git-commit") {
            git_commit = next();
        } else if (arg == "--journal-check") {
            journal_check = true;
        } else if (arg == "--list-metrics") {
            std::printf("%s\n", CatalogJson().c_str());
            return 0;
        } else {
            return Usage(argv[0]);
        }
    }
    if (!journal_check && workload.empty()) return Usage(argv[0]);
    if (seconds <= 0.0 || (trace != 0 && trace != 1)) return Usage(argv[0]);

    const HostStamp host = CollectHostStamp(git_commit);
    std::printf("host: %s\n", HostStampJson(host).c_str());
    if (!host.optimized) {
        std::fprintf(stderr,
                     "warning: perfbench was built without optimisation "
                     "(build type '%s'); its timings are not comparable\n",
                     host.build_type.c_str());
    }

    try {
        if (journal_check) {
            std::printf("surge-sharded journal check, seed %llu\n",
                        static_cast<unsigned long long>(seed));
            std::fflush(stdout);
            const RunResult r = CheckSurgeJournalIdentity(SurgeShardedSize{}, seed);
            for (const std::string& note : r.notes) std::printf("%s\n", note.c_str());
            for (const std::string& f : r.check_failures) {
                std::printf("CHECK FAILED: %s\n", f.c_str());
            }
            std::printf("journal check %s\n", r.correct() ? "passed" : "FAILED");
            return r.correct() ? 0 : 1;
        }

        RunOptions options;
        options.seed = seed;
        options.seconds = seconds;
        options.trace = trace == 1;
        options.trace_path = trace_out;
        options.scratch_dir = scratch;
        std::printf("perfbench %s: seed %llu, %.3g s, trace %d\n",
                    workload.c_str(), static_cast<unsigned long long>(seed),
                    seconds, trace);
        std::fflush(stdout);

        RunResult result;
        if (workload == "steady-serial") {
            result = RunSteadySerial(SteadySerialSize{}, options);
        } else if (workload == "surge-sharded") {
            result = RunSurgeSharded(SurgeShardedSize{}, options);
        } else if (workload == "deploy-sockets") {
            result = RunDeploySockets(DeploySocketsSize{}, options);
        } else {
            std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
            return Usage(argv[0]);
        }
        PrintReport(result, options.trace);
        if (options.trace && !trace_out.empty()) {
            std::printf("span dump: %s\n", trace_out.c_str());
        }
        std::printf("%s\n", ResultJson(result, options.trace).c_str());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
