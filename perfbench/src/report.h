/**
 * @file
 * What a benchmark run reports: the metric catalog (name, unit, better
 * direction, layer), the per-run result, the host/build stamp, and the
 * final one-line JSON object.
 *
 * The catalog is the single list of metric names in the benchmark;
 * BENCHMARK.json at the repository root must agree with it, which
 * `run.py --self-test` checks through `perfbench --list-metrics`.
 */
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct MetricDef
{
    const char* name;
    const char* unit;
    const char* better;  ///< "higher" or "lower"
    bool end_to_end;     ///< printed untraced; otherwise traced only
    const char* layer;   ///< module of the program the metric reads
    const char* meaning;
};

/** Every metric, end-to-end ones first, in output order. */
const std::vector<MetricDef>& MetricCatalog();

/** What one workload run measured. */
struct RunResult
{
    /** Metric values by catalog name. Unset per-layer metrics read 0
     *  (the layer does no such work on this workload). */
    std::map<std::string, double> values;

    /** Operations and output checks, for fail_frac and the result. */
    FailureCount failures;

    /** Output-check failures, one human-readable line each. */
    std::vector<std::string> check_failures;

    /** Free-form lines printed before the result (bases, tails). */
    std::vector<std::string> notes;

    void Set(const std::string& name, double value) { values[name] = value; }

    /** Record an output check; failures are counted and described. */
    void Check(bool ok, const std::string& what);

    /** True when every output check passed and nothing failed. */
    bool correct() const { return check_failures.empty(); }
};

/** Host and build identity, stamped onto every result. */
struct HostStamp
{
    unsigned nproc = 0;
    std::string cpu_model;
    std::string build_type;
    std::string compiler;
    std::string git_commit;
    bool optimized = false;
};

HostStamp CollectHostStamp(const std::string& git_commit);

std::string HostStampJson(const HostStamp& host);

/** Peak resident set of this process, MiB (getrusage ru_maxrss). */
double PeakRssMiB();

/**
 * The final result line: {"correct", "attempted", "failed", "metrics"}
 * with every end-to-end metric (traced = false) or every per-layer
 * metric (traced = true), each as {"value", "unit"}. Throws
 * std::logic_error when a correct run never set an end-to-end metric:
 * that is a benchmark bug, not a zero. A failed run may stop before
 * measuring; its missing metrics read 0.
 */
std::string ResultJson(const RunResult& result, bool traced);

/** Human-readable "name = value unit" lines for the chosen set. */
std::string MetricLines(const RunResult& result, bool traced);

/** The workloads and the metric catalog as JSON, in BENCHMARK.json's
 *  order (for checking BENCHMARK.json against it). */
std::string CatalogJson();

/** 64-bit mix of a workload seed into a program seed. */
std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t salt);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
