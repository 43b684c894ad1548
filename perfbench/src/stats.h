/**
 * @file
 * Order statistics for the benchmark: medians, the tail percentile a
 * sample set can support, and the failure fraction with its base.
 *
 * The tail rule follows the benchmark's method: report the highest
 * percentile that still has at least ten samples beyond it, capped at
 * p99 (or lower), and always say how many samples it came from. With
 * 1000 pull cycles that is p99; with 60 simulated pull periods it is p83.
 */
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/** Samples that must lie strictly beyond a reported tail percentile. */
inline constexpr std::size_t kTailBeyond = 10;

/**
 * Highest whole percentile in [50, cap] with at least kTailBeyond
 * samples beyond its nearest-rank value, for `n` samples. Returns 50
 * when even the median cannot satisfy the rule (n < 20), so callers
 * always get a defined figure; 0 for no samples.
 */
int TailPercentile(std::size_t n, int cap = 99);

/**
 * Nearest-rank percentile `p` (0 < p <= 100) of `values`: the smallest
 * value with at least p% of the samples at or below it. 0 when empty.
 * Unlike the interpolating dynamo::Percentile, the result is always a
 * measured sample, so "ten samples beyond it" counts real samples.
 */
double Percentile(std::vector<double> values, double p);

/** Percentile(values, 50). */
double Median(const std::vector<double>& values);

/** num / den, or 0 when the base is empty. */
inline double
Ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** A timing summary: median, tail at TailPercentile, sample count. */
struct Summary
{
    std::size_t count = 0;
    double p50 = 0.0;
    int tail_percentile = 0;
    double tail = 0.0;
};

Summary Summarize(const std::vector<double>& values, int cap = 99);

/**
 * Failed operations over attempted ones, with the base kept so a
 * ratio is never quoted without it. Operations are RPCs, leaf
 * aggregations, timed reads and output checks, depending on the
 * workload; each failed one also counts as attempted.
 */
struct FailureCount
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Count `n` operations of which `bad` failed. */
    void Add(std::uint64_t n, std::uint64_t bad)
    {
        attempted += n;
        failed += bad;
    }

    /** One output check: attempted once, failed unless `ok`. */
    void Check(bool ok) { Add(1, ok ? 0 : 1); }

    /** failed / attempted; 0 when nothing was attempted. */
    double fraction() const
    {
        return attempted > 0 ? static_cast<double>(failed) /
                                   static_cast<double>(attempted)
                             : 0.0;
    }
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
