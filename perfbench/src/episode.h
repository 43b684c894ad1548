/**
 * @file
 * Episode scheduling shared by the workloads: repeat whole episodes
 * until the run's wall-time budget is spent, alternating untraced and
 * traced episodes in a traced run, and reduce per-episode figures to
 * medians.
 */
#ifndef PERFBENCH_EPISODE_H_
#define PERFBENCH_EPISODE_H_

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "report.h"
#include "stats.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {

class EpisodeLoop
{
  public:
    /**
     * `min_untraced` untraced episodes always run (set-up is reported
     * as a median, so it needs several); a traced run also needs one
     * traced episode.
     */
    EpisodeLoop(const RunOptions& options, int min_untraced)
        : options_(options), min_untraced_(min_untraced), start_(Clock::now())
    {
    }

    /** Advance to the next episode; false once the run is done. */
    bool Next()
    {
        if (index_ >= 0) (traced() ? traced_done_ : untraced_done_)++;
        const bool budget_spent = SecondsSince(start_) >= options_.seconds;
        const bool enough = untraced_done_ >= min_untraced_ &&
                            (!options_.trace || traced_done_ >= 1);
        if (index_ >= 0 && budget_spent && enough) return false;
        ++index_;
        return true;
    }

    /** Odd episodes of a traced run are traced; the first never is. */
    bool traced() const { return options_.trace && index_ % 2 == 1; }

    int index() const { return index_; }

  private:
    const RunOptions& options_;
    int min_untraced_;
    Clock::time_point start_;
    int index_ = -1;
    int untraced_done_ = 0;
    int traced_done_ = 0;
};

/** Per-episode named figures, reduced to a median per name. */
class EpisodeMedians
{
  public:
    void Add(const std::map<std::string, double>& episode)
    {
        for (const auto& [name, value] : episode) samples_[name].push_back(value);
    }

    std::map<std::string, double> Medians() const
    {
        std::map<std::string, double> out;
        for (const auto& [name, values] : samples_) out[name] = Median(values);
        return out;
    }

  private:
    std::map<std::string, std::vector<double>> samples_;
};

/**
 * The typical episode: for each position in an episode (a slice or a
 * window, in run order) the median of its wall time over `episodes`.
 * Every episode runs the same simulated work, so a position's times
 * differ only by the host; a stall moves a position's median only when
 * it hits that position in half of the episodes.
 */
inline std::vector<double>
TypicalEpisode(const std::vector<std::vector<double>>& episodes)
{
    std::vector<double> typical;
    for (std::size_t k = 0; !episodes.empty() && k < episodes.front().size(); ++k) {
        std::vector<double> at;
        for (const std::vector<double>& e : episodes) at.push_back(e[k]);
        typical.push_back(Median(at));
    }
    return typical;
}

/**
 * Set pull_p50_ms and pull.p99_ms from one wall time per pull cycle, and
 * note which percentile the tail is and how many cycles it comes from.
 * The cycles come in consecutive blocks of `block` (an episode's slices
 * or windows, or a stretch of socket cycles; a shorter last block joins
 * the one before it). pull_p50_ms is the median over blocks of each
 * block's median, so a host stall that slows a few blocks moves it
 * little. pull.p99_ms is the highest percentile up to p99 with ten
 * cycles beyond it, over all cycles; it carries no bound, because on a
 * shared host the tail of a millisecond cycle follows the other
 * tenants' load.
 */
inline void
SetPullMetrics(RunResult& result, const std::vector<double>& cycle_ms,
               std::size_t block, const std::string& cycle)
{
    const std::size_t n_blocks = std::max<std::size_t>(1, cycle_ms.size() / block);
    std::vector<double> p50s;
    for (std::size_t b = 0; b < n_blocks; ++b) {
        const auto first = cycle_ms.begin() + static_cast<std::ptrdiff_t>(b * block);
        const auto last = b + 1 == n_blocks ? cycle_ms.end()
                                            : first + static_cast<std::ptrdiff_t>(block);
        p50s.push_back(Median(std::vector<double>(first, last)));
    }
    const Summary all = Summarize(cycle_ms);
    result.Set("pull_p50_ms", Median(p50s));
    result.Set("pull.p99_ms", all.tail);
    result.notes.push_back("pull cycle = " + cycle + "; p50 is the median of " +
                           std::to_string(n_blocks) + " blocks of " +
                           std::to_string(block) + "+, tail column p" +
                           std::to_string(all.tail_percentile) + " of all " +
                           std::to_string(all.count) + " cycles");
}

/**
 * Close a traced run: fail_frac, the self-time table of every span, and
 * the span dump (a dump that cannot be written fails the run).
 */
inline void
FinishTracedRun(RunResult& result, const Tracer& tracer, const RunOptions& options)
{
    result.Set("fail_frac", result.failures.fraction());
    result.notes.push_back("self time by span (traced part of the run):\n" +
                           FormatSelfTimeTable(SelfTimeTable(tracer.spans())));
    if (!options.trace_path.empty() && !tracer.WriteDump(options.trace_path)) {
        result.Check(false, "cannot write span dump " + options.trace_path);
    }
}

}  // namespace perfbench

#endif  // PERFBENCH_EPISODE_H_
