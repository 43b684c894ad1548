/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * Spans are recorded by the benchmark around each call it makes into a
 * layer of the program (one span per simulated slice or window, per
 * pull cycle, per set-up step), never from inside the program. Each
 * span has a name "<layer>.<what>", a start, an end, the span that
 * caused it, and the run's trace id. A few spans are *derived*: their
 * duration comes from a wall-clock counter the program already keeps
 * (a controller's cycle_us histogram, a BarrierProfile stage) and they
 * are laid out inside their parent in execution order. The dump marks
 * them so nobody mistakes them for directly timed intervals.
 *
 * Nothing is written while the run is measured: spans stay in memory
 * and WriteDump() emits them as JSON lines when the run ends.
 */
#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `start`. */
inline double
SecondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Span ids are 1-based positions in the recorder; 0 means "none". */
using SpanId = std::uint32_t;

struct Span
{
    SpanId id = 0;
    SpanId parent = 0;
    std::string name;
    std::int64_t start_ns = 0;  ///< since the recorder's epoch
    std::int64_t end_ns = 0;
    bool derived = false;
};

class Tracer
{
  public:
    /** A disabled tracer records nothing and returns span id 0. */
    Tracer(bool enabled, std::uint64_t trace_id);

    bool enabled() const { return enabled_; }
    std::uint64_t trace_id() const { return trace_id_; }

    /** Open a span now; close it with End(). */
    SpanId Begin(const std::string& name, SpanId parent = 0);
    void End(SpanId id);

    /** Record a closed span with explicit bounds. */
    SpanId Record(const std::string& name, SpanId parent, Clock::time_point start,
                  Clock::time_point end, bool derived = false);

    const std::vector<Span>& spans() const { return spans_; }

    /** Write every span as one JSON object per line. */
    bool WriteDump(const std::string& path) const;

  private:
    std::int64_t Ns(Clock::time_point t) const;

    bool enabled_;
    std::uint64_t trace_id_;
    Clock::time_point epoch_;
    std::vector<Span> spans_;
};

/** Begin on construction, End on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer& tracer, const std::string& name, SpanId parent = 0)
        : tracer_(tracer), id_(tracer.Begin(name, parent))
    {
    }
    ~ScopedSpan() { tracer_.End(id_); }

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    SpanId id() const { return id_; }

  private:
    Tracer& tracer_;
    SpanId id_;
};

/** Closed interval [start, end) in nanoseconds. */
struct Interval
{
    std::int64_t start = 0;
    std::int64_t end = 0;
};

/**
 * Self time of `parent`: its duration minus the part of it that the
 * union of `children` covers (children are clipped to the parent, and
 * overlapping children are counted once).
 */
std::int64_t SelfTimeNs(Interval parent, std::vector<Interval> children);

/** One row of the per-span-name self-time table. */
struct SelfTimeRow
{
    std::string name;
    std::string layer;  ///< name up to the first '.'
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
};

/** Aggregate self time by span name, in first-seen order. */
std::vector<SelfTimeRow> SelfTimeTable(const std::vector<Span>& spans);

/** Human-readable rendering, shares relative to the summed self time. */
std::string FormatSelfTimeTable(const std::vector<SelfTimeRow>& rows);

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
