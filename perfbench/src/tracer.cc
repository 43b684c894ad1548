#include "tracer.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>

namespace perfbench {

Tracer::Tracer(bool enabled, std::uint64_t trace_id)
    : enabled_(enabled), trace_id_(trace_id), epoch_(Clock::now())
{
}

std::int64_t
Tracer::Ns(Clock::time_point t) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
}

SpanId
Tracer::Begin(const std::string& name, SpanId parent)
{
    if (!enabled_) return 0;
    Span span;
    span.id = static_cast<SpanId>(spans_.size() + 1);
    span.parent = parent;
    span.name = name;
    span.start_ns = Ns(Clock::now());
    span.end_ns = span.start_ns;
    spans_.push_back(std::move(span));
    return spans_.back().id;
}

void
Tracer::End(SpanId id)
{
    if (id == 0 || id > spans_.size()) return;
    spans_[id - 1].end_ns = Ns(Clock::now());
}

SpanId
Tracer::Record(const std::string& name, SpanId parent, Clock::time_point start,
               Clock::time_point end, bool derived)
{
    if (!enabled_) return 0;
    Span span;
    span.id = static_cast<SpanId>(spans_.size() + 1);
    span.parent = parent;
    span.name = name;
    span.start_ns = Ns(start);
    span.end_ns = Ns(end);
    span.derived = derived;
    spans_.push_back(std::move(span));
    return spans_.back().id;
}

bool
Tracer::WriteDump(const std::string& path) const
{
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    for (const Span& s : spans_) {
        std::fprintf(out,
                     "{\"trace\": \"%016" PRIx64 "\", \"id\": %u, "
                     "\"parent\": %u, \"name\": \"%s\", \"start_ns\": %" PRId64
                     ", \"end_ns\": %" PRId64 ", \"derived\": %s}\n",
                     trace_id_, s.id, s.parent, s.name.c_str(), s.start_ns,
                     s.end_ns, s.derived ? "true" : "false");
    }
    return std::fclose(out) == 0;
}

std::int64_t
SelfTimeNs(Interval parent, std::vector<Interval> children)
{
    const std::int64_t duration = std::max<std::int64_t>(0, parent.end - parent.start);
    std::sort(children.begin(), children.end(),
              [](const Interval& a, const Interval& b) { return a.start < b.start; });
    std::int64_t covered = 0;
    std::int64_t reach = parent.start;  // end of the union so far
    for (const Interval& c : children) {
        const std::int64_t lo = std::max({c.start, parent.start, reach});
        const std::int64_t hi = std::min(c.end, parent.end);
        if (hi > lo) covered += hi - lo;
        reach = std::max(reach, std::min(c.end, parent.end));
    }
    return duration - covered;
}

std::vector<SelfTimeRow>
SelfTimeTable(const std::vector<Span>& spans)
{
    std::vector<std::vector<Interval>> children(spans.size() + 1);
    for (const Span& s : spans) {
        if (s.parent != 0 && s.parent <= spans.size()) {
            children[s.parent].push_back({s.start_ns, s.end_ns});
        }
    }
    std::vector<SelfTimeRow> rows;
    std::map<std::string, std::size_t> row_of;
    for (const Span& s : spans) {
        auto [it, fresh] = row_of.emplace(s.name, rows.size());
        if (fresh) {
            SelfTimeRow row;
            row.name = s.name;
            row.layer = s.name.substr(0, s.name.find('.'));
            rows.push_back(std::move(row));
        }
        SelfTimeRow& row = rows[it->second];
        ++row.count;
        row.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
        row.self_ms +=
            static_cast<double>(
                SelfTimeNs({s.start_ns, s.end_ns}, children[s.id])) /
            1e6;
    }
    return rows;
}

std::string
FormatSelfTimeTable(const std::vector<SelfTimeRow>& rows)
{
    double self_sum = 0.0;
    for (const SelfTimeRow& r : rows) self_sum += r.self_ms;
    std::string out =
        "  span                        layer     count    total_ms     "
        "self_ms  self_share\n";
    char line[256];
    for (const SelfTimeRow& r : rows) {
        std::snprintf(line, sizeof(line),
                      "  %-27s %-8s %6zu %11.3f %11.3f %10.2f%%\n",
                      r.name.c_str(), r.layer.c_str(), r.count, r.total_ms,
                      r.self_ms,
                      self_sum > 0.0 ? 100.0 * r.self_ms / self_sum : 0.0);
        out += line;
    }
    return out;
}

}  // namespace perfbench
