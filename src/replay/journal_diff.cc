#include "replay/journal_diff.h"

#include <algorithm>
#include <sstream>

#include "replay/replayer.h"

namespace dynamo::replay {
namespace {

using Range = std::pair<std::size_t, std::size_t>;

/** Window whose (previous close, close] interval holds `time`. */
std::int64_t
WindowAt(const Journal& journal, SimTime time)
{
    for (std::size_t c = 0; c < journal.cycles.size(); ++c) {
        if (time <= journal.cycles[c].time) return static_cast<std::int64_t>(c);
    }
    return static_cast<std::int64_t>(journal.cycles.size());
}

/**
 * Compare records [0, max(na, nb)) pairwise with `equal(i)`; a record
 * only one side has differs. `window(i)` maps a record to its window
 * and `describe(i)` explains the first difference.
 */
template <typename Equal, typename Window, typename Describe>
FieldDiff
Compare(const char* field, std::size_t na, std::size_t nb, Equal equal,
        Window window, Describe describe)
{
    FieldDiff diff;
    diff.field = field;
    diff.compared = std::max(na, nb);
    for (std::size_t i = 0; i < diff.compared; ++i) {
        if (i < na && i < nb && equal(i)) continue;
        ++diff.differing;
        if (diff.first_window >= 0) continue;
        diff.first_window = window(i);
        if (i >= na || i >= nb) {
            diff.detail = "record " + std::to_string(i) + " present in " +
                          (i < na ? "A" : "B") + " only";
        } else {
            diff.detail = describe(i);
        }
    }
    return diff;
}

/** Byte ranges [begin, end) where `a` and `b` differ, merged. */
std::vector<Range>
ByteRanges(const std::string& a, const std::string& b)
{
    std::vector<Range> ranges;
    const std::size_t common = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < common; ++i) {
        if (a[i] == b[i]) continue;
        if (!ranges.empty() && ranges.back().second == i) {
            ++ranges.back().second;
        } else {
            ranges.emplace_back(i, i + 1);
        }
    }
    if (a.size() != b.size()) {
        ranges.emplace_back(common, std::max(a.size(), b.size()));
    }
    return ranges;
}

/** Merge `add` into the sorted, disjoint range list `into`. */
void
MergeRanges(std::vector<Range>* into, const std::vector<Range>& add)
{
    into->insert(into->end(), add.begin(), add.end());
    std::sort(into->begin(), into->end());
    std::vector<Range> merged;
    for (const Range& r : *into) {
        if (!merged.empty() && r.first <= merged.back().second) {
            merged.back().second = std::max(merged.back().second, r.second);
        } else {
            merged.push_back(r);
        }
    }
    *into = std::move(merged);
}

std::string
FormatRanges(const std::vector<Range>& ranges)
{
    constexpr std::size_t kShown = 8;
    std::string out;
    for (std::size_t i = 0; i < ranges.size() && i < kShown; ++i) {
        if (!out.empty()) out += " ";
        out += "[" + std::to_string(ranges[i].first) + "," +
               std::to_string(ranges[i].second) + ")";
    }
    if (ranges.size() > kShown) {
        out += " … (" + std::to_string(ranges.size() - kShown) + " more)";
    }
    return out;
}

bool
SpansEqual(const CycleRecord& a, const CycleRecord& b)
{
    if (a.spans_missed != b.spans_missed || a.spans.size() != b.spans.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.spans.size(); ++i) {
        if (!telemetry::SpansIdentical(a.spans[i], b.spans[i])) return false;
    }
    return true;
}

std::string
DescribeSpans(const CycleRecord& a, const CycleRecord& b)
{
    if (a.spans_missed != b.spans_missed) {
        return "spans_missed " + std::to_string(a.spans_missed) + " != " +
               std::to_string(b.spans_missed);
    }
    if (a.spans.size() != b.spans.size()) {
        return "span count " + std::to_string(a.spans.size()) + " != " +
               std::to_string(b.spans.size());
    }
    for (std::size_t i = 0; i < a.spans.size(); ++i) {
        if (telemetry::SpansIdentical(a.spans[i], b.spans[i])) continue;
        return "span " + std::to_string(i) + " (id=" +
               std::to_string(a.spans[i].id) + "):\n" +
               DescribeSpanDiff(a.spans[i], b.spans[i]);
    }
    return "";
}

}  // namespace

bool
JournalDiff::identical() const
{
    if (!header.empty()) return false;
    for (const FieldDiff& f : fields) {
        if (!f.identical()) return false;
    }
    return true;
}

JournalDiff
DiffJournals(const Journal& a, const Journal& b)
{
    JournalDiff diff;
    if (a.spec_text != b.spec_text) diff.header.push_back("spec");
    if (a.scenario != b.scenario) diff.header.push_back("scenario");
    if (a.cycle_period != b.cycle_period) diff.header.push_back("cycle_period");
    if (a.checkpoint_every != b.checkpoint_every) {
        diff.header.push_back("checkpoint_every");
    }
    if (a.invariants_checked != b.invariants_checked) {
        diff.header.push_back("invariants_checked");
    }

    const std::size_t na = a.cycles.size();
    const std::size_t nb = b.cycles.size();
    const auto cycle_window = [](std::size_t i) {
        return static_cast<std::int64_t>(i);
    };
    diff.fields.push_back(Compare(
        "windows", na, nb,
        [&](std::size_t i) { return a.cycles[i].time == b.cycles[i].time; },
        cycle_window, [&](std::size_t i) {
            return "close time " + std::to_string(a.cycles[i].time) +
                   " != " + std::to_string(b.cycles[i].time);
        }));
    diff.fields.push_back(Compare(
        "kernel_hash", na, nb,
        [&](std::size_t i) {
            return a.cycles[i].kernel_hash == b.cycles[i].kernel_hash;
        },
        cycle_window, [](std::size_t) { return std::string(); }));
    diff.fields.push_back(Compare(
        "rpc_hash", na, nb,
        [&](std::size_t i) {
            return a.cycles[i].rpc_hash == b.cycles[i].rpc_hash;
        },
        cycle_window, [](std::size_t) { return std::string(); }));
    diff.fields.push_back(Compare(
        "spans", na, nb,
        [&](std::size_t i) { return SpansEqual(a.cycles[i], b.cycles[i]); },
        cycle_window,
        [&](std::size_t i) { return DescribeSpans(a.cycles[i], b.cycles[i]); }));

    const auto timed_window = [&](const auto& ra, const auto& rb) {
        return [&](std::size_t i) {
            return i < ra.size() ? WindowAt(a, ra[i].time)
                                 : WindowAt(b, rb[i].time);
        };
    };
    diff.fields.push_back(Compare(
        "faults", a.faults.size(), b.faults.size(),
        [&](std::size_t i) {
            return a.faults[i].time == b.faults[i].time &&
                   a.faults[i].description == b.faults[i].description;
        },
        timed_window(a.faults, b.faults), [&](std::size_t i) {
            return "t=" + std::to_string(a.faults[i].time) + " '" +
                   a.faults[i].description + "' vs t=" +
                   std::to_string(b.faults[i].time) + " '" +
                   b.faults[i].description + "'";
        }));
    diff.fields.push_back(Compare(
        "reconfigs", a.reconfigs.size(), b.reconfigs.size(),
        [&](std::size_t i) {
            return a.reconfigs[i].epoch == b.reconfigs[i].epoch &&
                   a.reconfigs[i].time == b.reconfigs[i].time &&
                   a.reconfigs[i].description == b.reconfigs[i].description;
        },
        timed_window(a.reconfigs, b.reconfigs), [&](std::size_t i) {
            return "epoch " + std::to_string(a.reconfigs[i].epoch) + " '" +
                   a.reconfigs[i].description + "' vs epoch " +
                   std::to_string(b.reconfigs[i].epoch) + " '" +
                   b.reconfigs[i].description + "'";
        }));

    const auto& ca = a.checkpoints;
    const auto& cb = b.checkpoints;
    for (std::size_t i = 0; i < std::min(ca.size(), cb.size()); ++i) {
        MergeRanges(&diff.checkpoint_ranges,
                    ByteRanges(ca[i].state, cb[i].state));
    }
    diff.fields.push_back(Compare(
        "checkpoints", ca.size(), cb.size(),
        [&](std::size_t i) {
            return ca[i].cycle == cb[i].cycle && ca[i].state == cb[i].state;
        },
        [&](std::size_t i) {
            return static_cast<std::int64_t>(i < ca.size() ? ca[i].cycle
                                                           : cb[i].cycle);
        },
        [&](std::size_t i) {
            std::string detail = "state bytes " +
                                 FormatRanges(ByteRanges(ca[i].state,
                                                         cb[i].state)) +
                                 " of " + std::to_string(ca[i].state.size());
            if (ca[i].cycle != cb[i].cycle) {
                detail += "; taken at window " + std::to_string(ca[i].cycle) +
                          " vs " + std::to_string(cb[i].cycle);
            }
            return detail;
        }));
    return diff;
}

std::string
FormatJournalDiff(const JournalDiff& diff)
{
    std::ostringstream out;
    out << "header: ";
    if (diff.header.empty()) {
        out << "identical\n";
    } else {
        out << "DIFFERS in";
        for (const std::string& h : diff.header) out << " " << h;
        out << "\n";
    }
    for (const FieldDiff& f : diff.fields) {
        out << f.field << ": ";
        if (f.identical()) {
            out << "identical (" << f.compared << " records)\n";
            continue;
        }
        out << "DIFFERS in " << f.differing << " of " << f.compared
            << " records, first at window " << f.first_window << "\n";
        if (!f.detail.empty()) out << "  " << f.detail << "\n";
    }
    if (!diff.checkpoint_ranges.empty()) {
        out << "checkpoint bytes changed (all checkpoints): "
            << FormatRanges(diff.checkpoint_ranges) << "\n";
    }
    out << (diff.identical() ? "journals identical\n" : "journals differ\n");
    return out.str();
}

}  // namespace dynamo::replay
