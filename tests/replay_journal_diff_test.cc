// Tests for the field-class journal diff behind `replay_cli diff`.
#include "replay/journal_diff.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace dynamo::replay {
namespace {

Journal
SampleJournal()
{
    Journal j;
    j.spec_text = "scope=sb\n";
    j.scenario = "quiet";
    for (std::uint64_t c = 0; c < 4; ++c) {
        CycleRecord rec;
        rec.cycle = c;
        rec.time = static_cast<SimTime>((c + 1) * 3000);
        rec.rpc_hash = 100 + c;
        rec.kernel_hash = 200 + c;
        telemetry::TraceSpan span;
        span.id = c + 1;
        span.time = rec.time;
        span.source = "ctl:rpp0";
        span.measured = 1000.0;
        rec.spans.push_back(span);
        j.cycles.push_back(std::move(rec));
    }
    j.checkpoints.push_back(CheckpointRecord{1, 6000, 0, std::string(40, 'a')});
    j.checkpoints.push_back(CheckpointRecord{3, 12000, 0, std::string(40, 'b')});
    j.faults.push_back(FaultRecord{4500, "partition rpp0"});
    return j;
}

const FieldDiff&
Field(const JournalDiff& diff, const std::string& name)
{
    for (const FieldDiff& f : diff.fields) {
        if (f.field == name) return f;
    }
    ADD_FAILURE() << "no field class " << name;
    return diff.fields.front();
}

TEST(JournalDiff, IdenticalJournalsReportNoDifference)
{
    const JournalDiff diff = DiffJournals(SampleJournal(), SampleJournal());
    EXPECT_TRUE(diff.identical());
    EXPECT_TRUE(diff.checkpoint_ranges.empty());
    EXPECT_EQ(diff.fields.size(), 7u);
    EXPECT_NE(FormatJournalDiff(diff).find("journals identical"),
              std::string::npos);
}

TEST(JournalDiff, SchedulingOnlyChangeMovesKernelFieldsOnly)
{
    Journal b = SampleJournal();
    b.cycles[1].kernel_hash ^= 1;
    b.cycles[3].kernel_hash ^= 1;
    for (CheckpointRecord& cp : b.checkpoints) {
        cp.state[16] = 'x';
        cp.state[17] = 'y';
        cp.state[24] = 'z';
    }
    const JournalDiff diff = DiffJournals(SampleJournal(), b);
    EXPECT_FALSE(diff.identical());
    EXPECT_EQ(Field(diff, "kernel_hash").differing, 2u);
    EXPECT_EQ(Field(diff, "kernel_hash").first_window, 1);
    for (const char* same : {"windows", "rpc_hash", "spans", "faults",
                             "reconfigs"}) {
        EXPECT_TRUE(Field(diff, same).identical()) << same;
    }
    EXPECT_EQ(Field(diff, "checkpoints").differing, 2u);
    EXPECT_EQ(Field(diff, "checkpoints").first_window, 1);
    const std::vector<std::pair<std::size_t, std::size_t>> want = {{16, 18},
                                                                   {24, 25}};
    EXPECT_EQ(diff.checkpoint_ranges, want);
    EXPECT_NE(FormatJournalDiff(diff).find("[16,18) [24,25)"),
              std::string::npos);
}

TEST(JournalDiff, DecisionChangeNamesSpanFaultAndLengthDifferences)
{
    Journal b = SampleJournal();
    b.cycles[2].spans[0].measured = 1200.0;
    b.faults[0].description = "partition rpp1";
    b.cycles.pop_back();
    b.checkpoints[1].state += "tail";
    const JournalDiff diff = DiffJournals(SampleJournal(), b);

    const FieldDiff& spans = Field(diff, "spans");
    EXPECT_EQ(spans.first_window, 2);
    EXPECT_EQ(spans.differing, 2u);  // window 2, plus window 3 only in A
    EXPECT_NE(spans.detail.find("measured"), std::string::npos);
    EXPECT_EQ(Field(diff, "windows").differing, 1u);
    EXPECT_EQ(Field(diff, "windows").first_window, 3);
    // The fault at t=4500 ms falls in window 1, (3000, 6000].
    EXPECT_EQ(Field(diff, "faults").first_window, 1);
    EXPECT_NE(Field(diff, "faults").detail.find("rpp1"), std::string::npos);
    const std::vector<std::pair<std::size_t, std::size_t>> want = {{40, 44}};
    EXPECT_EQ(diff.checkpoint_ranges, want);
}

TEST(JournalDiff, HeaderDifferencesAreNamed)
{
    Journal b = SampleJournal();
    b.scenario = "surge";
    b.checkpoint_every = 5;
    const JournalDiff diff = DiffJournals(SampleJournal(), b);
    EXPECT_FALSE(diff.identical());
    EXPECT_EQ(diff.header,
              (std::vector<std::string>{"scenario", "checkpoint_every"}));
}

}  // namespace
}  // namespace dynamo::replay
