/**
 * @file
 * Tests of the benchmark's own code: tail-percentile selection,
 * self-time arithmetic, the span dump, the fail_frac base, the names
 * and units in the result line, and a tiny smoke size of each workload
 * end to end.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "episode.h"
#include "report.h"
#include "stats.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(TailPercentile, LeavesAtLeastTenSamplesBeyond)
{
    EXPECT_EQ(TailPercentile(0), 0);
    EXPECT_EQ(TailPercentile(5), 50);
    EXPECT_EQ(TailPercentile(20), 50);
    EXPECT_EQ(TailPercentile(60), 83);
    EXPECT_EQ(TailPercentile(100), 90);
    EXPECT_EQ(TailPercentile(999), 98);
    EXPECT_EQ(TailPercentile(1000), 99);
    EXPECT_EQ(TailPercentile(5000), 99);
    EXPECT_EQ(TailPercentile(2400, 90), 90);
    EXPECT_EQ(TailPercentile(60, 90), 83);
    EXPECT_EQ(TailPercentile(60, 80), 80);
    for (std::size_t n = 21; n <= 3000; ++n) {
        const int p = TailPercentile(n);
        const std::size_t rank = (static_cast<std::size_t>(p) * n + 99) / 100;
        ASSERT_GE(n - rank, kTailBeyond) << "n=" << n << " p=" << p;
        if (p < 99) {
            // The next percentile up would leave fewer than ten beyond.
            const std::size_t up = (static_cast<std::size_t>(p + 1) * n + 99) / 100;
            ASSERT_LT(n - up, kTailBeyond) << "n=" << n << " p=" << p;
        }
    }
}

TEST(Percentile, NearestRank)
{
    std::vector<double> v;
    for (int i = 100; i >= 1; --i) v.push_back(i);
    EXPECT_EQ(Percentile(v, 50), 50.0);
    EXPECT_EQ(Percentile(v, 99), 99.0);
    EXPECT_EQ(Percentile(v, 100), 100.0);
    EXPECT_EQ(Median({7.0}), 7.0);
    EXPECT_EQ(Median({}), 0.0);

    const Summary s = Summarize(v);
    EXPECT_EQ(s.count, 100u);
    EXPECT_EQ(s.tail_percentile, 90);
    EXPECT_EQ(s.tail, 90.0);
}

TEST(TypicalEpisode, MedianPerPositionOverEpisodes)
{
    EXPECT_TRUE(TypicalEpisode({}).empty());
    // A stall in one episode's second slice does not reach the result.
    const std::vector<double> typical =
        TypicalEpisode({{10, 20, 30}, {11, 500, 29}, {12, 21, 31}});
    EXPECT_EQ(typical, (std::vector<double>{11, 21, 30}));
}

TEST(PullMetrics, BlockMediansShrugOffAStalledBlock)
{
    // Four blocks of 100 cycles, 1..100 ms each; one block is stalled.
    std::vector<double> cycles;
    for (int b = 0; b < 4; ++b) {
        for (int i = 1; i <= 100; ++i) cycles.push_back(b == 2 ? 10.0 * i : i);
    }
    RunResult r;
    SetPullMetrics(r, cycles, 100, "test");
    EXPECT_EQ(r.values.at("pull_p50_ms"), 50.0);
    // The tail pools every cycle, so the stalled block sets it.
    EXPECT_EQ(r.values.at("pull.p99_ms"), Percentile(cycles, TailPercentile(400)));
    EXPECT_GT(r.values.at("pull.p99_ms"), 100.0);

    // A short last block joins the one before it.
    cycles.resize(350);
    RunResult short_tail;
    SetPullMetrics(short_tail, cycles, 100, "test");
    EXPECT_EQ(short_tail.values.at("pull_p50_ms"), 50.0);
    EXPECT_NE(short_tail.notes.back().find("median of 3 blocks"), std::string::npos)
        << short_tail.notes.back();
}

TEST(SelfTime, SubtractsTheUnionOfChildrenInsideTheParent)
{
    EXPECT_EQ(SelfTimeNs({0, 100}, {}), 100);
    // Overlapping children count once; the part outside the parent
    // does not count at all.
    EXPECT_EQ(SelfTimeNs({0, 100}, {{10, 30}, {20, 40}, {90, 120}}), 60);
    EXPECT_EQ(SelfTimeNs({0, 100}, {{-50, 10}, {200, 300}}), 90);
    EXPECT_EQ(SelfTimeNs({0, 100}, {{0, 100}, {10, 20}}), 0);
    EXPECT_EQ(SelfTimeNs({0, 100}, {{50, 60}, {10, 20}}), 80);
}

TEST(SelfTime, TableAggregatesByName)
{
    Tracer tracer(true, 42);
    const Clock::time_point t0 = Clock::now();
    const auto at = [&](int ms) { return t0 + std::chrono::milliseconds(ms); };
    const SpanId a = tracer.Record("fleet.window", 0, at(0), at(10));
    tracer.Record("barrier.record", a, at(0), at(4), true);
    const SpanId b = tracer.Record("fleet.window", 0, at(10), at(30));
    tracer.Record("barrier.record", b, at(10), at(12), true);
    tracer.Record("barrier.checkpoint", b, at(12), at(20), true);

    const std::vector<SelfTimeRow> rows = SelfTimeTable(tracer.spans());
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].name, "fleet.window");
    EXPECT_EQ(rows[0].layer, "fleet");
    EXPECT_EQ(rows[0].count, 2u);
    EXPECT_NEAR(rows[0].total_ms, 30.0, 1e-9);
    EXPECT_NEAR(rows[0].self_ms, 30.0 - 4.0 - 2.0 - 8.0, 1e-9);
    EXPECT_EQ(rows[1].name, "barrier.record");
    EXPECT_NEAR(rows[1].self_ms, 6.0, 1e-9);
    EXPECT_NEAR(rows[2].self_ms, 8.0, 1e-9);

    Tracer off(false, 1);
    EXPECT_EQ(off.Begin("x"), 0u);
    EXPECT_TRUE(off.spans().empty());
}

TEST(SpanDump, OneJsonObjectPerSpanWithTraceIdAndParent)
{
    Tracer tracer(true, 0xabcdef);
    const SpanId root = tracer.Begin("pull.cycle");
    tracer.End(tracer.Begin("pull.issue", root));
    tracer.End(root);
    const std::string path = ::testing::TempDir() + "perfbench_span_dump.jsonl";
    ASSERT_TRUE(tracer.WriteDump(path));

    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0].rfind("{\"trace\": \"0000000000abcdef\", \"id\": 1, "
                             "\"parent\": 0, \"name\": \"pull.cycle\", ",
                             0),
              0u)
        << lines[0];
    EXPECT_NE(lines[1].find("\"id\": 2, \"parent\": 1, \"name\": \"pull.issue\""),
              std::string::npos);
    EXPECT_NE(lines[1].find("\"derived\": false}"), std::string::npos);
    std::remove(path.c_str());
}

TEST(FailFrac, CountsAgainstAttempted)
{
    FailureCount f;
    EXPECT_EQ(f.fraction(), 0.0);
    f.Add(998, 1);
    f.Check(true);
    f.Check(false);
    EXPECT_EQ(f.attempted, 1000u);
    EXPECT_EQ(f.failed, 2u);
    EXPECT_DOUBLE_EQ(f.fraction(), 0.002);

    RunResult r;
    r.Check(true, "fine");
    EXPECT_TRUE(r.correct());
    r.Check(false, "broken");
    EXPECT_FALSE(r.correct());
    EXPECT_EQ(r.failures.attempted, 2u);
    EXPECT_EQ(r.failures.failed, 1u);
}

/** Metric names inside the "metrics" object of a result line. */
std::set<std::string>
MetricNamesIn(const std::string& json)
{
    std::set<std::string> names;
    const std::size_t open = json.find("\"metrics\": {");
    std::size_t at = open;
    while ((at = json.find("\": {\"value\"", at)) != std::string::npos) {
        const std::size_t start = json.rfind('"', at - 1) + 1;
        names.insert(json.substr(start, at - start));
        ++at;
    }
    return names;
}

TEST(ResultLine, CarriesEveryMetricOfTheChosenSetWithItsUnit)
{
    RunResult r;
    for (const MetricDef& def : MetricCatalog()) {
        if (def.end_to_end) r.Set(def.name, 1.25);
    }
    r.failures.Add(10, 0);
    const std::string e2e = ResultJson(r, false);
    EXPECT_EQ(e2e.rfind("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
                        "\"metrics\": {",
                        0),
              0u)
        << e2e;
    const std::string traced = ResultJson(r, true);
    std::set<std::string> want_e2e, want_layer;
    for (const MetricDef& def : MetricCatalog()) {
        (def.end_to_end ? want_e2e : want_layer).insert(def.name);
        const std::string entry = std::string(1, '"') + def.name + "\": {\"value\": ";
        const std::string& line = def.end_to_end ? e2e : traced;
        const std::size_t at = line.find(entry);
        ASSERT_NE(at, std::string::npos) << def.name;
        EXPECT_NE(line.find("\"unit\": \"" + std::string(def.unit) + "\"}", at),
                  std::string::npos)
            << def.name;
    }
    EXPECT_EQ(MetricNamesIn(e2e), want_e2e);
    EXPECT_EQ(MetricNamesIn(traced), want_layer);
    // Unset per-layer metrics read 0; an unset end-to-end one is a bug.
    EXPECT_NE(traced.find("\"sim.events\": {\"value\": 0, \"unit\": \"count\"}"),
              std::string::npos);
    EXPECT_THROW(ResultJson(RunResult{}, false), std::logic_error);
    RunResult failed;
    failed.Check(false, "stopped before measuring");
    EXPECT_NE(ResultJson(failed, false).find("\"correct\": false"), std::string::npos);
}

TEST(Catalog, NamesAndUnitsFollowTheBenchmarkRules)
{
    std::set<std::string> seen;
    bool has_setup = false;
    for (const MetricDef& def : MetricCatalog()) {
        const std::string name = def.name;
        EXPECT_TRUE(seen.insert(name).second) << "duplicate " << name;
        EXPECT_LE(name.size(), 64u);
        EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(name[0])));
        for (char c : name) {
            EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                        c == '.' || c == '-')
                << name;
        }
        const std::string unit = def.unit;
        EXPECT_LE(unit.size(), 16u);
        for (char c : unit) {
            EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) ||
                        std::string("_/%.-").find(c) != std::string::npos)
                << unit;
        }
        EXPECT_TRUE(std::string(def.better) == "higher" ||
                    std::string(def.better) == "lower");
        if (name == "setup_s") {
            has_setup = true;
            EXPECT_TRUE(def.end_to_end);
            EXPECT_EQ(unit, "s");
            EXPECT_EQ(std::string(def.better), "lower");
        }
    }
    EXPECT_TRUE(has_setup);
}

/** Smoke runs: every end-to-end metric measured and positive. */
void
ExpectEndToEndPositive(const RunResult& r)
{
    for (const MetricDef& def : MetricCatalog()) {
        if (!def.end_to_end) continue;
        const auto it = r.values.find(def.name);
        ASSERT_NE(it, r.values.end()) << def.name;
        EXPECT_GT(it->second, 0.0) << def.name;
    }
}

RunOptions
SmokeOptions(bool trace)
{
    RunOptions o;
    o.seed = 7;
    o.seconds = 0.2;
    o.trace = trace;
    return o;
}

TEST(SmokeSteadySerial, UntracedAndTraced)
{
    const RunResult plain = RunSteadySerial(SteadySerialSize::Smoke(), SmokeOptions(false));
    EXPECT_TRUE(plain.correct()) << plain.check_failures.front();
    ExpectEndToEndPositive(plain);
    EXPECT_EQ(plain.values.count("sim.events"), 0u);  // per-layer: traced only

    const RunResult traced = RunSteadySerial(SteadySerialSize::Smoke(), SmokeOptions(true));
    EXPECT_TRUE(traced.correct());
    EXPECT_GT(traced.values.at("sim.events"), 0.0);
    EXPECT_GT(traced.values.at("agent.reads"), 0.0);
    EXPECT_EQ(traced.values.at("agent.caps"), 0.0);
    EXPECT_NEAR(traced.values.at("rpc.calls_per_read"),
                traced.values.at("rpc.calls") / traced.values.at("agent.reads"), 1e-12);
    EXPECT_EQ(traced.values.count("trace.overhead_pct"), 1u);
}

TEST(SmokeSurgeSharded, CapsDuringTheHoldAndRepeatsItsJournal)
{
    const RunResult traced = RunSurgeSharded(SurgeShardedSize::Smoke(), SmokeOptions(true));
    EXPECT_TRUE(traced.correct())
        << (traced.check_failures.empty() ? "" : traced.check_failures.front());
    ExpectEndToEndPositive(traced);
    EXPECT_GE(traced.values.at("leaf.capping_share"), 0.9);
    EXPECT_GT(traced.values.at("journal.bytes"), 0.0);
    EXPECT_GT(traced.values.at("barrier.window_run_s"), 0.0);

    const RunResult identity = CheckSurgeJournalIdentity(SurgeShardedSize::Smoke(), 7);
    EXPECT_TRUE(identity.correct());
}

TEST(SmokeDeploySockets, EveryReadComesBackFromItsAgent)
{
    RunOptions o = SmokeOptions(true);
    o.seconds = 0.4;
    const RunResult r = RunDeploySockets(DeploySocketsSize::Smoke(), o);
    EXPECT_TRUE(r.correct()) << (r.check_failures.empty() ? "" : r.check_failures.front());
    ExpectEndToEndPositive(r);
    EXPECT_EQ(r.failures.failed, 0u);
    // 0.4 s at one leaf due every 5 ms: about 80 cycles of 8 reads.
    EXPECT_GE(r.failures.attempted, 30u * 8u);
    EXPECT_EQ(r.values.at("trace.overhead_pct"), 0.0);
    EXPECT_EQ(r.values.at("rpc.calls_per_read"), 1.0);
    EXPECT_GT(r.values.at("wire.encode_ns"), 0.0);
    EXPECT_GT(r.values.at("daemon.step_us_p50"), 0.0);
}

}  // namespace
}  // namespace perfbench
