/**
 * @file
 * Self-tests of the campaign benchmark's own glue. Build and run with
 * `python3 perfbench/run.py --selftest`.
 */

#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "glue.hh"
#include "methodology/published_data.hh"
#include "workload.hh"

namespace
{

using perfbench::Span;

TEST(Percentile, NearestRankWithSampleCounts)
{
    std::vector<double> values;
    for (int i = 200; i >= 1; --i)
        values.push_back(i); // unsorted on purpose
    const perfbench::Percentile p50 = perfbench::percentile(values, 50);
    EXPECT_EQ(p50.value, 100.0);
    EXPECT_EQ(p50.samples, 200u);
    EXPECT_EQ(p50.beyond, 100u);
    const perfbench::Percentile p99 = perfbench::percentile(values, 99);
    EXPECT_EQ(p99.value, 198.0);
    EXPECT_EQ(p99.beyond, 2u);
    // 1144 cells (one screen) leave at least ten samples beyond p99.
    const perfbench::Percentile screen =
        perfbench::percentile(std::vector<double>(1144, 1.0), 99);
    EXPECT_EQ(screen.beyond, 11u);
}

TEST(Percentile, EdgeCases)
{
    EXPECT_EQ(perfbench::percentile({7.0}, 99).value, 7.0);
    EXPECT_EQ(perfbench::percentile({3.0, 1.0, 2.0}, 100).value, 3.0);
    EXPECT_EQ(perfbench::percentile({3.0, 1.0, 2.0}, 100).beyond, 0u);
    EXPECT_THROW(perfbench::percentile({}, 50), std::invalid_argument);
    EXPECT_THROW(perfbench::percentile({1.0}, 0), std::invalid_argument);
    EXPECT_THROW(perfbench::percentile({1.0}, 101), std::invalid_argument);
}

TEST(SelfTime, SubtractsMergedChildCover)
{
    // cell [0, 10] with children a [1, 4], b [3, 6] (overlapping),
    // c [8, 12] (clipped to 10); a has a grandchild g [2, 3].
    const std::vector<Span> spans = {
        {"cell", 1, -1, 0.0, 10.0}, {"trace.gen", 1, 0, 1.0, 4.0},
        {"sim.core", 1, 0, 3.0, 6.0}, {"sim.warm", 1, 0, 8.0, 12.0},
        {"sample.run", 1, 1, 2.0, 3.0},
    };
    const std::vector<double> self = perfbench::selfTimes(spans);
    ASSERT_EQ(self.size(), spans.size());
    EXPECT_DOUBLE_EQ(self[0], 10.0 - (5.0 + 2.0)); // [1,6] + [8,10]
    EXPECT_DOUBLE_EQ(self[1], 3.0 - 1.0);
    EXPECT_DOUBLE_EQ(self[2], 3.0);
    EXPECT_DOUBLE_EQ(self[3], 4.0);
    EXPECT_DOUBLE_EQ(self[4], 1.0);

    const std::map<std::string, double> layers =
        perfbench::selfTimeByLayer(spans);
    EXPECT_DOUBLE_EQ(layers.at("unattributed"), 3.0);
    EXPECT_DOUBLE_EQ(layers.at("trace"), 2.0);
    EXPECT_DOUBLE_EQ(layers.at("sim"), 7.0);
    EXPECT_DOUBLE_EQ(layers.at("sample"), 1.0);
}

TEST(SelfTime, LayersAccountForTheCell)
{
    // Sequential calls inside two cells, as the traced run makes them:
    // layer self times plus the unattributed remainder add up to the
    // cells' time.
    const std::vector<Span> spans = {
        {"cell", 1, -1, 0.0, 10.0},      {"trace.gen", 1, 0, 0.5, 3.0},
        {"sim.construct", 1, 0, 3.0, 3.5}, {"sim.core", 1, 0, 3.5, 9.0},
        {"cell", 2, -1, 10.0, 14.0},     {"sample.run", 2, 4, 10.0, 13.0},
    };
    const std::map<std::string, double> layers =
        perfbench::selfTimeByLayer(spans);
    EXPECT_DOUBLE_EQ(layers.at("trace"), 2.5);
    EXPECT_DOUBLE_EQ(layers.at("sim"), 6.0);
    EXPECT_DOUBLE_EQ(layers.at("sample"), 3.0);
    EXPECT_DOUBLE_EQ(layers.at("unattributed"), 1.5 + 1.0);
    double total = 0.0;
    for (const auto &[layer, seconds] : layers)
        total += seconds;
    EXPECT_DOUBLE_EQ(total, 14.0);
}

TEST(SelfTime, RecorderNestsAndDisablesCleanly)
{
    perfbench::SpanRecorder on(true);
    {
        perfbench::ScopedSpan cell(on, "cell", 7, -1);
        perfbench::ScopedSpan child(on, "sim.core", 7, cell.index());
    }
    ASSERT_EQ(on.spans().size(), 2u);
    EXPECT_EQ(on.spans()[1].parent, 0);
    EXPECT_EQ(on.spans()[1].cell, 7u);
    EXPECT_LE(on.spans()[0].start, on.spans()[1].start);
    EXPECT_GE(on.spans()[0].end, on.spans()[1].end);

    perfbench::SpanRecorder off(false);
    {
        perfbench::ScopedSpan cell(off, "cell", 7, -1);
        EXPECT_EQ(cell.index(), -1);
    }
    EXPECT_TRUE(off.spans().empty());
}

TEST(Spearman, AgainstPublishedTable9)
{
    const rigor::methodology::PublishedRankTable &published =
        rigor::methodology::publishedTable9();
    std::vector<rigor::doe::FactorRankSummary> same =
        published.asSummaries();
    EXPECT_NEAR(perfbench::table9Spearman(same), 1.0, 1e-12);

    // Reverse the sums: a perfectly anti-correlated table. The order
    // of the summaries must not matter (factors match by name).
    std::vector<rigor::doe::FactorRankSummary> reversed = same;
    const std::size_t n = reversed.size();
    for (std::size_t i = 0; i < n; ++i)
        reversed[i].sumOfRanks = same[n - 1 - i].sumOfRanks;
    std::reverse(reversed.begin(), reversed.end());
    // Published sums carry ties, so the reversal is not exactly -1.
    EXPECT_LT(perfbench::table9Spearman(reversed), -0.95);

    same.pop_back();
    EXPECT_THROW(perfbench::table9Spearman(same), std::exception);
}

TEST(PeakRss, AggregatesReapedChildren)
{
    const perfbench::PeakRss before = perfbench::peakRss();
    constexpr std::size_t kBytes = 96u << 20;
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        void *block = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (block == MAP_FAILED)
            _exit(1);
        std::memset(block, 1, kBytes);
        _exit(0);
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

    const perfbench::PeakRss after = perfbench::peakRss();
    EXPECT_GE(after.childrenMb, 96.0);
    EXPECT_LT(after.selfMb, before.selfMb + 64.0); // the parent never
                                                   // touched the block
    EXPECT_EQ(after.peakMb(), std::max(after.selfMb, after.childrenMb));
}

TEST(JsonLine, FlatObjectInInsertionOrder)
{
    perfbench::JsonLine line;
    line.add("a", 1.5).add("b", std::uint64_t{3}).add("c", true).add(
        "d", "x\"y");
    line.addRaw("e", "{}");
    EXPECT_EQ(line.str(),
              "{\"a\": 1.5, \"b\": 3, \"c\": true, \"d\": \"x\\\"y\", "
              "\"e\": {}}");
}

TEST(Workloads, SeedRenamesEveryRealization)
{
    const perfbench::WorkloadSpec *spec =
        perfbench::findWorkload("isolated_short");
    ASSERT_NE(spec, nullptr);
    EXPECT_EQ(perfbench::findWorkload("no_such_workload"), nullptr);
    const std::vector<rigor::trace::WorkloadProfile> profiles =
        perfbench::seededProfiles(*spec, 7);
    ASSERT_EQ(profiles.size(), 13u * spec->realizations);
    EXPECT_EQ(profiles[0].name, "gzip#s7");
    EXPECT_EQ(profiles[13].name, "gzip#s7r1");

    const std::vector<rigor::exec::SimJob> jobs = perfbench::screenJobs(
        *spec, profiles, perfbench::screenDesign());
    ASSERT_EQ(jobs.size(), profiles.size() * perfbench::kScreenRows);
    EXPECT_EQ(jobs[89].label, profiles[1].name + ", design row 1");
    EXPECT_EQ(jobs[89].workload, &profiles[1]);
}

} // namespace
