/**
 * @file
 * BENCH_*.json schema: the exact key set writeBenchReport emits, in
 * order, for a full-run report and for one carrying the sampled
 * comparison block. The file name carries the change number, so the
 * record itself has no "pr" key.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/bench_report.hh"

namespace
{

namespace obs = rigor::obs;

/** Top-level keys of a flat JSON object, in document order. */
std::vector<std::string>
keysOf(const std::string &json)
{
    std::vector<std::string> keys;
    std::size_t pos = 0;
    while ((pos = json.find('"', pos)) != std::string::npos) {
        const std::size_t end = json.find('"', pos + 1);
        if (json[end + 1] == ':')
            keys.push_back(json.substr(pos + 1, end - pos - 1));
        pos = end + 1;
    }
    return keys;
}

std::string
writeAndRead(const obs::BenchReport &report)
{
    const std::string path =
        std::string(::testing::TempDir()) + "bench_report_keys.json";
    obs::writeBenchReport(path, report);
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    std::remove(path.c_str());
    return text.str();
}

const std::vector<std::string> kFullRunKeys = {
    "name",           "wall_seconds", "runs_total",
    "runs_completed", "runs_per_second", "simulated_instructions",
    "mips",           "threads",      "cache_hits",
    "journal_hits",
};

} // namespace

TEST(BenchReport, FullRunKeySet)
{
    obs::BenchReport report;
    report.name = "campaign_pb_screen";
    report.runsTotal = 176;
    const std::string json = writeAndRead(report);
    EXPECT_EQ(keysOf(json), kFullRunKeys) << json;
    EXPECT_EQ(json.back(), '\n');
}

TEST(BenchReport, SampledKeySetAppendsTheComparisonBlock)
{
    obs::BenchReport report;
    report.name = "sampled_vs_full";
    report.sampled = true;
    std::vector<std::string> expected = kFullRunKeys;
    for (const char *key :
         {"sampled", "full_mips", "sampled_mips",
          "detailed_instruction_ratio", "sample_rel_error",
          "sample_units"})
        expected.push_back(key);
    const std::string json = writeAndRead(report);
    EXPECT_EQ(keysOf(json), expected) << json;
}
