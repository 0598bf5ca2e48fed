#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/rule_ids.hh"
#include "cli_options.hh"

namespace exec = rigor::exec;
namespace tools = rigor::tools;

namespace
{

/** Feed one "--flag value..." spelling through tryParse. */
tools::CampaignCliOptions::Match
parse(tools::CampaignCliOptions &options,
      std::vector<std::string> argv_tail)
{
    std::vector<std::string> storage;
    storage.push_back("test");
    for (std::string &arg : argv_tail)
        storage.push_back(std::move(arg));
    std::vector<char *> argv;
    for (std::string &arg : storage)
        argv.push_back(arg.data());
    tools::ArgCursor args(static_cast<int>(argv.size()), argv.data(),
                          "test");
    const std::string flag = args.take();
    return options.tryParse(args, flag);
}

using Match = tools::CampaignCliOptions::Match;

} // namespace

// ----- Strict numeric parsing -----

TEST(CliParsers, RejectsNegativeNumbers)
{
    // strtoull would silently wrap "-1" to 2^64-1; the strict parsers
    // must refuse a leading sign instead.
    std::uint64_t u64 = 0;
    EXPECT_FALSE(tools::parseUint64("-1", u64));
    unsigned u = 0;
    EXPECT_FALSE(tools::parseUnsigned("-5", u));
    std::size_t size = 0;
    EXPECT_FALSE(tools::parseSize("-1", size));
    EXPECT_TRUE(tools::parseUint64("42", u64));
    EXPECT_EQ(u64, 42u);
}

TEST(CliParsers, RejectsTrailingGarbageAndEmpty)
{
    std::uint64_t u64 = 0;
    EXPECT_FALSE(tools::parseUint64("12x", u64));
    EXPECT_FALSE(tools::parseUint64("", u64));
    EXPECT_FALSE(tools::parseUint64("+3", u64));
}

// ----- Resource-cap flags -----

TEST(CampaignCliOptions, RejectsZeroMemLimit)
{
    tools::CampaignCliOptions options;
    EXPECT_EQ(parse(options, {"--mem-limit-mb", "0"}), Match::Error);
    EXPECT_EQ(parse(options, {"--mem-limit-mb=0"}), Match::Error);
}

TEST(CampaignCliOptions, RejectsNegativeMemLimit)
{
    tools::CampaignCliOptions options;
    EXPECT_EQ(parse(options, {"--mem-limit-mb", "-1"}), Match::Error);
}

TEST(CampaignCliOptions, RejectsZeroOrNegativeHardDeadline)
{
    tools::CampaignCliOptions options;
    EXPECT_EQ(parse(options, {"--hard-deadline-ms", "0"}),
              Match::Error);
    EXPECT_EQ(parse(options, {"--hard-deadline-ms", "-100"}),
              Match::Error);
}

TEST(CampaignCliOptions, AcceptsPositiveCaps)
{
    tools::CampaignCliOptions options;
    EXPECT_EQ(parse(options, {"--mem-limit-mb", "128"}),
              Match::Consumed);
    EXPECT_EQ(options.memLimitMb, 128u);
    EXPECT_EQ(parse(options, {"--hard-deadline-ms=1000"}),
              Match::Consumed);
    EXPECT_EQ(options.hardDeadlineMs, 1000u);
}

// ----- Sampling flags -----

TEST(CampaignCliOptions, ParsesSamplingFlags)
{
    tools::CampaignCliOptions options;
    EXPECT_EQ(parse(options, {"--sample"}), Match::Consumed);
    EXPECT_EQ(parse(options, {"--sample-unit", "500"}),
              Match::Consumed);
    EXPECT_EQ(parse(options, {"--sample-warmup=1500"}),
              Match::Consumed);
    EXPECT_EQ(parse(options, {"--sample-interval", "8000"}),
              Match::Consumed);
    EXPECT_EQ(parse(options, {"--sample-rel-error", "0.1"}),
              Match::Consumed);
    EXPECT_EQ(parse(options, {"--sample-confidence", "0.99"}),
              Match::Consumed);

    exec::CampaignOptions campaign;
    options.apply(campaign);
    EXPECT_TRUE(campaign.sampling.enabled);
    EXPECT_EQ(campaign.sampling.unitInstructions, 500u);
    EXPECT_EQ(campaign.sampling.warmupInstructions, 1500u);
    EXPECT_EQ(campaign.sampling.intervalInstructions, 8000u);
    EXPECT_DOUBLE_EQ(campaign.sampling.targetRelativeError, 0.1);
    EXPECT_DOUBLE_EQ(campaign.sampling.confidence, 0.99);
}

TEST(CampaignCliOptions, SamplingDisabledByDefault)
{
    const tools::CampaignCliOptions options;
    exec::CampaignOptions campaign;
    options.apply(campaign);
    EXPECT_FALSE(campaign.sampling.enabled);
}

TEST(CampaignCliOptions, RejectsDegenerateSamplingValues)
{
    tools::CampaignCliOptions options;
    EXPECT_EQ(parse(options, {"--sample-unit", "0"}), Match::Error);
    EXPECT_EQ(parse(options, {"--sample-interval=0"}), Match::Error);
    EXPECT_EQ(parse(options, {"--sample-rel-error", "0"}),
              Match::Error);
    EXPECT_EQ(parse(options, {"--sample-rel-error", "1.5"}),
              Match::Error);
    EXPECT_EQ(parse(options, {"--sample-confidence", "0"}),
              Match::Error);
    EXPECT_EQ(parse(options, {"--sample=on"}), Match::Error);
}

TEST(CampaignCliOptions, UnknownFlagIsNotMine)
{
    tools::CampaignCliOptions options;
    EXPECT_EQ(parse(options, {"--frobnicate"}), Match::NotMine);
}

// ----- Replication / bootstrap flags -----

TEST(CampaignCliOptions, ParsesReplicationFlags)
{
    tools::CampaignCliOptions options;
    EXPECT_EQ(parse(options, {"--replicates", "5"}),
              Match::Consumed);
    EXPECT_EQ(parse(options, {"--bootstrap-iters=800"}),
              Match::Consumed);
    EXPECT_EQ(parse(options, {"--bootstrap-seed", "12345"}),
              Match::Consumed);
    EXPECT_EQ(parse(options, {"--stability-out", "report.json"}),
              Match::Consumed);
    EXPECT_EQ(options.stabilityOut, "report.json");

    exec::CampaignOptions campaign;
    options.apply(campaign);
    EXPECT_EQ(campaign.replication.replicates, 5u);
    EXPECT_EQ(campaign.replication.bootstrap.iterations, 800u);
    EXPECT_EQ(campaign.replication.bootstrap.seed, 12345u);
}

TEST(CampaignCliOptions, ReplicationDisabledByDefault)
{
    const tools::CampaignCliOptions options;
    exec::CampaignOptions campaign;
    options.apply(campaign);
    EXPECT_FALSE(campaign.replication.enabled());
}

TEST(CampaignCliOptions, RejectsDegenerateReplicationValues)
{
    tools::CampaignCliOptions options;
    EXPECT_EQ(parse(options, {"--replicates", "-2"}), Match::Error);
    EXPECT_EQ(parse(options, {"--bootstrap-iters", "0"}),
              Match::Error);
    EXPECT_EQ(parse(options, {"--bootstrap-seed", "nope"}),
              Match::Error);
}

// ----- Parse-time remote pre-flight -----

namespace
{

/** Rule ids of a sink's diagnostics, in report order. */
std::vector<std::string>
ruleIds(const rigor::check::DiagnosticSink &sink)
{
    std::vector<std::string> ids;
    for (const rigor::check::Diagnostic &d : sink.diagnostics())
        ids.push_back(d.ruleId);
    return ids;
}

/** A remote campaign with a three-worker fleet and the given lease
 *  and heartbeat flags. */
tools::CampaignCliOptions
remoteFleet(const std::string &lease_ms, const std::string &heartbeat_ms)
{
    tools::CampaignCliOptions options;
    EXPECT_EQ(parse(options, {"--listen", "127.0.0.1:0"}),
              Match::Consumed);
    EXPECT_EQ(parse(options, {"--workers", "3"}), Match::Consumed);
    EXPECT_EQ(parse(options, {"--lease-ms", lease_ms}), Match::Consumed);
    EXPECT_EQ(parse(options, {"--heartbeat-ms", heartbeat_ms}),
              Match::Consumed);
    return options;
}

} // namespace

TEST(CampaignCliOptions, RemotePreflightAcceptsTheDefaultTopology)
{
    EXPECT_TRUE(remoteFleet("10000", "1000").remotePreflight().passed());
    // Thread isolation has no topology to check.
    EXPECT_TRUE(tools::CampaignCliOptions{}.remotePreflight().passed());
}

TEST(CampaignCliOptions, RemotePreflightDoesNotWrapAHugeHeartbeat)
{
    // 2^31 ms doubled wraps to 0 in 32-bit arithmetic, which would
    // pass a heartbeat of half the lease window.
    const rigor::check::DiagnosticSink sink =
        remoteFleet("4294967295", "2147483648").remotePreflight();
    EXPECT_EQ(ruleIds(sink),
              (std::vector<std::string>{
                  rigor::check::rules::kCampaignHeartbeatTooCoarse}));
}

TEST(CampaignCliOptions, RemotePreflightNamesLeaseNotExceedingHeartbeat)
{
    const rigor::check::DiagnosticSink sink =
        remoteFleet("1000", "1000").remotePreflight();
    EXPECT_EQ(ruleIds(sink),
              (std::vector<std::string>{
                  rigor::check::rules::kCampaignLeaseShorterThanDeadline}));
}

TEST(CampaignCliOptions, RemotePreflightCatchesAnEmptyFleetAndDeadline)
{
    tools::CampaignCliOptions options;
    EXPECT_EQ(parse(options, {"--listen", "127.0.0.1:0"}),
              Match::Consumed);
    EXPECT_EQ(parse(options, {"--deadline-ms", "20000"}),
              Match::Consumed);
    EXPECT_EQ(ruleIds(options.remotePreflight()),
              (std::vector<std::string>{
                  rigor::check::rules::kCampaignNoWorkers,
                  rigor::check::rules::kCampaignLeaseShorterThanDeadline}));
}

TEST(CampaignCliOptions, SkipPreflightSkipsTheRemotePreflight)
{
    tools::CampaignCliOptions options = remoteFleet("1000", "2147483648");
    EXPECT_FALSE(options.remotePreflight().passed());
    EXPECT_EQ(parse(options, {"--skip-preflight"}), Match::Consumed);
    EXPECT_TRUE(options.remotePreflight().diagnostics().empty());
}
