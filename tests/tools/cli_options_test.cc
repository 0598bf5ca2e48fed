#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/rule_ids.hh"
#include "cli_options.hh"

namespace exec = rigor::exec;
namespace net = rigor::exec::net;
namespace check = rigor::check;
namespace tools = rigor::tools;

namespace
{

/** The shared campaign table and the targets its rows bind into. */
struct CampaignTargets
{
    exec::CampaignOptions campaign;
    net::ControllerOptions controller;
    tools::CampaignPaths paths;
    tools::FlagTable table = tools::campaignFlags(campaign, controller,
                                                  paths);

    CampaignTargets() = default;
    CampaignTargets(const CampaignTargets &) = delete;
    CampaignTargets &operator=(const CampaignTargets &) = delete;

    /** Feed one command line through the table. */
    bool parse(const std::vector<std::string> &args)
    {
        return tools::parseFlags(table, args, "test");
    }

    check::DiagnosticSink remotePreflight() const
    {
        return tools::remotePreflight(campaign, controller);
    }
};

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

TEST(CliParsers, EveryFaultKindParsesByItsName)
{
    // Transient..Last is the whole name table: each kind has its own
    // name and parses back, and nothing past Last has a name.
    const int last = static_cast<int>(exec::FaultKind::Last);
    for (int k = 0; k <= last; ++k) {
        const auto kind = static_cast<exec::FaultKind>(k);
        const std::string name = exec::toString(kind);
        EXPECT_NE(name, "unknown") << k;
        std::string label;
        unsigned attempt = 0;
        exec::FaultKind parsed{};
        ASSERT_TRUE(
            tools::parseFaultSpec("cell:1:" + name, label, attempt, parsed))
            << name;
        EXPECT_EQ(parsed, kind) << name;
    }
    EXPECT_EQ(exec::toString(static_cast<exec::FaultKind>(last + 1)),
              "unknown");
    std::string label;
    unsigned attempt = 0;
    exec::FaultKind parsed{};
    EXPECT_FALSE(
        tools::parseFaultSpec("cell:1:partition", label, attempt, parsed));
}

// ----- The parse loop -----

TEST(FlagTable, AcceptsBothValueSpellingsAndRejectsAValueOnABareFlag)
{
    unsigned count = 0;
    bool on = false;
    const tools::FlagTable table = {
        {"--count", "N", "a count", tools::unsignedInto(count)},
        {"--on", "", "a switch", tools::setTo(on, true)},
    };
    EXPECT_TRUE(tools::parseFlags(table, {"--count", "3"}, "test"));
    EXPECT_EQ(count, 3u);
    EXPECT_TRUE(tools::parseFlags(table, {"--count=4", "--on"}, "test"));
    EXPECT_EQ(count, 4u);
    EXPECT_TRUE(on);
    EXPECT_FALSE(tools::parseFlags(table, {"--on=yes"}, "test"));
    EXPECT_FALSE(tools::parseFlags(table, {"--count"}, "test"));
    EXPECT_FALSE(tools::parseFlags(table, {"--count", "x"}, "test"));
    EXPECT_FALSE(tools::parseFlags(table, {"--help"}, "test"));
    EXPECT_FALSE(tools::parseFlags(table, {"-h"}, "test"));
}

TEST(FlagTable, PositionalsNeedAHandler)
{
    const tools::FlagTable table;
    EXPECT_FALSE(tools::parseFlags(table, {"file.csv"}, "test"));
    std::vector<std::string> files;
    EXPECT_TRUE(tools::parseFlags(
        table, {"a.csv", "b.spec"}, "test",
        [&files](const std::string &arg) { files.push_back(arg); }));
    EXPECT_EQ(files, (std::vector<std::string>{"a.csv", "b.spec"}));
}

TEST(FlagTable, HelpListsEveryRow)
{
    CampaignTargets targets;
    const std::string help = "\n" + tools::renderHelp(targets.table);
    for (const tools::Flag &flag : targets.table)
        EXPECT_NE(help.find("\n  " + flag.name + " "), std::string::npos)
            << flag.name;
    EXPECT_NE(help.find("  --help "), std::string::npos);
}

// ----- Resource-cap flags -----

TEST(CampaignCliOptions, RejectsZeroMemLimit)
{
    CampaignTargets targets;
    EXPECT_FALSE(targets.parse({"--mem-limit-mb", "0"}));
    EXPECT_FALSE(targets.parse({"--mem-limit-mb=0"}));
}

TEST(CampaignCliOptions, RejectsNegativeMemLimit)
{
    CampaignTargets targets;
    EXPECT_FALSE(targets.parse({"--mem-limit-mb", "-1"}));
}

TEST(CampaignCliOptions, RejectsZeroOrNegativeHardDeadline)
{
    CampaignTargets targets;
    EXPECT_FALSE(targets.parse({"--hard-deadline-ms", "0"}));
    EXPECT_FALSE(targets.parse({"--hard-deadline-ms", "-100"}));
}

TEST(CampaignCliOptions, AcceptsPositiveCaps)
{
    CampaignTargets targets;
    EXPECT_TRUE(targets.parse({"--mem-limit-mb", "128"}));
    EXPECT_EQ(targets.campaign.memLimitMb, 128u);
    EXPECT_TRUE(targets.parse({"--hard-deadline-ms=1000"}));
    EXPECT_EQ(targets.campaign.hardDeadline.count(), 1000);
}

TEST(FlagTable, WorkerRowsShareTheCapChecks)
{
    // worker binds the same rows into its own sandbox-pool targets.
    std::uint64_t mem_limit_mb = 0;
    std::chrono::milliseconds hard_deadline{0};
    exec::IsolationMode isolation = exec::IsolationMode::Thread;
    const tools::FlagTable table = {
        tools::isolationFlag(isolation, false),
        tools::memLimitFlag(mem_limit_mb),
        tools::hardDeadlineFlag(hard_deadline),
    };
    EXPECT_FALSE(tools::parseFlags(table, {"--mem-limit-mb", "0"}, "w"));
    EXPECT_FALSE(
        tools::parseFlags(table, {"--hard-deadline-ms", "0"}, "w"));
    EXPECT_FALSE(tools::parseFlags(table, {"--isolation", "remote"}, "w"));
    EXPECT_TRUE(tools::parseFlags(
        table,
        {"--isolation=process", "--mem-limit-mb", "64",
         "--hard-deadline-ms", "500"},
        "w"));
    EXPECT_EQ(isolation, exec::IsolationMode::Process);
    EXPECT_EQ(mem_limit_mb, 64u);
    EXPECT_EQ(hard_deadline.count(), 500);
}

// ----- Execution and fault-policy flags -----

TEST(CampaignCliOptions, BindsExecutionFlagsWithUnitConversions)
{
    CampaignTargets targets;
    EXPECT_TRUE(targets.parse(
        {"--threads", "3", "--no-foldover", "--retries", "2",
         "--backoff-ms=10", "--backoff-jitter", "0.5", "--deadline-ms",
         "250", "--collect", "--degrade", "drop-benchmark"}));
    const exec::CampaignOptions &campaign = targets.campaign;
    EXPECT_EQ(campaign.threads, 3u);
    EXPECT_FALSE(campaign.foldover);
    EXPECT_EQ(campaign.faultPolicy.maxAttempts, 3u);
    EXPECT_EQ(campaign.faultPolicy.backoffBase.count(), 10);
    EXPECT_DOUBLE_EQ(campaign.faultPolicy.backoffJitter, 0.5);
    EXPECT_EQ(campaign.faultPolicy.attemptDeadline.count(), 250);
    EXPECT_TRUE(campaign.faultPolicy.collectFailures);
    EXPECT_EQ(campaign.degradation,
              check::DegradationMode::DropBenchmark);
    EXPECT_FALSE(targets.parse({"--backoff-jitter", "1.5"}));
    EXPECT_FALSE(targets.parse({"--degrade", "sometimes"}));
}

TEST(CampaignCliOptions, RemoteFlagsBindIntoTheControllerOptions)
{
    CampaignTargets targets;
    EXPECT_EQ(targets.controller.lease.count(), 10000);
    EXPECT_EQ(targets.controller.heartbeat.count(), 1000);
    EXPECT_TRUE(targets.parse(
        {"--listen", "0.0.0.0:7000", "--lease-ms", "4000",
         "--heartbeat-ms=500", "--auth-token-file", "token"}));
    EXPECT_EQ(targets.campaign.isolation, exec::IsolationMode::Remote);
    EXPECT_EQ(targets.controller.bindAddress, "0.0.0.0");
    EXPECT_EQ(targets.controller.port, 7000u);
    EXPECT_EQ(targets.controller.lease.count(), 4000);
    EXPECT_EQ(targets.controller.heartbeat.count(), 500);
    EXPECT_EQ(targets.paths.authTokenFile, "token");
    EXPECT_FALSE(targets.parse({"--lease-ms", "0"}));
    EXPECT_FALSE(targets.parse({"--heartbeat-ms", "0"}));
    EXPECT_FALSE(targets.parse({"--listen", "host:port"}));
}

// ----- Sampling flags -----

TEST(CampaignCliOptions, ParsesSamplingFlags)
{
    CampaignTargets targets;
    EXPECT_TRUE(targets.parse({"--sample"}));
    EXPECT_TRUE(targets.parse({"--sample-unit", "500"}));
    EXPECT_TRUE(targets.parse({"--sample-warmup=1500"}));
    EXPECT_TRUE(targets.parse({"--sample-interval", "8000"}));
    EXPECT_TRUE(targets.parse({"--sample-rel-error", "0.1"}));
    EXPECT_TRUE(targets.parse({"--sample-confidence", "0.99"}));

    const exec::CampaignOptions &campaign = targets.campaign;
    EXPECT_TRUE(campaign.sampling.enabled);
    EXPECT_EQ(campaign.sampling.unitInstructions, 500u);
    EXPECT_EQ(campaign.sampling.warmupInstructions, 1500u);
    EXPECT_EQ(campaign.sampling.intervalInstructions, 8000u);
    EXPECT_DOUBLE_EQ(campaign.sampling.targetRelativeError, 0.1);
    EXPECT_DOUBLE_EQ(campaign.sampling.confidence, 0.99);
}

TEST(CampaignCliOptions, SamplingDisabledByDefault)
{
    CampaignTargets targets;
    EXPECT_FALSE(targets.campaign.sampling.enabled);
}

TEST(CampaignCliOptions, RejectsDegenerateSamplingValues)
{
    CampaignTargets targets;
    EXPECT_FALSE(targets.parse({"--sample-unit", "0"}));
    EXPECT_FALSE(targets.parse({"--sample-interval=0"}));
    EXPECT_FALSE(targets.parse({"--sample-rel-error", "0"}));
    EXPECT_FALSE(targets.parse({"--sample-rel-error", "1.5"}));
    EXPECT_FALSE(targets.parse({"--sample-confidence", "0"}));
    EXPECT_FALSE(targets.parse({"--sample=on"}));
}

TEST(CampaignCliOptions, UnknownFlagIsNotMine)
{
    CampaignTargets targets;
    EXPECT_FALSE(targets.parse({"--frobnicate"}));
    EXPECT_FALSE(targets.parse({"--frobnicate=1"}));
}

// ----- Replication / bootstrap flags -----

TEST(CampaignCliOptions, ParsesReplicationFlags)
{
    CampaignTargets targets;
    EXPECT_TRUE(targets.parse({"--replicates", "5"}));
    EXPECT_TRUE(targets.parse({"--bootstrap-iters=800"}));
    EXPECT_TRUE(targets.parse({"--bootstrap-seed", "12345"}));
    EXPECT_TRUE(targets.parse({"--stability-out", "report.json"}));
    EXPECT_EQ(targets.paths.stability, "report.json");

    const exec::CampaignOptions &campaign = targets.campaign;
    EXPECT_EQ(campaign.replication.replicates, 5u);
    EXPECT_EQ(campaign.replication.bootstrap.iterations, 800u);
    EXPECT_EQ(campaign.replication.bootstrap.seed, 12345u);
}

TEST(CampaignCliOptions, ReplicationDisabledByDefault)
{
    CampaignTargets targets;
    EXPECT_FALSE(targets.campaign.replication.enabled());
    EXPECT_EQ(targets.campaign.replication.bootstrap.seed, 0x5eedb007u);
}

TEST(CampaignCliOptions, RejectsDegenerateReplicationValues)
{
    CampaignTargets targets;
    EXPECT_FALSE(targets.parse({"--replicates", "-2"}));
    EXPECT_FALSE(targets.parse({"--bootstrap-iters", "0"}));
    EXPECT_FALSE(targets.parse({"--bootstrap-seed", "nope"}));
}

// ----- Parse-time remote pre-flight -----

namespace
{

/** Rule ids of a sink's diagnostics, in report order. */
std::vector<std::string>
ruleIds(const check::DiagnosticSink &sink)
{
    std::vector<std::string> ids;
    for (const check::Diagnostic &d : sink.diagnostics())
        ids.push_back(d.ruleId);
    return ids;
}

/** Parse a remote campaign with a three-worker fleet and the given
 *  lease and heartbeat flags into @p targets. */
void
remoteFleet(CampaignTargets &targets, const std::string &lease_ms,
            const std::string &heartbeat_ms)
{
    EXPECT_TRUE(targets.parse({"--listen", "127.0.0.1:0", "--workers",
                               "3", "--lease-ms", lease_ms,
                               "--heartbeat-ms", heartbeat_ms}));
}

} // namespace

TEST(CampaignCliOptions, RemotePreflightAcceptsTheDefaultTopology)
{
    CampaignTargets remote;
    remoteFleet(remote, "10000", "1000");
    EXPECT_TRUE(remote.remotePreflight().passed());
    // Thread isolation has no topology to check.
    EXPECT_TRUE(CampaignTargets{}.remotePreflight().passed());
}

TEST(CampaignCliOptions, RemotePreflightDoesNotWrapAHugeHeartbeat)
{
    // 2^31 ms doubled wraps to 0 in 32-bit arithmetic, which would
    // pass a heartbeat of half the lease window.
    CampaignTargets targets;
    remoteFleet(targets, "4294967295", "2147483648");
    EXPECT_EQ(ruleIds(targets.remotePreflight()),
              (std::vector<std::string>{
                  check::rules::kCampaignHeartbeatTooCoarse}));
}

TEST(CampaignCliOptions, RemotePreflightNamesLeaseNotExceedingHeartbeat)
{
    CampaignTargets targets;
    remoteFleet(targets, "1000", "1000");
    EXPECT_EQ(ruleIds(targets.remotePreflight()),
              (std::vector<std::string>{
                  check::rules::kCampaignLeaseShorterThanDeadline}));
}

TEST(CampaignCliOptions, RemotePreflightCatchesAnEmptyFleetAndDeadline)
{
    CampaignTargets targets;
    EXPECT_TRUE(targets.parse(
        {"--listen", "127.0.0.1:0", "--deadline-ms", "20000"}));
    EXPECT_EQ(ruleIds(targets.remotePreflight()),
              (std::vector<std::string>{
                  check::rules::kCampaignNoWorkers,
                  check::rules::kCampaignLeaseShorterThanDeadline}));
}

TEST(CampaignCliOptions, SkipPreflightSkipsTheRemotePreflight)
{
    CampaignTargets targets;
    remoteFleet(targets, "1000", "2147483648");
    EXPECT_FALSE(targets.remotePreflight().passed());
    EXPECT_TRUE(targets.parse({"--skip-preflight"}));
    EXPECT_TRUE(targets.remotePreflight().diagnostics().empty());
}
