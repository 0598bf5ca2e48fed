#include "cli_options.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace rigor::tools
{

namespace
{

/** strtoull with whole-string and range enforcement. Rejects a
 *  leading sign: strtoull would silently wrap "-1" to 2^64-1, turning
 *  a typo'd negative into an absurdly large limit. */
bool
parseRaw(const char *text, unsigned long long &out)
{
    if (text == nullptr || *text < '0' || *text > '9')
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(text, &end, 10);
    return errno == 0 && end != nullptr && *end == '\0';
}

/** A fault-drill kind by its exec::toString name ("segfault",
 *  "drop-connection", ...); TokenMismatch is the last kind. */
bool
parseFaultKind(const std::string &text, exec::FaultKind &kind)
{
    for (int k = 0; k <= static_cast<int>(exec::FaultKind::TokenMismatch);
         ++k) {
        const auto candidate = static_cast<exec::FaultKind>(k);
        if (exec::toString(candidate) == text) {
            kind = candidate;
            return true;
        }
    }
    return false;
}

} // namespace

bool
parseUnsigned(const char *text, unsigned &out)
{
    unsigned long long raw = 0;
    if (!parseRaw(text, raw) ||
        raw > static_cast<unsigned long long>(~0u))
        return false;
    out = static_cast<unsigned>(raw);
    return true;
}

bool
parseUint64(const char *text, std::uint64_t &out)
{
    unsigned long long raw = 0;
    if (!parseRaw(text, raw))
        return false;
    out = raw;
    return true;
}

bool
parseSize(const char *text, std::size_t &out)
{
    unsigned long long raw = 0;
    if (!parseRaw(text, raw) || raw > SIZE_MAX)
        return false;
    out = static_cast<std::size_t>(raw);
    return true;
}

bool
parseDouble(const char *text, double &out)
{
    if (text == nullptr || *text == '\0')
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtod(text, &end);
    return errno == 0 && end != nullptr && *end == '\0';
}

bool
parseFaultSpec(const std::string &spec, std::string &head,
               unsigned &attempt, exec::FaultKind &kind)
{
    const std::size_t last = spec.rfind(':');
    if (last == std::string::npos || last == 0)
        return false;
    const std::size_t mid = spec.rfind(':', last - 1);
    if (mid == std::string::npos)
        return false;
    head = spec.substr(0, mid);
    const std::string attempt_text =
        spec.substr(mid + 1, last - mid - 1);
    if (head.empty() || attempt_text.empty())
        return false;
    if (!parseUnsigned(attempt_text.c_str(), attempt) || attempt == 0)
        return false;
    return parseFaultKind(spec.substr(last + 1), kind);
}

bool
parseEndpoint(const std::string &text, std::string &host,
              std::uint16_t &port)
{
    if (text.empty())
        return false;
    const std::size_t colon = text.rfind(':');
    std::string host_part;
    std::string port_part;
    if (colon != std::string::npos) {
        host_part = text.substr(0, colon);
        port_part = text.substr(colon + 1);
        if (host_part.empty() || port_part.empty())
            return false;
    } else if (text.find_first_not_of("0123456789") ==
               std::string::npos) {
        port_part = text; // bare number: a port on the current host
    } else {
        host_part = text; // bare name: a host on the current port
    }
    if (!host_part.empty())
        host = host_part;
    if (!port_part.empty()) {
        unsigned raw = 0;
        if (!parseUnsigned(port_part.c_str(), raw) || raw > 65535)
            return false;
        port = static_cast<std::uint16_t>(raw);
    }
    return true;
}

bool
splitList(const std::string &csv, std::vector<std::string> &out)
{
    std::size_t start = 0;
    while (start <= csv.size()) {
        const std::size_t comma = csv.find(',', start);
        const std::string item =
            csv.substr(start, comma == std::string::npos
                                  ? std::string::npos
                                  : comma - start);
        if (item.empty())
            return false;
        out.push_back(item);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return !out.empty();
}


namespace
{

constexpr const char *kHelp = "--help";
constexpr const char *kWantUnsigned = "want an unsigned integer";
constexpr const char *kWantPositive = "want a positive integer";

/** Parse with @p parse into @p out, then enforce @p bound. */
template <typename T, typename Parse>
std::string
bindNumber(const std::string &value, T &out, Bound bound, Parse parse)
{
    T parsed{};
    if (!parse(value.c_str(), parsed) ||
        (bound == Bound::Positive && parsed == T{}))
        return bound == Bound::Positive ? kWantPositive : kWantUnsigned;
    out = parsed;
    return "";
}

} // namespace

Binder
setTo(bool &out, bool value)
{
    return [&out, value](const std::string &) {
        out = value;
        return std::string();
    };
}

Binder
unsignedInto(unsigned &out, Bound bound)
{
    return [&out, bound](const std::string &value) {
        return bindNumber(value, out, bound, parseUnsigned);
    };
}

Binder
uint64Into(std::uint64_t &out, Bound bound)
{
    return [&out, bound](const std::string &value) {
        return bindNumber(value, out, bound, parseUint64);
    };
}

Binder
sizeInto(std::size_t &out)
{
    return [&out](const std::string &value) {
        return bindNumber(value, out, Bound::Any, parseSize);
    };
}

Binder
millisInto(std::chrono::milliseconds &out, Bound bound)
{
    return [&out, bound](const std::string &value) {
        unsigned ms = 0;
        std::string want = bindNumber(value, ms, bound, parseUnsigned);
        if (want.empty())
            out = std::chrono::milliseconds(ms);
        return want;
    };
}

Binder
doubleInto(double &out)
{
    return [&out](const std::string &value) {
        return parseDouble(value.c_str(), out) ? std::string()
                                               : "want a number";
    };
}

Binder
fractionInto(double &out, bool open)
{
    return [&out, open](const std::string &value) {
        double parsed = 0.0;
        const bool inside =
            parseDouble(value.c_str(), parsed) &&
            (open ? parsed > 0.0 && parsed < 1.0
                  : parsed >= 0.0 && parsed <= 1.0);
        if (!inside)
            return std::string(open ? "want (0, 1)" : "want [0, 1]");
        out = parsed;
        return std::string();
    };
}

Binder
textInto(std::string &out)
{
    return [&out](const std::string &value) {
        out = value;
        return std::string();
    };
}

Flag
isolationFlag(exec::IsolationMode &mode, bool allowRemote)
{
    return {"--isolation", "MODE",
            allowRemote
                ? "thread | process | remote; process\n"
                  "forks sandbox workers that survive\n"
                  "crash, OOM, and hangs; remote shards\n"
                  "cells across a TCP worker fleet"
                : "thread | process; process forks a\n"
                  "local sandbox pool for the attempts",
            [&mode, allowRemote](const std::string &value) {
                exec::IsolationMode parsed{};
                if (!exec::parseIsolationMode(value, parsed) ||
                    (!allowRemote &&
                     parsed == exec::IsolationMode::Remote))
                    return std::string(
                        allowRemote ? "want thread | process | remote"
                                    : "want thread | process");
                mode = parsed;
                return std::string();
            }};
}

Flag
memLimitFlag(std::uint64_t &memLimitMb)
{
    return {"--mem-limit-mb", "N",
            "per-sandbox memory cap in MiB\n"
            "(omit to disable the cap)",
            uint64Into(memLimitMb, Bound::Positive)};
}

Flag
hardDeadlineFlag(std::chrono::milliseconds &hardDeadline)
{
    return {"--hard-deadline-ms", "N",
            "SIGKILL a sandbox attempt past this\n"
            "(omit to disable the watchdog)",
            millisInto(hardDeadline, Bound::Positive)};
}

Flag
authTokenFileFlag(std::string &path)
{
    return {"--auth-token-file", "PATH",
            "shared fleet token; the controller\n"
            "demands an HMAC challenge-response\n"
            "before any lease is granted",
            textInto(path)};
}

Flag
injectLabelFlag(exec::FaultInjector &injector)
{
    return {"--inject-label", "S:A:KIND",
            "fault attempt A of jobs whose label\n"
            "contains S (KIND: transient|permanent|\n"
            "hang|segfault|abort|busy-loop|\n"
            "alloc-bomb|kill|drop-connection|\n"
            "stall-heartbeat|corrupt-frame|\n"
            "partition|reconnect-storm|slow-loris|\n"
            "duplicate-session|token-mismatch)",
            [&injector](const std::string &value) {
                std::string label;
                unsigned attempt = 0;
                exec::FaultKind kind{};
                if (!parseFaultSpec(value, label, attempt, kind))
                    return std::string("want S:A:KIND");
                injector.addLabelFault(label, attempt, kind);
                return std::string();
            }};
}

FlagTable
campaignFlags(exec::CampaignOptions &campaign,
              exec::net::ControllerOptions &controller,
              CampaignPaths &paths)
{
    // A lost worker's session is parked for 5 s unless the command
    // line says otherwise (the library default is no parking).
    controller.sessionGrace = std::chrono::milliseconds(5000);
    exec::FaultPolicy &policy = campaign.faultPolicy;
    sample::SamplingOptions &sampling = campaign.sampling;
    stats::ReplicationOptions &replication = campaign.replication;
    return {
        {"--threads", "N", "worker threads (0 = hardware)",
         unsignedInto(campaign.threads)},
        {"--no-foldover", "", "44-run base design instead of 88",
         setTo(campaign.foldover, false)},
        {"--skip-preflight", "", "skip the pre-flight static analysis",
         setTo(campaign.skipPreflight, true)},
        {"--retries", "N", "extra attempts per job (default 0)",
         [&policy](const std::string &value) {
             unsigned retries = 0;
             std::string want =
                 bindNumber(value, retries, Bound::Any, parseUnsigned);
             if (want.empty())
                 policy.maxAttempts = retries + 1;
             return want;
         }},
        {"--backoff-ms", "N", "base backoff, doubled per retry",
         millisInto(policy.backoffBase)},
        {"--backoff-jitter", "F",
         "randomize away up to F of each\n"
         "backoff (seeded, replayable; [0,1])",
         fractionInto(policy.backoffJitter, false)},
        {"--backoff-seed", "N", "seed of the jitter stream",
         uint64Into(policy.backoffSeed)},
        {"--deadline-ms", "N", "per-attempt deadline (0 = none)",
         millisInto(policy.attemptDeadline)},
        isolationFlag(campaign.isolation, true),
        memLimitFlag(campaign.memLimitMb),
        hardDeadlineFlag(campaign.hardDeadline),
        {"--listen", "HOST:PORT",
         "remote: controller listen endpoint\n"
         "(implies --isolation remote; port 0\n"
         "= kernel-assigned)",
         [&campaign, &controller](const std::string &value) {
             if (!parseEndpoint(value, controller.bindAddress,
                                controller.port))
                 return std::string("want HOST:PORT, HOST, or PORT");
             campaign.isolation = exec::IsolationMode::Remote;
             return std::string();
         }},
        {"--workers", "N",
         "remote: wait for N workers before\n"
         "the campaign starts",
         unsignedInto(campaign.remoteWorkers)},
        {"--lease-ms", "N",
         "remote: worker-silence budget before\n"
         "its cells are reclaimed and requeued\n"
         "(default 10000)",
         millisInto(controller.lease, Bound::Positive)},
        {"--heartbeat-ms", "N",
         "remote: worker heartbeat cadence\n"
         "(default 1000; must stay under half\n"
         "the lease)",
         millisInto(controller.heartbeat, Bound::Positive)},
        {"--session-grace-ms", "N",
         "remote: hold a disconnected worker's\n"
         "leases this long awaiting a session\n"
         "resume with the same id (default\n"
         "5000; 0 = reclaim immediately)",
         millisInto(controller.sessionGrace)},
        authTokenFileFlag(paths.authTokenFile),
        {"--collect", "", "quarantine failures, don't fail fast",
         setTo(policy.collectFailures, true)},
        {"--degrade", "MODE", "abort | drop-benchmark (with --collect)",
         [&campaign](const std::string &value) {
             if (value == "abort")
                 campaign.degradation = check::DegradationMode::Abort;
             else if (value == "drop-benchmark")
                 campaign.degradation =
                     check::DegradationMode::DropBenchmark;
             else
                 return std::string("want abort | drop-benchmark");
             return std::string();
         }},
        {"--sample", "",
         "SMARTS-style sampled simulation:\n"
         "periodic detailed units with CPI CIs\n"
         "instead of full detailed runs",
         setTo(sampling.enabled, true)},
        {"--sample-unit", "N",
         "measured instructions per unit\n"
         "(default 1000)",
         uint64Into(sampling.unitInstructions, Bound::Positive)},
        {"--sample-warmup", "N",
         "detailed warm-up before each unit\n"
         "(default 2000)",
         uint64Into(sampling.warmupInstructions)},
        {"--sample-interval", "N",
         "one unit every N instructions\n"
         "(default 10000)",
         uint64Into(sampling.intervalInstructions, Bound::Positive)},
        {"--sample-rel-error", "F",
         "target relative CI half-width on\n"
         "CPI (default 0.05)",
         fractionInto(sampling.targetRelativeError, true)},
        {"--sample-confidence", "F", "CI confidence level (default 0.95)",
         fractionInto(sampling.confidence, true)},
        {"--replicates", "R",
         "run R independently seeded workload\n"
         "realizations and bootstrap rank CIs\n"
         "(0 = single realization; the\n"
         "pre-flight floor is 3)",
         unsignedInto(replication.replicates)},
        {"--bootstrap-iters", "N", "bootstrap resamples (default 2000)",
         uint64Into(replication.bootstrap.iterations, Bound::Positive)},
        {"--bootstrap-seed", "N", "seed of the deterministic bootstrap",
         uint64Into(replication.bootstrap.seed)},
        {"--stability-out", "PATH", "write the stability report JSON",
         textInto(paths.stability)},
        {"--journal", "PATH", "crash-safe journal; rerun to resume",
         textInto(paths.journal)},
        {"--metrics-out", "PATH", "write the metrics registry as JSON",
         textInto(paths.metrics)},
        {"--trace-out", "PATH", "write a Chrome/Perfetto trace JSON",
         textInto(paths.trace)},
        {"--manifest-out", "PATH", "write the campaign manifest (JSONL)",
         textInto(paths.manifest)},
        {"--bench-out", "PATH", "write a wall-time/throughput report",
         textInto(paths.bench)},
    };
}

check::DiagnosticSink
remotePreflight(const exec::CampaignOptions &campaign,
                const exec::net::ControllerOptions &controller)
{
    check::DiagnosticSink sink;
    if (!campaign.skipPreflight)
        check::checkRemotePlan(
            exec::net::remotePlanFor(campaign, controller), sink);
    return sink;
}

bool
parseFlags(const FlagTable &table, const std::vector<std::string> &args,
           const std::string &program, const Positional &positional)
{
    const auto fail = [&program](const std::string &message) {
        std::fprintf(stderr, "%s: %s\n", program.c_str(),
                     message.c_str());
        return false;
    };
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == kHelp || arg == "-h")
            return false;
        if (!arg.starts_with('-')) {
            if (!positional)
                return fail("unexpected argument " + arg);
            positional(arg);
            continue;
        }
        const std::size_t eq =
            arg.starts_with("--") ? arg.find('=') : std::string::npos;
        const std::string name = arg.substr(0, eq);
        const auto row = std::find_if(
            table.begin(), table.end(),
            [&name](const Flag &flag) { return flag.name == name; });
        if (row == table.end())
            return fail("unknown option " + arg);
        std::string value;
        if (eq != std::string::npos) {
            if (row->metavar.empty())
                return fail(name + " takes no value");
            value = arg.substr(eq + 1);
        } else if (!row->metavar.empty()) {
            if (i + 1 == args.size())
                return fail(name + " needs an argument");
            value = args[++i];
        }
        const std::string want = row->bind(value);
        if (!want.empty()) {
            std::fprintf(stderr, "%s: bad %s value '%s' (%s)\n",
                         program.c_str(), name.c_str(), value.c_str(),
                         want.c_str());
            return false;
        }
    }
    return true;
}

std::string
renderHelp(const FlagTable &table)
{
    // Help text starts in column 25; a longer label gets two spaces.
    constexpr std::size_t kColumn = 25;
    std::string out;
    const auto entry = [&out](std::string label,
                              const std::string &help) {
        label.append(label.size() < kColumn ? kColumn - label.size() : 2,
                     ' ');
        out += label;
        for (const char c : help) {
            out += c;
            if (c == '\n')
                out.append(kColumn, ' ');
        }
        out += '\n';
    };
    for (const Flag &flag : table) {
        std::string label = "  " + flag.name;
        if (!flag.metavar.empty())
            label += " " + flag.metavar;
        entry(std::move(label), flag.help);
    }
    entry(std::string("  ") + kHelp, "show this help");
    return out;
}

int
usage(const char *argv0, const char *synopsis, const char *about,
      const FlagTable &table)
{
    std::fprintf(stderr, "usage: %s %s\n\n%s\noptions:\n%s", argv0,
                 synopsis, about, renderHelp(table).c_str());
    return 2;
}

} // namespace rigor::tools
