/**
 * @file
 * The one flag table behind every rigor tool's command line.
 *
 * A tool declares its flags as a FlagTable: one Flag row per flag,
 * holding the spelling, the value's metavar, the help text, and a
 * binder that parses the value straight into its target (an
 * exec::CampaignOptions field, a net::ControllerOptions field, a
 * FaultInjector, a tool-local path). parseFlags() is the only argv
 * loop and usage() the only --help renderer, so a flag is declared
 * once and both parsed and documented from that declaration.
 *
 * campaignFlags() is the shared table of every flag that configures
 * a campaign; the isolation, resource-cap, auth-token, and drill rows
 * are factories so `worker` binds the same rows into its own targets.
 */

#ifndef RIGOR_TOOLS_CLI_OPTIONS_HH
#define RIGOR_TOOLS_CLI_OPTIONS_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "check/diagnostic.hh"
#include "exec/campaign_options.hh"
#include "exec/fault_injection.hh"
#include "exec/net/controller.hh"

namespace rigor::tools
{

/** Strict numeric parsers: entire string or failure. */
bool parseUnsigned(const char *text, unsigned &out);
bool parseUint64(const char *text, std::uint64_t &out);
bool parseSize(const char *text, std::size_t &out);
bool parseDouble(const char *text, double &out);

/** Split "a,b,c" into non-empty items; false on empty items/input. */
bool splitList(const std::string &csv,
               std::vector<std::string> &out);

/** Parse "head:attempt:kind", splitting on the LAST two colons so
 *  the head (a label substring) may itself contain colons; kind is an
 *  exec::toString(FaultKind) name. */
bool parseFaultSpec(const std::string &spec, std::string &head,
                    unsigned &attempt, exec::FaultKind &kind);

/**
 * Parse "HOST:PORT" / "PORT" / "HOST" into its parts (a bare number
 * is a port on the existing @p host; a bare name replaces the host
 * and keeps the existing port). False on a malformed port.
 */
bool parseEndpoint(const std::string &text, std::string &host,
                   std::uint16_t &port);

/**
 * Parse one flag value into its target. Returns an empty string on
 * success, otherwise what a valid value looks like ("want a positive
 * integer") for the parse loop to report. Bare flags get "".
 */
using Binder = std::function<std::string(const std::string &value)>;

/** One row of a flag table. */
struct Flag
{
    /** Spelling, "--threads". */
    std::string name;
    /** Value placeholder in the help ("N", "PATH"); empty for a bare
     *  flag, which takes no value. */
    std::string metavar;
    /** Help text; each '\n' starts an indented continuation line. */
    std::string help;
    Binder bind;
};

using FlagTable = std::vector<Flag>;

/** Binders. A Positive bound rejects zero. */
enum class Bound
{
    Any,
    Positive,
};
Binder setTo(bool &out, bool value);
Binder unsignedInto(unsigned &out, Bound bound = Bound::Any);
Binder uint64Into(std::uint64_t &out, Bound bound = Bound::Any);
Binder sizeInto(std::size_t &out);
Binder millisInto(std::chrono::milliseconds &out,
                  Bound bound = Bound::Any);
Binder doubleInto(double &out);
/** A probability: in [0, 1], or in (0, 1) when @p open. */
Binder fractionInto(double &out, bool open);
Binder textInto(std::string &out);

/**
 * Rows shared by campaign and worker. --isolation accepts remote only
 * when @p allowRemote; the caps reject zero (omit them to disable).
 */
Flag isolationFlag(exec::IsolationMode &mode, bool allowRemote);
Flag memLimitFlag(std::uint64_t &memLimitMb);
Flag hardDeadlineFlag(std::chrono::milliseconds &hardDeadline);
Flag authTokenFileFlag(std::string &path);
Flag injectLabelFlag(exec::FaultInjector &injector);

/** Output paths of the campaign rows; empty = that sink disabled.
 *  The tool constructs and owns the sinks themselves. */
struct CampaignPaths
{
    std::string journal;
    std::string metrics;
    std::string trace;
    std::string manifest;
    std::string bench;
    std::string stability;
    /** Shared fleet token file; empty = authentication off. */
    std::string authTokenFile;
};

/**
 * The shared table of every flag that configures a campaign: rows
 * bind into @p campaign (execution, fault policy, isolation,
 * sampling, replication), into @p controller (listen endpoint,
 * lease, heartbeat, session grace), and into @p paths. Sets the
 * command-line session-grace default (5 s) on @p controller.
 */
FlagTable campaignFlags(exec::CampaignOptions &campaign,
                        exec::net::ControllerOptions &controller,
                        CampaignPaths &paths);

/**
 * The remote-topology pre-flight rules (check::checkRemotePlan) over
 * a campaign and the controller options it will run with, for a
 * controller to run before it binds and waits for its fleet. Empty
 * under skipPreflight, like the campaign's own pre-flight.
 */
check::DiagnosticSink
remotePreflight(const exec::CampaignOptions &campaign,
                const exec::net::ControllerOptions &controller);

/** Called with each argument that is not a flag. */
using Positional = std::function<void(const std::string &arg)>;

/**
 * The parse loop: feed @p args (argv without argv[0]) through
 * @p table. Accepts "--flag value" and "--flag=value"; rejects
 * "=value" on a bare flag, a missing value, a value its binder
 * refuses, an unknown option, and — without @p positional — any
 * positional argument, each reported on stderr as "<program>: ...".
 * False on any of those and on --help / -h.
 */
bool parseFlags(const FlagTable &table,
                const std::vector<std::string> &args,
                const std::string &program,
                const Positional &positional = {});

/** The --help text of @p table, one aligned entry per row plus
 *  --help itself. */
std::string renderHelp(const FlagTable &table);

/**
 * Print "usage: <argv0> <synopsis>", @p about, and the table's help
 * to stderr. Returns 2, the usage-error exit code of every tool.
 */
int usage(const char *argv0, const char *synopsis, const char *about,
          const FlagTable &table);

} // namespace rigor::tools

#endif // RIGOR_TOOLS_CLI_OPTIONS_HH
