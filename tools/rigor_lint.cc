/**
 * @file
 * rigor_lint — standalone static analysis of experiment inputs.
 *
 * Lints exported CSV design matrices and "key = value" experiment
 * spec files with the same analyzers the in-process pre-flight runs,
 * printing clang-style diagnostics and exiting non-zero when any
 * error (or, under --Werror, warning) is found:
 *
 *     rigor_lint design.csv                 # ±1 / balance / orthogonality
 *     rigor_lint --foldover design.csv      # + exact foldover complement
 *     rigor_lint --factors 43 design.csv    # + column-count check
 *     rigor_lint experiment.spec            # config / workload / run lint
 *     rigor_lint --audit-parameter-space    # Tables 6-8 self-check
 *     rigor_lint stability.json             # rank-stability report audit
 *     rigor_lint --list-rules               # every rule id + severity
 *
 * Files ending in .csv are linted as designs, files ending in .json
 * as rank-stability reports (--stability-out output), and anything
 * else as a spec. Use --design / --spec / --stability before a file
 * to force its kind.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/config_check.hh"
#include "check/csv_lint.hh"
#include "check/diagnostic.hh"
#include "check/rule_ids.hh"
#include "check/rule_table.hh"
#include "check/spec_lint.hh"
#include "check/stability_check.hh"
#include "cli_options.hh"

namespace
{

using rigor::check::DesignCheckOptions;
using rigor::check::Diagnostic;
using rigor::check::DiagnosticSink;
using rigor::check::Severity;

enum class FileKind
{
    Auto,
    Design,
    Spec,
    Stability,
};

struct CliOptions
{
    DesignCheckOptions design;
    rigor::check::StabilityCheckOptions stability;
    /** campaign.under-replicated floor for stability reports. */
    unsigned minReplicates = 3;
    bool auditParameterSpace = false;
    bool listRules = false;
    bool warningsAsErrors = false;
    bool quiet = false;
    /** (kind, path) pairs in command-line order. */
    std::vector<std::pair<FileKind, std::string>> files;
};

/** rigor_lint's table; --design/--spec/--stability set the kind of
 *  the next file only. */
rigor::tools::FlagTable
lintTable(CliOptions &options, FileKind &nextKind)
{
    namespace tools = rigor::tools;
    const auto kind = [&nextKind](FileKind fileKind) -> tools::Binder {
        return [&nextKind, fileKind](const std::string &) {
            nextKind = fileKind;
            return std::string();
        };
    };
    return {
        {"--design", "", "treat the next file as a CSV design",
         kind(FileKind::Design)},
        {"--spec", "", "treat the next file as an experiment spec",
         kind(FileKind::Spec)},
        {"--stability", "", "treat the next file as a stability report",
         kind(FileKind::Stability)},
        {"--foldover", "", "require the exact foldover complement",
         tools::setTo(options.design.requireFoldover, true)},
        {"--no-pb", "", "drop the Plackett-Burman shape checks",
         tools::setTo(options.design.requirePlackettBurman, false)},
        {"--factors", "N", "require exactly N factor columns",
         tools::sizeInto(options.design.expectedFactors)},
        {"--top-factors", "N", "stability rules cover the top N factors",
         tools::unsignedInto(options.stability.topFactors)},
        {"--flip-threshold", "X", "rank-flip probability that is an error",
         tools::doubleInto(options.stability.flipThreshold)},
        {"--min-replicates", "N", "replicate floor for stability reports",
         tools::unsignedInto(options.minReplicates)},
        {"--audit-parameter-space", "", "lint the built-in Tables 6-8 space",
         tools::setTo(options.auditParameterSpace, true)},
        {"--list-rules", "",
         "print every rule id with its default\n"
         "severity and description, then exit",
         tools::setTo(options.listRules, true)},
        {"--Werror", "", "treat warnings as errors",
         tools::setTo(options.warningsAsErrors, true)},
        {"--quiet", "", "print only errors",
         tools::setTo(options.quiet, true)},
    };
}

const char *
severityName(Severity severity)
{
    switch (severity) {
    case Severity::Error:
        return "error";
    case Severity::Warning:
        return "warning";
    case Severity::Note:
        return "note";
    }
    return "unknown";
}

/** --list-rules: the registry, one aligned row per rule. */
int
listRules()
{
    std::size_t width = 0;
    for (const rigor::check::RuleInfo &rule :
         rigor::check::ruleTable())
        width = std::max(width, std::string(rule.id).size());
    for (const rigor::check::RuleInfo &rule :
         rigor::check::ruleTable())
        std::fprintf(stdout, "%-*s  %-7s  %s\n",
                     static_cast<int>(width), rule.id,
                     severityName(rule.defaultSeverity),
                     rule.summary);
    return 0;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    out = buffer.str();
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions options;
    FileKind next_kind = FileKind::Auto;
    const rigor::tools::FlagTable table = lintTable(options, next_kind);
    const bool parsed = rigor::tools::parseFlags(
        table, std::vector<std::string>(argv + 1, argv + argc),
        "rigor_lint", [&](const std::string &file) {
            options.files.emplace_back(next_kind, file);
            next_kind = FileKind::Auto;
        });
    if (!parsed || (!options.auditParameterSpace && !options.listRules &&
                    options.files.empty()))
        return rigor::tools::usage(
            argv[0], "[options] <file>...",
            "Lint exported CSV design matrices (*.csv) and experiment\n"
            "spec files before any simulation spends cycles on them.\n",
            table);

    if (options.listRules)
        return listRules();

    DiagnosticSink sink;

    if (options.auditParameterSpace)
        rigor::check::checkParameterSpace(sink);

    for (const auto &[kind, path] : options.files) {
        std::string text;
        if (!readFile(path, text)) {
            sink.error(rigor::check::rules::kLintUnreadableFile,
                       "cannot read file", {path, 0, {}});
            continue;
        }
        FileKind resolved = kind;
        if (resolved == FileKind::Auto) {
            if (path.ends_with(".csv"))
                resolved = FileKind::Design;
            else if (path.ends_with(".json"))
                resolved = FileKind::Stability;
            else
                resolved = FileKind::Spec;
        }
        switch (resolved) {
        case FileKind::Design:
            rigor::check::lintDesignCsv(text, path, options.design,
                                        sink);
            break;
        case FileKind::Stability:
            rigor::check::lintStabilityReport(text, path,
                                              options.stability,
                                              options.minReplicates,
                                              sink);
            break;
        default:
            rigor::check::lintExperimentSpec(text, path, sink);
            break;
        }
    }

    for (const Diagnostic &d : sink.diagnostics()) {
        if (options.quiet && d.severity != Severity::Error)
            continue;
        std::fprintf(stderr, "%s\n", d.toString().c_str());
    }
    if (!options.quiet || sink.errorCount() > 0)
        std::fprintf(stderr, "rigor_lint: %s\n",
                     sink.summary().c_str());

    const bool failed =
        sink.errorCount() > 0 ||
        (options.warningsAsErrors && sink.warningCount() > 0);
    return failed ? 1 : 0;
}
