/**
 * @file
 * campaign — fault-tolerant Plackett-Burman experiment campaigns.
 *
 * Runs the paper's Table 9 screening experiment under an explicit
 * FaultPolicy (bounded retries, exponential backoff, per-attempt
 * deadlines), with optional crash-safe journaling so an interrupted
 * campaign resumes from disk, a deterministic fault-injection harness
 * for drills, and first-class observability sinks:
 *
 *     campaign --workloads gzip,mcf --instructions 20000
 *     campaign --journal run.journal --retries 2 --backoff-ms 10
 *     campaign --journal run.journal            # resume: replays
 *     campaign --collect --degrade drop-benchmark
 *     campaign --inject 5:1:transient --retries 1
 *     campaign --inject-label "mcf:":1:hang --deadline-ms 50
 *     campaign --journal run.journal --crash-after 40   # crash drill
 *     campaign --metrics-out m.json --trace-out t.json \
 *              --manifest-out run.jsonl --bench-out BENCH_4.json
 *     campaign --listen 127.0.0.1:0 --workers 3 --port-file port \
 *              --lease-ms 4000 --heartbeat-ms 500   # distributed
 *
 * The trace JSON loads directly in chrome://tracing / Perfetto; the
 * manifest is one JSON object per line (campaign / cell / phase /
 * summary records); the metrics JSON snapshots every engine counter,
 * gauge, and histogram.
 *
 * Distributed runs: --auth-token-file demands an HMAC
 * challenge-response from every worker before a lease is granted. A
 * worker that goes silent past --lease-ms, or whose connection
 * breaks, is lost: its cells are requeued onto the rest of the fleet.
 * A campaign killed mid-run resumes from its --journal.
 *
 * Exit codes: 0 success (possibly degraded, with warnings printed),
 * 1 campaign failure, 2 usage error, 3 simulated crash (resume with
 * the same --journal).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/campaign_check.hh"
#include "cli_options.hh"
#include "exec/fault_injection.hh"
#include "exec/journal.hh"
#include "exec/net/auth.hh"
#include "exec/net/controller.hh"
#include "methodology/adaptive_sampling.hh"
#include "methodology/pb_experiment.hh"
#include "methodology/rank_stability.hh"
#include "methodology/rank_table.hh"
#include "obs/bench_report.hh"
#include "obs/manifest.hh"
#include "obs/metrics.hh"
#include "obs/trace_span.hh"
#include "trace/workloads.hh"

namespace
{

namespace tools = rigor::tools;

/** Everything campaign's flag table binds into. */
struct CliOptions
{
    rigor::methodology::PbExperimentOptions pb;
    rigor::exec::net::ControllerOptions controller;
    tools::CampaignPaths paths;
    /** The fault-injection plan (empty = the real simulator). */
    rigor::exec::FaultInjector injector;
    std::vector<std::string> workloads;
    /** With --sample: refine statistically ambiguous cells for up
     *  to N total rounds (0 = single-pass screen). */
    unsigned adaptiveRounds = 0;
    /** Crash drill: die after this many journal appends. */
    std::optional<std::size_t> crashAfter;
    /** Seeded transient storm: (rate, seed). */
    std::optional<std::pair<double, std::uint64_t>> randomStorm;
    bool quiet = false;
    /** Remote: write the bound controller port here (CI rendezvous
     *  with kernel-assigned ports). */
    std::string portFile;
    /** Remote: how long to wait for --workers to connect. */
    unsigned workerWaitMs = 30000;
};

/** The run-length rows, the shared campaign rows, then the drills
 *  and remote rendezvous. */
tools::FlagTable
campaignTable(CliOptions &cli)
{
    // The command line's default run length (the library's is 200k).
    cli.pb.instructionsPerRun = 20000;
    tools::FlagTable table = {
        {"--workloads", "a,b,c", "benchmarks to run (default: all 13)",
         [&cli](const std::string &value) {
             return tools::splitList(value, cli.workloads)
                        ? std::string()
                        : "want a comma-separated list";
         }},
        {"--instructions", "N", "measured instructions per run",
         tools::uint64Into(cli.pb.instructionsPerRun)},
        {"--warmup", "N", "warm-up instructions per run",
         tools::uint64Into(cli.pb.warmupInstructions)},
    };
    const tools::FlagTable shared =
        tools::campaignFlags(cli.pb.campaign, cli.controller, cli.paths);
    table.insert(table.end(), shared.begin(), shared.end());
    const tools::FlagTable own = {
        {"--adaptive-rounds", "N",
         "with --sample: re-run benchmarks\n"
         "whose top-factor effects are inside\n"
         "their CI with a denser schedule, up\n"
         "to N total rounds",
         tools::unsignedInto(cli.adaptiveRounds,
                             tools::Bound::Positive)},
        {"--crash-after", "N", "crash drill: die after N appends",
         [&cli](const std::string &value) {
             std::size_t appends = 0;
             if (!tools::parseSize(value.c_str(), appends))
                 return std::string("want an unsigned integer");
             cli.crashAfter = appends;
             return std::string();
         }},
        {"--inject", "J:A:KIND",
         "fault job J, attempt A\n"
         "(KIND: transient|permanent|hang|\n"
         " segfault|abort|busy-loop|\n"
         " alloc-bomb|kill; the last five\n"
         " need --isolation process)",
         [&cli](const std::string &value) {
             std::string job_text;
             std::size_t job = 0;
             unsigned attempt = 0;
             rigor::exec::FaultKind kind{};
             if (!tools::parseFaultSpec(value, job_text, attempt, kind) ||
                 !tools::parseSize(job_text.c_str(), job))
                 return std::string("want J:A:KIND");
             cli.injector.addFault(job, attempt, kind);
             return std::string();
         }},
        tools::injectLabelFlag(cli.injector),
        {"--inject-random", "R:SEED", "seeded transient storm at rate R",
         [&cli](const std::string &value) {
             const std::size_t colon = value.find(':');
             double rate = 0.0;
             std::uint64_t seed = 0;
             if (colon == std::string::npos ||
                 !tools::parseDouble(value.substr(0, colon).c_str(),
                                     rate) ||
                 !tools::parseUint64(value.substr(colon + 1).c_str(),
                                     seed))
                 return std::string("want R:SEED");
             cli.randomStorm.emplace(rate, seed);
             return std::string();
         }},
        {"--port-file", "PATH",
         "remote: write the bound controller\n"
         "port (rendezvous for port 0)",
         tools::textInto(cli.portFile)},
        {"--worker-wait-ms", "N",
         "remote: wait this long for --workers\n"
         "to connect (default 30000)",
         tools::unsignedInto(cli.workerWaitMs)},
        {"--quiet", "", "suppress the rank table",
         tools::setTo(cli.quiet, true)},
    };
    table.insert(table.end(), own.begin(), own.end());
    return table;
}

constexpr const char *kAbout =
    "Run the 43-factor Plackett-Burman screening campaign with\n"
    "fault tolerance, crash-safe journaling, fault drills, and\n"
    "observability sinks (metrics, Perfetto trace, manifest).\n";

} // namespace

int
main(int argc, char **argv)
{
    CliOptions cli;
    const tools::FlagTable table = campaignTable(cli);
    if (!tools::parseFlags(table,
                           std::vector<std::string>(argv + 1, argv + argc),
                           "campaign"))
        return tools::usage(argv[0], "[options]", kAbout, table);
    rigor::methodology::PbExperimentOptions &opts = cli.pb;
    // A fleet the remote pre-flight would reject is refused before
    // the controller binds and waits for it.
    const rigor::check::DiagnosticSink topology =
        tools::remotePreflight(opts.campaign, cli.controller);
    if (!topology.passed()) {
        std::fprintf(stderr, "%s", topology.toString().c_str());
        return 2;
    }

    try {
        // Resolve the benchmark suite.
        std::vector<rigor::trace::WorkloadProfile> workloads;
        if (cli.workloads.empty()) {
            const auto all = rigor::trace::spec2000Workloads();
            workloads.assign(all.begin(), all.end());
        } else {
            for (const std::string &name : cli.workloads)
                workloads.push_back(
                    rigor::trace::workloadByName(name));
        }

        rigor::exec::FaultInjector &injector = cli.injector;
        if (cli.randomStorm) {
            const std::size_t rows = opts.campaign.foldover ? 88 : 44;
            injector.planRandomTransients(
                workloads.size() * rows,
                opts.campaign.faultPolicy.attempts(),
                cli.randomStorm->first, cli.randomStorm->second);
        }

        rigor::exec::EngineOptions engine_opts;
        engine_opts.threads = opts.campaign.threads;
        if (injector.plannedFaults() != 0)
            engine_opts.simulate = injector.wrap();
        rigor::exec::SimulationEngine engine(engine_opts);

        std::unique_ptr<rigor::exec::ResultJournal> journal;
        if (!cli.paths.journal.empty()) {
            journal = std::make_unique<rigor::exec::ResultJournal>(
                cli.paths.journal);
            if (journal->loadedRecords() != 0)
                std::fprintf(
                    stderr,
                    "campaign: resuming against %s (%zu completed "
                    "runs on disk%s)\n",
                    cli.paths.journal.c_str(),
                    journal->loadedRecords(),
                    journal->tornRecords() != 0
                        ? ", torn final record discarded"
                        : "");
            if (cli.crashAfter)
                journal->simulateCrashAfter(*cli.crashAfter);
        } else if (cli.crashAfter) {
            std::fprintf(stderr,
                         "campaign: --crash-after needs --journal\n");
            return 2;
        }

        // Observability sinks, created only when requested so the
        // default campaign stays sink-free.
        rigor::obs::MetricsRegistry metrics;
        rigor::obs::TraceWriter trace;
        rigor::obs::CampaignManifest manifest;
        // Remote isolation: bring up the lease-granting controller
        // and wait for the fleet before any cell is queued. Declared
        // after the manifest so its lease observer (which feeds the
        // manifest) outlives every controller thread.
        std::unique_ptr<rigor::exec::net::CampaignController>
            controller;
        if (opts.campaign.isolation ==
            rigor::exec::IsolationMode::Remote) {
            if (!cli.paths.authTokenFile.empty())
                cli.controller.authToken =
                    rigor::exec::net::loadAuthToken(
                        cli.paths.authTokenFile);
            controller = std::make_unique<
                rigor::exec::net::CampaignController>(cli.controller);
            if (!cli.paths.metrics.empty())
                controller->setMetrics(&metrics);
            const bool want_manifest = !cli.paths.manifest.empty();
            controller->setLeaseObserver(
                [&manifest, want_manifest](
                    const rigor::exec::net::LeaseEvent &event) {
                    const std::string kind =
                        rigor::exec::net::toString(event.kind);
                    std::fprintf(
                        stderr,
                        "campaign: %s worker=%s%s%s%s%s\n",
                        kind.c_str(), event.worker.c_str(),
                        event.label.empty() ? "" : " cell=",
                        event.label.c_str(),
                        event.detail.empty() ? "" : ": ",
                        event.detail.c_str());
                    if (!want_manifest)
                        return;
                    rigor::obs::LeaseEventRecord record;
                    record.kind = kind;
                    record.worker = event.worker;
                    record.leaseId = event.leaseId;
                    record.label = event.label;
                    record.detail = event.detail;
                    record.requeues = event.requeues;
                    manifest.addLeaseEvent(record);
                });
            std::fprintf(stderr,
                         "campaign: controller listening on %s:%u\n",
                         cli.controller.bindAddress.c_str(),
                         static_cast<unsigned>(controller->port()));
            if (!cli.portFile.empty()) {
                std::ofstream out(cli.portFile,
                                  std::ios::binary | std::ios::trunc);
                if (!out)
                    throw std::runtime_error(
                        "cannot open '" + cli.portFile +
                        "' for writing");
                out << controller->port() << '\n';
                if (!out)
                    throw std::runtime_error("write to '" +
                                             cli.portFile +
                                             "' failed");
            }
            if (opts.campaign.remoteWorkers != 0 &&
                !controller->waitForWorkers(
                    opts.campaign.remoteWorkers,
                    std::chrono::milliseconds(cli.workerWaitMs))) {
                std::fprintf(
                    stderr,
                    "campaign: only %u of %u workers connected "
                    "within %u ms\n",
                    controller->connectedWorkers(),
                    opts.campaign.remoteWorkers, cli.workerWaitMs);
                return 1;
            }
        }

        // Journal replays get a visible progress line naming the
        // run-cache key, so a resumed campaign shows exactly which
        // configurations were served from disk.
        if (journal && !cli.quiet)
            engine.setJobObserver(
                [](const rigor::exec::JobEvent &event) {
                    if (event.source !=
                        rigor::exec::RunSource::JournalReplay)
                        return;
                    std::fprintf(stderr,
                                 "campaign: replayed %s [key %s]\n",
                                 event.job->label.c_str(),
                                 event.runKey.c_str());
                });

        opts.campaign.engine = &engine;
        opts.campaign.journal = journal.get();
        opts.campaign.netController = controller.get();
        if (!cli.paths.metrics.empty())
            opts.campaign.metrics = &metrics;
        if (!cli.paths.trace.empty())
            opts.campaign.trace = &trace;
        if (!cli.paths.manifest.empty())
            opts.campaign.manifest = &manifest;

        if (cli.adaptiveRounds != 0 &&
            !opts.campaign.sampling.enabled) {
            std::fprintf(stderr,
                         "campaign: --adaptive-rounds needs "
                         "--sample\n");
            return 2;
        }
        if (opts.campaign.replication.replicates != 0 &&
            cli.adaptiveRounds != 0) {
            std::fprintf(stderr,
                         "campaign: --replicates and "
                         "--adaptive-rounds are mutually "
                         "exclusive\n");
            return 2;
        }
        if (!cli.paths.stability.empty() &&
            opts.campaign.replication.replicates == 0) {
            std::fprintf(stderr,
                         "campaign: --stability-out needs "
                         "--replicates\n");
            return 2;
        }

        rigor::methodology::PbExperimentResult result;
        if (opts.campaign.replication.replicates != 0) {
            rigor::methodology::RankStabilityOptions stability;
            stability.base = opts;
            rigor::methodology::ReplicatedPbResult outcome =
                rigor::methodology::runReplicatedPbExperiment(
                    workloads, stability);
            if (!cli.quiet)
                std::fprintf(
                    stdout, "%s",
                    outcome.stability.toString().c_str());
            if (!cli.paths.stability.empty()) {
                std::ofstream out(cli.paths.stability,
                                  std::ios::binary |
                                      std::ios::trunc);
                if (!out)
                    throw std::runtime_error(
                        "cannot open '" + cli.paths.stability +
                        "' for writing");
                out << outcome.stability.toJson() << '\n';
                if (!out)
                    throw std::runtime_error(
                        "write to '" + cli.paths.stability +
                        "' failed");
            }
            result = std::move(outcome.pooled);
        } else if (cli.adaptiveRounds != 0) {
            rigor::methodology::AdaptiveSamplingOptions adaptive;
            adaptive.base = opts;
            adaptive.maxRounds = cli.adaptiveRounds;
            rigor::methodology::AdaptiveSamplingResult outcome =
                rigor::methodology::runAdaptivePbExperiment(
                    workloads, adaptive);
            for (std::size_t r = 0; r < outcome.rounds.size(); ++r) {
                const rigor::methodology::AdaptiveRound &round =
                    outcome.rounds[r];
                std::fprintf(
                    stderr,
                    "campaign: sampling round %zu: interval %llu, "
                    "%zu benchmark(s), %zu ambiguous pair(s) "
                    "remain\n",
                    r,
                    static_cast<unsigned long long>(
                        round.sampling.intervalInstructions),
                    round.simulatedBenchmarks.size(),
                    round.ambiguousPairs);
            }
            std::fprintf(stderr,
                         "campaign: adaptive sampling %s after %zu "
                         "round(s)\n",
                         outcome.converged ? "converged" : "stopped",
                         outcome.rounds.size());
            result = std::move(outcome.result);
        } else {
            result = rigor::methodology::runPbExperiment(workloads,
                                                         opts);
        }

        // Degradation trail first, table second: a reduced Table 9
        // is always preceded and suffixed by what it is missing.
        if (!result.validity.diagnostics().empty())
            std::fprintf(stderr, "%s",
                         result.validity.toString().c_str());
        if (!cli.quiet)
            std::fprintf(
                stdout, "%s",
                rigor::methodology::formatRankTable(
                    result.summaries, result.benchmarks,
                    result.droppedBenchmarks)
                    .c_str());
        const rigor::exec::ProgressSnapshot progress =
            engine.progress().snapshot();
        std::fprintf(stderr, "campaign: %s\n",
                     progress.toString().c_str());

        if (!cli.paths.metrics.empty())
            metrics.writeTo(cli.paths.metrics);
        if (!cli.paths.trace.empty())
            trace.writeTo(cli.paths.trace);
        if (!cli.paths.manifest.empty())
            manifest.writeTo(cli.paths.manifest);
        if (!cli.paths.bench.empty()) {
            rigor::obs::BenchReport report;
            report.name = "campaign_pb_screen";
            report.wallSeconds = progress.wallSeconds;
            report.runsTotal = progress.runsTotal;
            report.runsCompleted = progress.runsCompleted;
            report.runsPerSecond =
                progress.wallSeconds > 0.0
                    ? static_cast<double>(progress.runsCompleted) /
                          progress.wallSeconds
                    : 0.0;
            report.simulatedInstructions =
                progress.simulatedInstructions;
            report.mips =
                progress.wallSeconds > 0.0
                    ? static_cast<double>(
                          progress.simulatedInstructions) /
                          progress.wallSeconds / 1e6
                    : 0.0;
            report.threads = engine.threads();
            report.cacheHits = progress.cacheHits;
            report.journalHits = progress.journalHits;
            report.sampled = opts.campaign.sampling.enabled;
            if (report.sampled)
                report.sampledMips = report.mips;
            rigor::obs::writeBenchReport(cli.paths.bench, report);
        }
        return 0;
    } catch (const rigor::exec::SimulatedCrash &e) {
        std::fprintf(stderr,
                     "campaign: simulated crash: %s\n"
                     "campaign: rerun with the same --journal to "
                     "resume\n",
                     e.what());
        return 3;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "campaign: %s\n", e.what());
        return 1;
    }
}
