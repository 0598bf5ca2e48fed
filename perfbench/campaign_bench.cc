/**
 * @file
 * One repetition of the campaign benchmark, in a fresh process.
 *
 *   campaign_bench timed  <workload> <seed> <workdir> [verify]
 *   campaign_bench traced <workload> <seed> <workdir> <seconds>
 *
 * "timed" runs the workload's campaign through the methodology driver
 * with tracing off and prints one JSON line: set-up and wall time,
 * per-cell wall-time percentiles, peak RSS, the rank-table digest,
 * the measured-cycle total and the correctness checks; "verify" adds
 * the checks that cost a second campaign (the thread-mode re-run of a
 * sandboxed workload). perfbench/run.py starts one process per
 * repetition, verifies in the discarded warm-up repetitions, and
 * reports medians.
 *
 * "traced" runs the same campaign once for its responses, then
 * rebuilds a fixed set of probe cells from the layers' public pieces
 * under in-memory spans, and times the engine, journal, sandbox and
 * sink layers with a stub executor that returns the known responses.
 * It prints one JSON line of per-layer metrics and checks.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "check/preflight.hh"
#include "doe/effects.hh"
#include "doe/ranking.hh"
#include "enhance/precompute.hh"
#include "exec/journal.hh"
#include "exec/proc/worker_pool.hh"
#include "glue.hh"
#include "methodology/enhancement_analysis.hh"
#include "methodology/parameter_space.hh"
#include "methodology/pb_experiment.hh"
#include "methodology/rank_table.hh"
#include "obs/manifest.hh"
#include "obs/metrics.hh"
#include "obs/trace_span.hh"
#include "sample/sampling.hh"
#include "sim/core.hh"
#include "sim/memory_system.hh"
#include "trace/generator.hh"
#include "trace/vector_source.hh"
#include "workload.hh"

namespace fs = std::filesystem;
using namespace rigor;
using perfbench::Clock;
using perfbench::secondsBetween;

namespace
{

/** One finished cell as the engine's job observer saw it. */
struct CellTime
{
    /** Start, seconds after the driver call. */
    double start = 0.0;
    double wall = 0.0;
    bool ok = false;
    /** Relative CPI CI half-width of a sampled run; 0 otherwise. */
    double sampleRelCi = 0.0;
};

/** Thread-safe collector of cell times (observers run on workers). */
class CellLog
{
  public:
    explicit CellLog(Clock::time_point origin) : _origin(origin) {}

    void record(const exec::JobEvent &event)
    {
        const double done = secondsBetween(_origin, Clock::now());
        const std::scoped_lock lock(_mutex);
        _cells.push_back({done - event.wallSeconds, event.wallSeconds,
                          event.ok,
                          event.sampled ? event.sample.relativeError
                                        : 0.0});
    }

    std::vector<CellTime> cells() const
    {
        const std::scoped_lock lock(_mutex);
        return _cells;
    }

  private:
    Clock::time_point _origin;
    mutable std::mutex _mutex;
    std::vector<CellTime> _cells;
};

/** Everything one campaign of a workload produced. */
struct Campaign
{
    /** The base screen, then (enhanced workloads) the hooked one. */
    std::vector<methodology::PbExperimentResult> legs;
    std::vector<CellTime> cells;
    double setupSeconds = 0.0;
    double wallSeconds = 0.0;
    obs::MetricsRegistry metrics;
    fs::path journalPath;

    std::size_t failedCells() const
    {
        return static_cast<std::size_t>(
            std::count_if(cells.begin(), cells.end(),
                          [](const CellTime &c) { return !c.ok; }));
    }

    /** Sum of every cell's response rounded to whole cycles. */
    std::uint64_t measuredCyclesTotal() const
    {
        std::uint64_t total = 0;
        for (const methodology::PbExperimentResult &leg : legs)
            for (const std::vector<double> &bench : leg.responses)
                for (double r : bench)
                    total += static_cast<std::uint64_t>(std::llround(r));
        return total;
    }

    std::string digest() const
    {
        std::string d;
        for (const methodology::PbExperimentResult &leg : legs) {
            if (!d.empty())
                d += '+';
            d += methodology::rankTableDigest(leg.summaries);
        }
        return d;
    }
};

/**
 * Run the workload's campaign through its methodology driver. The
 * clock starts at the driver call (the precomputation profiling of
 * the enhanced workload included) and stops once the rank tables are
 * back and, for durable workloads, the sinks are on disk.
 *
 * @p attach_journal adds a durable workload's fsync'd journal. Timed
 * repetitions leave it off: each record's fsync waits on the host's
 * shared disk, whose latency moved the campaign's times by more than
 * their bounds between sets of runs (README.md, "The journal's fsync").
 */
std::unique_ptr<Campaign>
runCampaign(const perfbench::WorkloadSpec &spec,
            const std::vector<trace::WorkloadProfile> &profiles,
            const fs::path &dir, bool attach_metrics, bool attach_journal)
{
    auto out = std::make_unique<Campaign>();
    out->journalPath = dir / "journal.jnl";
    fs::remove(out->journalPath);
    obs::TraceWriter trace_sink;
    obs::CampaignManifest manifest;
    std::unique_ptr<exec::ResultJournal> journal;

    const Clock::time_point t0 = Clock::now();
    CellLog log(t0);
    exec::SimulationEngine engine(exec::EngineOptions{0, true});
    engine.setJobObserver(
        [&log](const exec::JobEvent &event) { log.record(event); });

    methodology::PbExperimentOptions opts =
        perfbench::experimentOptions(spec);
    opts.campaign.engine = &engine;
    if (attach_metrics || spec.durableSinks)
        opts.campaign.metrics = &out->metrics;
    if (spec.durableSinks && attach_journal) {
        journal = std::make_unique<exec::ResultJournal>(
            out->journalPath.string());
        opts.campaign.journal = journal.get();
    }
    if (spec.durableSinks) {
        opts.campaign.trace = &trace_sink;
        opts.campaign.manifest = &manifest;
    }

    if (spec.enhanced) {
        const perfbench::PrecomputeTables tables =
            perfbench::profileTables(profiles, spec.streamLength());
        methodology::EnhancementExperimentResult pair =
            methodology::runEnhancementExperiment(
                profiles, opts, perfbench::hookFactory(tables),
                perfbench::kHookId);
        out->legs.push_back(std::move(pair.base));
        out->legs.push_back(std::move(pair.enhanced));
    } else {
        out->legs.push_back(methodology::runPbExperiment(profiles, opts));
    }
    if (spec.durableSinks) {
        manifest.writeTo((dir / "manifest.jsonl").string());
        trace_sink.writeTo((dir / "trace.json").string());
        out->metrics.writeTo((dir / "metrics.json").string());
    }
    out->wallSeconds = secondsBetween(t0, Clock::now());

    out->cells = log.cells();
    out->setupSeconds = out->wallSeconds;
    for (const CellTime &c : out->cells)
        out->setupSeconds = std::min(out->setupSeconds, c.start);
    return out;
}

/** Named pass/fail checks, rendered as a JSON object. */
class Checks
{
  public:
    void add(const std::string &name, bool passed)
    {
        _line.add(name, passed);
        _all = _all && passed;
        if (!passed)
            std::fprintf(stderr, "campaign_bench: check failed: %s\n",
                         name.c_str());
    }
    bool allPassed() const { return _all; }
    std::string json() const { return _line.str(); }

  private:
    perfbench::JsonLine _line;
    bool _all = true;
};

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

bool
sameBits(const std::vector<std::vector<double>> &a,
         const std::vector<std::vector<double>> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].size() != b[i].size() ||
            std::memcmp(a[i].data(), b[i].data(),
                        a[i].size() * sizeof(double)) != 0)
            return false;
    return true;
}

/** Checks every campaign gets: complete, clean, no dropped benchmark. */
void
checkCampaign(const perfbench::WorkloadSpec &spec,
              const std::vector<trace::WorkloadProfile> &profiles,
              const Campaign &c, Checks &checks)
{
    const std::size_t expected = spec.legs() * profiles.size() * perfbench::kScreenRows;
    checks.add("all_cells_completed", c.cells.size() == expected);
    checks.add("no_failed_cells", c.failedCells() == 0);
    bool complete = true;
    for (const methodology::PbExperimentResult &leg : c.legs)
        complete = complete && leg.droppedBenchmarks.empty() &&
                   leg.benchmarks.size() == profiles.size();
    checks.add("no_dropped_benchmarks", complete);
}

/** The campaign's journal reloads with one record per cell. */
void
checkJournal(const Campaign &c, Checks &checks)
{
    const exec::ResultJournal reloaded(c.journalPath.string());
    checks.add("journal_one_record_per_cell",
               reloaded.loadedRecords() == c.cells.size());
    checks.add("journal_no_torn_records", reloaded.tornRecords() == 0);
}

int
runTimed(const perfbench::WorkloadSpec &spec, std::uint64_t seed,
         const fs::path &dir, bool verify)
{
    const std::vector<trace::WorkloadProfile> profiles =
        perfbench::seededProfiles(spec, seed);
    // Verifying (warm-up) repetitions attach the journal and check it.
    const std::unique_ptr<Campaign> c =
        runCampaign(spec, profiles, dir, false, verify);
    // Every sandbox has been reaped by now, so the children's peak is
    // final; the checks below run after it is read.
    const perfbench::PeakRss rss = perfbench::peakRss();

    Checks checks;
    checkCampaign(spec, profiles, *c, checks);
    if (spec.durableSinks && verify)
        checkJournal(*c, checks);
    if (verify && spec.isolation != exec::IsolationMode::Thread) {
        methodology::PbExperimentOptions opts =
            perfbench::experimentOptions(spec);
        opts.campaign.isolation = exec::IsolationMode::Thread;
        const methodology::PbExperimentResult threaded =
            methodology::runPbExperiment(profiles, opts);
        checks.add("sandbox_matches_thread_mode",
                   sameBits(threaded.responses, c->legs[0].responses));
    }

    std::vector<double> cell_ms;
    double rel_ci_sum = 0.0;
    for (const CellTime &cell : c->cells) {
        cell_ms.push_back(cell.wall * 1e3);
        rel_ci_sum += cell.sampleRelCi;
    }
    const perfbench::Percentile p50 = perfbench::percentile(cell_ms, 50);
    const perfbench::Percentile p99 = perfbench::percentile(cell_ms, 99);

    perfbench::JsonLine line;
    line.add("workload", spec.name)
        .add("seed", seed)
        .add("cells", static_cast<std::uint64_t>(c->cells.size()))
        .add("failed", static_cast<std::uint64_t>(c->failedCells()))
        .add("setup_s", c->setupSeconds)
        .add("wall_s", c->wallSeconds)
        .add("cell_ms_p50", p50.value)
        .add("cell_ms_p99", p99.value)
        .add("percentile_samples", static_cast<std::uint64_t>(p99.samples))
        .add("p50_beyond", static_cast<std::uint64_t>(p50.beyond))
        .add("p99_beyond", static_cast<std::uint64_t>(p99.beyond))
        .add("peak_rss_mb", rss.peakMb())
        .add("rss_self_mb", rss.selfMb)
        .add("rss_children_mb", rss.childrenMb)
        .add("streamed_instructions",
             static_cast<std::uint64_t>(c->cells.size()) *
                 spec.streamLength())
        .add("digest", c->digest())
        .add("measured_cycles_total", c->measuredCyclesTotal())
        .add("table9_spearman", perfbench::table9Spearman(
                                    c->legs[0].summaries))
        .add("correct", checks.allPassed());
    if (spec.sampling.enabled)
        line.add("sample_rel_ci",
                 rel_ci_sum / static_cast<double>(c->cells.size()));
    line.addRaw("checks", checks.json());
    std::printf("%s\n", line.str().c_str());
    return 0;
}

// ---------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------

/** The traced run rebuilds these design rows of the first realization
 *  of each of the 13 profiles. */
constexpr std::size_t kProbeBenchmarks = 13;
constexpr std::size_t kProbeRows[] = {0, 22, 44, 66};
constexpr std::size_t kStubRepeats = 5;
constexpr std::size_t kCallRepeats = 9;

/** Counts a probe pass makes; every pass must reproduce them. */
struct ProbeCounts
{
    std::uint64_t generated = 0;
    std::uint64_t coreInstructions = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t hookLookups = 0;
    std::uint64_t hookHits = 0;
    std::uint64_t sampleUnits = 0;
    std::uint64_t sampleDetailed = 0;
    std::uint64_t sampleStream = 0;
    double sampleRelCiSum = 0.0;
    /** Split path, fused path and campaign agree bit for bit. */
    bool splitMatchesFused = true;
    bool splitMatchesCampaign = true;
    bool hookedMatchesCampaign = true;

    bool operator==(const ProbeCounts &) const = default;
};

/** What every probe cell needs, fixed for the whole traced run. */
struct ProbeContext
{
    const perfbench::WorkloadSpec &spec;
    /** The base screen's jobs in driver order. */
    const std::vector<exec::SimJob> &jobs;
    const Campaign &campaign;
    const perfbench::PrecomputeTables &tables;
    /** The workload's schedule, or for a detailed workload the
     *  default proportions scaled to six units per stream. */
    sample::SamplingOptions schedule;
};

/**
 * Rebuild one cell from the layers' public pieces, one span per call:
 * generate into a vector, construct cores, replay the stream through
 * the detailed core, the sampler, the functional warmer, the memory
 * hierarchy alone and the hooked core, and run the fused engine path
 * for comparison.
 */
void
probeCell(const ProbeContext &ctx, std::size_t index,
          perfbench::SpanRecorder &rec, ProbeCounts &counts)
{
    using perfbench::ScopedSpan;
    const exec::SimJob &job = ctx.jobs[index];
    const std::size_t bench = index / perfbench::kScreenRows;
    const std::size_t row = index % perfbench::kScreenRows;
    const std::uint64_t length = ctx.spec.streamLength();

    ScopedSpan cell(rec, "cell", index, -1);
    const int p = cell.index();

    std::unique_ptr<trace::SyntheticTraceGenerator> gen;
    {
        ScopedSpan s(rec, "trace.construct", index, p);
        gen = std::make_unique<trace::SyntheticTraceGenerator>(
            *job.workload, length);
    }
    std::vector<trace::Instruction> stream;
    stream.reserve(length);
    {
        ScopedSpan s(rec, "trace.gen", index, p);
        trace::Instruction inst;
        while (gen->next(inst))
            stream.push_back(inst);
    }
    counts.generated += stream.size();
    trace::VectorTraceSource source(stream);

    std::unique_ptr<sim::SuperscalarCore> core;
    const auto construct = [&](sim::ExecutionHook *hook) {
        source.reset();
        core.reset(); // freeing the previous core is not construction
        ScopedSpan s(rec, "sim.construct", index, p);
        core = std::make_unique<sim::SuperscalarCore>(job.config, hook);
    };

    construct(nullptr);
    sim::CoreStats stats;
    {
        ScopedSpan s(rec, "sim.core", index, p);
        stats = core->run(source, ctx.spec.warmup);
    }
    counts.coreInstructions += stats.instructions;
    counts.mispredicts += stats.branchMispredicts;

    construct(nullptr);
    sample::SampleSummary summary;
    {
        ScopedSpan s(rec, "sample.run", index, p);
        summary = sample::runSampled(*core, source, ctx.schedule);
    }
    counts.sampleUnits += summary.units;
    counts.sampleDetailed += summary.detailedInstructions;
    counts.sampleStream += summary.streamInstructions;
    counts.sampleRelCiSum += summary.relativeError;

    double fused = 0.0;
    {
        ScopedSpan s(rec, "sim.fused", index, p);
        fused = exec::SimulationEngine::simulateJob(job);
    }
    const double split = ctx.spec.sampling.enabled
                             ? summary.estimatedCycles
                             : static_cast<double>(stats.measuredCycles());
    counts.splitMatchesFused =
        counts.splitMatchesFused && sameBits(split, fused);
    counts.splitMatchesCampaign =
        counts.splitMatchesCampaign &&
        sameBits(split, ctx.campaign.legs[0].responses[bench][row]);

    construct(nullptr);
    {
        ScopedSpan s(rec, "sim.warm", index, p);
        core->warm(source, length);
    }

    {
        ScopedSpan s(rec, "sim.memory", index, p);
        sim::MemorySystem memory(job.config);
        for (std::size_t i = 0; i < stream.size(); ++i) {
            const trace::Instruction &inst = stream[i];
            memory.instructionFetch(i, inst.pc);
            if (trace::isMemOp(inst.op))
                memory.dataAccess(i, inst.memAddr,
                                  inst.op == trace::OpClass::Store);
        }
        counts.l1dMisses += memory.l1d().stats().misses;
        counts.l2Misses += memory.l2().stats().misses;
    }

    enhance::PrecomputationTable hook(*ctx.tables.at(job.workload->name));
    construct(&hook);
    sim::CoreStats hooked;
    {
        ScopedSpan s(rec, "sim.core_hooked", index, p);
        hooked = core->run(source, ctx.spec.warmup);
    }
    counts.hookLookups += hook.lookups();
    counts.hookHits += hook.hits();
    if (ctx.spec.enhanced)
        counts.hookedMatchesCampaign =
            counts.hookedMatchesCampaign &&
            sameBits(static_cast<double>(hooked.measuredCycles()),
                     ctx.campaign.legs[1].responses[bench][row]);
}

/** One pass over every probe cell, traced and untraced in turn. */
struct ProbePass
{
    std::map<std::string, double> spanSeconds;
    std::map<std::string, std::size_t> spanCount;
    std::map<std::string, double> layerSelf;
    double tracedCellSeconds = 0.0;
    double untracedCellSeconds = 0.0;
    double profileSeconds = 0.0;
    ProbeCounts counts;
    bool twinCountsMatch = true;
};

ProbePass
runProbePass(const perfbench::WorkloadSpec &spec,
             const std::vector<exec::SimJob> &jobs,
             const std::vector<trace::WorkloadProfile> &profiles,
             const Campaign &campaign,
             const std::vector<std::size_t> &probes)
{
    ProbePass pass;
    const Clock::time_point t = Clock::now();
    const perfbench::PrecomputeTables tables = perfbench::profileTables(
        std::vector<trace::WorkloadProfile>(
            profiles.begin(), profiles.begin() + kProbeBenchmarks),
        spec.streamLength());
    pass.profileSeconds = secondsBetween(t, Clock::now());

    ProbeContext ctx{spec, jobs, campaign, tables, spec.sampling};
    if (!spec.sampling.enabled) {
        ctx.schedule.enabled = true;
        ctx.schedule.intervalInstructions = spec.streamLength() / 6;
        ctx.schedule.unitInstructions =
            ctx.schedule.intervalInstructions / 10;
        ctx.schedule.warmupInstructions =
            ctx.schedule.intervalInstructions / 5;
    }

    perfbench::SpanRecorder traced(true);
    perfbench::SpanRecorder untraced(false);
    ProbeCounts twin;
    for (std::size_t index : probes) {
        probeCell(ctx, index, traced, pass.counts);
        const Clock::time_point u = Clock::now();
        probeCell(ctx, index, untraced, twin);
        pass.untracedCellSeconds += secondsBetween(u, Clock::now());
    }
    pass.twinCountsMatch = twin == pass.counts;

    for (const perfbench::Span &s : traced.spans()) {
        pass.spanSeconds[s.name] += s.end - s.start;
        ++pass.spanCount[s.name];
        if (s.parent < 0)
            pass.tracedCellSeconds += s.end - s.start;
    }
    pass.layerSelf = perfbench::selfTimeByLayer(traced.spans());
    return pass;
}

/** Median of @p f over the passes. */
template <typename F>
double
medianOver(const std::vector<ProbePass> &passes, F f)
{
    std::vector<double> v;
    for (const ProbePass &pass : passes)
        v.push_back(f(pass));
    return perfbench::percentile(v, 50).value;
}

/** Median wall time of @p repeats calls of @p f. */
template <typename F>
double
medianSeconds(std::size_t repeats, F f)
{
    std::vector<double> v;
    for (std::size_t i = 0; i < repeats; ++i) {
        const Clock::time_point t = Clock::now();
        f();
        v.push_back(secondsBetween(t, Clock::now()));
    }
    return perfbench::percentile(v, 50).value;
}

using KnownResponses = std::unordered_map<std::string, double>;

/** Executor that returns each cell's known response without
 *  simulating: what is left is the layers' own per-cell cost. */
exec::SimulateFn
stubExecutor(const KnownResponses &known)
{
    return [&known](const exec::SimJob &job, const exec::AttemptContext &) {
        return known.at(job.label);
    };
}

/** Per-layer measurements of the engine, journal, sandbox and sinks. */
struct StubLayers
{
    double engineUsPerCell = 0.0;
    double journalUsPerCell = 0.0;
    std::uint64_t journalRecords = 0;
    bool journalClean = true;
    double procSpawnSeconds = 0.0;
    double procUsPerCell = 0.0;
    double sinksUsPerCell = 0.0;
    double manifestBytesPerCell = 0.0;
    bool responsesMatch = true;
};

StubLayers
measureStubLayers(const perfbench::WorkloadSpec &spec,
                  const std::vector<trace::WorkloadProfile> &profiles,
                  const std::vector<exec::SimJob> &jobs,
                  const KnownResponses &known, const fs::path &dir)
{
    StubLayers out;
    const double cells = static_cast<double>(jobs.size());
    const auto check = [&](const std::vector<double> &responses) {
        for (std::size_t i = 0; i < jobs.size(); ++i)
            out.responsesMatch = out.responsesMatch &&
                                 sameBits(responses[i],
                                          known.at(jobs[i].label));
    };
    const fs::path journal_path = dir / "stub.jnl";

    std::vector<double> plain, journaled, sandboxed, spawn, bare, sinks;
    for (std::size_t r = 0; r < kStubRepeats; ++r) {
        {
            exec::SimulationEngine engine(
                exec::EngineOptions{0, true, stubExecutor(known)});
            const Clock::time_point t = Clock::now();
            const std::vector<double> responses = engine.run(jobs);
            plain.push_back(secondsBetween(t, Clock::now()));
            check(responses);
        }
        {
            fs::remove(journal_path);
            exec::ResultJournal journal(journal_path.string());
            exec::SimulationEngine engine(
                exec::EngineOptions{0, true, stubExecutor(known)});
            engine.setJournal(&journal);
            const Clock::time_point t = Clock::now();
            const std::vector<double> responses = engine.run(jobs);
            journaled.push_back(secondsBetween(t, Clock::now()));
            check(responses);
        }
        {
            const exec::ResultJournal reloaded(journal_path.string());
            out.journalRecords = reloaded.loadedRecords();
            out.journalClean = out.journalClean &&
                               reloaded.tornRecords() == 0 &&
                               reloaded.loadedRecords() == jobs.size();
        }
        {
            exec::SimulationEngine engine(
                exec::EngineOptions{0, true, stubExecutor(known)});
            exec::proc::ProcWorkerPool::Options options;
            options.workers = engine.threads();
            options.simulate = stubExecutor(known);
            const Clock::time_point t = Clock::now();
            exec::proc::ProcWorkerPool pool(std::move(options));
            spawn.push_back(secondsBetween(t, Clock::now()));
            engine.setSimulate(pool.simulateFn());
            const Clock::time_point u = Clock::now();
            const std::vector<double> responses = engine.run(jobs);
            sandboxed.push_back(secondsBetween(u, Clock::now()));
            check(responses);
        }
        // The sinks as the driver attaches them, with and without.
        for (const bool with_sinks : {false, true}) {
            exec::SimulationEngine engine(
                exec::EngineOptions{0, true, stubExecutor(known)});
            obs::MetricsRegistry metrics;
            obs::TraceWriter trace_sink;
            obs::CampaignManifest manifest;
            methodology::PbExperimentOptions opts =
                perfbench::experimentOptions(spec);
            opts.campaign.isolation = exec::IsolationMode::Thread;
            opts.campaign.engine = &engine;
            opts.campaign.skipPreflight = true;
            if (with_sinks) {
                opts.campaign.metrics = &metrics;
                opts.campaign.trace = &trace_sink;
                opts.campaign.manifest = &manifest;
            }
            const Clock::time_point t = Clock::now();
            const methodology::PbExperimentResult result =
                methodology::runPbExperiment(profiles, opts);
            if (with_sinks) {
                manifest.writeTo((dir / "stub_manifest.jsonl").string());
                trace_sink.writeTo((dir / "stub_trace.json").string());
                metrics.writeTo((dir / "stub_metrics.json").string());
            }
            (with_sinks ? sinks : bare)
                .push_back(secondsBetween(t, Clock::now()));
            if (with_sinks)
                out.manifestBytesPerCell =
                    static_cast<double>(manifest.toJsonl().size()) / cells;
            std::vector<double> flat;
            for (const std::vector<double> &bench : result.responses)
                flat.insert(flat.end(), bench.begin(), bench.end());
            check(flat);
        }
    }
    const auto med = [](const std::vector<double> &v) {
        return perfbench::percentile(v, 50).value;
    };
    out.engineUsPerCell = med(plain) / cells * 1e6;
    out.journalUsPerCell = (med(journaled) - med(plain)) / cells * 1e6;
    out.procSpawnSeconds = med(spawn);
    out.procUsPerCell = med(sandboxed) / cells * 1e6;
    out.sinksUsPerCell = (med(sinks) - med(bare)) / cells * 1e6;
    return out;
}

/** Median seconds of the analysis the drivers run on the responses. */
double
measureAnalysis(const Campaign &c)
{
    const doe::DesignMatrix design = perfbench::screenDesign();
    const std::vector<std::string> names = methodology::factorNames();
    const auto analyze = [&](const methodology::PbExperimentResult &leg) {
        std::vector<std::vector<double>> effects;
        for (const std::vector<double> &responses : leg.responses) {
            std::vector<double> e = doe::computeEffects(design, responses);
            e.resize(methodology::numFactors);
            (void)doe::rankByMagnitude(e);
            effects.push_back(std::move(e));
        }
        return doe::aggregateRanks(names, effects);
    };
    return medianSeconds(kCallRepeats, [&] {
        const std::vector<doe::FactorRankSummary> base = analyze(c.legs[0]);
        const std::vector<doe::FactorRankSummary> other =
            analyze(c.legs.back());
        (void)methodology::compareRankTables(base, other);
    });
}

/** Median seconds of the pre-flight the screen driver runs. */
double
measurePreflight(const perfbench::WorkloadSpec &spec,
                 const std::vector<trace::WorkloadProfile> &profiles)
{
    const doe::DesignMatrix design = perfbench::screenDesign();
    check::ExperimentPlan plan;
    plan.design = &design;
    plan.expectedFactors = methodology::numFactors;
    plan.designIsFolded = true;
    plan.workloads = profiles;
    plan.auditParameterSpace = true;
    plan.instructionsPerRun = spec.instructions;
    plan.warmupInstructions = spec.warmup;
    plan.sampling = spec.sampling;
    return medianSeconds(kCallRepeats, [&] {
        check::preflightOrThrow(plan, "perfbench");
    });
}

int
runTraced(const perfbench::WorkloadSpec &spec, std::uint64_t seed,
          const fs::path &dir, double seconds)
{
    const Clock::time_point start = Clock::now();
    const std::vector<trace::WorkloadProfile> profiles =
        perfbench::seededProfiles(spec, seed);
    const std::unique_ptr<Campaign> c =
        runCampaign(spec, profiles, dir, true, true);
    Checks checks;
    checkCampaign(spec, profiles, *c, checks);
    if (spec.durableSinks)
        checkJournal(*c, checks);

    const doe::DesignMatrix design = perfbench::screenDesign();
    const std::vector<exec::SimJob> jobs =
        perfbench::screenJobs(spec, profiles, design);
    KnownResponses known;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        known.emplace(jobs[i].label,
                      c->legs[0].responses[i / perfbench::kScreenRows]
                                          [i % perfbench::kScreenRows]);

    const StubLayers stub =
        measureStubLayers(spec, profiles, jobs, known, dir);
    checks.add("stub_responses_round_trip", stub.responsesMatch);
    checks.add("journal_one_record_per_cell_no_torn", stub.journalClean);
    const double preflight_s = measurePreflight(spec, profiles);
    const double analysis_s = measureAnalysis(*c);

    std::vector<std::size_t> probes;
    for (std::size_t bench = 0; bench < kProbeBenchmarks; ++bench)
        for (std::size_t row : kProbeRows)
            probes.push_back(bench * perfbench::kScreenRows + row);
    std::vector<ProbePass> passes;
    double last = 0.0;
    while (passes.empty() ||
           secondsBetween(start, Clock::now()) + last <= seconds) {
        const Clock::time_point t = Clock::now();
        passes.push_back(runProbePass(spec, jobs, profiles, *c, probes));
        last = secondsBetween(t, Clock::now());
    }

    const ProbeCounts &counts = passes.front().counts;
    bool repeat = true;
    bool twins = true;
    for (const ProbePass &pass : passes) {
        repeat = repeat && pass.counts == counts;
        twins = twins && pass.twinCountsMatch;
    }
    checks.add("probe_counts_repeat_exactly", repeat && twins);
    checks.add("split_path_matches_fused_path", counts.splitMatchesFused);
    checks.add("split_path_matches_campaign", counts.splitMatchesCampaign);
    checks.add("hooked_core_matches_enhanced_leg",
               counts.hookedMatchesCampaign);

    // The decomposition comes from one pass (the median by traced cell
    // time) so that its parts add up to its whole.
    std::vector<const ProbePass *> by_cell_time;
    for (const ProbePass &pass : passes)
        by_cell_time.push_back(&pass);
    std::sort(by_cell_time.begin(), by_cell_time.end(),
              [](const ProbePass *a, const ProbePass *b) {
                  return a->tracedCellSeconds < b->tracedCellSeconds;
              });
    const ProbePass &mid = *by_cell_time[(by_cell_time.size() - 1) / 2];
    double accounted = 0.0;
    for (const auto &[layer, self] : mid.layerSelf)
        accounted += self;
    checks.add("self_times_account_for_cells",
               std::abs(accounted - mid.tracedCellSeconds) <=
                   1e-9 * std::max(1.0, mid.tracedCellSeconds));

    const auto total = [](const char *name) {
        return [name](const ProbePass &pass) {
            const auto it = pass.spanSeconds.find(name);
            return it == pass.spanSeconds.end() ? 0.0 : it->second;
        };
    };
    const auto per_call_us = [](const char *name) {
        return [name](const ProbePass &pass) {
            return pass.spanSeconds.at(name) /
                   static_cast<double>(pass.spanCount.at(name)) * 1e6;
        };
    };
    const auto self = [&mid](const char *layer) {
        const auto it = mid.layerSelf.find(layer);
        return it == mid.layerSelf.end() ? 0.0 : it->second;
    };
    const double gen_s = medianOver(passes, total("trace.gen"));
    const double core_s = medianOver(passes, total("sim.core"));
    const double probes_n = static_cast<double>(probes.size());

    perfbench::JsonLine metrics;
    const auto put = [&metrics](const std::string &name, double value,
                                const char *unit) {
        metrics.addRaw(name, perfbench::JsonLine()
                                 .add("value", value)
                                 .add("unit", unit)
                                 .str());
    };
    put("trace.construct_us_per_cell",
        medianOver(passes, per_call_us("trace.construct")), "us");
    put("trace.gen_s", gen_s, "s");
    put("trace.gen_minst_per_s",
        static_cast<double>(counts.generated) / gen_s / 1e6, "Minst/s");
    put("trace.reuse_ratio",
        static_cast<double>(c->cells.size()) /
            static_cast<double>(profiles.size()),
        "cells/trace");
    put("sim.construct_us_per_cell",
        medianOver(passes, per_call_us("sim.construct")), "us");
    put("sim.core_s", core_s, "s");
    put("sim.core_minst_per_s",
        static_cast<double>(counts.coreInstructions) / core_s / 1e6,
        "Minst/s");
    put("sim.fused_s", medianOver(passes, total("sim.fused")), "s");
    put("sim.memory_s", medianOver(passes, total("sim.memory")), "s");
    put("sim.warm_s", medianOver(passes, total("sim.warm")), "s");
    put("sim.l1d_misses", static_cast<double>(counts.l1dMisses), "count");
    put("sim.l2_misses", static_cast<double>(counts.l2Misses), "count");
    put("sim.measured_cycles_total",
        static_cast<double>(c->measuredCyclesTotal()), "cycles");
    put("sim.branch_mispredicts", static_cast<double>(counts.mispredicts),
        "count");
    put("enhance.profile_s",
        medianOver(passes,
                   [](const ProbePass &pass) { return pass.profileSeconds; }),
        "s");
    put("enhance.hook_s",
        medianOver(passes,
                   [&](const ProbePass &pass) {
                       return total("sim.core_hooked")(pass) -
                              total("sim.core")(pass);
                   }),
        "s");
    put("enhance.hit_rate",
        static_cast<double>(counts.hookHits) /
            static_cast<double>(counts.hookLookups),
        "ratio");
    put("sample.run_s", medianOver(passes, total("sample.run")), "s");
    put("sample.detailed_fraction",
        static_cast<double>(counts.sampleDetailed) /
            static_cast<double>(counts.sampleStream),
        "ratio");
    put("sample.units_mean",
        static_cast<double>(counts.sampleUnits) / probes_n, "units");
    put("sample.rel_ci", counts.sampleRelCiSum / probes_n, "ratio");
    put("exec.engine_us_per_cell", stub.engineUsPerCell, "us");
    put("exec.busy_fraction",
        c->metrics.gauge("engine.workers.busy_fraction").value(), "ratio");
    put("exec.queue_steals",
        static_cast<double>(c->metrics.counter("engine.queue.steals").value()),
        "count");
    put("exec.journal_us_per_cell", stub.journalUsPerCell, "us");
    put("exec.journal_records", static_cast<double>(stub.journalRecords),
        "count");
    put("exec.proc_spawn_s", stub.procSpawnSeconds, "s");
    put("exec.proc_us_per_cell", stub.procUsPerCell, "us");
    put("obs.sinks_us_per_cell", stub.sinksUsPerCell, "us");
    put("obs.manifest_bytes_per_cell", stub.manifestBytesPerCell, "B");
    put("check.preflight_s", preflight_s, "s");
    put("methodology.analysis_s", analysis_s, "s");
    put("methodology.table9_spearman",
        perfbench::table9Spearman(c->legs[0].summaries), "rho");
    put("self.trace_s", self("trace"), "s");
    put("self.sim_s", self("sim"), "s");
    put("self.sample_s", self("sample"), "s");
    put("unattributed_s", self("unattributed"), "s");
    put("traced.cell_s", mid.tracedCellSeconds, "s");
    put("tracing.overhead_s",
        mid.tracedCellSeconds - mid.untracedCellSeconds, "s");

    perfbench::JsonLine line;
    line.add("workload", spec.name)
        .add("seed", seed)
        .add("cells", static_cast<std::uint64_t>(c->cells.size() +
                                                 probes.size() *
                                                     passes.size()))
        .add("failed", static_cast<std::uint64_t>(c->failedCells()))
        .add("probe_cells", static_cast<std::uint64_t>(probes.size()))
        .add("passes", static_cast<std::uint64_t>(passes.size()))
        .add("digest", c->digest())
        .add("measured_cycles_total", c->measuredCyclesTotal())
        .add("correct", checks.allPassed())
        .addRaw("checks", checks.json())
        .addRaw("metrics", metrics.str());
    std::printf("%s\n", line.str().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const std::string usage =
            "usage: campaign_bench timed <workload> <seed> <workdir> "
            "[verify]\n"
            "       campaign_bench traced <workload> <seed> <workdir> "
            "<seconds>\n";
        if (argc < 5) {
            std::fputs(usage.c_str(), stderr);
            return 2;
        }
        const std::string mode = argv[1];
        const perfbench::WorkloadSpec *spec =
            perfbench::findWorkload(argv[2]);
        if (spec == nullptr) {
            std::fprintf(stderr, "campaign_bench: unknown workload %s\n",
                         argv[2]);
            return 2;
        }
        const std::uint64_t seed = std::stoull(argv[3]);
        const fs::path dir = argv[4];
        fs::create_directories(dir);
        if (mode == "timed" && argc == 5)
            return runTimed(*spec, seed, dir, false);
        if (mode == "timed" && argc == 6 &&
            std::string(argv[5]) == "verify")
            return runTimed(*spec, seed, dir, true);
        if (mode == "traced" && argc == 6)
            return runTraced(*spec, seed, dir, std::stod(argv[5]));
        std::fputs(usage.c_str(), stderr);
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "campaign_bench: %s\n", e.what());
        return 1;
    }
}
