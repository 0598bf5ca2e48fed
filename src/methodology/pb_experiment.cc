#include "methodology/pb_experiment.hh"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

#include "check/preflight.hh"
#include "doe/effects.hh"
#include "doe/foldover.hh"
#include "doe/pb_design.hh"
#include "methodology/cell_batch.hh"
#include "methodology/parameter_space.hh"
#include "methodology/rank_table.hh"
#include "obs/json.hh"
#include "trace/generator.hh"

namespace rigor::methodology
{

std::vector<std::vector<double>>
PbExperimentResult::rankVectors() const
{
    std::vector<std::vector<double>> vectors;
    vectors.reserve(ranks.size());
    for (const std::vector<unsigned> &bench_ranks : ranks) {
        std::vector<double> v(bench_ranks.begin(), bench_ranks.end());
        vectors.push_back(std::move(v));
    }
    return vectors;
}

double
PbExperimentResult::effectCiHalfWidth(std::size_t bench) const
{
    double sum_sq = 0.0;
    for (const double h : ciHalfWidths.at(bench))
        sum_sq += h * h;
    return std::sqrt(sum_sq);
}

void
PbExperimentResult::dropBenchmarks(std::span<const std::string> names)
{
    const std::set<std::string> doomed(names.begin(), names.end());
    if (doomed.empty())
        return;

    std::size_t kept = 0;
    for (std::size_t b = 0; b < benchmarks.size(); ++b) {
        if (doomed.count(benchmarks[b])) {
            droppedBenchmarks.push_back(benchmarks[b]);
            continue;
        }
        if (kept != b) {
            benchmarks[kept] = std::move(benchmarks[b]);
            if (b < responses.size())
                responses[kept] = std::move(responses[b]);
            if (b < ciHalfWidths.size())
                ciHalfWidths[kept] = std::move(ciHalfWidths[b]);
            if (b < effects.size())
                effects[kept] = std::move(effects[b]);
            if (b < ranks.size())
                ranks[kept] = std::move(ranks[b]);
        }
        ++kept;
    }
    if (kept == benchmarks.size())
        return; // nothing matched
    if (kept == 0)
        throw std::invalid_argument(
            "PbExperimentResult::dropBenchmarks: dropping every "
            "benchmark leaves nothing to aggregate");

    benchmarks.resize(kept);
    if (responses.size() > kept)
        responses.resize(kept);
    if (ciHalfWidths.size() > kept)
        ciHalfWidths.resize(kept);
    if (effects.size() > kept)
        effects.resize(kept);
    if (ranks.size() > kept)
        ranks.resize(kept);
    std::sort(droppedBenchmarks.begin(), droppedBenchmarks.end());
    droppedBenchmarks.erase(std::unique(droppedBenchmarks.begin(),
                                        droppedBenchmarks.end()),
                            droppedBenchmarks.end());
    // Pre-effects callers (the experiment driver itself) drop before
    // anything is aggregated; nothing to recompute yet.
    if (!effects.empty())
        summaries = doe::aggregateRanks(factorNames(), effects);
    else
        summaries.clear();
}

double
simulateOnce(const trace::WorkloadProfile &profile,
             const sim::ProcessorConfig &config,
             std::uint64_t instructions, sim::ExecutionHook *hook,
             std::uint64_t warmup_instructions)
{
    trace::SyntheticTraceGenerator gen(
        profile, instructions + warmup_instructions);
    sim::SuperscalarCore core(config, hook);
    const sim::CoreStats stats = core.run(gen, warmup_instructions);
    return static_cast<double>(stats.measuredCycles());
}

namespace
{

/** FNV-1a digest (hex) of a design matrix's dimensions and signs. */
std::string
designDigest(const doe::DesignMatrix &design)
{
    std::string serialized;
    serialized.reserve(design.numRows() * (design.numColumns() + 1) +
                       16);
    serialized += std::to_string(design.numRows());
    serialized += 'x';
    serialized += std::to_string(design.numColumns());
    serialized += ':';
    for (std::size_t r = 0; r < design.numRows(); ++r)
        for (std::size_t c = 0; c < design.numColumns(); ++c)
            serialized += design.sign(r, c) > 0 ? '+' : '-';
    return obs::digestHex(obs::fnv1a(serialized));
}

/** One engine job per (benchmark, design row) pair, benchmark-major. */
void
addPbJobs(std::span<const trace::WorkloadProfile> workloads,
          const doe::DesignMatrix &design,
          const PbExperimentOptions &options, detail::CellBatchPlan &plan)
{
    const std::size_t num_runs = design.numRows();
    plan.jobs.reserve(workloads.size() * num_runs);
    plan.cells.reserve(workloads.size() * num_runs);
    for (std::size_t bench = 0; bench < workloads.size(); ++bench) {
        const trace::WorkloadProfile &workload = workloads[bench];
        for (std::size_t run = 0; run < num_runs; ++run) {
            exec::SimJob job;
            job.workload = &workload;
            job.config = configForLevels(design.row(run));
            job.instructions = options.instructionsPerRun;
            job.warmupInstructions = options.warmupInstructions;
            job.sampling = options.campaign.sampling;
            if (options.hookFactory) {
                job.makeHook = [&factory = options.hookFactory,
                                &workload]() {
                    return factory(workload);
                };
                if (!options.hookId.empty())
                    job.hookId =
                        options.hookId + "/" + workload.name;
            }
            job.label = workload.name + ", design row " +
                        std::to_string(run);
            plan.jobs.push_back(std::move(job));
            plan.cells.push_back({bench, run});
        }
    }
}

} // namespace

PbExperimentResult
runPbExperiment(std::span<const trace::WorkloadProfile> workloads,
                const PbExperimentOptions &options)
{
    return detail::runPbScreen(workloads, options, nullptr);
}

PbExperimentResult
detail::runPbScreen(std::span<const trace::WorkloadProfile> workloads,
                    const PbExperimentOptions &options,
                    exec::proc::ProcWorkerPool *pool)
{
    if (workloads.empty())
        throw std::invalid_argument("runPbExperiment: no workloads");
    if (options.instructionsPerRun == 0)
        throw std::invalid_argument(
            "runPbExperiment: instructionsPerRun must be non-zero");

    const exec::CampaignOptions &campaign = options.campaign;

    PbExperimentResult result;
    doe::DesignMatrix base = options.design
                                 ? *options.design
                                 : doe::pbDesignForFactors(numFactors);
    result.design = campaign.foldover ? doe::foldover(base) : base;

    const std::size_t num_runs = result.design.numRows();
    result.benchmarks.reserve(workloads.size());
    for (const trace::WorkloadProfile &w : workloads)
        result.benchmarks.push_back(w.name);

    detail::CellBatchPlan plan;
    plan.caller = "runPbExperiment";
    plan.info.experiment = options.experimentName;
    plan.info.factors = result.design.numColumns();
    plan.info.rows = num_runs;
    plan.info.foldover = campaign.foldover;
    plan.info.designDigest = designDigest(result.design);
    plan.info.workloads = result.benchmarks;
    plan.info.instructionsPerRun = options.instructionsPerRun;
    plan.info.warmupInstructions = options.warmupInstructions;
    plan.info.sampling = campaign.sampling;
    addPbJobs(workloads, result.design, options, plan);

    // Mandatory pre-flight: prove the design is a balanced
    // orthogonal ±1 (foldover) matrix, audit the Tables 6-8
    // parameter space, and vet every workload profile and the run
    // lengths — before a single cycle is simulated.
    check::ExperimentPlan &preflight = plan.preflight.emplace();
    preflight.design = &result.design;
    preflight.expectedFactors = numFactors;
    preflight.designIsFolded = campaign.foldover;
    preflight.workloads = workloads;
    preflight.auditParameterSpace = true;
    preflight.sampling = campaign.sampling;

    plan.batchPhase = "screen";
    plan.pool = pool;
    plan.hookFactory = options.hookFactory;
    plan.analyze = [&](detail::CellBatch &batch,
                       obs::SummaryRecord &summary) {
        result.responses = std::move(batch.responses);
        result.ciHalfWidths = std::move(batch.ciHalfWidths);

        // Quarantined cells (collect-failures mode) are not
        // statistically free: arbitrate drop-vs-abort before any
        // effect is computed, so an incomplete response column never
        // reaches the rank aggregation.
        if (!batch.quarantined.empty()) {
            check::CampaignAssessment assessment =
                check::assessCampaignValidity(
                    result.benchmarks, num_runs, campaign.foldover,
                    batch.quarantined, campaign.degradation);
            result.validity = assessment.sink;
            if (!assessment.passed())
                throw check::CampaignError("runPbExperiment",
                                           std::move(assessment.sink));
            result.dropBenchmarks(assessment.dropBenchmarks);
        }

        // Effects and per-benchmark ranks over the 43 real+dummy
        // factors (the design has exactly 43 columns for X = 44),
        // computed only for surviving benchmarks — their columns are
        // complete.
        {
            detail::PhaseScope phase(campaign, "rank");
            const std::size_t survivors = result.benchmarks.size();
            result.effects.reserve(survivors);
            result.ranks.reserve(survivors);
            for (std::size_t b = 0; b < survivors; ++b) {
                std::vector<double> all_effects = doe::computeEffects(
                    result.design, result.responses[b]);
                all_effects.resize(numFactors);
                result.ranks.push_back(
                    doe::rankByMagnitude(all_effects));
                result.effects.push_back(std::move(all_effects));
            }
        }

        {
            detail::PhaseScope phase(campaign, "aggregate");
            result.summaries =
                doe::aggregateRanks(factorNames(), result.effects);
        }
        summary.droppedBenchmarks = result.droppedBenchmarks;
        summary.rankTableDigest = rankTableDigest(result.summaries);
    };

    // One engine job per (benchmark, design row) pair, run through
    // the shared engine (or a private one) — the responses come back
    // in job order, so the result is thread-count independent.
    exec::SimulationEngine local_engine(
        exec::EngineOptions{campaign.threads, true});
    detail::runCellBatch(campaign.engine ? *campaign.engine
                                         : local_engine,
                         campaign, plan);
    return result;
}

} // namespace rigor::methodology
