#include "methodology/workflow.hh"

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>

#include "doe/ranking.hh"
#include "methodology/cell_batch.hh"
#include "obs/json.hh"
#include "stats/yates.hh"

namespace rigor::methodology
{

Factor
factorByName(const std::string &name)
{
    for (const ParameterDef &def : parameterDefinitions())
        if (def.name == name)
            return def.factor;
    throw std::invalid_argument("factorByName: unknown factor " + name);
}

std::string
WorkflowResult::toString() const
{
    std::ostringstream os;
    os << "Step 1 - critical parameters (PB screen, "
       << screening.design.numRows() << " runs x "
       << screening.benchmarks.size() << " workloads):\n";
    for (std::size_t i = 0; i < criticalFactors.size(); ++i)
        os << "  " << i + 1 << ". "
           << factorName(criticalFactors[i]) << "\n";
    os << "Step 2 - non-critical parameters: typical commercial "
          "values (ProcessorConfig defaults).\n";
    os << "Step 3 - full factorial over the critical set ("
       << (1u << criticalFactors.size()) << " configurations):\n";
    os << stats::formatAnovaTable(sensitivity);
    os << "Step 4 - directions:\n";
    for (const ParameterRecommendation &rec : recommendations) {
        os << "  " << rec.name << ": high value "
           << (rec.cyclesSavedHighVsLow >= 0.0 ? "saves" : "costs")
           << " " << std::abs(rec.cyclesSavedHighVsLow)
           << " cycles on average ("
           << 100.0 * rec.variationExplained << "% of variation)\n";
    }
    if (!largestInteraction.empty())
        os << "Largest interaction: " << largestInteraction << " ("
           << 100.0 * largestInteractionShare << "% of variation)\n";
    if (!screening.droppedBenchmarks.empty()) {
        os << "Degraded: screen dropped";
        for (const std::string &b : screening.droppedBenchmarks)
            os << " " << b;
        os << " (quarantined failures; rank sums cover "
           << screening.benchmarks.size() << " benchmarks)\n";
    }
    if (!factorialDroppedWorkloads.empty()) {
        os << "Degraded: factorial averaging dropped";
        for (const std::string &w : factorialDroppedWorkloads)
            os << " " << w;
        os << " (quarantined failures)\n";
    }
    os << "Execution: " << execution.toString() << "\n";
    return os.str();
}

WorkflowResult
runRecommendedWorkflow(
    std::span<const trace::WorkloadProfile> workloads,
    const WorkflowOptions &options)
{
    if (options.maxCriticalParameters == 0 ||
        options.maxCriticalParameters > 12)
        throw std::invalid_argument(
            "runRecommendedWorkflow: maxCriticalParameters must be in "
            "[1, 12]");

    WorkflowResult result;
    const exec::CampaignOptions &campaign = options.campaign;

    // One engine for both simulation phases: the screen's pool is
    // reused by the step-3 factorial, and any configuration the
    // factorial shares with the screen is served from the run cache.
    // The campaign's journal makes every completed run of either
    // phase durable across process restarts.
    exec::EngineOptions engine_opts;
    engine_opts.threads = campaign.threads;
    engine_opts.simulate = options.simulate;
    exec::SimulationEngine local_engine(engine_opts);
    exec::SimulationEngine &engine =
        campaign.engine ? *campaign.engine : local_engine;

    // Under process isolation, fork the sandbox workers once and
    // share them across the screen and the factorial.
    const std::unique_ptr<exec::proc::ProcWorkerPool> shared_pool =
        detail::makeProcPool(engine, campaign);

    // ----- Step 1: PB screening -----
    PbExperimentOptions screen_opts;
    screen_opts.instructionsPerRun = options.instructionsPerRun;
    screen_opts.warmupInstructions = options.warmupInstructions;
    screen_opts.campaign = campaign;
    screen_opts.campaign.engine = &engine;
    result.screening =
        detail::runPbScreen(workloads, screen_opts, shared_pool.get());

    // Critical set: up to the largest sum-of-ranks gap, capped, and
    // never including dummy factors (they are the noise floor).
    const std::size_t cut = doe::significanceCutoff(
        result.screening.summaries,
        std::min<std::size_t>(options.maxCriticalParameters + 2, 15));
    const std::size_t take =
        std::min({cut, options.maxCriticalParameters,
                  result.screening.summaries.size()});
    for (std::size_t i = 0;
         i < result.screening.summaries.size() &&
         result.criticalFactors.size() < take;
         ++i) {
        const std::string &name =
            result.screening.summaries[i].name;
        const Factor f = factorByName(name);
        if (f == Factor::DummyFactor1 || f == Factor::DummyFactor2)
            continue;
        result.criticalFactors.push_back(f);
    }

    // ----- Step 3: full factorial over the critical set -----
    const std::size_t k = result.criticalFactors.size();
    std::vector<std::string> names;
    names.reserve(k);
    for (Factor f : result.criticalFactors)
        names.push_back(factorName(f));

    // The factorial is its own campaign in the manifest: k factors,
    // 2^k rows, no foldover, identified by a digest of the critical
    // factor set.
    const std::size_t num_cells = std::size_t{1} << k;
    detail::CellBatchPlan plan;
    plan.caller = "runRecommendedWorkflow (step 3)";
    plan.info.experiment = "workflow_factorial";
    plan.info.factors = k;
    plan.info.rows = num_cells;
    std::string serialized = "factorial:";
    for (const std::string &name : names)
        serialized += name + ";";
    plan.info.designDigest = obs::digestHex(obs::fnv1a(serialized));
    for (const trace::WorkloadProfile &w : workloads)
        plan.info.workloads.push_back(w.name);
    plan.info.instructionsPerRun = options.instructionsPerRun;
    plan.info.warmupInstructions = options.warmupInstructions;

    // All 2^k x workloads cells go through the shared engine as one
    // parallel batch, cell-major (all workloads of cell t adjacent).
    plan.jobs.reserve(num_cells * workloads.size());
    plan.cells.reserve(num_cells * workloads.size());
    for (std::size_t t = 0; t < num_cells; ++t) {
        std::vector<std::pair<Factor, doe::Level>> overrides;
        overrides.reserve(k);
        for (std::size_t i = 0; i < k; ++i)
            overrides.emplace_back(result.criticalFactors[i],
                                   (t >> i) & 1 ? doe::Level::High
                                                : doe::Level::Low);
        const sim::ProcessorConfig config =
            configWithOverrides(overrides);
        for (std::size_t w = 0; w < workloads.size(); ++w) {
            exec::SimJob job;
            job.workload = &workloads[w];
            job.config = config;
            job.instructions = options.instructionsPerRun;
            job.warmupInstructions = options.warmupInstructions;
            job.label = workloads[w].name + ", factorial cell " +
                        std::to_string(t);
            plan.jobs.push_back(std::move(job));
            plan.cells.push_back({w, t});
        }
    }

    // Step-3 pre-flight: every factorial cell's configuration must
    // satisfy the Tables 6-8 invariants before the batch runs (the
    // screen already vetted the workloads and run lengths).
    check::ExperimentPlan &preflight = plan.preflight.emplace();
    preflight.configs.reserve(plan.jobs.size());
    for (const exec::SimJob &job : plan.jobs)
        preflight.configs.push_back(&job.config);
    preflight.workloads = workloads;
    plan.preflightPhase = "factorial_preflight";
    plan.batchPhase = "factorial";
    plan.pool = shared_pool.get();

    // The per-cell responses are averaged over workloads in a fixed
    // order, so the result is thread-count independent.
    plan.analyze = [&](detail::CellBatch &batch,
                       obs::SummaryRecord &summary) {
        // Quarantined factorial cells: a workload missing from one
        // cell would skew that cell's average against its neighbors,
        // so the whole workload is dropped from every cell (or the
        // workflow aborts), arbitrated through the campaign analyzer.
        std::set<std::string> dropped;
        if (!batch.quarantined.empty()) {
            check::CampaignAssessment assessment =
                check::assessFactorialValidity(
                    plan.info.workloads, num_cells, batch.quarantined,
                    campaign.degradation);
            result.factorialValidity = assessment.sink;
            if (!assessment.passed())
                throw check::CampaignError(plan.caller,
                                           std::move(assessment.sink));
            result.factorialDroppedWorkloads =
                std::move(assessment.dropBenchmarks);
            dropped.insert(result.factorialDroppedWorkloads.begin(),
                           result.factorialDroppedWorkloads.end());
        }
        summary.droppedBenchmarks = result.factorialDroppedWorkloads;

        detail::PhaseScope phase(campaign, "anova");
        std::vector<double> responses(num_cells, 0.0);
        for (std::size_t t = 0; t < num_cells; ++t) {
            for (std::size_t w = 0; w < workloads.size(); ++w)
                if (!dropped.count(workloads[w].name))
                    responses[t] += batch.responses[w][t];
            responses[t] /= static_cast<double>(workloads.size() -
                                                dropped.size());
        }
        result.sensitivity = stats::analyzeFactorial(names, responses);
    };
    detail::runCellBatch(engine, campaign, plan);

    // ----- Step 4: directions from the main effects -----
    for (std::size_t i = 0; i < k; ++i) {
        const stats::AnovaRow &row =
            result.sensitivity.rows[(std::size_t{1} << i) - 1];
        ParameterRecommendation rec;
        rec.factor = result.criticalFactors[i];
        rec.name = names[i];
        // Effect is (high - low) on cycles; saving = -effect.
        rec.cyclesSavedHighVsLow = -row.effect;
        rec.variationExplained = row.variationExplained;
        result.recommendations.push_back(std::move(rec));
    }
    std::stable_sort(result.recommendations.begin(),
                     result.recommendations.end(),
                     [](const ParameterRecommendation &a,
                        const ParameterRecommendation &b) {
                         return a.variationExplained >
                                b.variationExplained;
                     });

    // Largest interaction (order >= 2).
    for (const stats::AnovaRow &row :
         result.sensitivity.rowsBySignificance()) {
        if (stats::contrastOrder(row.mask) >= 2) {
            result.largestInteraction = row.label;
            result.largestInteractionShare = row.variationExplained;
            break;
        }
    }
    result.execution = engine.progress().snapshot();
    return result;
}

} // namespace rigor::methodology
