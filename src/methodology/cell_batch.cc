#include "methodology/cell_batch.hh"

#include <optional>
#include <stdexcept>

#include "exec/net/controller.hh"
#include "obs/metrics.hh"

namespace rigor::methodology::detail
{

namespace
{

/**
 * RAII: snapshot everything runCellBatch changes on the engine — the
 * journal, metrics, trace, job observer, and (once swapped) attempt
 * executor — and put it back on destruction, so a shared engine
 * leaves exactly as it arrived even when the batch throws.
 */
class EngineRestore
{
  public:
    explicit EngineRestore(exec::SimulationEngine &engine)
        : _engine(engine), _journal(engine.journal()),
          _metrics(engine.metrics()), _trace(engine.traceWriter()),
          _observer(engine.jobObserver())
    {
    }

    ~EngineRestore()
    {
        _engine.setJournal(_journal);
        _engine.setMetrics(_metrics);
        _engine.setTraceWriter(_trace);
        _engine.setJobObserver(std::move(_observer));
        if (_simulate)
            _engine.setSimulate(std::move(*_simulate));
    }

    /** Route attempts through @p simulate until destruction. */
    void swapSimulate(exec::SimulateFn simulate)
    {
        _simulate = _engine.simulateFn();
        _engine.setSimulate(std::move(simulate));
    }

    EngineRestore(const EngineRestore &) = delete;
    EngineRestore &operator=(const EngineRestore &) = delete;

  private:
    exec::SimulationEngine &_engine;
    exec::ResultJournal *_journal;
    obs::MetricsRegistry *_metrics;
    obs::TraceWriter *_trace;
    exec::JobObserver _observer;
    std::optional<exec::SimulateFn> _simulate;
};

} // namespace

PhaseScope::PhaseScope(const exec::CampaignOptions &campaign,
                       std::string name)
    : _manifest(campaign.manifest), _name(std::move(name)),
      _span(campaign.trace, _name),
      _start(std::chrono::steady_clock::now())
{
}

PhaseScope::~PhaseScope()
{
    if (!_manifest)
        return;
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - _start;
    _manifest->addPhase(_name, wall.count());
}

std::unique_ptr<exec::proc::ProcWorkerPool>
makeProcPool(exec::SimulationEngine &engine,
             const exec::CampaignOptions &campaign,
             exec::proc::SandboxHookFactory hook_factory)
{
    if (campaign.isolation != exec::IsolationMode::Process)
        return nullptr;
    exec::proc::ProcWorkerPool::Options options;
    options.workers = engine.threads();
    options.simulate = engine.simulateFn();
    options.hookFactory = std::move(hook_factory);
    options.memLimitMb = campaign.memLimitMb;
    options.hardDeadline = campaign.hardDeadline;
    auto pool =
        std::make_unique<exec::proc::ProcWorkerPool>(std::move(options));
    pool->setMetrics(campaign.metrics);
    pool->setTraceWriter(campaign.trace);
    return pool;
}

void
runCellBatch(exec::SimulationEngine &engine,
             const exec::CampaignOptions &campaign,
             const CellBatchPlan &plan)
{
    const bool remote = campaign.isolation == exec::IsolationMode::Remote;
    if (remote && campaign.netController == nullptr)
        throw std::logic_error(
            "IsolationMode::Remote requires "
            "CampaignOptions::netController (build a "
            "CampaignController and point the campaign at it)");

    const auto start = std::chrono::steady_clock::now();
    obs::CampaignManifest *const manifest = campaign.manifest;
    if (manifest)
        manifest->beginCampaign(plan.info);

    if (plan.preflight && !campaign.skipPreflight) {
        PhaseScope phase(campaign, plan.preflightPhase);
        check::ExperimentPlan preflight = *plan.preflight;
        preflight.instructionsPerRun = plan.info.instructionsPerRun;
        preflight.warmupInstructions = plan.info.warmupInstructions;
        preflight.replication = campaign.replication;
        if (remote)
            preflight.remote = exec::net::remotePlanFor(
                campaign, campaign.netController->options());
        check::preflightOrThrow(preflight, plan.caller.c_str());
    }

    const std::vector<std::string> &benchmarks = plan.info.workloads;
    CellBatch batch;
    batch.ciHalfWidths.assign(benchmarks.size(),
                              std::vector<double>(plan.info.rows, 0.0));
    const exec::ProgressSnapshot before = engine.progress().snapshot();
    exec::BatchResult result;
    {
        // Declared before the restore so the engine stops dispatching
        // through a private pool before the pool is torn down.
        std::unique_ptr<exec::proc::ProcWorkerPool> private_pool;
        EngineRestore restore(engine);
        if (campaign.journal)
            engine.setJournal(campaign.journal);
        if (campaign.metrics)
            engine.setMetrics(campaign.metrics);
        if (campaign.trace)
            engine.setTraceWriter(campaign.trace);

        // One observer per finished job, attached only when there is
        // a manifest to feed or a sampling CI to capture. It chains
        // onto a caller-attached observer (e.g. the campaign CLI's
        // replay printer) rather than replacing it.
        if (manifest || campaign.sampling.enabled) {
            engine.setJobObserver([&, manifest,
                                   previous = engine.jobObserver()](
                                      const exec::JobEvent &event) {
                if (previous)
                    previous(event);
                const CellId &id = plan.cells[event.jobIndex];
                if (event.ok && event.sampled)
                    batch.ciHalfWidths[id.benchmark][id.row] =
                        event.sample.ciHalfWidth *
                        static_cast<double>(
                            event.sample.streamInstructions);
                if (!manifest)
                    return;
                obs::CellRecord cell;
                cell.benchmark = benchmarks[id.benchmark];
                cell.row = id.row;
                cell.runKey = event.runKey;
                cell.source =
                    event.ok ? exec::toString(event.source) : "failed";
                cell.attempts = event.attempts;
                cell.wallSeconds = event.wallSeconds;
                cell.response = event.response;
                if (event.sampled) {
                    cell.sampled = true;
                    cell.sampleUnits = event.sample.units;
                    cell.sampleRelativeError = event.sample.relativeError;
                    cell.sampleCiHalfWidth = event.sample.ciHalfWidth;
                }
                cell.host = event.host;
                manifest->addCell(cell);
            });
        }

        // Under process isolation each attempt goes to a sandbox
        // worker, where the engine's current executor (real simulator
        // or an injector wrapper) runs; under remote isolation, to the
        // controller's fleet.
        if (remote) {
            restore.swapSimulate(campaign.netController->simulateFn());
        } else if (campaign.isolation == exec::IsolationMode::Process) {
            exec::proc::ProcWorkerPool *pool = plan.pool;
            if (pool == nullptr) {
                private_pool =
                    makeProcPool(engine, campaign, plan.hookFactory);
                pool = private_pool.get();
            }
            restore.swapSimulate(pool->simulateFn());
        }

        try {
            PhaseScope phase(campaign, plan.batchPhase);
            phase.span().arg("jobs", std::to_string(plan.jobs.size()));
            result = engine.run(plan.jobs, campaign.faultPolicy);
        } catch (const exec::BatchAbort &) {
            // Infrastructure failure (journal I/O error, crash drill):
            // keep the type so a driver can resume against the
            // journal.
            throw;
        } catch (const std::exception &e) {
            throw std::runtime_error(plan.caller +
                                     ": simulation failed: " + e.what());
        }
    }

    batch.responses.assign(benchmarks.size(),
                           std::vector<double>(plan.info.rows, 0.0));
    for (std::size_t j = 0; j < plan.jobs.size(); ++j)
        batch.responses[plan.cells[j].benchmark][plan.cells[j].row] =
            result.responses[j];
    batch.quarantined.reserve(result.failures.size());
    for (const exec::JobFailure &f : result.failures) {
        const CellId &id = plan.cells[f.jobIndex];
        check::QuarantinedCell cell;
        cell.benchmark = benchmarks[id.benchmark];
        cell.row = id.row;
        cell.attempts = f.attempts;
        cell.kind = exec::toString(f.kind);
        cell.message = f.message;
        batch.quarantined.push_back(std::move(cell));
    }

    obs::SummaryRecord summary;
    plan.analyze(batch, summary);
    if (!manifest)
        return;
    // Progress delta across the campaign, so a shared engine's
    // earlier campaigns don't leak in.
    const exec::ProgressSnapshot after = engine.progress().snapshot();
    summary.runsTotal = after.runsTotal - before.runsTotal;
    summary.runsCompleted = after.runsCompleted - before.runsCompleted;
    summary.cacheHits = after.cacheHits - before.cacheHits;
    summary.journalHits = after.journalHits - before.journalHits;
    summary.retries = after.retries - before.retries;
    summary.failedJobs = after.failedJobs - before.failedJobs;
    summary.simulatedInstructions =
        after.simulatedInstructions - before.simulatedInstructions;
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;
    summary.wallSeconds = wall.count();
    manifest->addSummary(summary);
}

} // namespace rigor::methodology::detail
