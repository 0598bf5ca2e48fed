/**
 * @file
 * The one campaign pipeline (internal).
 *
 * The PB screen (section 4.1), the workflow's step-3 factorial, and
 * through the screen every other driver have one shape: (benchmark,
 * row) cells go in, a response matrix comes out. runCellBatch owns
 * everything around that batch — the manifest's campaign, cell, and
 * summary records, the pre-flight, attaching the campaign's sinks and
 * its sandbox or remote executor to the engine (and handing the
 * engine back untouched, even on throw), error wrapping, the mapping
 * of failures onto quarantined cells, and per-cell sampling CI
 * half-widths — so each driver keeps only its own methodology: which
 * cells to run and how to analyze them.
 */

#ifndef RIGOR_METHODOLOGY_CELL_BATCH_HH
#define RIGOR_METHODOLOGY_CELL_BATCH_HH

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "check/campaign_check.hh"
#include "check/preflight.hh"
#include "exec/campaign_options.hh"
#include "exec/engine.hh"
#include "exec/proc/worker_pool.hh"
#include "methodology/pb_experiment.hh"
#include "obs/manifest.hh"
#include "obs/trace_span.hh"

namespace rigor::methodology::detail
{

/** Where one job lands in the response matrix. */
struct CellId
{
    /** Index into CampaignInfo::workloads. */
    std::size_t benchmark = 0;
    /** Design row (screen) or factorial cell (step 3). */
    std::size_t row = 0;
};

/** A finished batch, laid out [benchmark][row] like the design. */
struct CellBatch
{
    /** Measured cycles; NaN for quarantined cells. */
    std::vector<std::vector<double>> responses;
    /** Sampling CI half-widths in cycles; zero for full-length runs,
     *  cache and journal hits, and quarantined cells. */
    std::vector<std::vector<double>> ciHalfWidths;
    /** Terminally failed cells, in failure order (collect-failures
     *  mode only; empty when every job completed). */
    std::vector<check::QuarantinedCell> quarantined;
};

/** One campaign's cells and everything runCellBatch records about
 *  them. */
struct CellBatchPlan
{
    /** Prefix of error messages, and the pre-flight's caller. */
    std::string caller;
    /** The manifest's campaign record; `workloads` names the
     *  benchmarks CellId::benchmark indexes and `rows` sizes the
     *  response matrix. */
    obs::CampaignInfo info;
    /** The jobs, and where each one lands (same length). */
    std::vector<exec::SimJob> jobs;
    std::vector<CellId> cells;
    /** Pre-flight run after the campaign record unless the campaign
     *  skips it; run lengths, replication, and the remote topology
     *  are filled in from the campaign. */
    std::optional<check::ExperimentPlan> preflight;
    std::string preflightPhase = "preflight";
    /** Phase (trace span + manifest record) around the batch
     *  itself. */
    std::string batchPhase;
    /** Sandbox pool shared across a driver's phases; when null under
     *  process isolation a private pool is built for this batch,
     *  rebuilding enhancement hooks in the children with
     *  `hookFactory`. */
    exec::proc::ProcWorkerPool *pool = nullptr;
    exec::proc::SandboxHookFactory hookFactory;
    /**
     * The driver's methodology over the finished batch (validity
     * arbitration, effects, ANOVA). It may throw — then no summary is
     * written — and fills in the summary's dropped benchmarks and
     * rank-table digest.
     */
    std::function<void(CellBatch &, obs::SummaryRecord &)> analyze;
};

/**
 * Run @p plan's jobs on @p engine as one batch under @p campaign's
 * fault policy, sinks, and isolation mode, and hand the result to
 * plan.analyze. Writes, in order: the campaign record, the pre-flight
 * phase, one cell record per job, the batch phase, whatever phases
 * the analysis opens, and the summary. exec::BatchAbort propagates
 * unwrapped; any other batch failure is rethrown as
 * std::runtime_error prefixed "<caller>: simulation failed: ".
 */
void runCellBatch(exec::SimulationEngine &engine,
                  const exec::CampaignOptions &campaign,
                  const CellBatchPlan &plan);

/**
 * The sandbox pool for @p engine under process isolation (null
 * otherwise): one worker per engine thread, the engine's current
 * executor (real simulator, stub, or fault injector) running inside
 * the children, and the campaign's caps and sinks attached.
 */
std::unique_ptr<exec::proc::ProcWorkerPool>
makeProcPool(exec::SimulationEngine &engine,
             const exec::CampaignOptions &campaign,
             exec::proc::SandboxHookFactory hook_factory = {});

/** runPbExperiment on a sandbox pool shared across a multi-phase
 *  driver's campaigns (null: a private pool per batch). */
PbExperimentResult
runPbScreen(std::span<const trace::WorkloadProfile> workloads,
            const PbExperimentOptions &options,
            exec::proc::ProcWorkerPool *pool);

/**
 * RAII driver phase: a TraceSpan on lane 0 plus a manifest "phase"
 * record with the phase's wall time, both no-ops when the respective
 * sink is null.
 */
class PhaseScope
{
  public:
    PhaseScope(const exec::CampaignOptions &campaign, std::string name);
    ~PhaseScope();

    PhaseScope(const PhaseScope &) = delete;
    PhaseScope &operator=(const PhaseScope &) = delete;

    obs::TraceSpan &span() { return _span; }

  private:
    obs::CampaignManifest *_manifest;
    std::string _name;
    obs::TraceSpan _span;
    std::chrono::steady_clock::time_point _start;
};

} // namespace rigor::methodology::detail

#endif // RIGOR_METHODOLOGY_CELL_BATCH_HH
