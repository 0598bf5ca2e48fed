/**
 * @file
 * The campaign pipeline shared by the PB screen and the workflow's
 * step-3 factorial:
 *
 *  - every manifest cell record and every quarantined-cell diagnostic
 *    names the (benchmark, row) that was actually simulated, for the
 *    screen's benchmark-major job order and for the factorial's
 *    cell-major one;
 *  - a caller-supplied engine leaves every driver with exactly the
 *    journal, metrics, trace, job observer, and attempt executor it
 *    arrived with, under thread and process isolation, and also when
 *    the batch ends in a check::CampaignError.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "check/campaign_check.hh"
#include "check/rule_ids.hh"
#include "enhance/precompute.hh"
#include "exec/engine.hh"
#include "exec/fault_injection.hh"
#include "exec/journal.hh"
#include "methodology/enhancement_analysis.hh"
#include "methodology/parameter_space.hh"
#include "methodology/pb_experiment.hh"
#include "methodology/workflow.hh"
#include "obs/manifest.hh"
#include "obs/metrics.hh"
#include "obs/trace_span.hh"
#include "trace/workloads.hh"

namespace check = rigor::check;
namespace doe = rigor::doe;
namespace exec = rigor::exec;
namespace methodology = rigor::methodology;
namespace obs = rigor::obs;
namespace sim = rigor::sim;
namespace trace = rigor::trace;

namespace
{

std::vector<trace::WorkloadProfile>
workloadsNamed(std::initializer_list<const char *> names)
{
    std::vector<trace::WorkloadProfile> out;
    for (const char *name : names)
        out.push_back(trace::workloadByName(name));
    return out;
}

/** The fields of one manifest "cell" line this suite checks. */
struct ParsedCell
{
    std::string benchmark;
    std::size_t row = 0;
    std::string key;
    std::string source;
};

std::string
stringField(const std::string &line, const std::string &name)
{
    const std::string tag = "\"" + name + "\":\"";
    const std::size_t at = line.find(tag);
    if (at == std::string::npos)
        return {};
    const std::size_t begin = at + tag.size();
    return line.substr(begin, line.find('"', begin) - begin);
}

/** Every "cell" record of one campaign (the one named @p experiment)
 *  of a manifest that may hold several. */
std::vector<ParsedCell>
cellsOf(const obs::CampaignManifest &manifest,
        const std::string &experiment)
{
    std::vector<ParsedCell> cells;
    std::istringstream lines(manifest.toJsonl());
    bool inside = false;
    for (std::string line; std::getline(lines, line);) {
        if (line.rfind("{\"type\":\"campaign\"", 0) == 0)
            inside = stringField(line, "experiment") == experiment;
        if (!inside || line.rfind("{\"type\":\"cell\"", 0) != 0)
            continue;
        ParsedCell cell;
        cell.benchmark = stringField(line, "benchmark");
        const std::size_t row_at = line.find("\"row\":");
        cell.row = std::stoul(line.substr(row_at + 6));
        cell.key = stringField(line, "key");
        cell.source = stringField(line, "source");
        cells.push_back(std::move(cell));
    }
    return cells;
}

/** Run-key fields: config hash | instructions | warmup | workload |
 *  hook id. */
std::vector<std::string>
keyFields(const std::string &key)
{
    std::vector<std::string> fields;
    std::istringstream in(key);
    for (std::string field; std::getline(in, field, '|');)
        fields.push_back(field);
    return fields;
}

std::string
hashHex(const sim::ProcessorConfig &config)
{
    std::ostringstream os;
    os << std::hex << config.hash();
    return os.str();
}

/** The campaign.cell-quarantined diagnostics' object names. */
std::vector<std::string>
quarantinedObjects(const check::DiagnosticSink &sink)
{
    std::vector<std::string> objects;
    for (const check::Diagnostic &d : sink.diagnostics())
        if (d.ruleId == check::rules::kCampaignCellQuarantined)
            objects.push_back(d.context.object);
    return objects;
}

} // namespace

// ----- (benchmark, row) mapping of manifest and quarantine records -----

TEST(CellBatchMapping, ScreenCellsNameTheirBenchmarkAndDesignRow)
{
    const auto workloads = workloadsNamed({"gzip", "mcf", "twolf"});
    exec::FaultInjector injector;
    injector.addLabelFault("mcf, design row 40", 1,
                           exec::FaultKind::Permanent);
    exec::SimulationEngine engine(
        exec::EngineOptions{2, true, injector.wrap()});

    obs::CampaignManifest manifest;
    methodology::PbExperimentOptions opts;
    opts.instructionsPerRun = 2000;
    opts.campaign.engine = &engine;
    opts.campaign.manifest = &manifest;
    opts.campaign.faultPolicy.collectFailures = true;
    opts.campaign.degradation = check::DegradationMode::DropBenchmark;
    const methodology::PbExperimentResult result =
        methodology::runPbExperiment(workloads, opts);

    // Design row -> config hash, so each record's run key proves
    // which row was simulated.
    const std::size_t rows = result.design.numRows();
    std::map<std::string, std::vector<std::size_t>> rows_of_hash;
    for (std::size_t r = 0; r < rows; ++r)
        rows_of_hash[hashHex(methodology::configForLevels(
                             result.design.row(r)))]
            .push_back(r);

    const std::vector<ParsedCell> cells =
        cellsOf(manifest, "pb_screen");
    ASSERT_EQ(cells.size(), workloads.size() * rows);
    std::map<std::string, std::size_t> seen;
    for (const ParsedCell &cell : cells) {
        const std::vector<std::string> fields = keyFields(cell.key);
        ASSERT_GE(fields.size(), 4u) << cell.key;
        EXPECT_EQ(fields[3], cell.benchmark) << cell.key;
        const std::vector<std::size_t> &candidates =
            rows_of_hash[fields[0]];
        EXPECT_NE(std::find(candidates.begin(), candidates.end(),
                            cell.row),
                  candidates.end())
            << cell.benchmark << " row " << cell.row;
        ++seen[cell.benchmark + "/" + std::to_string(cell.row)];
        EXPECT_EQ(cell.source == "failed",
                  cell.benchmark == "mcf" && cell.row == 40)
            << cell.benchmark << " row " << cell.row;
    }
    EXPECT_EQ(seen.size(), cells.size()); // every cell exactly once

    EXPECT_EQ(quarantinedObjects(result.validity),
              (std::vector<std::string>{"benchmark 'mcf', design row 40"}));
    EXPECT_EQ(result.droppedBenchmarks,
              (std::vector<std::string>{"mcf"}));
}

TEST(CellBatchMapping, FactorialCellsNameTheirWorkloadAndCell)
{
    const auto workloads = workloadsNamed({"gzip", "mcf", "twolf"});
    exec::FaultInjector injector;
    injector.addLabelFault("twolf, factorial cell 1", 1,
                           exec::FaultKind::Permanent);

    obs::CampaignManifest manifest;
    methodology::WorkflowOptions opts;
    opts.instructionsPerRun = 2000;
    opts.warmupInstructions = 1000;
    opts.maxCriticalParameters = 3;
    opts.simulate = injector.wrap();
    opts.campaign.threads = 2;
    opts.campaign.manifest = &manifest;
    opts.campaign.faultPolicy.collectFailures = true;
    opts.campaign.degradation = check::DegradationMode::DropBenchmark;
    const methodology::WorkflowResult result =
        methodology::runRecommendedWorkflow(workloads, opts);

    // Factorial cell t sets critical factor i high iff bit i of t.
    const std::size_t k = result.criticalFactors.size();
    ASSERT_GE(k, 1u);
    const std::size_t num_cells = std::size_t{1} << k;
    std::map<std::string, std::size_t> cell_of_hash;
    for (std::size_t t = 0; t < num_cells; ++t) {
        std::vector<std::pair<methodology::Factor, doe::Level>> levels;
        for (std::size_t i = 0; i < k; ++i)
            levels.emplace_back(result.criticalFactors[i],
                                (t >> i) & 1 ? doe::Level::High
                                             : doe::Level::Low);
        cell_of_hash.emplace(
            hashHex(methodology::configWithOverrides(levels)), t);
    }
    ASSERT_EQ(cell_of_hash.size(), num_cells);

    const std::vector<ParsedCell> cells =
        cellsOf(manifest, "workflow_factorial");
    ASSERT_EQ(cells.size(), workloads.size() * num_cells);
    std::map<std::string, std::size_t> seen;
    for (const ParsedCell &cell : cells) {
        const std::vector<std::string> fields = keyFields(cell.key);
        ASSERT_GE(fields.size(), 4u) << cell.key;
        EXPECT_EQ(fields[3], cell.benchmark) << cell.key;
        ASSERT_EQ(cell_of_hash.count(fields[0]), 1u) << cell.key;
        EXPECT_EQ(cell_of_hash.at(fields[0]), cell.row) << cell.key;
        ++seen[cell.benchmark + "/" + std::to_string(cell.row)];
        EXPECT_EQ(cell.source == "failed",
                  cell.benchmark == "twolf" && cell.row == 1)
            << cell.benchmark << " cell " << cell.row;
    }
    EXPECT_EQ(seen.size(), cells.size());

    EXPECT_EQ(
        quarantinedObjects(result.factorialValidity),
        (std::vector<std::string>{"benchmark 'twolf', factorial cell 1"}));
    EXPECT_EQ(result.factorialDroppedWorkloads,
              (std::vector<std::string>{"twolf"}));
    EXPECT_TRUE(result.screening.validity.diagnostics().empty());
}

// ----- A shared engine leaves every driver as it arrived -----

namespace
{

/** Attempt executor with an identity the test can recognize after
 *  the driver hands the engine back. Fails permanently on any job
 *  whose label contains `failLabel`. */
struct TaggedSimulator
{
    int tag = 0;
    std::string failLabel;

    double operator()(const exec::SimJob &job,
                      const exec::AttemptContext &ctx) const
    {
        if (!failLabel.empty() &&
            job.label.find(failLabel) != std::string::npos)
            throw exec::PermanentFault("tagged failure");
        return 100000.0 + 37.0 * static_cast<double>(ctx.jobIndex % 97) +
               static_cast<double>(job.config.hash() % 1024);
    }
};

/** Job observer with a recognizable identity. */
struct TaggedObserver
{
    int tag = 0;
    void operator()(const exec::JobEvent &) const {}
};

/** The sinks a caller had attached before handing over its engine. */
struct CallerState
{
    CallerState()
        : journal(journalPath()), engine(exec::EngineOptions{
                                      2, true, TaggedSimulator{41, ""}})
    {
        engine.setJournal(&journal);
        engine.setMetrics(&metrics);
        engine.setTraceWriter(&trace);
        engine.setJobObserver(TaggedObserver{7});
    }

    static std::string journalPath()
    {
        const std::string path =
            std::string(::testing::TempDir()) + "cell_batch_caller";
        std::remove(path.c_str());
        return path;
    }

    void expectRestored() const
    {
        EXPECT_EQ(engine.journal(), &journal);
        EXPECT_EQ(engine.metrics(), &metrics);
        EXPECT_EQ(engine.traceWriter(), &trace);
        const TaggedObserver *observer =
            engine.jobObserver().target<TaggedObserver>();
        ASSERT_NE(observer, nullptr);
        EXPECT_EQ(observer->tag, 7);
        const TaggedSimulator *simulate =
            engine.simulateFn().target<TaggedSimulator>();
        ASSERT_NE(simulate, nullptr);
        EXPECT_EQ(simulate->tag, 41);
    }

    exec::ResultJournal journal;
    obs::MetricsRegistry metrics;
    obs::TraceWriter trace;
    exec::SimulationEngine engine;
};

/** The campaign's own sinks, distinct from the caller's. */
struct CampaignSinks
{
    exec::ResultJournal journal{journalPath()};
    obs::MetricsRegistry metrics;
    obs::TraceWriter trace;
    obs::CampaignManifest manifest;

    static std::string journalPath()
    {
        const std::string path =
            std::string(::testing::TempDir()) + "cell_batch_campaign";
        std::remove(path.c_str());
        return path;
    }

    void attach(exec::CampaignOptions &campaign,
                exec::SimulationEngine &engine,
                exec::IsolationMode isolation)
    {
        campaign.engine = &engine;
        campaign.journal = &journal;
        campaign.metrics = &metrics;
        campaign.trace = &trace;
        campaign.manifest = &manifest;
        campaign.isolation = isolation;
        campaign.skipPreflight = true;
    }
};

std::unique_ptr<sim::ExecutionHook>
precomputationHook(const trace::WorkloadProfile &)
{
    return std::make_unique<rigor::enhance::PrecomputationTable>(64);
}

class SharedEngineRestore
    : public ::testing::TestWithParam<exec::IsolationMode>
{
};

} // namespace

TEST_P(SharedEngineRestore, ScreenHandsTheEngineBack)
{
    const auto workloads = workloadsNamed({"gzip", "mcf"});
    CallerState caller;
    CampaignSinks sinks;
    methodology::PbExperimentOptions opts;
    opts.instructionsPerRun = 2000;
    sinks.attach(opts.campaign, caller.engine, GetParam());
    methodology::runPbExperiment(workloads, opts);
    caller.expectRestored();
}

TEST_P(SharedEngineRestore, WorkflowHandsTheEngineBack)
{
    const auto workloads = workloadsNamed({"gzip", "mcf"});
    CallerState caller;
    CampaignSinks sinks;
    methodology::WorkflowOptions opts;
    opts.instructionsPerRun = 2000;
    opts.maxCriticalParameters = 2;
    sinks.attach(opts.campaign, caller.engine, GetParam());
    methodology::runRecommendedWorkflow(workloads, opts);
    caller.expectRestored();
}

TEST_P(SharedEngineRestore, EnhancementHandsTheEngineBack)
{
    const auto workloads = workloadsNamed({"gzip", "mcf"});
    CallerState caller;
    CampaignSinks sinks;
    methodology::PbExperimentOptions opts;
    opts.instructionsPerRun = 2000;
    sinks.attach(opts.campaign, caller.engine, GetParam());
    methodology::runEnhancementExperiment(workloads, opts,
                                          precomputationHook, "pre64");
    caller.expectRestored();
}

TEST_P(SharedEngineRestore, EveryDriverHandsTheEngineBackOnCampaignError)
{
    const auto workloads = workloadsNamed({"gzip", "mcf"});
    CallerState caller;
    // A quarantined cell under DegradationMode::Abort: the batch
    // completes, then the validity assessment throws.
    caller.engine.setSimulate(TaggedSimulator{41, "mcf, design row 13"});
    CampaignSinks sinks;

    methodology::PbExperimentOptions pb;
    pb.instructionsPerRun = 2000;
    sinks.attach(pb.campaign, caller.engine, GetParam());
    pb.campaign.faultPolicy.collectFailures = true;
    pb.campaign.degradation = check::DegradationMode::Abort;
    EXPECT_THROW(methodology::runPbExperiment(workloads, pb),
                 check::CampaignError);
    caller.expectRestored();

    EXPECT_THROW(methodology::runEnhancementExperiment(
                     workloads, pb, precomputationHook, "pre64"),
                 check::CampaignError);
    caller.expectRestored();

    methodology::WorkflowOptions workflow;
    workflow.instructionsPerRun = 2000;
    workflow.campaign = pb.campaign;
    EXPECT_THROW(methodology::runRecommendedWorkflow(workloads, workflow),
                 check::CampaignError);
    caller.expectRestored();

    // The factorial's own assessment throws too, after a clean screen.
    caller.engine.setSimulate(TaggedSimulator{41, "factorial cell 0"});
    EXPECT_THROW(methodology::runRecommendedWorkflow(workloads, workflow),
                 check::CampaignError);
    caller.expectRestored();
}

INSTANTIATE_TEST_SUITE_P(
    Isolation, SharedEngineRestore,
    ::testing::Values(exec::IsolationMode::Thread,
                      exec::IsolationMode::Process),
    [](const ::testing::TestParamInfo<exec::IsolationMode> &info) {
        return info.param == exec::IsolationMode::Thread
                   ? std::string("Thread")
                   : std::string("Process");
    });
