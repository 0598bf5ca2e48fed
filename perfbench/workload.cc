#include "workload.hh"

#include "doe/foldover.hh"
#include "doe/pb_design.hh"
#include "methodology/parameter_space.hh"
#include "trace/generator.hh"
#include "trace/workloads.hh"

namespace perfbench
{

namespace
{

// Run lengths are sized so one campaign takes a few seconds on four
// cores: several campaigns fit in one measured run, and a run's
// median is steady on a shared machine.
std::vector<WorkloadSpec>
makeWorkloads()
{
    std::vector<WorkloadSpec> all;

    WorkloadSpec paired;
    paired.name = "paired_detailed";
    paired.instructions = 6000;
    paired.warmup = 6000;
    paired.enhanced = true;
    all.push_back(paired);

    WorkloadSpec sampled;
    sampled.name = "sampled_long";
    sampled.instructions = 40000;
    sampled.sampling.enabled = true; // the repo's default schedule
    all.push_back(sampled);

    WorkloadSpec isolated;
    isolated.name = "isolated_short";
    isolated.instructions = 1000;
    isolated.warmup = 1000;
    isolated.isolation = rigor::exec::IsolationMode::Process;
    isolated.durableSinks = true;
    isolated.realizations = 4;
    all.push_back(isolated);

    return all;
}

const std::vector<WorkloadSpec> &
workloads()
{
    static const std::vector<WorkloadSpec> all = makeWorkloads();
    return all;
}

} // namespace

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &spec : workloads())
        if (spec.name == name)
            return &spec;
    return nullptr;
}

std::vector<rigor::trace::WorkloadProfile>
seededProfiles(const WorkloadSpec &spec, std::uint64_t seed)
{
    std::vector<rigor::trace::WorkloadProfile> profiles;
    for (unsigned k = 0; k < spec.realizations; ++k) {
        for (rigor::trace::WorkloadProfile p :
             rigor::trace::spec2000Workloads()) {
            p.name.append("#s").append(std::to_string(seed));
            if (k > 0)
                p.name.append("r").append(std::to_string(k));
            profiles.push_back(std::move(p));
        }
    }
    return profiles;
}

rigor::doe::DesignMatrix
screenDesign()
{
    return rigor::doe::foldover(
        rigor::doe::pbDesignForFactors(rigor::methodology::numFactors));
}

rigor::methodology::PbExperimentOptions
experimentOptions(const WorkloadSpec &spec)
{
    rigor::methodology::PbExperimentOptions opts;
    opts.instructionsPerRun = spec.instructions;
    opts.warmupInstructions = spec.warmup;
    opts.campaign.sampling = spec.sampling;
    opts.campaign.isolation = spec.isolation;
    return opts;
}

PrecomputeTables
profileTables(const std::vector<rigor::trace::WorkloadProfile> &profiles,
              std::uint64_t stream_length)
{
    PrecomputeTables tables;
    for (const rigor::trace::WorkloadProfile &p : profiles) {
        auto table =
            std::make_shared<rigor::enhance::PrecomputationTable>(128);
        rigor::trace::SyntheticTraceGenerator gen(p, stream_length);
        table->profileTrace(gen);
        tables.emplace(p.name, std::move(table));
    }
    return tables;
}

rigor::methodology::HookFactory
hookFactory(const PrecomputeTables &tables)
{
    return [&tables](const rigor::trace::WorkloadProfile &p)
               -> std::unique_ptr<rigor::sim::ExecutionHook> {
        return std::make_unique<rigor::enhance::PrecomputationTable>(
            *tables.at(p.name));
    };
}

std::vector<rigor::exec::SimJob>
screenJobs(const WorkloadSpec &spec,
           const std::vector<rigor::trace::WorkloadProfile> &profiles,
           const rigor::doe::DesignMatrix &design)
{
    std::vector<rigor::exec::SimJob> jobs;
    jobs.reserve(profiles.size() * design.numRows());
    for (const rigor::trace::WorkloadProfile &p : profiles) {
        for (std::size_t row = 0; row < design.numRows(); ++row) {
            rigor::exec::SimJob job;
            job.workload = &p;
            job.config =
                rigor::methodology::configForLevels(design.row(row));
            job.instructions = spec.instructions;
            job.warmupInstructions = spec.warmup;
            job.sampling = spec.sampling;
            job.label = p.name + ", design row " + std::to_string(row);
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

} // namespace perfbench
