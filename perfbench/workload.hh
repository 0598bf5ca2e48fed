/**
 * @file
 * The campaign benchmark's workloads: three configurations of the
 * 88-row foldover Plackett-Burman screen over all 13 profiles, each
 * chosen to load a different set of layers (see README.md).
 */

#ifndef RIGOR_PERFBENCH_WORKLOAD_HH
#define RIGOR_PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "doe/design_matrix.hh"
#include "enhance/precompute.hh"
#include "exec/engine.hh"
#include "exec/isolation.hh"
#include "methodology/pb_experiment.hh"
#include "sample/sampling.hh"
#include "trace/workload_profile.hh"

namespace perfbench
{

/** Rows of the foldover design the drivers build for 43 factors. */
constexpr std::size_t kScreenRows = 88;

/** One benchmark workload: the shape of every cell it runs. */
struct WorkloadSpec
{
    std::string name;
    /** Measured instructions per cell. */
    std::uint64_t instructions = 0;
    /** Leading warm-up instructions per cell. */
    std::uint64_t warmup = 0;
    /** Run the base + precomputation pair (runEnhancementExperiment)
     *  instead of one screen (runPbExperiment). */
    bool enhanced = false;
    /** SMARTS schedule; disabled for detailed workloads. */
    rigor::sample::SamplingOptions sampling;
    rigor::exec::IsolationMode isolation =
        rigor::exec::IsolationMode::Thread;
    /** Attach the manifest, Chrome-trace and metrics sinks, and in
     *  verifying and traced runs an fsync'd journal. */
    bool durableSinks = false;
    /** Independently seeded realizations of each profile per
     *  campaign (13 x this many benchmarks). */
    unsigned realizations = 1;

    /** Instructions one cell streams through the simulator. */
    std::uint64_t streamLength() const { return instructions + warmup; }
    /** Screen legs per campaign (2 for the enhancement pair). */
    std::size_t legs() const { return enhanced ? 2 : 1; }
};

/** The workload named @p name, or null. */
const WorkloadSpec *findWorkload(const std::string &name);

/**
 * The 13 profiles renamed for @p seed ("name#s<seed>", and
 * "name#s<seed>r<k>" for further realizations). The generator seeds
 * from the name, so a seed selects a fresh realization and a distinct
 * run-cache key while the program sees only the generated inputs.
 */
std::vector<rigor::trace::WorkloadProfile>
seededProfiles(const WorkloadSpec &spec, std::uint64_t seed);

/** The 88-row foldover design the drivers build for 43 factors. */
rigor::doe::DesignMatrix screenDesign();

/** Driver options for @p spec, without sinks or a shared engine. */
rigor::methodology::PbExperimentOptions
experimentOptions(const WorkloadSpec &spec);

/** Per-profile 128-entry precomputation tables (the profiling pass). */
using PrecomputeTables =
    std::map<std::string,
             std::shared_ptr<const rigor::enhance::PrecomputationTable>>;

/** Profile one table per profile over @p stream_length instructions. */
PrecomputeTables
profileTables(const std::vector<rigor::trace::WorkloadProfile> &profiles,
              std::uint64_t stream_length);

/** Hook factory handing each run a copy of its profile's table. */
rigor::methodology::HookFactory hookFactory(const PrecomputeTables &tables);

/** Cache identity of the precomputation hook. */
inline constexpr const char *kHookId = "precompute-128";

/**
 * The unhooked screen's engine jobs in driver order (benchmark-major,
 * design row minor), labelled as the driver labels them.
 */
std::vector<rigor::exec::SimJob>
screenJobs(const WorkloadSpec &spec,
           const std::vector<rigor::trace::WorkloadProfile> &profiles,
           const rigor::doe::DesignMatrix &design);

} // namespace perfbench

#endif // RIGOR_PERFBENCH_WORKLOAD_HH
