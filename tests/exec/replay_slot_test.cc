#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <vector>

#include "doe/design_matrix.hh"
#include "enhance/precompute.hh"
#include "exec/engine.hh"
#include "exec/replay_slot.hh"
#include "methodology/parameter_space.hh"
#include "trace/generator.hh"
#include "trace/workloads.hh"

namespace doe = rigor::doe;
namespace enhance = rigor::enhance;
namespace exec = rigor::exec;
namespace methodology = rigor::methodology;
namespace trace = rigor::trace;

namespace
{

/** The job shapes a campaign runs, at 4k warm-up + 8k measured. */
enum class Shape
{
    FullLength,
    Hooked,
    Sampled,
    DeadlineGuarded,
};

exec::SimJob
jobOf(const trace::WorkloadProfile &profile, doe::Level level,
      Shape shape)
{
    exec::SimJob job;
    job.workload = &profile;
    job.config = methodology::uniformConfig(level);
    job.instructions = 8000;
    job.warmupInstructions = 4000;
    job.label = profile.name;
    if (shape == Shape::Hooked) {
        trace::SyntheticTraceGenerator gen(profile, 12000);
        auto table = std::make_shared<enhance::PrecomputationTable>();
        table->profileTrace(gen);
        job.makeHook = [table] {
            return std::make_unique<enhance::PrecomputationTable>(*table);
        };
    }
    if (shape == Shape::Sampled) {
        job.sampling.enabled = true;
        job.sampling.unitInstructions = 500;
        job.sampling.warmupInstructions = 500;
        job.sampling.intervalInstructions = 2000;
    }
    return job;
}

exec::AttemptContext
contextOf(Shape shape)
{
    exec::AttemptContext ctx;
    if (shape == Shape::DeadlineGuarded) {
        ctx.deadlineBudget = std::chrono::milliseconds(60000);
        ctx.deadline = std::chrono::steady_clock::now() + ctx.deadlineBudget;
    }
    return ctx;
}

/** The fused path: a slot too small for any stream. */
double
fused(const exec::SimJob &job, const exec::AttemptContext &ctx)
{
    exec::detail::ReplaySlot none(0);
    const double cycles = exec::detail::simulateJobWith(none, job, ctx);
    EXPECT_EQ(none.hits() + none.misses(), 0u);
    return cycles;
}

} // namespace

TEST(ReplaySlot, HitMissAndOverTheCapGiveTheSameCycles)
{
    const trace::WorkloadProfile &profile = trace::workloadByName("mcf");
    for (const Shape shape : {Shape::FullLength, Shape::Hooked,
                              Shape::Sampled, Shape::DeadlineGuarded}) {
        SCOPED_TRACE(static_cast<int>(shape));
        const exec::SimJob low = jobOf(profile, doe::Level::Low, shape);
        const exec::SimJob high = jobOf(profile, doe::Level::High, shape);
        const exec::AttemptContext ctx = contextOf(shape);
        const double low_ref = fused(low, ctx);
        const double high_ref = fused(high, ctx);
        ASSERT_NE(low_ref, high_ref);

        exec::detail::ReplaySlot slot;
        EXPECT_EQ(exec::detail::simulateJobWith(slot, low, ctx), low_ref);
        EXPECT_EQ(slot.misses(), 1u);
        EXPECT_EQ(exec::detail::simulateJobWith(slot, high, ctx),
                  high_ref);
        EXPECT_EQ(exec::detail::simulateJobWith(slot, low, ctx), low_ref);
        EXPECT_EQ(slot.hits(), 2u);
        EXPECT_EQ(slot.misses(), 1u);

        // One instruction short of the stream: over the cap.
        exec::detail::ReplaySlot small(11999);
        EXPECT_EQ(exec::detail::simulateJobWith(small, low, ctx),
                  low_ref);
        EXPECT_EQ(small.hits() + small.misses(), 0u);
    }
}

TEST(ReplaySlot, StreamLengthIsPartOfTheKey)
{
    const trace::WorkloadProfile &profile = trace::workloadByName("gzip");
    exec::SimJob job = jobOf(profile, doe::Level::Low, Shape::FullLength);
    const exec::AttemptContext ctx;
    exec::detail::ReplaySlot slot;
    exec::detail::simulateJobWith(slot, job, ctx);
    job.instructions += 1000;
    EXPECT_EQ(exec::detail::simulateJobWith(slot, job, ctx),
              fused(job, ctx));
    EXPECT_EQ(slot.hits(), 0u);
    EXPECT_EQ(slot.misses(), 2u);
}

TEST(ReplaySlot, SameNameWithOneFieldChangedIsADifferentStream)
{
    // The generator seeds from the name but reads every field, so a
    // slot keyed on the name alone would replay the wrong stream.
    const trace::WorkloadProfile a = trace::workloadByName("gcc");
    trace::WorkloadProfile b = a;
    b.fracLoad += 0.05;
    const exec::SimJob job_a = jobOf(a, doe::Level::Low, Shape::FullLength);
    const exec::SimJob job_b = jobOf(b, doe::Level::Low, Shape::FullLength);
    const double ref_a = fused(job_a, {});
    const double ref_b = fused(job_b, {});
    ASSERT_NE(ref_a, ref_b);

    // Back to back on this thread, through the engine's own slot.
    EXPECT_EQ(exec::SimulationEngine::simulateJob(job_a), ref_a);
    EXPECT_EQ(exec::SimulationEngine::simulateJob(job_b), ref_b);
    EXPECT_EQ(exec::SimulationEngine::simulateJob(job_a), ref_a);

    exec::detail::ReplaySlot slot;
    exec::detail::simulateJobWith(slot, job_a, {});
    exec::detail::simulateJobWith(slot, job_b, {});
    EXPECT_EQ(slot.hits(), 0u);
    EXPECT_EQ(slot.misses(), 2u);
}

TEST(ReplaySlot, AMissThatThrowsLeavesTheSlotEmpty)
{
    const exec::SimJob held = jobOf(trace::workloadByName("gzip"),
                                    doe::Level::High, Shape::FullLength);
    const exec::SimJob job = jobOf(trace::workloadByName("art"),
                                   doe::Level::High, Shape::FullLength);
    exec::AttemptContext expired;
    expired.deadlineBudget = std::chrono::milliseconds(1);
    expired.deadline = std::chrono::steady_clock::now();

    exec::detail::ReplaySlot slot;
    exec::detail::simulateJobWith(slot, held, {});
    EXPECT_THROW(exec::detail::simulateJobWith(slot, job, expired),
                 exec::DeadlineExceeded);
    EXPECT_EQ(slot.misses(), 2u);

    // The half-overwritten stream is served for neither workload: both
    // calls miss and still match the fused path.
    EXPECT_EQ(exec::detail::simulateJobWith(slot, held, {}),
              fused(held, {}));
    EXPECT_EQ(exec::detail::simulateJobWith(slot, job, {}),
              fused(job, {}));
    EXPECT_EQ(slot.hits(), 0u);
    EXPECT_EQ(slot.misses(), 4u);
}

TEST(ReplaySlot, EngineWorkersReplayBitIdentically)
{
    // A batch over several workloads on several workers: each worker's
    // slot hits within a workload's run of rows and misses across.
    std::vector<trace::WorkloadProfile> profiles;
    for (const char *name : {"gzip", "mcf", "mesa", "art"})
        profiles.push_back(trace::workloadByName(name));
    std::vector<exec::SimJob> jobs;
    std::vector<double> reference;
    for (const trace::WorkloadProfile &p : profiles) {
        for (int row = 0; row < 6; ++row) {
            jobs.push_back(jobOf(p, row % 2 ? doe::Level::High
                                            : doe::Level::Low,
                                 Shape::FullLength));
            jobs.back().config.robEntries = 16u << (row / 2);
            reference.push_back(fused(jobs.back(), {}));
        }
    }
    exec::SimulationEngine engine(exec::EngineOptions{4, false});
    EXPECT_EQ(engine.run(jobs), reference);
}
