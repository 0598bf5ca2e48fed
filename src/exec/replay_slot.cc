#include "exec/replay_slot.hh"

#include <memory>
#include <optional>

#include "trace/generator.hh"

namespace rigor::exec::detail
{

namespace
{

/**
 * The cooperative watchdog: polls the attempt deadline between
 * instructions (every kPollInterval), so a wedged simulation throws
 * DeadlineExceeded within a few thousand instructions of the budget
 * expiring instead of hanging the worker forever.
 */
class DeadlineGuardedSource : public trace::TraceSource
{
  public:
    DeadlineGuardedSource(trace::TraceSource &inner,
                          const AttemptContext &ctx)
        : _inner(inner), _ctx(ctx)
    {
    }

    bool
    next(trace::Instruction &out) override
    {
        if ((++_count & (kPollInterval - 1)) == 0)
            _ctx.checkDeadline();
        return _inner.next(out);
    }

    void
    reset() override
    {
        _inner.reset();
        _count = 0;
    }

    std::uint64_t length() const override { return _inner.length(); }

  private:
    static constexpr std::uint64_t kPollInterval = 4096;

    trace::TraceSource &_inner;
    const AttemptContext &_ctx;
    std::uint64_t _count = 0;
};

} // namespace

const trace::PackedTrace *
ReplaySlot::acquire(const trace::WorkloadProfile &profile,
                    std::uint64_t length, const AttemptContext &ctx)
{
    if (length > _maxInstructions)
        return nullptr;
    // The generator reads every profile field, not just the name, so
    // the key is the whole profile.
    if (_held && _length == length && _profile == profile) {
        ++_hits;
        return &_trace;
    }

    ++_misses;
    _held = false;
    trace::SyntheticTraceGenerator gen(profile, length);
    DeadlineGuardedSource guarded(gen, ctx);
    _trace.clear();
    _trace.reserve(length);
    trace::Instruction inst;
    while (guarded.next(inst))
        _trace.append(inst);
    _profile = profile;
    _length = length;
    _held = true;
    return &_trace;
}

double
simulateJobWith(ReplaySlot &slot, const SimJob &job,
                const AttemptContext &ctx)
{
    std::unique_ptr<sim::ExecutionHook> hook;
    if (job.makeHook)
        hook = job.makeHook();
    const std::uint64_t length =
        job.instructions + job.warmupInstructions;
    std::optional<trace::PackedTraceSource> replay;
    std::optional<trace::SyntheticTraceGenerator> fused;
    trace::TraceSource *source;
    if (const trace::PackedTrace *packed =
            slot.acquire(*job.workload, length, ctx))
        source = &replay.emplace(*packed);
    else
        source = &fused.emplace(*job.workload, length);
    sim::SuperscalarCore core(job.config, hook.get());

    std::optional<DeadlineGuardedSource> guarded;
    if (ctx.hasDeadline())
        source = &guarded.emplace(*source, ctx);

    if (job.sampling.enabled) {
        // Sampled mode owns its own per-unit warm-up; the job-level
        // warm-up only pads the stream the schedule covers.
        const sample::SampleSummary summary =
            sample::runSampled(core, *source, job.sampling);
        if (ctx.sampleOut != nullptr)
            *ctx.sampleOut = summary;
        return summary.estimatedCycles;
    }

    const sim::CoreStats stats =
        core.run(*source, job.warmupInstructions);
    return static_cast<double>(stats.measuredCycles());
}

} // namespace rigor::exec::detail
