#include "exec/proc/protocol.hh"

#include <cerrno>
#include <cstring>

#include <unistd.h>

#include "exec/fault_policy.hh"

namespace rigor::exec::proc
{

namespace
{

/** Write exactly @p size bytes, riding out EINTR and short writes. */
void
writeAll(int fd, const void *data, std::size_t size)
{
    const char *at = static_cast<const char *>(data);
    while (size > 0) {
        const ssize_t n = ::write(fd, at, size);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw ProtocolError(std::string("frame write: ") +
                                std::strerror(errno));
        }
        at += n;
        size -= static_cast<std::size_t>(n);
    }
}

/**
 * Read up to @p size bytes, stopping early only at EOF. Returns the
 * byte count actually transferred so the caller can distinguish a
 * clean EOF at a frame boundary (0 of n) from a truncated frame
 * (0 < got < n) and report the offending counts; throws
 * ProtocolError only on a hard I/O error.
 */
std::size_t
readUpTo(int fd, void *data, std::size_t size)
{
    char *at = static_cast<char *>(data);
    std::size_t got = 0;
    while (got < size) {
        const ssize_t n = ::read(fd, at + got, size - got);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw ProtocolError(std::string("frame read: ") +
                                std::strerror(errno));
        }
        if (n == 0)
            break;
        got += static_cast<std::size_t>(n);
    }
    return got;
}

void
writeProfile(Writer &out, const trace::WorkloadProfile &p)
{
    out.str(p.name);
    out.pod(p.isFloatingPoint);
    out.pod(p.paperInstructionsMillions);
    out.pod(p.fracLoad);
    out.pod(p.fracStore);
    out.pod(p.fracIntMult);
    out.pod(p.fracIntDiv);
    out.pod(p.fracFpAlu);
    out.pod(p.fracFpMult);
    out.pod(p.fracFpDiv);
    out.pod(p.fracFpSqrt);
    out.pod(p.avgBlockInstrs);
    out.pod(p.takenBias);
    out.pod(p.branchPredictability);
    out.pod(p.callFraction);
    out.pod(p.avgCallDepth);
    out.pod(p.codeFootprintBytes);
    out.pod(p.hotCodeBytes);
    out.pod(p.dataFootprintBytes);
    out.pod(p.hotDataFraction);
    out.pod(p.fracPointerChase);
    out.pod(p.fracStrided);
    out.pod(p.strideBytes);
    out.pod(p.valueLocality);
    out.pod(p.avgDependencyDistance);
}

trace::WorkloadProfile
readProfile(Reader &in)
{
    trace::WorkloadProfile p;
    p.name = in.str();
    p.isFloatingPoint = in.pod<bool>();
    p.paperInstructionsMillions = in.pod<double>();
    p.fracLoad = in.pod<double>();
    p.fracStore = in.pod<double>();
    p.fracIntMult = in.pod<double>();
    p.fracIntDiv = in.pod<double>();
    p.fracFpAlu = in.pod<double>();
    p.fracFpMult = in.pod<double>();
    p.fracFpDiv = in.pod<double>();
    p.fracFpSqrt = in.pod<double>();
    p.avgBlockInstrs = in.pod<double>();
    p.takenBias = in.pod<double>();
    p.branchPredictability = in.pod<double>();
    p.callFraction = in.pod<double>();
    p.avgCallDepth = in.pod<double>();
    p.codeFootprintBytes = in.pod<std::uint64_t>();
    p.hotCodeBytes = in.pod<std::uint64_t>();
    p.dataFootprintBytes = in.pod<std::uint64_t>();
    p.hotDataFraction = in.pod<double>();
    p.fracPointerChase = in.pod<double>();
    p.fracStrided = in.pod<double>();
    p.strideBytes = in.pod<std::uint32_t>();
    p.valueLocality = in.pod<double>();
    p.avgDependencyDistance = in.pod<double>();
    return p;
}

ResultStatus
statusOf(FailureKind kind)
{
    switch (kind) {
      case FailureKind::Transient:
        return ResultStatus::Transient;
      case FailureKind::Timeout:
        return ResultStatus::Deadline;
      case FailureKind::Resource:
        return ResultStatus::Resource;
      case FailureKind::Permanent:
        break;
    }
    return ResultStatus::Permanent;
}

} // namespace

void
JobRequest::serialize(Writer &out) const
{
    writeProfile(out, profile);
    static_assert(std::is_trivially_copyable_v<sim::ProcessorConfig>,
                  "ProcessorConfig is memcpy-serialized; a "
                  "non-trivially-copyable member needs explicit "
                  "field-by-field handling here");
    out.pod(config);
    out.pod(instructions);
    out.pod(warmupInstructions);
    out.pod(hasHook);
    out.str(label);
    out.pod(jobIndex);
    out.pod(attempt);
    out.pod(static_cast<std::int64_t>(deadlineBudget.count()));
    out.pod(sampling);
}

JobRequest
JobRequest::deserialize(Reader &in)
{
    JobRequest req;
    req.profile = readProfile(in);
    static_assert(std::is_standard_layout_v<sim::ProcessorConfig> &&
                  std::is_standard_layout_v<sample::SamplingOptions>,
                  "bool members are validated at their offsetof");
    in.expectBoolAt(offsetof(sim::ProcessorConfig, l1iNextLinePrefetch));
    req.config = in.pod<sim::ProcessorConfig>();
    req.instructions = in.pod<std::uint64_t>();
    req.warmupInstructions = in.pod<std::uint64_t>();
    req.hasHook = in.pod<bool>();
    req.label = in.str();
    req.jobIndex = in.pod<std::uint64_t>();
    req.attempt = in.pod<std::uint32_t>();
    req.deadlineBudget =
        std::chrono::milliseconds(in.pod<std::int64_t>());
    in.expectBoolAt(offsetof(sample::SamplingOptions, enabled));
    req.sampling = in.pod<sample::SamplingOptions>();
    return req;
}

void
JobResult::serialize(Writer &out) const
{
    out.pod(status);
    out.pod(cycles);
    out.pod(wallSeconds);
    out.str(message);
    out.pod(hasSample);
    out.pod(sample);
}

JobResult
JobResult::deserialize(Reader &in)
{
    JobResult result;
    result.status = in.pod<ResultStatus>();
    result.cycles = in.pod<double>();
    result.wallSeconds = in.pod<double>();
    result.message = in.str();
    result.hasSample = in.pod<bool>();
    result.sample = in.pod<sample::SampleSummary>();
    return result;
}

void
writeFrame(int fd, const std::vector<std::byte> &payload)
{
    const std::uint32_t size =
        static_cast<std::uint32_t>(payload.size());
    writeAll(fd, &size, sizeof(size));
    if (size > 0)
        writeAll(fd, payload.data(), size);
}

bool
readFrame(int fd, std::vector<std::byte> &payload)
{
    std::uint32_t size = 0;
    const std::size_t prefix = readUpTo(fd, &size, sizeof(size));
    if (prefix == 0)
        return false;
    if (prefix < sizeof(size))
        throw TruncatedFrame(
            "truncated frame length prefix: got " +
            std::to_string(prefix) + " of " +
            std::to_string(sizeof(size)) + " bytes before EOF");
    if (size > kMaxFramePayload)
        throw ProtocolError(
            "frame payload of " + std::to_string(size) +
            " bytes exceeds the " + std::to_string(kMaxFramePayload) +
            "-byte limit");
    payload.resize(size);
    if (size > 0) {
        const std::size_t got = readUpTo(fd, payload.data(), size);
        if (got < size)
            throw TruncatedFrame(
                "truncated frame payload: got " +
                std::to_string(got) + " of " + std::to_string(size) +
                " bytes before EOF");
    }
    return true;
}

JobRequest
makeRequest(const SimJob &job, const AttemptContext &ctx)
{
    if (job.workload == nullptr)
        throw PermanentFault("job '" + job.label +
                             "' carries no workload");
    JobRequest request;
    request.profile = *job.workload;
    request.config = job.config;
    request.instructions = job.instructions;
    request.warmupInstructions = job.warmupInstructions;
    request.hasHook = static_cast<bool>(job.makeHook);
    request.label = job.label;
    request.jobIndex = ctx.jobIndex;
    request.attempt = ctx.attempt;
    request.deadlineBudget = ctx.deadlineBudget;
    request.sampling = job.sampling;
    return request;
}

JobResult
runRequest(const JobRequest &request, const SimulateFn &simulate,
           const SandboxHookFactory &hook_factory)
{
    SimJob job;
    job.workload = &request.profile;
    job.config = request.config;
    job.instructions = request.instructions;
    job.warmupInstructions = request.warmupInstructions;
    job.sampling = request.sampling;
    job.label =
        !request.label.empty() ? request.label : request.profile.name;

    JobResult result;
    if (request.hasHook) {
        if (!hook_factory) {
            result.status = ResultStatus::Permanent;
            result.message = "worker has no hook factory to rebuild "
                             "the enhancement hook of job '" +
                             job.label + "'";
            return result;
        }
        job.makeHook = [&hook_factory, &request] {
            return hook_factory(request.profile);
        };
    }

    AttemptContext ctx;
    ctx.jobIndex = static_cast<std::size_t>(request.jobIndex);
    ctx.attempt = request.attempt;
    ctx.deadlineBudget = request.deadlineBudget;
    if (ctx.hasDeadline())
        ctx.deadline =
            std::chrono::steady_clock::now() + request.deadlineBudget;
    sample::SampleSummary summary;
    ctx.sampleOut = &summary;

    const auto start = std::chrono::steady_clock::now();
    try {
        result.cycles = simulate(job, ctx);
        result.status = ResultStatus::Ok;
        if (request.sampling.enabled) {
            result.hasSample = true;
            result.sample = summary;
        }
    } catch (const std::exception &e) {
        result.status = statusOf(classifyCurrentFault());
        result.message = e.what();
    }
    result.wallSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    return result;
}

double
resultCycles(const JobResult &result, const AttemptContext &ctx)
{
    switch (result.status) {
      case ResultStatus::Ok:
        if (result.hasSample && ctx.sampleOut != nullptr)
            *ctx.sampleOut = result.sample;
        return result.cycles;
      case ResultStatus::Transient:
        throw TransientFault(result.message);
      case ResultStatus::Deadline:
        throw DeadlineExceeded(result.message);
      case ResultStatus::Resource:
        throw ResourceExhausted(result.message);
      case ResultStatus::Permanent:
        break;
    }
    throw PermanentFault(result.message);
}

} // namespace rigor::exec::proc
