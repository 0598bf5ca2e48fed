#include "exec/proc/worker_pool.hh"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>

#include <dirent.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "exec/run_cache.hh"
#include "obs/metrics.hh"
#include "obs/trace_span.hh"

namespace rigor::exec::proc
{

namespace
{

/** Parent-side handle of one forked sandbox worker. */
struct SandboxWorker
{
    pid_t pid = -1;
    /** Parent's end of the worker's socket. */
    int fd = -1;
};

std::string
signalName(int sig)
{
    switch (sig) {
      case SIGSEGV:
        return "SIGSEGV";
      case SIGABRT:
        return "SIGABRT";
      case SIGBUS:
        return "SIGBUS";
      case SIGILL:
        return "SIGILL";
      case SIGFPE:
        return "SIGFPE";
      case SIGKILL:
        return "SIGKILL";
      case SIGXCPU:
        return "SIGXCPU";
      case SIGTERM:
        return "SIGTERM";
      default:
        return "signal " + std::to_string(sig);
    }
}

std::string
describeWaitStatus(int status)
{
    if (WIFEXITED(status))
        return "exit:" + std::to_string(WEXITSTATUS(status));
    if (WIFSIGNALED(status))
        return "signal:" + signalName(WTERMSIG(status));
    return "unknown";
}

/** The failing run's identity for fault messages: label plus the
 *  run-cache key (the journal/manifest key), so a quarantined cell
 *  can be traced to the exact configuration that crashed. */
std::string
jobIdentity(const SimJob &job)
{
    const std::string label =
        "'" + (!job.label.empty() ? job.label : job.workload->name) +
        "'";
    if (!job.cacheable())
        return label;
    return label + " (run key " + runKeyOf(job).toString() + ")";
}

/**
 * Close every inherited descriptor except stdio and the child's own
 * socket end. Scans /proc/self/fd; the scan's own directory fd is
 * skipped and closed by closedir. Without this sweep a child forked
 * while siblings exist keeps their sockets (and the journal fd, trace
 * files, ...) open, so a sibling's crash would never surface as EOF
 * in the parent.
 */
void
closeInheritedFds(int keep)
{
    DIR *dir = ::opendir("/proc/self/fd");
    if (dir == nullptr)
        return; // best effort; /proc is always there on target hosts
    const int dir_fd = ::dirfd(dir);
    while (const dirent *entry = ::readdir(dir)) {
        char *end = nullptr;
        const long fd = std::strtol(entry->d_name, &end, 10);
        if (end == entry->d_name || *end != '\0')
            continue;
        if (fd <= 2 || fd == dir_fd || fd == keep)
            continue;
        ::close(static_cast<int>(fd));
    }
    ::closedir(dir);
}

/**
 * The child main loop: answer JobRequest frames on @p fd until the
 * parent closes its end. Each request is acknowledged with an empty
 * frame before it runs, so the parent can tell a child that died
 * idle (no acknowledgement) from one that died on the attempt. A
 * std::bad_alloc from the executor means the
 * RLIMIT_AS cap is exhausted; composing a failure message could throw
 * again, so it is reported through the exit code instead. Anything
 * the child cannot catch — SIGSEGV, SIGABRT, the kernel OOM killer,
 * the watchdog's SIGKILL — is classified by the parent from the wait
 * status.
 */
[[noreturn]] void
serveChild(int fd, const ProcWorkerPool::Options &options)
{
    const SimulateFn simulate = [&options](const SimJob &job,
                                           const AttemptContext &ctx) {
        try {
            return options.simulate(job, ctx);
        } catch (const std::bad_alloc &) {
            std::_Exit(kExitOom);
        }
    };
    std::vector<std::byte> frame;
    for (;;) {
        try {
            if (!readFrame(fd, frame))
                std::_Exit(0); // the parent closed its end: shutdown
            writeFrame(fd, {}); // acknowledgement: the attempt is ours
            Reader reader(frame);
            const JobResult result =
                runRequest(JobRequest::deserialize(reader), simulate,
                           options.hookFactory);
            Writer writer;
            result.serialize(writer);
            writeFrame(fd, writer.bytes());
        } catch (const ProtocolError &) {
            std::_Exit(1); // torn request, or the parent is gone
        }
    }
}

/**
 * Fork one sandbox worker on a fresh socketpair. The child drops
 * every other inherited descriptor and applies the memory cap, so a
 * runaway allocation dies as std::bad_alloc (kExitOom) or an OOM kill
 * inside the sandbox, never by taking down the parent. Throws
 * std::runtime_error if socketpair() or fork() fails.
 */
SandboxWorker
spawnWorker(const ProcWorkerPool::Options &options)
{
    int ends[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, ends) != 0)
        throw std::runtime_error(std::string("sandbox socketpair: ") +
                                 std::strerror(errno));
    const pid_t pid = ::fork();
    if (pid < 0) {
        const int error = errno;
        ::close(ends[0]);
        ::close(ends[1]);
        throw std::runtime_error(std::string("sandbox fork: ") +
                                 std::strerror(error));
    }
    if (pid == 0) {
        closeInheritedFds(ends[1]);
        if (options.memLimitMb > 0) {
            rlimit limit;
            limit.rlim_cur = limit.rlim_max =
                static_cast<rlim_t>(options.memLimitMb * 1024 * 1024);
            ::setrlimit(RLIMIT_AS, &limit); // best effort: a denied cap
                                            // only loses the backstop
        }
        serveChild(ends[1], options);
    }
    ::close(ends[1]);
    return SandboxWorker{pid, ends[0]};
}

/**
 * Wait until @p fd is readable (an answer, EOF, or an error) or
 * @p deadline passes. False on expiry.
 */
bool
readableBefore(int fd, std::chrono::steady_clock::time_point deadline)
{
    pollfd watch{fd, POLLIN, 0};
    for (;;) {
        const auto left = std::chrono::ceil<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
        const int timeout = static_cast<int>(
            std::clamp<std::int64_t>(left.count(), 0, INT_MAX));
        const int ready = ::poll(&watch, 1, timeout);
        if (ready < 0 && errno == EINTR)
            continue;
        if (ready != 0)
            return true; // a poll error surfaces through readFrame
        if (timeout == 0)
            return false;
    }
}

} // namespace

struct ProcWorkerPool::Slot
{
    SandboxWorker worker;
    unsigned index = 0;
    bool busy = false;
    /** Jobs answered by this incarnation (trace span arg). */
    std::uint64_t jobsDone = 0;
    /** Trace clock at spawn (span start). */
    std::uint64_t spawnTs = 0;
    /** Workload and stream length of the last job this incarnation
     *  answered: the stream its replay slot most likely holds. */
    std::string lastWorkload;
    std::uint64_t lastLength = 0;
};

ProcWorkerPool::ProcWorkerPool(Options options)
    : _options(std::move(options))
{
    if (_options.workers == 0)
        _options.workers = 1;
    if (!_options.simulate)
        _options.simulate = [](const SimJob &job,
                               const AttemptContext &ctx) {
            return SimulationEngine::simulateJob(job, ctx);
        };

    // A worker that dies holding the far end of a socket must surface
    // as EPIPE in writeFrame, not as a fatal SIGPIPE to the campaign.
    ::signal(SIGPIPE, SIG_IGN);

    _slots.resize(_options.workers);
    for (unsigned i = 0; i < _options.workers; ++i) {
        _slots[i].index = i;
        _slots[i].worker = spawnWorker(_options);
    }
}

ProcWorkerPool::~ProcWorkerPool()
{
    for (Slot &slot : _slots) {
        if (slot.worker.pid <= 0)
            continue;
        ::close(slot.worker.fd); // EOF: the child exits its loop
        int status = 0;
        ::waitpid(slot.worker.pid, &status, 0);
        closeSpanLocked(slot, "shutdown");
    }
}

void
ProcWorkerPool::setMetrics(obs::MetricsRegistry *metrics)
{
    const std::scoped_lock lock(_mutex);
    if (metrics == nullptr) {
        _respawnCounter = nullptr;
        _sigkillCounter = nullptr;
        _oomCounter = nullptr;
        return;
    }
    _respawnCounter = &metrics->counter("engine.proc.respawns");
    _sigkillCounter = &metrics->counter("engine.proc.sigkills");
    _oomCounter = &metrics->counter("engine.proc.oom_kills");
}

void
ProcWorkerPool::setTraceWriter(obs::TraceWriter *trace)
{
    const std::scoped_lock lock(_mutex);
    _trace = trace;
    if (_trace != nullptr) {
        // Workers spawned before the sink attached get their span
        // opened now, so every lifetime is covered from here on.
        const std::uint64_t now = _trace->nowMicros();
        for (Slot &slot : _slots)
            slot.spawnTs = now;
    }
}

SimulateFn
ProcWorkerPool::simulateFn()
{
    return [this](const SimJob &job, const AttemptContext &ctx) {
        return execute(job, ctx);
    };
}

void
ProcWorkerPool::closeSpanLocked(const Slot &slot,
                                const std::string &exit_reason)
{
    if (_trace == nullptr)
        return;
    obs::TraceWriter::Args args;
    args.emplace_back("worker", std::to_string(slot.index));
    args.emplace_back("jobs", std::to_string(slot.jobsDone));
    args.emplace_back("exit", exit_reason);
    _trace->addCompleteEvent("proc.worker", "proc", slot.spawnTs,
                             _trace->nowMicros() - slot.spawnTs,
                             slot.index + 1, std::move(args));
}

void
ProcWorkerPool::respawnLocked(Slot &slot,
                              const std::string &exit_reason)
{
    ::close(slot.worker.fd);
    closeSpanLocked(slot, exit_reason);
    slot.worker = SandboxWorker{}; // if the fork fails, the next
                                   // dispatch respawns again
    slot.worker = spawnWorker(_options);
    slot.jobsDone = 0;
    slot.lastWorkload.clear();
    slot.lastLength = 0;
    slot.spawnTs = _trace != nullptr ? _trace->nowMicros() : 0;
    _respawns.fetch_add(1, std::memory_order_relaxed);
    if (_respawnCounter != nullptr)
        _respawnCounter->add();
}

void
ProcWorkerPool::throwClassifiedLocked(int status, bool watchdog_killed,
                                      const std::string &identity)
{
    if (watchdog_killed)
        throw DeadlineExceeded(
            "sandbox worker exceeded the " +
            std::to_string(_options.hardDeadline.count()) +
            " ms hard deadline and was SIGKILLed by the watchdog "
            "while simulating " +
            identity);
    const bool oom =
        (WIFEXITED(status) && WEXITSTATUS(status) == kExitOom) ||
        (WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
    if (oom) {
        _oomKills.fetch_add(1, std::memory_order_relaxed);
        if (_oomCounter != nullptr)
            _oomCounter->add();
    }
    if (WIFEXITED(status)) {
        const int code = WEXITSTATUS(status);
        if (code == kExitOom)
            throw ResourceExhausted(
                "sandbox worker exhausted its memory limit (" +
                std::to_string(_options.memLimitMb) +
                " MiB) while simulating " + identity);
        throw PermanentFault(
            "sandbox worker exited with code " + std::to_string(code) +
            " without answering while simulating " + identity);
    }
    if (WIFSIGNALED(status)) {
        const int sig = WTERMSIG(status);
        // Not our watchdog, so the kernel's OOM killer is the usual
        // suspect: permanent, like any resource exhaustion.
        if (sig == SIGKILL)
            throw ResourceExhausted(
                "sandbox worker was SIGKILLed outside the watchdog "
                "(kernel OOM killer?) while simulating " +
                identity);
        if (sig == SIGXCPU)
            throw DeadlineExceeded(
                "sandbox worker exceeded its CPU time limit "
                "(SIGXCPU) while simulating " +
                identity);
        throw PermanentFault("sandbox worker crashed with " +
                             signalName(sig) + " while simulating " +
                             identity);
    }
    throw PermanentFault(
        "sandbox worker died with unrecognized wait status while "
        "simulating " +
        identity);
}

double
ProcWorkerPool::execute(const SimJob &job, const AttemptContext &ctx)
{
    Writer writer;
    makeRequest(job, ctx).serialize(writer);

    // Prefer a free child that last answered the same stream (its
    // replay slot skips regenerating it), then one that answered
    // nothing yet, then any free child. Only free children count, so
    // no job ever waits for a particular one.
    const std::string workload =
        job.workload != nullptr ? job.workload->name : std::string{};
    const std::uint64_t length =
        job.instructions + job.warmupInstructions;
    std::unique_lock<std::mutex> lock(_mutex);
    Slot *free_slot = nullptr;
    _freeCv.wait(lock, [&] {
        free_slot = nullptr;
        for (Slot &slot : _slots) {
            if (slot.busy)
                continue;
            if (!workload.empty() && slot.lastWorkload == workload &&
                slot.lastLength == length) {
                free_slot = &slot;
                return true;
            }
            if (free_slot == nullptr ||
                (!free_slot->lastWorkload.empty() &&
                 slot.lastWorkload.empty()))
                free_slot = &slot;
        }
        return free_slot != nullptr;
    });
    Slot &slot = *free_slot;
    slot.busy = true;
    lock.unlock();

    // Dispatch. The slot is ours while busy, so its socket is used
    // without the lock. A worker that dies before acknowledging the
    // request — EPIPE on the write, EOF or an overdue acknowledgement
    // — died idle: an incident of the *worker*, not this job, so
    // reap, respawn, and redispatch.
    const bool watchdog = _options.hardDeadline.count() > 0;
    std::chrono::steady_clock::time_point deadline;
    std::vector<std::byte> frame;
    for (int dispatch = 0;; ++dispatch) {
        deadline =
            std::chrono::steady_clock::now() + _options.hardDeadline;
        bool overdue = false;
        try {
            writeFrame(slot.worker.fd, writer.bytes());
            overdue =
                watchdog && !readableBefore(slot.worker.fd, deadline);
            if (!overdue && readFrame(slot.worker.fd, frame))
                break;
        } catch (const ProtocolError &) {
        }
        int status = 0;
        if (slot.worker.pid > 0) {
            if (overdue)
                ::kill(slot.worker.pid, SIGKILL);
            ::waitpid(slot.worker.pid, &status, 0);
        }
        const std::lock_guard<std::mutex> relock(_mutex);
        respawnLocked(slot, describeWaitStatus(status));
        if (dispatch >= 2) {
            slot.busy = false;
            _freeCv.notify_one();
            throw TransientFault(
                "sandbox workers kept dying before accepting job " +
                jobIdentity(job));
        }
    }
    const SandboxWorker worker = slot.worker;

    // Block for the outcome. This thread is the watchdog: past the
    // hard deadline it SIGKILLs its own child, and whatever the child
    // wrote by then is discarded.
    const bool killed = watchdog && !readableBefore(worker.fd, deadline);
    bool answered = false;
    if (killed) {
        ::kill(worker.pid, SIGKILL);
    } else {
        try {
            answered = readFrame(worker.fd, frame);
        } catch (const ProtocolError &) {
            answered = false; // torn frame: classify from the wait status
        }
    }

    lock.lock();
    if (answered) {
        ++slot.jobsDone;
        slot.lastWorkload = workload;
        slot.lastLength = length;
        slot.busy = false;
        lock.unlock();
        _freeCv.notify_one();
        Reader reader(frame);
        return resultCycles(JobResult::deserialize(reader), ctx);
    }

    // No answer: the worker died mid-attempt. Reap it, refill the
    // pool, then translate the death into the taxonomy.
    int status = 0;
    ::waitpid(worker.pid, &status, 0);
    if (killed) {
        _sigkills.fetch_add(1, std::memory_order_relaxed);
        if (_sigkillCounter != nullptr)
            _sigkillCounter->add();
    }
    respawnLocked(slot, killed ? "watchdog-sigkill"
                               : describeWaitStatus(status));
    slot.busy = false;
    _freeCv.notify_one();
    throwClassifiedLocked(status, killed, jobIdentity(job));
}

} // namespace rigor::exec::proc
