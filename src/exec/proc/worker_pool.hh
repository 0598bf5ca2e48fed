/**
 * @file
 * Process-isolated attempt executor: a supervised pool of sandbox
 * workers behind the engine's SimulateFn seam.
 *
 * Thread isolation cannot survive the failure modes that matter most
 * in a 1144-run overnight campaign: a SIGSEGV in one attempt kills
 * the whole process and every completed cell with it, a
 * non-cooperative infinite loop never polls the cooperative deadline,
 * and a runaway allocation invites the kernel OOM killer to shoot the
 * campaign itself. ProcWorkerPool forks N sandbox workers, each an
 * rlimit'd child on one Unix socket, and ships each attempt over it
 * with the attempt codec (protocol.hh); the blast radius of any
 * crash, hang, or OOM is one attempt of one job.
 *
 * Supervision is synchronous: the thread that dispatched an attempt
 * waits for its answer itself. With a hard deadline it polls the
 * socket for the time left and, on expiry, SIGKILLs its own child (no
 * cooperation needed — the kill lands mid-instruction). A child
 * acknowledges each request before it simulates, so a worker that
 * died while idle is found at the next dispatch (EPIPE, or no
 * acknowledgement), reaped, respawned, and the attempt redispatched.
 * A death after the acknowledgement (EOF on the socket) is classified
 * from the wait status back into the engine's fault taxonomy:
 *
 *   watchdog SIGKILL           -> DeadlineExceeded   (retryable)
 *   SIGXCPU (RLIMIT_CPU)       -> DeadlineExceeded   (retryable)
 *   exit(kExitOom) / bad_alloc -> ResourceExhausted  (permanent)
 *   SIGKILL not from watchdog  -> ResourceExhausted  (kernel OOM)
 *   SIGSEGV/SIGABRT/SIGBUS/... -> PermanentFault     (with run key)
 *
 * so FaultPolicy retries, quarantine, degradation arbitration, and
 * journal resume behave identically under either isolation mode. The
 * dead worker is respawned before the classified fault is thrown, so
 * the pool never shrinks. Counters (engine.proc.respawns / sigkills /
 * oom_kills) and one trace span per worker lifetime make the
 * supervision auditable.
 */

#ifndef RIGOR_EXEC_PROC_WORKER_POOL_HH
#define RIGOR_EXEC_PROC_WORKER_POOL_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "exec/engine.hh"
#include "exec/proc/protocol.hh"

namespace rigor::obs
{
class MetricsRegistry;
class TraceWriter;
class Counter;
} // namespace rigor::obs

namespace rigor::exec::proc
{

/** Supervised pool of forked sandbox workers. */
class ProcWorkerPool
{
  public:
    struct Options
    {
        /** Sandbox worker processes; 0 is treated as 1. */
        unsigned workers = 1;
        /** Attempt executor run *inside* the children (inherited at
         *  fork); empty = the engine's default simulator. Fault
         *  injectors wrapped here therefore drill inside the
         *  sandbox. */
        SimulateFn simulate;
        /** Hook builder for jobs with makeHook; the children rebuild
         *  hooks from this instead of shipping closures over IPC. A
         *  hooked job on a pool without one fails permanent. */
        SandboxHookFactory hookFactory;
        /** Per-worker RLIMIT_AS cap in MiB; 0 = unlimited. */
        std::uint64_t memLimitMb = 0;
        /**
         * Hard per-attempt deadline: the dispatching thread SIGKILLs
         * a worker busy past it. Needs no cooperation from the
         * simulated code, unlike FaultPolicy::attemptDeadline (which
         * still works inside the sandbox and yields nicer diagnostics
         * — use both: cooperative slightly below hard). Zero
         * disables.
         */
        std::chrono::milliseconds hardDeadline{0};
    };

    /** Spawns the workers. SIGPIPE is ignored for the process
     *  lifetime (a dead child must surface as EPIPE, not kill the
     *  campaign). */
    explicit ProcWorkerPool(Options options);

    /** Closes every worker's socket (children exit their loops) and
     *  reaps every worker. */
    ~ProcWorkerPool();

    ProcWorkerPool(const ProcWorkerPool &) = delete;
    ProcWorkerPool &operator=(const ProcWorkerPool &) = delete;

    /**
     * The dispatch adapter to install via
     * SimulationEngine::setSimulate. The pool must outlive every
     * batch run through it.
     */
    SimulateFn simulateFn();

    /**
     * Ship one attempt to a free worker and block for its outcome.
     * Among free workers, one whose last answered job had the same
     * workload and stream length is preferred (its replay slot still
     * holds the stream), then one that has answered nothing since it
     * was spawned. Returns measured cycles, or throws the classified fault
     * (TransientFault / DeadlineExceeded / ResourceExhausted /
     * PermanentFault — see the file comment). Thread-safe; callers
     * beyond the worker count queue on a condition variable.
     */
    double execute(const SimJob &job, const AttemptContext &ctx);

    unsigned workers() const { return _options.workers; }

    /** Workers respawned after any death (all causes). */
    std::uint64_t respawns() const
    {
        return _respawns.load(std::memory_order_relaxed);
    }
    /** Watchdog hard-deadline SIGKILLs issued. */
    std::uint64_t sigkills() const
    {
        return _sigkills.load(std::memory_order_relaxed);
    }
    /** Deaths classified as memory exhaustion (kExitOom exits plus
     *  non-watchdog SIGKILLs). */
    std::uint64_t oomKills() const
    {
        return _oomKills.load(std::memory_order_relaxed);
    }

    /** Attach engine.proc.{respawns,sigkills,oom_kills} counters
     *  (not owned; nullptr detaches). */
    void setMetrics(obs::MetricsRegistry *metrics);

    /** Attach a trace sink: one "proc.worker" span per worker
     *  lifetime, closed at death or shutdown with its exit reason
     *  and jobs served (not owned; nullptr detaches). */
    void setTraceWriter(obs::TraceWriter *trace);

  private:
    /** One worker process and its bookkeeping (worker_pool.cc). */
    struct Slot;

    /** Close the dead worker's socket and span, fork a replacement.
     *  Caller holds _mutex and has already reaped the pid. */
    void respawnLocked(Slot &slot, const std::string &exit_reason);
    /** Close @p slot's lifetime trace span. Caller holds _mutex. */
    void closeSpanLocked(const Slot &slot,
                         const std::string &exit_reason);
    /** Count and throw the fault classified from @p status. Caller
     *  holds _mutex. Never returns. */
    [[noreturn]] void throwClassifiedLocked(int status,
                                            bool watchdog_killed,
                                            const std::string &identity);

    Options _options;
    std::vector<Slot> _slots;

    std::mutex _mutex;
    std::condition_variable _freeCv;

    std::atomic<std::uint64_t> _respawns{0};
    std::atomic<std::uint64_t> _sigkills{0};
    std::atomic<std::uint64_t> _oomKills{0};
    obs::Counter *_respawnCounter = nullptr;
    obs::Counter *_sigkillCounter = nullptr;
    obs::Counter *_oomCounter = nullptr;
    obs::TraceWriter *_trace = nullptr;
};

} // namespace rigor::exec::proc

#endif // RIGOR_EXEC_PROC_WORKER_POOL_HH
