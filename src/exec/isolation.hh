/**
 * @file
 * Isolation mode of a campaign's attempt executor.
 *
 * Thread isolation runs every attempt on the engine's own worker
 * threads: fast (no IPC), but a segfault, abort, uncontrolled
 * allocation, or non-cooperative infinite loop in one attempt takes
 * the whole campaign process down with it. Process isolation runs
 * each attempt inside a forked sandbox worker supervised by
 * exec::proc::ProcWorkerPool: a crash, OOM kill, or hard-deadline
 * SIGKILL costs exactly one attempt of one job — the worker is
 * respawned and the campaign keeps its completed cells. Remote
 * isolation shards attempts across a TCP worker fleet through
 * exec::net::CampaignController: a dead or stalled machine costs one
 * lease, reclaimed and requeued onto a healthy worker.
 */

#ifndef RIGOR_EXEC_ISOLATION_HH
#define RIGOR_EXEC_ISOLATION_HH

#include <string>

namespace rigor::exec
{

/** Where a campaign's simulation attempts execute. */
enum class IsolationMode
{
    /** In-process, on the engine's worker threads (the default). */
    Thread,
    /** In forked sandbox workers, one Unix socket each
     *  (crash-proof). */
    Process,
    /** On a TCP worker fleet behind a lease-granting controller. */
    Remote,
};

/** Display name ("thread" / "process" / "remote"). */
std::string toString(IsolationMode mode);

/** Parse "thread" / "process" / "remote"; false on anything else. */
bool parseIsolationMode(const std::string &text, IsolationMode &mode);

} // namespace rigor::exec

#endif // RIGOR_EXEC_ISOLATION_HH
