/**
 * @file
 * Worker side of the distributed campaign backend.
 *
 * runRemoteWorker connects to a CampaignController, handshakes
 * (Hello/HelloAck, an HMAC AuthProof when the controller demands one,
 * JoinAck), and serves leased jobs until the controller says
 * Shutdown or the connection dies: a heartbeat thread beacons at the
 * cadence the controller advertised, and `slots` executor threads
 * pull JobAssign frames off the connection's queue, run them through
 * the configured SimulateFn (the in-process simulator by default; a
 * ProcWorkerPool dispatch function for sandboxed execution; a
 * FaultInjector wrap for drills) through the attempt codec
 * (proc::runRequest), and answer JobDone with the same classified
 * JobResult a sandbox child sends.
 *
 * Network fault drills: a NetDrillFault thrown by the injector is
 * intercepted here and turned into the real misbehavior on the live
 * connection — DropConnection slams the socket shut mid-lease,
 * StallHeartbeat goes silent for twice the lease and then answers on
 * the (by now reclaimed) stale lease, CorruptFrame sends a
 * deliberately truncated frame — so the controller's reclaim and
 * late-result paths are testable deterministically.
 */

#ifndef RIGOR_EXEC_NET_REMOTE_WORKER_HH
#define RIGOR_EXEC_NET_REMOTE_WORKER_HH

#include <cstdint>
#include <string>

#include "exec/engine.hh"
#include "exec/proc/protocol.hh"

namespace rigor::exec::net
{

/** One worker's knobs. */
struct RemoteWorkerOptions
{
    /** Controller address. */
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    /** Concurrent jobs to hold (executor threads). */
    unsigned slots = 1;
    /** Worker identity recorded as cell provenance; empty =
     *  "hostname:pid". */
    std::string name;
    /**
     * Attempt executor; empty = the engine's deadline-guarded
     * in-process simulator. Pass a ProcWorkerPool::simulateFn() for
     * sandboxed execution, or a FaultInjector::wrap() for drills.
     */
    SimulateFn simulate;
    /** Rebuilds enhancement hooks for hasHook requests; a hooked
     *  request without one fails permanent. */
    proc::SandboxHookFactory hookFactory;
    /** Shared fleet token for the HMAC challenge-response; must
     *  match the controller's when it requires authentication. */
    std::string authToken;
};

/** Why the connection ended. */
enum class SessionEnd
{
    /** The controller sent Shutdown: clean campaign end. */
    Shutdown,
    /** EOF / I/O / protocol failure on the connection. */
    ConnectionLost,
    /** The controller rejected the handshake. */
    Rejected,
};

/** Display name ("shutdown" / "connection-lost" / "rejected"). */
std::string toString(SessionEnd end);

/** What one runRemoteWorker call did. */
struct RemoteWorkerSession
{
    SessionEnd end = SessionEnd::ConnectionLost;
    /** Jobs answered (accepted leases, any result status). */
    std::uint64_t jobsServed = 0;
    /** Rejection reason / connection error; empty on Shutdown. */
    std::string error;
};

/**
 * Serve one controller connection to completion (blocking). A broken
 * connection ends the call: the controller reclaims and requeues
 * whatever this worker held. Throws std::runtime_error only when the
 * connect fails; everything after that is reported in the returned
 * record.
 */
RemoteWorkerSession runRemoteWorker(const RemoteWorkerOptions &options);

} // namespace rigor::exec::net

#endif // RIGOR_EXEC_NET_REMOTE_WORKER_HH
